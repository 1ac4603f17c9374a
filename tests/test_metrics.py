import math

import numpy as np
import pytest

from mgm.errors import DataError
from mgm.metrics import accuracy, ari, avg_purity, evaluate, nmi, purity

from oracles import accuracy_by_csgraph, accuracy_by_enumeration, ari_by_pair_counting


def random_labels(rng, m, k):
    return rng.integers(0, k, size=m)


class TestAccuracy:
    def test_matches_enumeration_oracle(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 11))
            kp = int(rng.integers(1, 5))
            kt = int(rng.integers(1, 5))
            pred = random_labels(rng, m, kp)
            truth = random_labels(rng, m, kt)
            assert abs(accuracy(pred, truth) - accuracy_by_enumeration(pred, truth)) < 1e-12

    def test_matches_oracle_on_rectangular_tables_with_zero_cells(self, rng):
        # Up to 6 predicted x 4 true clusters over at most 8 samples, so
        # most cells of the contingency table are zero.
        for _ in range(300):
            m = int(rng.integers(1, 9))
            pred = random_labels(rng, m, int(rng.integers(1, 7)))
            truth = random_labels(rng, m, int(rng.integers(1, 5)))
            assert accuracy(pred, truth) == accuracy_by_enumeration(pred, truth)

    @pytest.mark.parametrize("shape", ["square", "rectangular"])
    def test_matches_csgraph_matching(self, rng, shape):
        # Tables up to 50 x 50 whose cells take a few small values, so ties
        # abound, and whose sparse ones are mostly zero.
        for _ in range(40):
            rows, cols = (int(k) for k in rng.integers(1, 51, size=2))
            if shape == "square":
                cols = rows
            table = rng.integers(0, int(rng.integers(2, 5)), size=(rows, cols))
            table *= rng.random((rows, cols)) < rng.choice([0.1, 0.5, 1.0])
            table[0, 0] += 1  # at least one sample
            assert accuracy.of_table(table) == accuracy_by_csgraph(table)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_single_row_and_single_column_tables(self, n):
        spread = list(range(n)) * 2
        same = [0] * len(spread)
        assert accuracy(same, spread) == accuracy_by_enumeration(same, spread) == 2 / len(spread)
        assert accuracy(spread, same) == accuracy_by_enumeration(spread, same) == 2 / len(spread)

    def test_optimum_through_a_zero_cell(self):
        # Contingency table [[5, 1], [1, 0]]: the best matching pairs the 5
        # with the zero cell. A solver that reads zero cells as missing
        # edges can only take the two 1s and would report 2/7.
        pred = [0] * 6 + [1]
        truth = [0] * 5 + [1, 0]
        assert accuracy(pred, truth) == accuracy_by_enumeration(pred, truth) == 5 / 7

    def test_perfect_and_permuted(self):
        truth = [0, 0, 1, 1, 2, 2]
        assert accuracy(truth, truth) == 1.0
        # any relabeling of the same partition scores 1.0
        assert accuracy([2, 2, 0, 0, 1, 1], truth) == 1.0

    def test_more_clusters_than_classes(self):
        truth = [0, 0, 0, 1, 1, 1]
        pred = [0, 0, 1, 2, 2, 2]
        # best mapping keeps 5 of 6 samples
        assert abs(accuracy(pred, truth) - 5.0 / 6.0) < 1e-12

    def test_string_labels_accepted(self):
        assert accuracy(["a", "a", "b"], [1, 1, 2]) == 1.0


class TestNmi:
    def test_hand_fixture(self):
        pred = [0, 0, 1, 1]
        truth = [0, 1, 1, 1]
        # H(pred) = log 2, H(truth) = (3/4) log(4/3) + (1/4) log 4,
        # I = sum over the 3 nonzero cells of the 2x2 table
        h_pred = math.log(2.0)
        h_truth = 0.75 * math.log(4.0 / 3.0) + 0.25 * math.log(4.0)
        info = (
            0.25 * math.log(0.25 / (0.5 * 0.25))
            + 0.25 * math.log(0.25 / (0.5 * 0.75))
            + 0.5 * math.log(0.5 / (0.5 * 0.75))
        )
        want = info / math.sqrt(h_pred * h_truth)
        assert abs(nmi(pred, truth) - want) < 1e-12

    def test_identical_partitions(self, rng):
        for _ in range(10):
            labels = random_labels(rng, 20, 3)
            assert nmi(labels, labels) == pytest.approx(1.0)

    def test_independent_partitions_score_low(self):
        rng = np.random.default_rng(0)
        pred = random_labels(rng, 5000, 2)
        truth = random_labels(rng, 5000, 2)
        assert nmi(pred, truth) < 0.01

    def test_both_trivial(self):
        assert nmi([0, 0, 0], [5, 5, 5]) == 1.0

    def test_one_trivial(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0
        assert nmi([0, 1, 0, 1], [0, 0, 0, 0]) == 0.0

    def test_bounded(self, rng):
        for _ in range(30):
            pred = random_labels(rng, 15, 4)
            truth = random_labels(rng, 15, 3)
            value = nmi(pred, truth)
            assert 0.0 <= value <= 1.0


class TestAri:
    def test_matches_pair_oracle(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 9))
            pred = random_labels(rng, m, int(rng.integers(1, 4)))
            truth = random_labels(rng, m, int(rng.integers(1, 4)))
            assert abs(ari(pred, truth) - ari_by_pair_counting(pred, truth)) < 1e-12

    def test_identical_partitions(self, rng):
        labels = random_labels(rng, 25, 4)
        assert ari(labels, labels) == pytest.approx(1.0)

    def test_single_cluster_against_split(self):
        # expected index equals the maximum: identical all-in-one partitions
        assert ari([0, 0, 0, 0], [0, 0, 0, 0]) == 1.0
        # one side trivial, the other not: no agreement beyond chance
        assert ari([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_singletons_vs_singletons(self):
        assert ari([0, 1, 2], [2, 0, 1]) == 1.0

    def test_independent_partitions_near_zero(self):
        rng = np.random.default_rng(1)
        pred = random_labels(rng, 5000, 3)
        truth = random_labels(rng, 5000, 3)
        assert abs(ari(pred, truth)) < 0.01

    def test_known_value(self):
        # 2x2 table [[2, 1], [0, 3]]: index 4, expected 14/5, max 13/2
        pred = [0, 0, 0, 1, 1, 1]
        truth = [0, 0, 1, 1, 1, 1]
        want = (4.0 - 14.0 / 5.0) / (13.0 / 2.0 - 14.0 / 5.0)
        assert want == pytest.approx(12.0 / 37.0)
        assert abs(ari(pred, truth) - want) < 1e-12


class TestPurity:
    def test_hand_fixture(self):
        pred = [0, 0, 0, 1, 1, 2]
        truth = [0, 0, 1, 1, 1, 1]
        # majorities: 2 of 3, 2 of 2, 1 of 1
        assert purity(pred, truth) == pytest.approx(5.0 / 6.0)
        # per-cluster purities: 2/3, 1, 1
        assert avg_purity(pred, truth) == pytest.approx((2.0 / 3.0 + 1.0 + 1.0) / 3.0)

    def test_perfect(self, rng):
        labels = random_labels(rng, 12, 3)
        assert purity(labels, labels) == 1.0
        assert avg_purity(labels, labels) == 1.0

    def test_weighting_differs_from_mean(self):
        # one large impure cluster, one small pure one
        pred = [0] * 8 + [1] * 2
        truth = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        assert purity(pred, truth) == pytest.approx(6.0 / 10.0)
        assert avg_purity(pred, truth) == pytest.approx((0.5 + 1.0) / 2.0)

    def test_single_cluster(self):
        assert purity([0, 0, 0, 0], [0, 1, 1, 1]) == pytest.approx(0.75)


class TestEvaluate:
    def test_report_fields(self, rng):
        pred = random_labels(rng, 30, 3)
        truth = random_labels(rng, 30, 3)
        report = evaluate(pred, truth)
        assert report.acc == accuracy(pred, truth)
        assert report.nmi == nmi(pred, truth)
        assert report.ari == ari(pred, truth)
        assert report.purity == purity(pred, truth)
        assert report.avg_purity == avg_purity(pred, truth)
        payload = report.to_dict()
        assert set(payload) == {"acc", "nmi", "ari", "purity", "avg_purity"}

    @pytest.mark.parametrize("fn", [accuracy, nmi, ari, purity, avg_purity, evaluate])
    def test_length_mismatch(self, fn):
        with pytest.raises(DataError, match="differ in length: 2 vs 3"):
            fn([0, 1], [0, 1, 2])
        with pytest.raises(DataError, match="must be 1-d"):
            fn([[0, 1]], [[0, 1]])

    @pytest.mark.parametrize("fn", [accuracy, nmi, ari, purity, avg_purity, evaluate])
    def test_empty_rejected(self, fn):
        with pytest.raises(DataError, match="must be nonempty"):
            fn([], [])
