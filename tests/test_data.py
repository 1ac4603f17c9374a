import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mgm.config import PipelineConfig
from mgm.data import load_labels, load_matrix, preprocess
from mgm.errors import DataError
from mgm.experiment import run_experiment


def write(path, text):
    path.write_text(text)
    return path


class TestLoadMatrix:
    def test_bare_numeric_csv(self, tmp_path):
        path = write(tmp_path / "m.csv", "1,2,3\n4,5,6\n")
        x = load_matrix(path)
        assert x.shape == (2, 3)
        assert np.array_equal(x, [[1, 2, 3], [4, 5, 6]])

    def test_header_and_id_column(self, tmp_path):
        path = write(
            tmp_path / "m.csv",
            "id,geneA,geneB\ncell1,1,2\ncell2,3,4\n",
        )
        x = load_matrix(path)
        assert x.shape == (2, 2)
        assert np.array_equal(x, [[1, 2], [3, 4]])

    def test_header_without_corner_cell(self, tmp_path):
        path = write(
            tmp_path / "m.csv",
            "geneA,geneB\ncell1,1,2\ncell2,3,4\n",
        )
        x = load_matrix(path)
        assert x.shape == (2, 2)
        assert np.array_equal(x, [[1, 2], [3, 4]])

    def test_header_without_ids(self, tmp_path):
        path = write(tmp_path / "m.csv", "geneA,geneB\n1,2\n3,4\n")
        x = load_matrix(path)
        assert x.shape == (2, 2)
        assert np.array_equal(x, [[1, 2], [3, 4]])

    def test_ids_without_header(self, tmp_path):
        path = write(tmp_path / "m.csv", "cell1,1,2\ncell2,3,4\n")
        x = load_matrix(path)
        assert x.shape == (2, 2)
        assert np.array_equal(x, [[1, 2], [3, 4]])

    def test_tsv(self, tmp_path):
        path = write(tmp_path / "m.tsv", "id\tg1\tg2\nc1\t1\t2\nc2\t3\t4\n")
        x = load_matrix(path, fmt="tsv")
        assert x.shape == (2, 2)
        assert np.array_equal(x, [[1, 2], [3, 4]])

    def test_samples_as_columns(self, tmp_path):
        # genes in rows, cells in columns; loading flips it
        path = write(
            tmp_path / "m.csv",
            "gene,cell1,cell2,cell3\ng1,1,2,3\ng2,4,5,6\n",
        )
        x = load_matrix(path, orientation="samples-as-columns")
        assert x.shape == (3, 2)
        assert np.array_equal(x, [[1, 4], [2, 5], [3, 6]])

    def test_parse_error_positions_are_one_based(self, tmp_path):
        path = write(tmp_path / "m.csv", "id,g1,g2\nc1,1,2\nc2,3,oops\n")
        with pytest.raises(DataError, match=r"non-numeric value .* at \(3, 3\)"):
            load_matrix(path)

    def test_parse_error_without_header(self, tmp_path):
        path = write(tmp_path / "m.csv", "1,2\n3,x\n")
        with pytest.raises(DataError, match=r"non-numeric value .* at \(2, 2\)"):
            load_matrix(path)

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path / "m.csv", "1,2,3\n4,5\n")
        with pytest.raises(DataError, match="row 2"):
            load_matrix(path)

    def test_ragged_header(self, tmp_path):
        path = write(tmp_path / "m.csv", "g1,g2,g3,g4,g5\nc1,1,2\nc2,3,4\n")
        with pytest.raises(DataError, match="header"):
            load_matrix(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "m.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_matrix(path)
        path = write(tmp_path / "m.csv", "g1,g2\n")
        with pytest.raises(DataError, match="has a header but no data rows"):
            load_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_matrix(tmp_path / "absent.csv")

    def test_bad_format_rejected(self, tmp_path):
        path = write(tmp_path / "m.csv", "1,2\n")
        with pytest.raises(DataError, match="format"):
            load_matrix(path, fmt="parquet")

    def test_bad_orientation_rejected(self, tmp_path):
        path = write(tmp_path / "m.csv", "1,2\n")
        with pytest.raises(DataError, match="orientation"):
            load_matrix(path, orientation="sideways")

    def test_labels_loaded_alongside(self, tmp_path):
        mpath = write(tmp_path / "m.csv", "1,2\n3,4\n5,6\n")
        lpath = write(tmp_path / "labels.txt", "a\n\nb\na\n")
        x = load_matrix(mpath)
        assert load_labels(lpath, expected=len(x)) == ("a", "b", "a")

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path / "m.csv", "1,2\nnan,4\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*non-finite"):
            load_matrix(path)

    def test_whitespace_separated_file_is_named(self, tmp_path):
        # One non-numeric cell per row: a header and an id column with no
        # value column beside them.
        path = write(tmp_path / "m.csv", "1 2\n3 4\n5 6\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: .*got shape \(2, 0\)"):
            load_matrix(path)


class TestStreamingLoader:
    @pytest.mark.parametrize("header", [False, True])
    def test_utf8_bom_is_not_part_of_the_first_cell(self, tmp_path, header):
        text = ("g1,g2,g3\n" if header else "") + "1,2,3\n4,5,6\n7,8,9\n"
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        x = load_matrix(path)
        assert x.shape == (3, 3)
        assert np.array_equal(x, np.arange(1.0, 10.0).reshape(3, 3))

    def test_values_match_float_per_token(self, tmp_path):
        rng = np.random.default_rng(0)
        numbers = rng.standard_normal((30, 8)) * 10.0 ** rng.integers(-9, 10, size=(30, 8))
        formats = ["%.17g", "%+.6e", "%.3f", "%.4E", "%g", "%+.2f"]
        tokens = [
            [formats[(i + j) % len(formats)] % v for j, v in enumerate(row)]
            for i, row in enumerate(numbers)
        ]
        tokens[0][:4] = ["-0", "+7", "1e3", "-2.5E-3"]
        tokens[1][:3] = [" 4.5 ", "\t-1\t", ".5"]
        cells = [row.copy() for row in tokens]
        cells[0][4] = '"' + tokens[0][4] + '"'
        tokens[2][0] = " 3.25 "
        cells[2][0] = '" 3.25 "'
        lines = ["id," + ",".join(f"g{j}" for j in range(8))]
        for i, row in enumerate(cells):
            lines.append(f"c{i}," + ",".join(row))
            if i % 7 == 3:
                lines.append("")
        path = tmp_path / "m.csv"
        path.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode())
        x = load_matrix(path)
        want = np.array([[float(tok) for tok in row] for row in tokens])
        assert x.shape == (30, 8)
        assert np.array_equal(x, want)

    def test_bad_token_in_last_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"id,g1,g2\r\nc1,1,2\r\n\r\nc2,3,4e")
        with pytest.raises(DataError, match="non-numeric value") as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: non-numeric value '4e' at (3, 3)"

    def test_ragged_last_row(self, tmp_path):
        path = write(tmp_path / "m.csv", "1,2,3\n4,5,6\n7,8\n")
        with pytest.raises(DataError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: row 3 has 2 cells, expected 3"

    def test_ragged_row_reported_before_earlier_bad_token(self, tmp_path):
        path = write(tmp_path / "m.csv", "1,2,3\n4,x,6\n7,8\n")
        with pytest.raises(DataError, match="row 3"):
            load_matrix(path)

    def test_non_utf8_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes("id,g\u00e8ne\nc1,1\n".encode("latin-1"))
        with pytest.raises(DataError, match="cannot read"):
            load_matrix(path)
        labels = tmp_path / "labels.txt"
        labels.write_bytes("caf\u00e9\n".encode("latin-1"))
        with pytest.raises(DataError, match="cannot read"):
            load_labels(labels)

    def test_peak_memory_below_three_arrays(self, tmp_path):
        path = tmp_path / "m.csv"
        values = np.random.default_rng(0).uniform(0.0, 100.0, size=(2000, 300))
        np.savetxt(path, values, fmt="%.6f", delimiter=",")
        tracemalloc.start()
        try:
            x = load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (2000, 300)
        assert peak < 3 * x.nbytes

    @pytest.mark.parametrize(
        "orientation, bound", [("samples-as-rows", 1.25), ("samples-as-columns", 2.1)]
    )
    def test_peak_memory_near_one_matrix(self, tmp_path, orientation, bound):
        # One array filled row by row; samples-as-columns adds its transpose
        # copy. A list of per-row arrays stacked at the end peaked at 2.15.
        counts = np.random.default_rng(1).integers(0, 1000, size=(2000, 300))
        lines = ["cell," + ",".join(f"g{j}" for j in range(300))]
        lines += [f"c{i}," + ",".join(map(str, row)) for i, row in enumerate(counts.tolist())]
        path = write(tmp_path / "m.csv", "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            x = load_matrix(path, orientation=orientation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = counts if orientation == "samples-as-rows" else counts.T
        assert x.shape == want.shape
        assert np.array_equal(x, want)
        assert peak <= bound * x.nbytes

    def test_quoted_line_break_leaves_fewer_rows_than_lines(self, tmp_path):
        path = write(tmp_path / "m.csv", '"gene\nA",geneB\n1,2\n\n3,4\n')
        x = load_matrix(path)
        assert x.flags.owndata
        assert np.array_equal(x, [[1, 2], [3, 4]])


def load_both_ways(monkeypatch, path, **kwargs):
    """load_matrix's result, or its error message, first as it chooses its
    parser, then with np.loadtxt raising so the csv row loop reads the
    file; and whether np.loadtxt returned the first result."""
    real, returned = np.loadtxt, []

    def spy(*args, **kw):
        returned.append(real(*args, **kw))
        return returned[-1]

    def refuse(*args, **kw):
        raise ValueError("row loop forced")

    results = []
    for loadtxt in (spy, refuse):
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        try:
            results.append(load_matrix(path, **kwargs))
        except DataError as err:
            results.append(str(err))
    monkeypatch.setattr(np, "loadtxt", real)
    return results[0], results[1], bool(returned)


class TestLoaderPaths:
    """np.loadtxt reads a file with no quote and the same number of cells
    on every data line; the csv row loop reads every other file, and every
    file np.loadtxt rejects. Each case loads to the same bits, or fails with
    the same message, either way."""

    @pytest.mark.parametrize(
        "text, fmt, fast, want",
        [
            # An extra cell in one row under an id column: usecols alone
            # would load the first two values of that row.
            ("cell,g0,g1\nc0,1,2\nc1,3,4,5\n", "csv", False, "row 3 has 4 cells, expected 3"),
            ('g0,g1\n"1.5",2\n3,4\n', "csv", False, [[1.5, 2], [3, 4]]),
            ("\n1,2\n\n\n3,4\n\n", "csv", True, [[1, 2], [3, 4]]),
            ("1,2\n\n3,4\n   \n5,6\n", "csv", False, "row 3 has 1 cells, expected 2"),
            ("1\n\n3\n   \n5\n", "csv", False, "non-numeric value '   ' at (3, 1)"),
            ("\ufeffg0,g1\r\n1,2\r\n\r\n3,4\r\n", "csv", True, [[1, 2], [3, 4]]),
            ("cell,g#0,g1\nc#0,1,2\n#c1,3,4\n", "csv", True, [[1, 2], [3, 4]]),
            ("\tg0\tg1\nc0\t1\t2\nc1\t3\t4\n", "tsv", True, [[1, 2], [3, 4]]),
            ("g0,g1\n0,1,2\n1,3,4\n", "csv", True, [[1, 2], [3, 4]]),
            ("1_000,2\n\uff13,4\n", "csv", False, [[1000, 2], [3, 4]]),
            ("cell,g0,g1\nc0,1,x\nc1,3,4\n", "csv", False, "non-numeric value 'x' at (2, 3)"),
            ("cell,g0,g1\nc0,1,\nc1,3,4\n", "csv", False, "non-numeric value '' at (2, 3)"),
        ],
    )
    def test_both_paths_agree(self, tmp_path, monkeypatch, text, fmt, fast, want):
        path = tmp_path / "m.txt"
        path.write_bytes(text.encode())
        first, loop, used_loadtxt = load_both_ways(monkeypatch, path, fmt=fmt)
        assert used_loadtxt is fast
        if isinstance(want, str):
            assert first == loop == f"{path}: {want}"
        else:
            assert first.tobytes() == loop.tobytes() == np.array(want, dtype=float).tobytes()

    def test_blank_lines_raise_no_warning(self, tmp_path):
        # np.loadtxt warns when a blank line does not count towards max_rows.
        path = write(tmp_path / "m.csv", "g0,g1\n\n1,2\n\n3,4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_matrix(path).tolist() == [[1, 2], [3, 4]]

    def test_loadtxt_matches_float_bit_for_bit(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        formats = ["%.17g", "%.6f", "%+.6e", "%g", "%.3E"]
        numbers = rng.standard_normal((400, 100)) * 10.0 ** rng.integers(-12, 13, size=(400, 100))
        tokens = [[formats[j % len(formats)] % v for j, v in enumerate(row)] for row in numbers]
        path = tmp_path / "m.csv"
        path.write_text("".join(",".join(row) + "\n" for row in tokens))
        first, loop, used_loadtxt = load_both_ways(monkeypatch, path)
        want = np.array([[float(tok) for tok in row] for row in tokens])
        assert used_loadtxt
        assert first.tobytes() == loop.tobytes() == want.tobytes()


# One 3x4 matrix written in each layout: header row none, text names or
# numeric names (pandas' default column names); id column none, numeric
# (pandas' default index) or text; and, where both are present, a blank or
# named corner cell.
_VALUES = np.array([[5.0, 6.5, 7.0, 0.0], [8.0, 9.0, 10.0, 1.0], [0.5, 2.0, 3.0, 4.0]])
_FEATURE_IDS = {"text": ("g0", "g1", "g2", "g3"), "numeric": ("0", "1", "2", "3")}
_SAMPLE_IDS = {"text": ("c0", "c1", "c2"), "numeric": ("0", "1", "2")}
_LAYOUTS = [
    (header, ids, corner)
    for header in (None, "text", "numeric")
    for ids in (None, "numeric", "text")
    for corner in (("blank", "named") if header and ids else (None,))
]
_READABLE = [lay for lay in _LAYOUTS if lay[2] == "blank" or "numeric" not in lay[:2]]


def _layout_text(header, ids, corner) -> str:
    lines = []
    if header is not None:
        corner_cell = [] if ids is None else ["" if corner == "blank" else "id"]
        lines.append(",".join(corner_cell + list(_FEATURE_IDS[header])))
    for i, row in enumerate(_VALUES):
        id_cell = [] if ids is None else [_SAMPLE_IDS[ids][i]]
        lines.append(",".join(id_cell + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


class TestLayouts:
    # A numeric header row or id column is told from data only by a blank
    # corner cell; every other layout is told by a non-numeric cell.
    @pytest.mark.parametrize("layout", _READABLE, ids=str)
    def test_round_trip(self, tmp_path, layout):
        path = write(tmp_path / "m.csv", _layout_text(*layout))
        x = load_matrix(path)
        assert x.shape == _VALUES.shape
        assert np.array_equal(x, _VALUES)

    @pytest.mark.parametrize(
        "layout", [lay for lay in _LAYOUTS if lay not in _READABLE], ids=str
    )
    def test_numeric_names_without_a_blank_corner_are_data(self, tmp_path, layout):
        # Without a blank corner, a numeric header row loads as the first
        # sample (a named corner becomes its id), and numeric ids under no
        # header or a text header load as the first value column.
        header, ids, _ = layout
        path = write(tmp_path / "m.csv", _layout_text(*layout))
        x = load_matrix(path)
        if header == "numeric":
            want = np.vstack([np.arange(4.0), _VALUES])
        else:
            want = np.column_stack([np.arange(3.0), _VALUES])
        assert np.array_equal(x, want)

    def test_pandas_default_layout(self, tmp_path):
        path = write(tmp_path / "m.csv", ",0,1,2\n0,5,6,7\n1,8,9,10\n")
        x = load_matrix(path)
        assert x.shape == (2, 3)
        assert np.array_equal(x, [[5, 6, 7], [8, 9, 10]])

    def test_blank_first_cell_makes_the_first_row_a_header(self, tmp_path):
        # The one layout whose reading changed: without a header this file
        # used to load three samples, the first with id ''.
        path = write(tmp_path / "m.csv", ",1,2\n3,4,5\n6,7,8\n")
        x = load_matrix(path)
        assert x.shape == (2, 2)
        assert np.array_equal(x, [[4, 5], [7, 8]])

    def test_header_one_cell_short_sits_over_numeric_ids(self, tmp_path):
        # R's read.table rule: the short header leaves the first column as ids
        path = write(tmp_path / "m.csv", "g0,g1\n0,5,6\n1,8,9\n")
        x = load_matrix(path)
        assert x.shape == (2, 2)
        assert np.array_equal(x, [[5, 6], [8, 9]])

    @pytest.mark.parametrize("ids", ["0,1", "c0,c1"])
    def test_other_header_widths_name_each_expected_width_once(self, tmp_path, ids):
        first, second = ids.split(",")
        text = f"g0,g1,g2,g3\n{first},5,6\n{second},8,9\n"
        path = write(tmp_path / "m.csv", text)
        with pytest.raises(DataError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: header has 4 cells, expected 3 or 2"


class TestLoadLabels:
    def test_utf8_bom_is_not_part_of_the_first_label(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_bytes(b"\xef\xbb\xbfa\nb\n")
        assert load_labels(path) == ("a", "b")

    def test_expected_count_enforced(self, tmp_path):
        path = write(tmp_path / "labels.txt", "a\nb\n")
        with pytest.raises(DataError, match="2 labels for 3 samples"):
            load_labels(path, expected=3)

    def test_empty_rejected(self, tmp_path):
        path = write(tmp_path / "labels.txt", "\n\n")
        with pytest.raises(DataError):
            load_labels(path)


class TestPreprocess:
    def test_normalization_fixture(self):
        # row totals 10 and 30, median 20: rows scale by 2 and 2/3
        x = np.array([[4.0, 6.0], [12.0, 18.0]])
        out = preprocess(x, normalize=True, log_transform=False)
        assert np.allclose(out, [[8.0, 12.0], [8.0, 12.0]])

    def test_zero_rows_stay_zero(self):
        x = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
        out = preprocess(x, normalize=True, log_transform=False)
        assert np.array_equal(out[0], [0.0, 0.0])

    def test_negative_values_rejected(self):
        x = np.array([[1.0, -2.0]])
        with pytest.raises(DataError, match="requires nonnegative values"):
            preprocess(x, normalize=True, log_transform=False)

    def test_log_transform(self):
        x = np.array([[0.0, np.e - 1.0]])
        out = preprocess(x, normalize=False, log_transform=True)
        assert np.allclose(out, [[0.0, 1.0]])

    def test_log_transform_guards_domain(self):
        x = np.array([[-2.0, 1.0]])
        with pytest.raises(DataError, match="log1p"):
            preprocess(x, normalize=False, log_transform=True)

    def test_top_features_keeps_original_order(self):
        rng = np.random.default_rng(0)
        values = np.column_stack(
            [
                rng.normal(0, 0.1, size=20),
                rng.normal(0, 5.0, size=20),
                rng.normal(0, 0.2, size=20),
                rng.normal(0, 3.0, size=20),
            ]
        )
        x = values
        out = preprocess(x, normalize=False, log_transform=False, top_features=2)
        assert out.shape == (20, 2)
        assert np.array_equal(out, values[:, [1, 3]])

    def test_top_features_bounds(self):
        x = np.ones((3, 4))
        with pytest.raises(DataError):
            preprocess(x, normalize=False, log_transform=False, top_features=0)
        with pytest.raises(DataError):
            preprocess(x, normalize=False, log_transform=False, top_features=5)

    def test_variance_ties_break_by_column_position(self):
        # Three columns of variance 1/4 each: the first two are kept.
        values = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 6.0]])
        x = values
        out = preprocess(x, normalize=False, log_transform=False, top_features=2)
        assert np.array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_works_in_place_on_the_copy_it_hands_over(self):
        # Beside that copy: a boolean mask, 1/8 of a matrix, at a time. A
        # fancy-indexed row scaling and a new log1p array were two more.
        counts = np.random.default_rng(9).poisson(2.0, size=(1000, 500)).astype(float)
        counts[3] = 0.0
        x = counts
        tracemalloc.start()
        try:
            out = preprocess(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.flags.owndata and not out.flags.writeable
        assert peak <= 1.25 * x.nbytes
        totals = counts.sum(axis=1)
        want = counts.copy()
        want[totals > 0] *= np.median(totals) / totals[totals > 0, None]
        assert out.tobytes() == np.log1p(want).tobytes()


class TestExpressionMatrix:
    """The expression matrix as the stages hand it on: the read-only array
    that load_matrix and preprocess return, checked where it enters."""

    def test_values_read_only(self, tmp_path):
        x = load_matrix(write(tmp_path / "m.csv", "1,2\n3,4\n"))
        for values in (x, preprocess(x), preprocess(np.ones((2, 2)))):
            with pytest.raises(ValueError):
                values[0, 0] = 5.0

    @pytest.mark.parametrize("orientation", ["samples-as-rows", "samples-as-columns"])
    def test_loaded_values_own_their_data(self, tmp_path, orientation):
        path = write(tmp_path / "m.csv", "1,2,3\n4,5,6\n")
        x = load_matrix(path, orientation=orientation)
        assert x.flags.owndata and not x.flags.writeable and x.flags.c_contiguous

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.ones(3), r"must be 2-d and nonempty, got shape \(3,\)"),
            (np.ones((0, 2)), r"must be 2-d and nonempty, got shape \(0, 2\)"),
            (np.ones((2, 0)), r"must be 2-d and nonempty, got shape \(2, 0\)"),
            (np.array([[1.0, np.nan]]), "matrix contains non-finite values"),
            (np.array([[1.0, np.inf]]), "matrix contains non-finite values"),
        ],
    )
    def test_preprocess_checks_its_input(self, values, message):
        with pytest.raises(DataError, match=message):
            preprocess(values, normalize=False, log_transform=False)

    def test_preprocess_checks_its_result(self):
        # Row totals that overflow to inf scale a row by inf / inf.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError, match="matrix contains non-finite values"):
                preprocess(np.full((3, 2), 1e308), log_transform=False)

    def test_preprocess_hands_over_c_order(self):
        # A Fortran-ordered input gives its C-ordered copy's bytes; numpy
        # sums a row along a strided axis in another order.
        counts = np.random.default_rng(4).poisson(3.0, size=(40, 300)).astype(float)
        for top_features in (None, 30):
            out = preprocess(np.asfortranarray(counts), top_features=top_features)
            assert out.flags.c_contiguous and out.flags.owndata
            assert out.tobytes() == preprocess(counts, top_features=top_features).tobytes()

    def test_label_length_checked(self):
        with pytest.raises(DataError, match="1 labels for 2 samples"):
            run_experiment(np.ones((2, 2)), PipelineConfig(), labels=("a",))
