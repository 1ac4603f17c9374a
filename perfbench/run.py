"""Benchmark of the mgm command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree: the program is imported from
./src, nothing needs building. The seed makes the input files (see
workloads.py); each CLI invocation runs in a fresh process with the BLAS
pool pinned, one at a time, until the next one would end after S seconds
(at least one runs). Every invocation's outputs are checked; distances are
compared with scipy.linalg.subspace_angles on subspaces built from
`mgm embed` output of the same input.

--trace 0 reports the end-to-end metrics, each the median over the run's
invocations:
  run_s         wall seconds of main(argv) in the invocation's process
  cpu_s         CPU seconds of that process (all threads) during main(argv)
  peak_rss_mb   peak RSS of that process
  setup_s       seconds of `import mgm.cli` in a fresh process
  success_rate  share of invocations that exited 0 and passed every check,
                i.e. 1 - error rate, which is never 0 on a healthy run
--trace 1 alternates untraced and traced invocations (at least one of each)
and reports the per-layer table from the traced ones: `.calls`, `.s` and
`.self_s` per traced function (tracing.TARGETS) and `.s`, `.self_s` per
module, a few derived counters and the tracing overhead. A function the
workload does not call reads 0; a target the program no longer has is left
out and named under missing_targets in the report.

The pipeline workload's quality scores from summary.json (mgm_acc, mgm_ari,
baseline_pca_acc, baseline_avg_embedding_acc) go in the report line of
every run, not in the metrics: they exist on one workload only, and every
invocation of a run must reproduce them exactly or it counts as failed.

Standard output ends with two JSON lines: a self-describing report (also
saved under .perfbench_out/), then the result object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
from tracing import LAYERS, TARGETS, layer_table
from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# Every child is killed after this many seconds from the start of the run,
# so the run ends well inside three minutes even if the program hangs.
DEADLINE_S = 150.0
END_TO_END_UNITS = {
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric a traced run can report."""
    units = {}
    for target in TARGETS:
        units.update({f"{target}.calls": "count", f"{target}.s": "s", f"{target}.self_s": "s"})
    for layer in LAYERS:
        units.update({f"{layer}.s": "s", f"{layer}.self_s": "s"})
    units.update(
        {
            "pipeline.distance_matrix.pairs_per_s": "1/s",
            "data.load_matrix.bytes": "B",
            "experiment.output_bytes": "B",
            "experiment.output_files": "count",
            "trace.spans": "count",
            "trace.overhead_s": "s",
        }
    )
    return units


class ChildTimeout(Exception):
    pass


def _child_env(root: Path, threads: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _spawn(args: list[str], env: dict, log: Path, deadline: float) -> tuple[int, float]:
    """Run child.py with args; return its exit code and peak RSS in MB."""
    with open(log, "w") as handle:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            env=env, stdout=handle, stderr=subprocess.STDOUT,
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    raise ChildTimeout(f"killed after the run's {DEADLINE_S:.0f} s deadline")
                time.sleep(0.01)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _read_result(path: Path, root: Path) -> dict:
    result = json.loads(path.read_text())
    src = (root / "src").resolve()
    if not Path(result["mgm_file"]).resolve().is_relative_to(src):
        raise SystemExit(f"mgm was imported from {result['mgm_file']}, not from {src}")
    return result


def _stats(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def _median_or_same(values: list[float]) -> float:
    """The median, keeping a count that every traced invocation agrees on
    as the integer it is."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def _dir_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _environment(root: Path, workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None  # an exported source tree has no history
    if (root / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mgm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": workload.blas_threads,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "generator_seed": seed,
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, root: Path, workload, seed: int, seconds: float, trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.env = _child_env(root, workload.blas_threads)
        self.work = root / ".perfbench_work" / f"{workload.name}-s{seed}-{os.getpid()}"
        self.results = root / ".perfbench_out"
        self.deadline = time.monotonic() + DEADLINE_S
        self.invocations: list[dict] = []

    def _child(self, tag: str, args: list[str]) -> tuple[int, float, dict | None, str]:
        log, out = self.work / f"{tag}.log", self.work / f"{tag}.json"
        rc, rss = _spawn([str(out), *args], self.env, log, self.deadline)
        result = _read_result(out, self.root) if out.is_file() else None
        return rc, rss, result, log.read_text()[-2000:]

    def setup_times(self) -> list[float]:
        """Import seconds of every invocation, topped up to SETUP_REPEATS
        with processes that only import."""
        times = [inv["import_s"] for inv in self.invocations if "import_s" in inv]
        try:
            for k in range(SETUP_REPEATS - len(times)):
                rc, _, result, log = self._child(f"import{k}", ["import"])
                if rc != 0 or result is None:
                    raise SystemExit(f"import mgm.cli failed:\n{log}")
                times.append(result["import_s"])
        except ChildTimeout:
            if not times:
                raise SystemExit("import mgm.cli did not finish before the deadline")
        return times

    def _check(self, out_dir: Path) -> tuple[list[np.ndarray], dict]:
        w, m = self.workload, self.workload.samples
        if w.command == "pipeline":
            return checks.check_pipeline_output(out_dir, m, w.metric)
        if w.command == "mgm":
            return checks.check_mgm_output(out_dir, m, w.metric)
        return checks.check_embed_output(out_dir, m)

    def invoke(self, traced: bool) -> dict:
        n = len(self.invocations)
        out_dir = self.work / f"out{n}"
        args = ["run"]
        spans = self.work / f"spans{n}.npz"
        if traced:
            args += ["--spans", str(spans)]
        args += ["--", *self.workload.argv(self.data, self.labels, out_dir)]
        inv = {"traced": traced, "error": None, "matrices": [], "quality": {}}
        try:
            rc, inv["peak_rss_mb"], result, log = self._child(f"inv{n}", args)
            if result is None or rc != 0:
                raise checks.CheckError(f"exit code {rc}: {(result or {}).get('error') or log}")
            inv["import_s"], inv["run_s"], inv["cpu_s"] = (
                result["import_s"], result["run_s"], result["cpu_s"])
            inv["matrices"], inv["quality"] = self._check(out_dir)
            inv["output_files"], inv["output_bytes"] = _dir_size(out_dir)
            if traced:
                inv["table"], inv["missing"], inv["spans"] = layer_table(spans)
                self.results.mkdir(exist_ok=True)
                shutil.copyfile(spans, self.results / f"spans-{self.workload.name}-s{self.seed}.npz")
        except (checks.CheckError, ChildTimeout) as err:
            inv["error"] = str(err)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            spans.unlink(missing_ok=True)
        self.invocations.append(inv)
        return inv

    def check_against_reference(self) -> dict:
        """Compare every kept distance matrix with scipy on a fixed sample of
        pairs plus the smallest off-diagonal pairs."""
        w, m = self.workload, self.workload.samples
        ok = [inv for inv in self.invocations if inv["error"] is None and inv["matrices"]]
        if w.metric is None or not ok:
            return {}
        ref_dir = self.work / "reference"
        argv = ["embed", "--preset", w.preset, "--data", str(self.data),
                "--labels", str(self.labels), "--out-dir", str(ref_dir)]
        try:
            rc, _, result, log = self._child("reference", ["run", "--", *argv])
            if rc != 0:
                raise checks.CheckError(f"reference mgm embed failed: {log}")
            embeddings = checks.load_embeddings(ref_dir, m)
            pairs = np.unique(
                np.vstack([checks.fixed_pairs(m), checks.smallest_pairs(ok[0]["matrices"][0])]),
                axis=0,
            )
            reference = checks.reference_distances(embeddings, pairs, w.metric)
        except (checks.CheckError, ChildTimeout) as err:
            for inv in ok:
                inv["error"] = str(err)
            return {}
        worst = 0.0
        for inv in ok:
            try:
                for values in inv["matrices"]:
                    worst = max(worst, checks.compare_pairs(values, pairs, reference))
            except checks.CheckError as err:
                inv["error"] = str(err)
        return {"pairs": len(pairs), "smallest_reference": float(reference.min()),
                "max_abs_error": worst}

    def check_quality_repeats(self) -> None:
        """The program is deterministic: every invocation scores the same."""
        ok = [inv for inv in self.invocations if inv["error"] is None]
        for inv in ok[1:]:
            if inv["quality"] != ok[0]["quality"]:
                inv["error"] = f"quality {inv['quality']} differs from {ok[0]['quality']}"

    def execute(self) -> tuple[dict, dict]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            self.data, self.labels = write_inputs(self.workload, self.seed, self.work / "input")
            start = time.monotonic()
            while True:
                began = time.monotonic()
                self.invoke(traced=self.trace and len(self.invocations) % 2 == 1)
                took = time.monotonic() - began
                if time.monotonic() > self.deadline:
                    break
                if self.trace and len({inv["traced"] for inv in self.invocations}) < 2:
                    continue  # a traced run needs one invocation of each kind
                if time.monotonic() - start + took > self.seconds:
                    break
            setup = self.setup_times()
            reference = self.check_against_reference()
            self.check_quality_repeats()
            return self.summarize(setup, reference)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def summarize(self, setup: list[float], reference: dict) -> tuple[dict, dict]:
        invs = self.invocations
        failed = [inv for inv in invs if inv["error"] is not None]
        ok = [inv for inv in invs if inv["error"] is None]
        plain = [inv for inv in ok if not inv["traced"]] or [i for i in invs if "run_s" in i]
        stats = {
            key: _stats([inv[key] for inv in plain]) if plain else None
            for key in ("run_s", "cpu_s", "peak_rss_mb")
        }
        quality = ok[0]["quality"] if ok else {}
        report = {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "environment": _environment(self.root, self.workload, self.seed),
            "setup_s": _stats(setup),
            **stats,
            "invocations": len(invs),
            "failures": [inv["error"] for inv in failed],
            "reference": reference,
            "quality": quality,
        }
        if self.trace:
            metrics, units = self.layer_metrics(ok, report), per_layer_units()
        else:
            metrics, units = {}, END_TO_END_UNITS
            if plain:
                metrics.update({key: stats[key]["median"] for key in stats})
            metrics["setup_s"] = statistics.median(setup)
            metrics["success_rate"] = len(ok) / len(invs)
        result = {
            "correct": not failed and bool(ok),
            "attempted": len(invs),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return report, result

    def layer_metrics(self, ok: list[dict], report: dict) -> dict[str, float]:
        traced = [inv for inv in ok if inv["traced"]]
        plain = [inv for inv in ok if not inv["traced"]]
        if not traced:
            return {}
        metrics = {
            key: _median_or_same([inv["table"][key] for inv in traced])
            for key in traced[0]["table"]
        }
        if "pipeline.distance_matrix.s" in metrics:
            m, dist_s = self.workload.samples, metrics["pipeline.distance_matrix.s"]
            pairs = metrics["pipeline.distance_matrix.calls"] * m * (m - 1) / 2
            metrics["pipeline.distance_matrix.pairs_per_s"] = pairs / dist_s if dist_s > 0 else 0.0
        if "data.load_matrix.calls" in metrics:
            metrics["data.load_matrix.bytes"] = (
                metrics["data.load_matrix.calls"] * self.data.stat().st_size
            )
        metrics["experiment.output_bytes"] = traced[0]["output_bytes"]
        metrics["experiment.output_files"] = traced[0]["output_files"]
        metrics["trace.spans"] = _median_or_same([inv["spans"] for inv in traced])
        if plain:
            metrics["trace.overhead_s"] = statistics.median(
                inv["run_s"] for inv in traced
            ) - statistics.median(inv["run_s"] for inv in plain)
        report["missing_targets"] = traced[0]["missing"]
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mgm" / "cli.py").is_file():
        sys.stderr.write(f"no mgm source tree under {root}/src; run from the repository root\n")
        return 2
    workload = WORKLOADS[args.workload]
    report, result = Run(root, workload, args.seed, args.seconds, bool(args.trace)).execute()
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    name = f"{workload.name}-s{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({"report": report, "result": result}, indent=2) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
