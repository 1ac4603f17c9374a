"""One measured process: time `import mgm.cli`, or call `mgm.cli.main(argv)`.

    python3 perfbench/child.py RESULT.json import
    python3 perfbench/child.py RESULT.json run [--spans FILE.npz] -- ARGV...

The result file gets the seconds `import mgm.cli` took, where mgm was
imported from and, for run, the wall and process-CPU seconds of main(argv)
and its return code or exception. With --spans the mgm modules are traced
and the spans are saved there after main returns. The parent sets
PYTHONPATH and the BLAS pool size.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _import_cli() -> dict:
    start = time.perf_counter()
    import mgm.cli

    return {"import_s": time.perf_counter() - start, "mgm_file": mgm.cli.__file__}


def _run(args: list[str]) -> dict:
    spans = None
    if args[:1] == ["--spans"]:
        spans, args = args[1], args[2:]
    if args[:1] != ["--"]:
        raise SystemExit("child.py run: expected '--' before the mgm arguments")
    argv = args[1:]

    result = _import_cli()
    import mgm.cli

    tracer = None
    if spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result.update(rc=None, error=None)
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result["rc"] = mgm.cli.main(argv)
    except SystemExit as err:  # argparse rejects the arguments
        result["error"] = f"SystemExit({err.code!r})"
    except Exception:
        result["error"] = traceback.format_exc(limit=5)
    result["run_s"] = time.perf_counter() - wall
    result["cpu_s"] = time.process_time() - cpu
    if tracer is not None:
        tracer.save(spans)
        result["missing"] = tracer.missing
    return result


def main() -> int:
    out, mode, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    result = _import_cli() if mode == "import" else _run(rest)
    with open(out, "w") as handle:
        json.dump(result, handle)
    return 0 if result.get("rc", 0) == 0 and not result.get("error") else 1


if __name__ == "__main__":
    sys.exit(main())
