"""Triage benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mm_mixed --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. Prints the metrics by name with their units, a metadata
line, and as the last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run and
writes its spans under ``.perfbench/``. Workloads and metrics are described
in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _single_blas_thread() -> None:
    """One client, one thread: BLAS runs in the benchmark's own thread, so a
    busy second core of a shared VM cannot stall a BLAS call. Must run
    before numpy is imported."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**30:
        parser.error("--seed must be in [0, 2**30)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "tickettriage" / "__init__.py").is_file():
        print(f"error: no tickettriage package under {SRC}", file=sys.stderr)
        return 2

    _single_blas_thread()
    sys.path[:0] = [str(SRC), str(ROOT)]
    import tickettriage
    if not Path(tickettriage.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: tickettriage imported from {tickettriage.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import harness, tracing
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workdir = OUT / f"run-{os.getpid()}"
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result, report = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                                     bool(args.trace), str(workdir), str(OUT), str(trace_path))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {name: unit for name, unit, _ in
             harness.END_TO_END + harness.REPORTED_ONLY + tracing.PER_LAYER}
    samples = f"n={report['latency_samples']}"
    for name, value in list(result["metrics"].items()) + list(report["extra"].items()):
        note = f"  ({samples})" if name.startswith("latency_p") else ""
        print(f"{name:<42}{value:>14.6g} {units[name]}{note}")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    for ticket, error in report["failures"].items():
        print(f"failed: ticket {ticket} raised {error}")
    print(json.dumps({"meta": report}, sort_keys=True))
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
