"""The repo's benchmark: one command, three workloads, two kinds of metric.

    python3 perfbench/run.py --workload serve-epoll-10k --seed 4242 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 4242   # every workload

Run from the repository root.  ``--trace 0`` repeats the workload's
repetitions until ``--seconds`` have passed and prints the end-to-end
metrics; ``--trace 1`` runs one untraced, one host-sampled and one
span-probed repetition (plus, for the observed workload, one with the
observers off) and prints the per-layer ledger.  Every line but the last
is for people: each metric by name, value and unit, then provenance.  The
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 when any correctness check failed
and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def spec() -> dict:
    """BENCHMARK.json, refusing metric names or units it may not hold."""
    from stats import valid_name, valid_unit
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in data["end_to_end"] + data["per_layer"]:
        if not (valid_name(m["name"]) and valid_unit(m["unit"])):
            raise ValueError(f"BENCHMARK.json: bad metric {m}")
    return data


def run_workload(workload, args, t_import: float) -> bool:
    """Measure one workload, print its report; True if every check held."""
    import runs
    if args.trace:
        metrics, notes, cals, failed_checks, attempted, failed = \
            runs.traced_run(workload, args.seed)
        wanted = [m["name"] for m in spec()["per_layer"]]
    else:
        metrics, notes, cals, failed_checks, attempted, failed = \
            runs.timed_run(workload, args.seed, args.seconds, t_import)
        wanted = [m["name"] for m in spec()["end_to_end"]]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        failed_checks.append(f"metrics not measured: {missing}")

    print(f"== {workload.name} seed={args.seed} trace={args.trace}")
    for name in wanted:
        if name in metrics:
            value, unit = metrics[name]
            print(f"  {name:<40} {value:>16.6g} {unit}")
    for name in sorted(set(metrics) - set(wanted)):
        value, unit = metrics[name]
        print(f"  ({name:<38}) {value:>16.6g} {unit}")
    for check in failed_checks:
        print(f"  CHECK FAILED: {check}")
    record = {"workload": workload.name, "trace": args.trace,
              "provenance": runs.provenance(args.seed, cals), "notes": notes,
              "failed_checks": failed_checks,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in metrics.items()}}
    print("provenance " + json.dumps(record["provenance"]))
    runs.OUT_DIR.mkdir(exist_ok=True)
    (runs.OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    correct = not failed_checks
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in wanted if n in metrics}}))
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from suite import WORKLOADS
    t_import = perf_counter() - T_START
    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    results = [run_workload(w, args, t_import) for w in chosen]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
