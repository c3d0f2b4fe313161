"""Compare two checkouts on one benchmark workload in interleaved pairs.

    python3 tests/bench_pairs.py BASE CHANGE --workload NAME --seed S --pairs N [--seconds T] [--traced]

BASE and CHANGE are source checkouts (say, a clone of the parent commit and
the working tree). Each pair runs ``perfbench/run.py --workload NAME --seed S
--seconds T --trace 0`` once in each checkout, one run at a time, from that
checkout's root; the side that goes first alternates from pair to pair. The
last line of each run's standard output is its JSON result.

For every metric the runs report, one line gives each side's median and
quartiles, the change in the median, and, for the end-to-end metrics that
BASE's ``BENCHMARK.json`` declares, how many pairs the change won, whether
the median change exceeds BASE's interquartile range, and a no-regression
verdict against the metric's bound there (see ``verdict``). A last line
gives each side's failed and attempted op counts. A run that exits non-zero
or prints no JSON is reported and counted, not retried.

With ``--traced``, each side then also runs ``perfbench/run.py --trace 1``
once, with the same workload, seed and seconds, and one line per side gives
its failed and attempted op counts. A traced op fails when its span counts
differ from the ones the workload expects, so these lines show that the
span-count check held on both sides.

Nothing in either checkout is written except what ``perfbench/run.py``
itself writes and removes. pytest does not collect this file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds, trace=0):
    """Metric values of one run in ``checkout``, with its op counts; None if
    the run failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        print(f"  run in {checkout} failed (exit {proc.returncode}): {tail}", file=sys.stderr)
        return None
    values = {k: m["value"] for k, m in result["metrics"].items() if isinstance(m["value"], (int, float))}
    return values, result["failed"], result["attempted"]


def quartiles(xs):
    """(q1, median, q3) of ``xs``; a single value is its own quartiles."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(both, bound, sign):
    """No-regression verdict of one end-to-end metric over complete
    (base, change) pairs; ``sign`` is 1 where higher is better, -1 where
    lower is. The allowance is ``bound`` times BASE's median:

    - "worse beyond bound": the change's median is worse than BASE's by
      more than the allowance;
    - "unresolved": otherwise, BASE's interquartile range is wider than the
      allowance, so the runs cannot tell, unless every change run beats
      every BASE run;
    - "within bound": otherwise.
    """
    bq, cq = quartiles([b for b, _ in both]), quartiles([c for _, c in both])
    allowed = bound * abs(bq[1])
    if sign * (bq[1] - cq[1]) > allowed:
        return "worse beyond bound"
    if bq[2] - bq[0] > allowed and not all(sign * (c - b) > 0 for _, c in both for b, _ in both):
        return "unresolved"
    return "within bound"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--traced", action="store_true",
                        help="also run one traced run per side and print its op counts")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    for name, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{name} {path} has no perfbench/run.py")
    spec = json.loads((sides["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {"base": [], "change": []}  # per side, one result per pair (None if failed)
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    pairs = [(b[0], c[0]) for b, c in zip(runs["base"], runs["change"]) if b and c]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s per run, "
          f"{len(pairs)} of {args.pairs} pairs complete")
    names = sorted(set().union(*(set(b) & set(c) for b, c in pairs)))
    for name in names:
        both = [(b[name], c[name]) for b, c in pairs if name in b and name in c]
        bq, cq = quartiles([b for b, _ in both]), quartiles([c for _, c in both])
        delta = cq[1] - bq[1]
        rel = f"{delta / bq[1]:+.1%}" if bq[1] else "n/a"
        line = (f"{name}: base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]  "
                f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]  median {delta:+.4g} ({rel})")
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            won = sum(sign * (c - b) > 0 for b, c in both)
            iqr = bq[2] - bq[0]
            beyond = "exceeds" if sign * delta > iqr else "within"
            line += (f"  won {won}/{len(both)} ({better[name]} is better); gain {beyond} base IQR {iqr:.4g}; "
                     f"{verdict(both, bounds[name], sign)} (bound {bounds[name]:.0%})")
        print(line)
    for side in ("base", "change"):
        done = [r for r in runs[side] if r]
        print(f"{side}: failed {sum(r[1] for r in done)} of {sum(r[2] for r in done)} ops attempted; "
              f"{args.pairs - len(done)} runs did not complete")
    if args.traced:
        for side in ("base", "change"):
            traced = run_once(sides[side], args.workload, args.seed, args.seconds, trace=1)
            counts = f"failed {traced[1]} of {traced[2]} ops attempted" if traced else "did not complete"
            print(f"{side} traced run: {counts}")


if __name__ == "__main__":
    main()
