#!/usr/bin/env python3
"""Same-machine A/B gate on construction speed at one lane count.

Both inputs are JSON-lines files written by bench_engine_scaling (one
object per measurement): BASE from a build of the merge-base, HEAD from
a build of the change, run on one machine with their passes interleaved
(base, head, base, head, ...). Each pass writes one `mode == "single"`
row per (n, threads), so the k-th matching row of each file belongs to
pass k, so both files must hold only the passes of this one A/B run:
delete them before the first pass (leftover rows from an earlier run
would pair the wrong passes). The gate forms one ratio head/base per pass pair and fails when
the median ratio exceeds 1 + --max-regress. Interleaving makes host
drift hit both sides of a pair alike; the median discards a pair that
one scheduling hiccup spoiled. The spread of the ratios is printed so a
noisy runner shows in the log. CI runs the gate twice over the same
passes: --threads 1 holds the per-build work, --threads 4 catches a
stage that stops using its lanes.

Exit codes: 0 pass, 1 regression, 2 malformed/missing input.

Usage:
  tools/check_perf_regression.py BENCH_engine_base.json BENCH_engine.json \
      --n 50000 --threads 1 --max-regress 0.15
"""

import argparse
import json
import statistics
import sys

# Fewest interleaved pass pairs the median may rest on.
MIN_PAIRS = 3


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def pass_wall_ms(path: str, n: int, threads: int) -> list:
    """wall_ms of every matching single-instance row, in pass order."""
    walls = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as err:
                    die(f"{path}: bad JSON line: {err}")
                if row.get("mode") != "single":
                    continue
                if row.get("n") != n or row.get("threads") != threads:
                    continue
                wall = row.get("wall_ms")
                if not isinstance(wall, (int, float)) or wall <= 0:
                    die(f"{path}: non-positive wall_ms row: {line}")
                walls.append(float(wall))
    except OSError as err:
        die(f"cannot read {path}: {err}")
    if not walls:
        die(f"{path}: no mode=single row with n={n} threads={threads}")
    return walls


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="JSON-lines passes of the merge-base build")
    parser.add_argument("head", help="JSON-lines passes of the HEAD build")
    parser.add_argument("--n", type=int, default=50_000)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument(
        "--max-regress",
        type=float,
        default=0.15,
        help="allowed slowdown of the median ratio (0.15 = fail beyond +15%%)",
    )
    args = parser.parse_args()

    base = pass_wall_ms(args.base, args.n, args.threads)
    head = pass_wall_ms(args.head, args.n, args.threads)
    if len(base) != len(head):
        die(f"unpaired passes: {len(base)} base rows vs {len(head)} head rows")
    if len(base) < MIN_PAIRS:
        die(f"{len(base)} pass pairs, need at least {MIN_PAIRS}")

    ratios = [h / b for b, h in zip(base, head)]
    median = statistics.median(ratios)
    q1, q3 = quartiles(ratios)
    limit = 1.0 + args.max_regress
    print(f"n={args.n} threads={args.threads}: {len(ratios)} interleaved pass pairs")
    for k, (b, h, r) in enumerate(zip(base, head, ratios), start=1):
        print(f"  pass {k}: base {b:.1f} ms, head {h:.1f} ms, ratio {r:.3f}")
    print(
        f"median ratio {median:.3f} (limit {limit:.2f}); spread: "
        f"min {min(ratios):.3f}, quartiles {q1:.3f}-{q3:.3f}, max {max(ratios):.3f}; "
        f"median wall base {statistics.median(base):.1f} ms, "
        f"head {statistics.median(head):.1f} ms"
    )
    if median > limit:
        print(
            f"FAIL: {args.threads}-lane construction regressed "
            f"{100.0 * (median - 1.0):.1f}% (> {100.0 * args.max_regress:.0f}% allowed)"
        )
        return 1
    if median < 1.0:
        print(f"OK: {100.0 * (1.0 - median):.1f}% faster than the merge-base")
    else:
        print(f"OK: within budget (+{100.0 * (median - 1.0):.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
