"""Compare benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

All records must be of one workload and trace mode. Records of the same
seed must agree on every exact work count (scan terms, block draws, tilted
draws, replicas, calls, report bytes); a comparison whose counts differ
compares different work and is refused with exit code 2. For each metric
the medians and quartiles of both sides and the ratio of medians are
printed.
"""

import argparse
import json
import statistics
import sys


def _load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    kinds = {(r["workload"], r["trace"]) for r in base + new}
    if len(kinds) != 1:
        print(f"refused: records mix workloads or trace modes: {sorted(kinds)}",
              file=sys.stderr)
        return 2
    counts_by_seed = {}
    for r in base + new:
        seen = counts_by_seed.setdefault(r["seed"], r["counts"])
        if seen != r["counts"]:
            diff = sorted(k for k in set(seen) | set(r["counts"])
                          if seen.get(k) != r["counts"].get(k))
            print(f"refused: work counts differ at seed {r['seed']}: {diff}",
                  file=sys.stderr)
            return 2
    names = list(base[0]["metrics"])
    print(f"{'metric':44s} {'base median [q1, q3]':>30s} {'new median [q1, q3]':>30s}"
          f" {'new/base':>9s}")
    for name in names:
        sides = []
        for records in (base, new):
            values = [r["metrics"][name]["value"] for r in records]
            q1, q3 = _quartiles(values)
            sides.append((statistics.median(values), q1, q3))
        ratio = sides[1][0] / sides[0][0] if sides[0][0] else float("nan")
        unit = base[0]["metrics"][name]["unit"]
        cells = [f"{m:.4g} [{a:.4g}, {b:.4g}] {unit}" for m, a, b in sides]
        print(f"{name:44s} {cells[0]:>30s} {cells[1]:>30s} {ratio:9.3f}")
    print(f"records: {len(base)} base, {len(new)} new; failed operations: "
          f"{sum(r['failed'] for r in base)} base, {sum(r['failed'] for r in new)} new")
    return 0


if __name__ == "__main__":
    sys.exit(main())
