"""Time the rate-function layer, and the benchmark's tail workload against a parent.

Run from the repository root:

    python3 scripts/rate_solve.py --parent PARENT_CHECKOUT --out BENCH_rate_solve.json

The layer figures are taken in a fresh interpreter per tree (this one and,
with --parent, a checkout of the commit to compare with), each importing
the package from its own ``src``, in microseconds per call:

- ``ratefn.log_mgf_derivs`` over the grid of its tests (27 log-spaced tilts
  in [1e-6, 1e7], the critical tilt and 3397);
- ``ratefn.legendre`` over the 201 levels of the benchmark's analytic part
  (``permfield ratefn-table --x-min 0.05 --x-max 0.69 --steps 200``), with
  the number of ``log_mgf_derivs`` calls the grid makes;
- ``ratefn.solve_critical``;
- ``ratefn.bahadur_rao_tail`` and ``ratefn.iid_tail`` at (x*, 32);
- ``experiments._calibrate_level(32)``, two-point's Brent solve on
  ``iid_tail``.

Each figure is the median of REPEATS runs in one interpreter; the record
keeps the figures of LAYER_ROUNDS interpreters per tree, alternating the
trees, and their medians. With --parent the script then runs
``perfbench/run.py --workload tail --trace 0`` in both trees, in pairs that
alternate which tree goes first, and writes every record with medians,
quartiles and the number of pairs the change won (the pair runner and the
summary are those of ``scripts/block_draws.py``).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from block_draws import _bench, _median_ns, _summary

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
LAYER_ROUNDS = 5
TAIL_SEEDS = list(range(10))
RATE_X, RATE_STEPS = (0.05, 0.69), 200  # perfbench's analytic grid


def layers():
    """The layer figures of the package on sys.path, as a dict."""
    import numpy as np
    import scipy

    from permfield import experiments, ratefn

    sol = ratefn.solve_critical()
    x_star = sol.x_crit
    tilts = [float(b) for b in np.geomspace(1e-6, 1e7, 27)] + [sol.beta_crit, 3397.0]
    levels = [RATE_X[0] + (RATE_X[1] - RATE_X[0]) * i / RATE_STEPS
              for i in range(RATE_STEPS + 1)]
    out = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__}

    def per_call_us(run, count):
        return _median_ns(run, count) / 1e3

    out["log_mgf_derivs_us"] = per_call_us(
        lambda: [ratefn.log_mgf_derivs(b) for b in tilts], len(tilts))
    out["legendre_us"] = per_call_us(lambda: [ratefn.legendre(x) for x in levels],
                                     len(levels))
    out["solve_critical_us"] = per_call_us(ratefn.solve_critical, 1)
    out["bahadur_rao_tail_us"] = per_call_us(lambda: ratefn.bahadur_rao_tail(x_star, 32), 1)
    out["iid_tail_us"] = per_call_us(lambda: ratefn.iid_tail(x_star, 32), 1)
    out["calibrate_level_us"] = per_call_us(lambda: experiments._calibrate_level(32), 1)
    derivs, calls = ratefn.log_mgf_derivs, []

    def counted(beta):
        calls.append(beta)
        return derivs(beta)

    ratefn.log_mgf_derivs = counted
    try:
        for x in levels:
            ratefn.legendre(x)
    finally:
        ratefn.log_mgf_derivs = derivs
    out["legendre_grid_derivs_calls"] = len(calls)
    return out


def _layers_of(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--layers-only"],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout of the commit to compare with")
    p.add_argument("--out", default="BENCH_rate_solve.json")
    p.add_argument("--layers-only", action="store_true",
                   help="print the layer figures of the package on sys.path as JSON")
    args = p.parse_args(argv)
    if args.layers_only:
        print(json.dumps(layers()))
        return
    trees = {"change": ROOT}
    if args.parent:
        trees["parent"] = os.path.abspath(args.parent)
    rounds = {side: [] for side in trees}
    for i in range(LAYER_ROUNDS):
        for side in sorted(trees, reverse=i % 2 == 1):
            rounds[side].append(_layers_of(trees[side]))
    result = {"command": " ".join(["python3", "scripts/rate_solve.py"] + sys.argv[1:]),
              "layers": {side: {key: statistics.median(r[key] for r in runs)
                                if isinstance(runs[0][key], float) else runs[0][key]
                                for key in runs[0]} for side, runs in rounds.items()},
              "layer_rounds": rounds}
    print(json.dumps(result["layers"], indent=1), flush=True)
    if args.parent:
        pairs = []
        for i, seed in enumerate(TAIL_SEEDS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = _bench(trees[side], "tail", seed)
            pairs.append(pair)
            print("tail", seed, {side: round(pair[side]["metrics"]["part3_s"], 3)
                                 for side in order}, flush=True)
        result["pairs"] = {"tail": pairs}
        result["summary"] = {"tail": _summary(pairs)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
