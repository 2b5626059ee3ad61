"""Time conditional-tail's block spectra, and the benchmark's tail workload against a parent.

Run from the repository root:

    python3 scripts/block_spectra.py --parent PARENT_CHECKOUT --out BENCH_block_spectra.json

The layer figures are taken in a fresh interpreter per tree (this one and,
with --parent, a checkout of the commit to compare with), each importing
the package from its own ``src``:

- ms per block spectrum: ``experiments._block_tail`` on the 32 default
  conditional-tail blocks at x*, divided by the number of blocks, at 1
  thread and at 2 (a tree whose ``_block_tail`` takes no thread count runs
  it on one thread both times);
- ms of the default ``run_conditional_tail`` at 1 and 2 threads;
- the peak RSS, in MB, of a fresh interpreter that imports the package and
  runs the default ``conditional-tail``, and of one that runs the default
  ``two-point``: the larger of the two sets the tail workload's peak.

Each time is the median of REPEATS runs in one interpreter; the record
keeps the figures of LAYER_ROUNDS interpreters per tree, alternating the
trees, and their medians. With --parent the script then runs
``perfbench/run.py --workload tail --trace 0`` in both trees, in pairs that
alternate which tree goes first, and writes every record with medians,
quartiles and the number of pairs the change won (the pair runner and the
summary are those of ``scripts/block_draws.py``).
"""

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

from block_draws import _bench, _median_ns, _summary

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
LAYER_ROUNDS = 5
TAIL_SEEDS = list(range(10))
THREADS = (1, 2)
PEAK_RUNS = ("conditional-tail", "two-point")


def layers():
    """The timed layer figures of the package on sys.path, as a dict."""
    import numpy as np
    import scipy

    from permfield import experiments, ratefn

    cond = experiments.default_config("conditional-tail", seed=0)
    y = experiments._critical().x_crit
    beta = ratefn.legendre(y)[1]
    blocks = list(range(cond.m, cond.m + cond.q))
    args = (blocks, cond.rho, experiments.parse_torus_point("sqrt2"), y, beta)
    threaded = "threads" in inspect.signature(experiments._block_tail).parameters
    out = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__,
           "blocks": len(blocks), "threaded_block_tail": threaded}
    for threads in THREADS:
        kwargs = {"threads": threads} if threaded else {}
        out[f"block_spectrum_ms.threads{threads}"] = _median_ns(
            lambda: experiments._block_tail(*args, **kwargs), len(blocks)) / 1e6
        config = experiments.default_config("conditional-tail", seed=0, threads=threads)
        out[f"conditional_tail.run_ms.threads{threads}"] = _median_ns(
            lambda: experiments.run_conditional_tail(config), 1) / 1e6
    return out


def peak(name):
    """Peak RSS in MB of this interpreter after one default `name` run."""
    from permfield import experiments

    experiments.run_experiment(name, experiments.default_config(name, seed=0))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_in(tree, *flags):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *flags],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _layers_of(tree):
    record = _run_in(tree, "--layers-only")
    for name in PEAK_RUNS:
        record[f"peak_rss_mb.{name}"] = _run_in(tree, "--peak", name)
    return record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout of the commit to compare with")
    p.add_argument("--out", default="BENCH_block_spectra.json")
    p.add_argument("--layers-only", action="store_true",
                   help="print the timed figures of the package on sys.path as JSON")
    p.add_argument("--peak", choices=PEAK_RUNS,
                   help="print the peak RSS in MB after one default run of this experiment")
    args = p.parse_args(argv)
    if args.layers_only:
        print(json.dumps(layers()))
        return
    if args.peak:
        print(json.dumps(peak(args.peak)))
        return
    trees = {"change": ROOT}
    if args.parent:
        trees["parent"] = os.path.abspath(args.parent)
    rounds = {side: [] for side in trees}
    for i in range(LAYER_ROUNDS):
        for side in sorted(trees, reverse=i % 2 == 1):
            rounds[side].append(_layers_of(trees[side]))
    result = {"command": " ".join(["python3", "scripts/block_spectra.py"] + sys.argv[1:]),
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
            print("tail", seed, {side: round(pair[side]["metrics"]["part1_s"], 3)
                                 for side in order}, flush=True)
        result["pairs"] = {"tail": pairs}
        result["summary"] = {"tail": _summary(pairs)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
