"""Time the block-draw layer, and the benchmark workloads against a parent.

Run from the repository root:

    python3 scripts/block_draws.py --parent PARENT_CHECKOUT --out BENCH_block_draws.json

The layer figures are taken in a fresh interpreter per tree (this one and,
with --parent, a checkout of the commit to compare with), each importing
the package from its own ``src``:

- ns per draw of ``experiments._block_draws`` run by
  ``experiments._monte_carlo`` on the 32 default two-point 1/ell tables
  (the values at two points gathered as one complex array per block), at
  1 thread and at ``nproc``;
- ns per draw of ``guide_index`` alone, its own time inside the 1-thread
  runs;
- ns per term of ``field.log_abs_term_array`` over the two-point lengths;
- ms to build the two-point guide tables from their cumulative sums;
- ms of the default ``conditional-tail`` run and, in a tree that brackets
  its tail exactly, of ``experiments._block_tail`` on its blocks at x*,
  with the grid size K and transform length L;
- ns per replica of the default ``occupancy`` run (10^4 replicas, 2 000
  blocks) at 1 thread and at ``nproc``, and the cycles per replica (the
  report's mean N): a sampler that places cycles does that much work per
  replica, one that draws every block's count does ``occupancy.blocks``.

Each figure is the median of REPEATS runs in one interpreter; the record
keeps the figures of LAYER_ROUNDS interpreters per tree, alternating the
trees, and their medians. With --parent the script then runs
``perfbench/run.py --trace 0`` on each workload in both trees, in pairs
that alternate which tree goes first, and writes every record with
per-workload medians, quartiles and the number of pairs the change won.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
REPEATS = 5
LAYER_ROUNDS = 5
SAMPLES = 1 << 18  # draws per block in one timed run: 4 chunks of CHUNK
PAIR_SEEDS = {"tail": list(range(12)), "scan": list(range(10)), "replicas": list(range(10))}
RUN_SECONDS = 10  # perfbench's --seconds, as BENCHMARK.json runs it


def _median_ns(run, count):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / count * 1e9


def layers():
    """The layer figures of the package on sys.path, as a dict."""
    import numpy as np
    import scipy

    from permfield import cycles, experiments, ratefn
    from permfield.field import log_abs_term_array

    two = experiments.default_config("two-point", seed=0)
    blocks = list(range(two.m, two.m + two.q))
    lengths, guides = zip(*(cycles.one_over_ell_table(*cycles.block_bounds(k, two.rho))
                            for k in blocks))
    s, t = 0.3819660112501051, 0.7071067811865476
    # the draw loop gathers the pair's values at s and t as one complex array
    values = [np.empty(len(ell), complex) for ell in lengths]
    for vals, ell in zip(values, lengths):
        vals.real, vals.imag = log_abs_term_array(ell, s), log_abs_term_array(ell, t)
    draws = SAMPLES * len(blocks)
    out = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__,
           "draws_per_run": draws, "repeats": REPEATS}

    def block_draws(threads):
        work = experiments._block_draws(guides, values.__getitem__,
                                        lambda acc: float(acc.real.sum()), complex)
        experiments._monte_carlo(work, SAMPLES, experiments.CHUNK, (0, "bench", "draws"),
                                 threads)

    for threads in sorted({1, out["nproc"]}):
        out[f"two_point.block_draws_ns_per_draw.threads{threads}"] = _median_ns(
            lambda: block_draws(threads), draws)
    walk = experiments.guide_index
    spent = []

    def timed(table, r):
        start = time.perf_counter()
        idx = walk(table, r)
        spent.append(time.perf_counter() - start)
        return idx

    experiments.guide_index = timed
    try:
        per_run = []
        for _ in range(REPEATS):
            spent.clear()
            block_draws(1)
            per_run.append(sum(spent))
    finally:
        experiments.guide_index = walk
    out["two_point.guide_index_ns_per_draw"] = statistics.median(per_run) / draws * 1e9
    cums = [np.array(tb["cum"]) for tb in guides]
    out["two_point.guide_table_build_ms"] = _median_ns(
        lambda: [cycles.guide_table(c, float(c[-1])) for c in cums], 1) / 1e6
    out["two_point.walk"] = max(tb["walk"] for tb in guides)

    occ = experiments.default_config("occupancy", seed=0)
    for threads in sorted({1, out["nproc"]}):
        config = experiments.default_config("occupancy", seed=0, threads=threads)
        out[f"occupancy.ns_per_replica.threads{threads}"] = _median_ns(
            lambda: experiments.run_occupancy(config), occ.replicas)
    out["occupancy.cycles_per_replica"] = experiments.run_occupancy(occ).cells[0]["mean_total"]
    out["occupancy.blocks"] = occ.n_blocks
    terms = sum(len(ell) for ell in lengths)
    out["log_abs_term_array_ns_per_term"] = _median_ns(
        lambda: [log_abs_term_array(ell, s) for ell in lengths], terms)
    cond = experiments.default_config("conditional-tail", seed=0)
    out["conditional_tail.run_ms"] = _median_ns(
        lambda: experiments.run_conditional_tail(cond), 1) / 1e6
    if not hasattr(experiments, "_block_tail"):  # a tree that samples the tail
        return out
    y = experiments._critical().x_crit
    beta = ratefn.legendre(y)[1]
    tail_blocks = list(range(cond.m, cond.m + cond.q))
    point = experiments.parse_torus_point("sqrt2")
    out["conditional_tail.bracket_ms"] = _median_ns(
        lambda: experiments._block_tail(tail_blocks, cond.rho, point, y, beta), 1) / 1e6
    # K and L as _block_tail chooses them
    h = experiments.TAIL_WIDTH / (beta * cond.q)
    top = math.floor((ratefn.LOG2 - y) * cond.q / h)
    g = 1.5 * beta * h
    out["conditional_tail.bins_K"] = top
    out["conditional_tail.transform_L"] = 1 << (
        max(2 * top + 2, min(cond.q * top, math.ceil(48.0 / g))) - 1).bit_length()
    return out


def _layers_of(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--layers-only"],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _bench(tree, workload, seed):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"failed": record["failed"], "attempted": record["attempted"],
            "metrics": {k: v["value"] for k, v in record["metrics"].items()}}


def _summary(pairs):
    out = {}
    for metric in pairs[0]["parent"]["metrics"]:
        base = [p["parent"]["metrics"][metric] for p in pairs]
        new = [p["change"]["metrics"][metric] for p in pairs]
        out[metric] = {"pairs": len(pairs),
                       "parent_median": statistics.median(base),
                       "parent_quartiles": statistics.quantiles(base, n=4)[::2],
                       "change_median": statistics.median(new),
                       "change_quartiles": statistics.quantiles(new, n=4)[::2],
                       "change_lower_in_pairs": sum(n < b for b, n in zip(base, new))}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout of the commit to compare with")
    p.add_argument("--out", default="BENCH_block_draws.json")
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
    result = {"command": " ".join(["python3", "scripts/block_draws.py"] + sys.argv[1:]),
              "layers": {side: {key: statistics.median(r[key] for r in runs)
                                if isinstance(runs[0][key], float) else runs[0][key]
                                for key in runs[0]} for side, runs in rounds.items()},
              "layer_rounds": rounds}
    print(json.dumps(result["layers"], indent=1), flush=True)
    if args.parent:
        result["pairs"], result["summary"] = {}, {}
        for workload, seeds in PAIR_SEEDS.items():
            pairs = result["pairs"][workload] = []
            for i, seed in enumerate(seeds):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _bench(trees[side], workload, seed)
                pairs.append(pair)
                print(workload, seed, {side: round(pair[side]["metrics"]["wall_s"], 3)
                                       for side in order}, flush=True)
            result["summary"][workload] = _summary(pairs)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
