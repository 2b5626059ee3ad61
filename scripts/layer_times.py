"""Time the package's layers, and the benchmark's workloads against a parent.

Run from the repository root:

    python3 scripts/layer_times.py --parent PARENT_CHECKOUT --out BENCH_layer_times.json

Each group in GROUPS runs in fresh interpreters on the ``src`` of a tree:
this checkout and, with --parent, the commit to compare with. T runs over 1
and nproc; a time is the median of REPEATS runs. ROUNDS rounds alternate the
trees and the group order; the record keeps each float figure's median and
minimum over rounds, and a figure that is not a float must read the same in
every run. With --parent, ``perfbench/run.py --trace 0`` then runs each
workload of BENCHMARK.json for its ``run_seconds`` over seeds 0-9 in both
trees, alternating which goes first, and the record adds medians, quartiles
and the pairs the change won.
"""

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.metadata import version

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
REPEATS, ROUNDS = 5, 5  # runs of a figure in one interpreter; interpreters per group and tree
RATE_X, RATE_STEPS = (0.05, 0.69), 200  # perfbench's analytic grid
TRACED_MAX = 10**7  # largest N scanned with a trace: 8 bytes per mesh point
THREADS = sorted({1, len(os.sched_getaffinity(0))})


def _median_ns(run, count):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / count * 1e9


def two_point():
    """ns per draw of the default two-point run at its level, at T threads, and of
    `guide_index` in it; guide-table build ms; ns per term of `log_abs_term_array`."""
    import numpy as np
    from permfield import cycles, experiments
    from permfield.field import log_abs_term_array
    two = experiments.default_config("two-point", seed=0)
    level = experiments._calibrate_level(two.q)  # solved once, outside the timed runs
    lengths, guides = zip(*(cycles.one_over_ell_table(*cycles.block_bounds(k, two.rho))
                            for k in range(two.m, two.m + two.q)))
    s = 0.3819660112501051

    def run(threads):
        return experiments.run_two_point(
            experiments.default_config("two-point", seed=0, y=level, threads=threads))

    draws = len(run(1).rows) * two.samples * two.q
    out = {"draws_per_run": draws}
    for threads in THREADS:
        out[f"two_point.run_ns_per_draw.threads{threads}"] = _median_ns(
            lambda: run(threads), draws)
    walk, spent, per_run = experiments.guide_index, [], []

    def timed(table, r):
        start = time.perf_counter()
        idx = walk(table, r)
        spent.append(time.perf_counter() - start)
        return idx

    experiments.guide_index = timed
    try:
        for _ in range(REPEATS):
            spent.clear()
            run(1)
            per_run.append(sum(spent))
    finally:
        experiments.guide_index = walk
    out["two_point.guide_index_ns_per_draw"] = statistics.median(per_run) / draws * 1e9
    cums = [np.array(tb["cum"]) for tb in guides]
    out["two_point.guide_table_build_ms"] = _median_ns(
        lambda: [cycles.guide_table(c, float(c[-1])) for c in cums], 1) / 1e6
    out["two_point.walk"] = max(tb["walk"] for tb in guides)
    out["log_abs_term_array_ns_per_term"] = _median_ns(
        lambda: [log_abs_term_array(ell, s) for ell in lengths], sum(map(len, lengths)))
    return out


def occupancy():
    """ms of the default occupancy run, and its blocks."""
    from permfield import experiments
    config = experiments.default_config("occupancy", seed=0)
    return {"occupancy.blocks": config.n_blocks,
            "occupancy.run_ms": _median_ns(lambda: experiments.run_occupancy(config), 1) / 1e6}


def exact_tail():
    """ms of `_block_tail` on the default conditional-tail blocks at x*, and of the
    default run, at T threads; the bins K and the transform length L it starts from."""
    from permfield import experiments, ratefn
    cond = experiments.default_config("conditional-tail", seed=0)
    y = experiments._critical().x_crit
    beta = ratefn.legendre(y)[1]
    args = (list(range(cond.m, cond.m + cond.q)), cond.rho,
            experiments.parse_torus_point("sqrt2"), y, beta)
    h = experiments.TAIL_WIDTH / (beta * cond.q)
    top = math.floor((ratefn.LOG2 - y) * cond.q / h)  # K and the first L, as _block_tail has them
    out = {"conditional_tail.bins_K": top, "conditional_tail.transform_L": 1 << (
        max(2 * top + 2, min(cond.q * top, math.ceil(48.0 / (1.5 * beta * h)))) - 1).bit_length()}
    threaded = "threads" in inspect.signature(experiments._block_tail).parameters
    for threads in THREADS:
        kwargs = {"threads": threads} if threaded else {}
        out[f"conditional_tail.bracket_ms.threads{threads}"] = _median_ns(
            lambda: experiments._block_tail(*args, **kwargs), 1) / 1e6
        config = experiments.default_config("conditional-tail", seed=0, threads=threads)
        out[f"conditional_tail.run_ms.threads{threads}"] = _median_ns(
            lambda: experiments.run_conditional_tail(config), 1) / 1e6
    return out


def rate():
    """us per call of `log_mgf_derivs` on its tests' tilts, `legendre` on the benchmark's
    201 levels (and the derivs calls they make), and of the solves and tails at q = 32."""
    import numpy as np
    from permfield import experiments, ratefn
    sol = ratefn.solve_critical()
    tilts = [float(b) for b in np.geomspace(1e-6, 1e7, 27)] + [sol.beta_crit, 3397.0]
    levels = [RATE_X[0] + (RATE_X[1] - RATE_X[0]) * i / RATE_STEPS
              for i in range(RATE_STEPS + 1)]

    def us(run, count=1):
        return _median_ns(run, count) / 1e3

    out = {"log_mgf_derivs_us": us(lambda: [ratefn.log_mgf_derivs(b) for b in tilts],
                                   len(tilts)),
           "legendre_us": us(lambda: [ratefn.legendre(x) for x in levels], len(levels)),
           "solve_critical_us": us(ratefn.solve_critical),
           "bahadur_rao_tail_us": us(lambda: ratefn.bahadur_rao_tail(sol.x_crit, 32)),
           "iid_tail_us": us(lambda: ratefn.iid_tail(sol.x_crit, 32)),
           "calibrate_level_us": us(lambda: experiments._calibrate_level(32))}
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


def arc_profile():
    """ms of the 200 ranged scans of the default arc-profile run at seed 1, their terms and
    bounds, and ns per evaluated term."""
    from permfield import experiments
    config = experiments.default_config("arc-profile", seed=1)
    scan_max, spent, runs = experiments.scan_max, [], []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        res = scan_max(*args, **kwargs)
        spent.append((time.perf_counter() - start, res.terms, res.bounds))
        return res

    experiments.scan_max = timed
    try:
        for _ in range(REPEATS):
            spent.clear()
            experiments.run_arc_profile(config)
            runs.append(sum(s for s, _, _ in spent))
    finally:
        experiments.scan_max = scan_max
    terms = sum(t for _, t, _ in spent)
    return {"arc_profile.scans": len(spent), "arc_profile.scan_ms": statistics.median(runs) * 1e3,
            "arc_profile.terms": terms, "arc_profile.bounds": sum(b for _, _, b in spent),
            "arc_profile.ns_per_term": statistics.median(runs) / terms * 1e9}


def scan(n, kind, threads, traced):
    """ms and maximizer of one `scan_max` of the seed-4 lln replica 0 on its mesh, and ns per
    evaluated term; untraced, its terms and bounds per q L (L distinct lengths), traced, the
    trace's sha256."""
    from permfield.cycles import sample_cycle_structure
    from permfield.field import FieldSpec, Mesh, scan_max
    from permfield.streams import stream
    counts = sample_cycle_structure(n, stream(4, "scan", str(n), 0))
    mesh = Mesh(q=2 * n, theta_num=1, theta_den=7)
    start = time.perf_counter()
    res = scan_max(FieldSpec(counts=counts, kind=kind), mesh, threads=threads,
                   want_trace=traced)
    ms = (time.perf_counter() - start) * 1e3
    prefix = f"scan.1e{len(str(n)) - 1}.{kind}"
    work, found = mesh.q * len(counts.lengths), {f"{prefix}.maximizer": [res.index, res.value]}
    if traced:
        return {**found, f"{prefix}.traced_ms.threads{threads}": ms,
                f"{prefix}.traced_ns_per_term.threads{threads}": ms * 1e6 / res.terms,
                f"{prefix}.trace_sha256": hashlib.sha256(res.trace.tobytes()).hexdigest()}
    return {**found, f"{prefix}.untraced_ms": ms, f"{prefix}.terms_per_qL": res.terms / work,
            f"{prefix}.bounds_per_qL": res.bounds / work,
            f"{prefix}.ns_per_term": ms * 1e6 / res.terms}


def peak_rss(name):
    """Peak RSS in MB of this interpreter after one default `name` run."""
    from permfield import experiments
    experiments.run_experiment(name, experiments.default_config(name, seed=0))
    return {f"peak_rss_mb.{name}": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


# group -> (function, the arguments of each interpreter it runs in, the functions of
# `experiments` it needs); an untraced scan runs on its caller's thread at any count
GROUPS = {
    "two_point": (two_point, [()], ("guide_index",)),
    "occupancy": (occupancy, [()], ()),
    "exact_tail": (exact_tail, [()], ("_block_tail",)),
    "rate": (rate, [()], ()),
    "arc_profile": (arc_profile, [()], ()),
    "scan": (scan, [(n, kind, threads, traced) for n in (10**6, 10**7, 10**8)
                    for kind in ("real", "imag")
                    for threads, traced in [(0, False)] + [(t, True) for t in THREADS]
                    if n <= TRACED_MAX or not traced], ()),
    "peak_rss": (peak_rss, [(name,) for name in ("conditional-tail", "two-point", "lln",
                                                  "arc-profile")], ()),
}


def _run_in(tree, script, *args):
    """The JSON last line that `script` prints, run on `tree`'s package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, script, *args], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _facts(tree):
    git = ["git", "-C", tree]
    tracked = os.path.exists(os.path.join(tree, ".git"))  # a git archive has no commit
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "commit": subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                     text=True, check=True).stdout.strip() if tracked else None,
            "dirty": subprocess.run(git + ["diff", "--quiet", "HEAD"]).returncode != 0
            if tracked else None}


def _layers(trees):
    """Every round's figures per tree, and the groups each tree lacks."""
    jobs = [(name, args) for name, (_, cases, _) in GROUPS.items() for args in cases]
    rounds = {side: [] for side in trees}
    absent, fixed = {side: {} for side in trees}, {side: {} for side in trees}
    for i in range(ROUNDS):
        for side in sorted(trees, reverse=i % 2 == 1):
            record = {}
            for name, args in (jobs if i % 2 == 0 else jobs[::-1]):
                if name in absent[side]:
                    continue
                got = _run_in(trees[side], os.path.abspath(__file__), "--group", name,
                              json.dumps(args))
                if "absent" in got:
                    absent[side][name] = got["absent"]
                    print(f"{side} lacks {name}: {got['absent']}", flush=True)
                for key, value in got.get("figures", {}).items():
                    first = fixed[side].setdefault(key, value)
                    if not isinstance(value, float) and first != value:
                        raise SystemExit(f"{side}: {key} reads {first} and {value}")
                    record[key] = value
            rounds[side].append(record)
    return rounds, absent


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


def _pairs(trees):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    pairs, summary = {}, {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = pairs[workload] = []
        for seed in range(10):
            order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                record = _run_in(trees[side], "perfbench/run.py", "--workload", workload,
                                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                                 "--trace", "0")
                pair[side] = {"failed": record["failed"], "attempted": record["attempted"],
                              "metrics": {k: v["value"] for k, v in record["metrics"].items()}}
            runs.append(pair)
            print(workload, seed, {s: round(pair[s]["metrics"]["wall_s"], 3) for s in order},
                  flush=True)
        summary[workload] = _summary(runs)
    return pairs, summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout of the commit to compare with")
    p.add_argument("--out", default="BENCH_layer_times.json")
    args = p.parse_args(argv)
    trees = {"change": ROOT}
    if args.parent:
        trees["parent"] = os.path.abspath(args.parent)
    result = {"command": " ".join(["python3", "scripts/layer_times.py"] + sys.argv[1:]),
              "rounds": ROUNDS, "repeats": REPEATS,
              "facts": {side: _facts(tree) for side, tree in trees.items()}}
    rounds, result["absent"] = _layers(trees)
    result["layers"] = {side: {key: statistics.median(r[key] for r in runs)
                               if isinstance(value, float) else value
                               for key, value in runs[0].items()}
                        for side, runs in rounds.items()}
    result["layer_minima"] = {side: {key: min(r[key] for r in runs)
                                     for key, value in runs[0].items()
                                     if isinstance(value, float)}
                              for side, runs in rounds.items()}
    result["layer_rounds"] = rounds
    print(json.dumps(result["layers"], indent=1), flush=True)
    if args.parent:
        result["pairs"], result["summary"] = _pairs(trees)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--group"]:  # one group's figures, in this interpreter
        from permfield import experiments
        group, _, needs = GROUPS[sys.argv[2]]
        missing = ", ".join(name for name in needs if not hasattr(experiments, name))
        print(json.dumps({"absent": f"experiments lacks {missing}"} if missing
                         else {"figures": group(*json.loads(sys.argv[3]))}))
    else:
        main()
