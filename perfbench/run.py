"""permfield benchmark: one workload, one process, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 10 --trace 0

Workloads are ``scan``, ``tail`` and ``replicas`` (see workloads.py). The
program under test is imported from ``src/permfield`` of the current
directory; without it the benchmark exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics: set-up time of a fresh
interpreter, and each part of the workload run in whole passes until
``--seconds`` have gone by, reported as medians over passes; in a pass a
part runs several times, spread over the pass, and yields its mean time.
``--trace 1`` makes one untraced pass, then runs each part traced at
``nproc`` threads and again at 1 thread, and reports per-layer calls, busy
and self times, the thread speedups of the scan, and the tracing overhead;
it also requires the reports to be byte-identical across all these runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric in words. ``--out`` writes the full record (machine facts, exact
work counts, every sample) for ``perfbench/compare.py``.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import machine

SETUP_RUNS = 7
PROBE_EVERY = 1.0
SETUP_CODE = """
import os, sys
import permfield, permfield.cli, permfield.experiments
import scipy.stats
from permfield import ratefn
ratefn.solve_critical()
package_dir = os.path.dirname(os.path.abspath(permfield.__file__))
sys.exit(0 if os.path.dirname(package_dir) == sys.argv[1] else 3)
"""
SOLVE_REPEATS = 7
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "part1_s": "s", "part2_s": "s",
                    "part3_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("scan", "tail", "replicas"))
    p.add_argument("--seed", type=int, default=0,
                   help="added to the acceptance suite's pinned seeds (default 0)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure whole passes until this many seconds have gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the full result record (JSON) here")
    return p.parse_args(argv)


def _setup_spawner(root, src):
    """A function timing one fresh interpreter that imports permfield and solves x*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def spawn():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, src], cwd=root, env=env)
        elapsed = time.perf_counter() - t0
        if proc.returncode:
            raise RuntimeError(f"set-up interpreter exited with {proc.returncode}")
        return elapsed

    return spawn


class Session:
    """Runs the parts of one workload and keeps what the checks found."""

    def __init__(self, parts, seed):
        from workloads import Checker

        self.parts = parts
        self.seed = seed
        self.checker = Checker()
        self.counts = {}
        self.verdicts = [0, 0]  # passed, total
        self.digests = {}  # part metric -> sha256 of its first payload

    def execute(self, part, inputs, layers, label):
        """Run part once; check its first output, compare later ones to it."""
        layers.clear_records()
        t0 = time.perf_counter()
        data, payload = part.run(layers, inputs)
        elapsed = time.perf_counter() - t0
        digest = hashlib.sha256(payload).hexdigest()
        first = self.digests.get(part.metric)
        if first is None:
            self.digests[part.metric] = digest
            counts = dict.fromkeys(("scan_max.calls", "scan_max.terms", "replicas",
                                    "block_draws", "tilted_draws"), 0)
            part.check(inputs, data, layers, self.checker, counts)
            counts["eval_point.calls"] = layers.record_calls["field.eval_point"]
            counts["payload_bytes"] = len(payload)
            for key, value in counts.items():
                self.counts[key] = self.counts.get(key, 0) + value
            if part.experiment:
                self.verdicts[0] += sum(v["passed"] for v in data.verdicts)
                self.verdicts[1] += len(data.verdicts)
        else:
            self.checker.check(digest == first,
                               f"{part.metric}: output bytes differ ({label})")
        return elapsed


def _schedule(repeats):
    """Order of one pass's executions: each entry's runs spread evenly over it.

    The host's speed drifts by up to ~1.5x over seconds to tens of seconds,
    so a part timed in one stretch reads the speed of that stretch; spread
    over the pass, its runs average over the same mix as the long parts.
    """
    slots = sorted(((j + 0.5) / k, i) for i, k in enumerate(repeats) for j in range(k))
    return [i for _, i in slots]


def _untraced(session, threads, seconds, batches=True, timers=(), probe=None):
    """Whole passes until ``seconds`` have gone by.

    In a pass each part runs ``part.repeat`` times. ``timers`` are (name,
    fn, count): fn() returns seconds and runs ``count`` times per pass,
    spread like the parts. ``probe``, if given, returns the seconds of
    machine.reference_work(); after a run of t seconds it is timed
    max(1, round(t / PROBE_EVERY)) times, so the probes cover the pass
    evenly in time. A pass's host speed is REFERENCE_SECONDS over the mean
    of its probes (1 without a probe), and every time of the pass is
    multiplied by it.

    Returns (scaled, raw, runs, probes, passes): scaled and raw map each
    part to one sample per pass, the mean time of its runs in the pass, and
    each timer to all its times; runs lists every run as (pass, name,
    seconds, speed) and probes every probe as (pass, seconds).
    """
    from layers import Layers

    layers = Layers()
    parts = session.parts
    inputs = [p.prepare(session.seed, threads) for p in parts]
    repeats = [p.repeat if batches else 1 for p in parts]
    order = _schedule(repeats + [count for _, _, count in timers])
    part_names = [p.metric for p in parts]
    names = part_names + [name for name, _, _ in timers]
    runs = []
    probes = []
    start = time.perf_counter()
    passes = 0
    with layers.installed():
        while passes == 0 or time.perf_counter() - start < seconds:
            passes += 1
            for i in order:
                if i >= len(parts):
                    elapsed = timers[i - len(parts)][1]()
                else:
                    elapsed = session.execute(parts[i], inputs[i], layers,
                                              f"pass {passes}")
                runs.append((passes, names[i], elapsed))
                for _ in range(max(1, round(elapsed / PROBE_EVERY)) if probe else 0):
                    probes.append((passes, probe()))

    speed = [1.0] * (passes + 1)
    if probe:
        for n in range(1, passes + 1):
            mean = statistics.mean(t for m, t in probes if m == n)
            speed[n] = machine.REFERENCE_SECONDS / mean
    runs = [(n, name, elapsed, speed[n]) for n, name, elapsed in runs]
    scaled, raw = {}, {}
    for name in names:
        mine = [(n, elapsed, f) for n, run_name, elapsed, f in runs if run_name == name]
        if name in part_names:
            scaled[name] = [statistics.mean(e * f for m, e, f in mine if m == n)
                            for n in range(1, passes + 1)]
            raw[name] = [statistics.mean(e for m, e, _ in mine if m == n)
                         for n in range(1, passes + 1)]
        else:
            scaled[name] = [e * f for _, e, f in mine]
            raw[name] = [e for _, e, _ in mine]
    return scaled, raw, runs, probes, passes


def _solve_critical_ms():
    from permfield import ratefn

    times = []
    for _ in range(SOLVE_REPEATS):
        t0 = time.perf_counter()
        ratefn.solve_critical()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _end_to_end(session, root, src, args, threads):
    """End-to-end metrics in seconds at the reference host speed.

    The host's speed drifts by up to ~1.3x over minutes as well as seconds
    (README.md), which moves every time of a run together. So the host
    speed is probed between the runs of each pass with
    machine.reference_work(), which uses no permfield code and runs in a
    helper process, and every time of the pass is scaled by it (see
    _untraced): a change to permfield moves the scaled times, a slower host
    does not.
    """
    with machine.ReferenceProcess() as reference:
        scaled, raw, runs, probes, passes = _untraced(
            session, threads, args.seconds,
            timers=[("setup", _setup_spawner(root, src), SETUP_RUNS)], probe=reference)
    medians = {p.metric: statistics.median(scaled[p.metric]) for p in session.parts}
    metrics = {"setup_s": statistics.median(scaled["setup"]),
               "wall_s": sum(medians.values())}
    for i, part in enumerate(session.parts, 1):
        metrics[f"part{i}_s"] = medians[part.metric]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speeds = sorted({run[3] for run in runs})
    lines = [f"passes = {passes}; host speed = {', '.join(f'{v:.4f}' for v in speeds)} "
             f"of the reference, from {len(probes)} probes (times below are scaled by "
             "it; raw in parentheses)",
             f"setup_s = {metrics['setup_s']:.4f} s  (raw "
             f"{statistics.median(raw['setup']):.4f}; median of {len(scaled['setup'])} "
             "fresh interpreters: import permfield and scipy.stats, solve x*)",
             f"wall_s = {metrics['wall_s']:.4f} s  (one pass, derived: sum of the part "
             "medians)"]
    for i, part in enumerate(session.parts, 1):
        lines.append(f"{part.metric}_s = {medians[part.metric]:.4f} s  (raw "
                     f"{statistics.median(raw[part.metric]):.4f}; part{i}_s, median "
                     f"of {passes} passes, {part.repeat} runs each)")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
    samples = {"scaled": scaled, "raw": raw, "runs": runs, "probes": probes}
    return metrics, lines, samples


def _per_layer(session, threads):
    from layers import PER_LAYER, Layers, per_layer_metrics
    from tracer import Tracer

    untraced_times = _untraced(session, threads, 0.0, batches=False)[0]
    untraced_wall = sum(t[0] for t in untraced_times.values())
    # each part runs traced at nproc threads and right after at 1 thread,
    # so a speedup compares runs seconds apart, not a pass apart
    tracer = Tracer()
    layers = Layers(tracer)
    traced_wall = 0.0
    with layers.installed():
        for part in session.parts:
            tracer.tag = "nproc"
            traced_wall += session.execute(part, part.prepare(session.seed, threads),
                                           layers, "traced, nproc threads")
            tracer.tag = "1thread"
            session.execute(part, part.prepare(session.seed, 1), layers,
                            "traced, 1 thread")
    metrics = per_layer_metrics(tracer, traced_wall, untraced_wall, _solve_critical_ms(),
                                session.counts["block_draws"])
    units = dict(PER_LAYER)
    lines = [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    return metrics, lines, units, {"untraced_wall_s": untraced_wall}


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "permfield", "__init__.py")):
        print("perfbench: src/permfield not found under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import permfield

    if os.path.dirname(os.path.dirname(os.path.abspath(permfield.__file__))) != src:
        print(f"perfbench: imported permfield from {permfield.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import scipy.stats  # noqa: F401  (lazy in clt; paid in set-up, not in a pass)

    from workloads import WORKLOADS

    threads = machine.nproc()
    session = Session(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, lines, units, samples = _per_layer(session, threads)
    else:
        metrics, lines, samples = _end_to_end(session, root, src, args, threads)
        units = END_TO_END_UNITS
    checker = session.checker
    facts = machine.facts(root)
    lines += [
        f"fail_frac = {checker.failed / max(checker.attempted, 1):.6g}  "
        f"({checker.failed} of {checker.attempted} checked operations failed)",
        f"verdicts_passed/verdicts_total = {session.verdicts[0]}/{session.verdicts[1]}  "
        "(statistical verdicts, reported only)",
        "counts = " + json.dumps(session.counts, sort_keys=True),
        "machine = " + json.dumps(facts, sort_keys=True),
    ]
    header = (f"permfield benchmark: workload={args.workload} seed={args.seed} "
              f"trace={args.trace} threads={threads}")
    print("\n".join([header] + ["  " + line for line in lines]))
    for failure in checker.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, threads=threads, machine=facts,
                      counts=session.counts, samples=samples,
                      parts=[p.metric for p in session.parts],
                      verdicts={"passed": session.verdicts[0],
                                "total": session.verdicts[1]},
                      failures=checker.failures)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
