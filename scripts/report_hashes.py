"""Print sha256 prefixes of the canonical reports, to check byte identity.

Run from the repository root:

    python3 scripts/report_hashes.py > hashes.txt

Each line is ``label json-sha256 csv-sha256`` (the first 8 hex digits of
``json_bytes()`` and of ``csv_text()``); the scan line has one hash, of the
standard output of ``permfield scan --n 1000000 --seed 4``, and the two
trace lines one each, of the trace CSV that ``permfield scan --n 100000
--seed 4 --trace`` writes at 1 and at 2 threads. The last two lines hash
the standard output of the rate-function layer: ``permfield constants`` and
``permfield ratefn-table --x-min 0.05 --x-max 0.69 --steps 200`` (the
README example, and the grid of the benchmark's analytic part). The runs are
the reduced configurations of acceptance criterion 14 at seed 12 with 1
and 2 threads, the default seed-1 conditional-tail, two-point and
arc-profile reports, the default seed-4 lln and imag reports, the default
seed-1 occupancy report, the default seed-18 clt report (its finite-size
mean at N = 10^6 is the one default sum that ``field.poisson_mean`` adds
up from more than one piece), and the default seed-1 conditional-tail,
two-point and occupancy reports again at 1 thread (in the lines without a
thread count, conditional-tail's 32 block transforms and two-point's 12
point pairs run on the automatic thread count; occupancy computes its
report on the calling thread at any count). Run it on two commits and
diff the outputs: a refactor that keeps every report prints the same
lines.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from permfield.cli import run  # noqa: E402
from permfield.experiments import default_config, run_experiment  # noqa: E402

# the reduced configurations of tests/test_acceptance.py, criterion 14
REDUCED = {
    "lln": dict(replicas=3, n_values=(500, 5000)),
    "imag": dict(replicas=3, n_values=(5000,)),
    "clt": dict(replicas=100, n_values=(10**4,)),
    "conditional-tail": dict(samples=30000),
    "two-point": dict(samples=10000, y=0.25),
    "arc-profile": dict(replicas=8, n_values=(20000,)),
    "occupancy": dict(replicas=500),
}
DEFAULTS = [("conditional-tail", 1), ("two-point", 1), ("arc-profile", 1),
            ("lln", 4), ("imag", 4), ("occupancy", 1), ("clt", 18)]
SERIAL = ["conditional-tail", "two-point", "occupancy"]  # seed 1, 1 thread


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:8]


def _report_line(label, name, config):
    report = run_experiment(name, config)
    return f"{label} {_sha(report.json_bytes())} {_sha(report.csv_text().encode())}"


def _stdout_line(label, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return f"{label} {_sha(out.getvalue().encode())} exit{code}"


def main():
    for name, overrides in REDUCED.items():
        for threads in (1, 2):
            config = default_config(name, seed=12, threads=threads, **overrides)
            print(_report_line(f"reduced/{name}/threads{threads}", name, config),
                  flush=True)
    for name, seed in DEFAULTS:
        print(_report_line(f"default/{name}/seed{seed}", name,
                           default_config(name, seed=seed)), flush=True)
    for name in SERIAL:
        print(_report_line(f"default/{name}/seed1/threads1", name,
                           default_config(name, seed=1, threads=1)), flush=True)
    print(_stdout_line("scan/n1000000/seed4", ["scan", "--n", "1000000", "--seed", "4"]))
    with tempfile.TemporaryDirectory() as tmp:
        for threads in (1, 2):
            path = os.path.join(tmp, f"trace{threads}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = run(["scan", "--n", "100000", "--seed", "4", "--trace", path,
                            "--threads", str(threads)])
            with open(path, "rb") as fh:
                print(f"scan-trace/n100000/seed4/threads{threads} {_sha(fh.read())} "
                      f"exit{code}", flush=True)
    print(_stdout_line("constants", ["constants"]))
    print(_stdout_line("ratefn-table/x0.05-0.69/steps200",
                       ["ratefn-table", "--x-min", "0.05", "--x-max", "0.69", "--steps", "200"]),
          flush=True)


if __name__ == "__main__":
    main()
