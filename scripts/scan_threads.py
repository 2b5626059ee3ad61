"""Time single pruned scans at 1 and 2 threads, with their work shares.

Run from the repository root:

    python3 scripts/scan_threads.py

For N = 10^6, 10^7 and 10^8 and both field kinds it scans the replica-0
structure of the seed-4 ``lln`` streams on the ``lln`` mesh (q = 2N,
theta = 1/7) and prints one Markdown table row: the best of 3 wall times
of ``scan_max`` at 1 and at 2 threads, ``terms / (q L)`` and
``bounds / (q L)``, with L the number of distinct cycle lengths. It
checks that both thread counts return the same maximizer and work counts.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from permfield.cycles import sample_cycle_structure  # noqa: E402
from permfield.field import FieldSpec, Mesh, scan_max  # noqa: E402
from permfield.streams import stream  # noqa: E402

SIZES = (10**6, 10**7, 10**8)
THREADS = (1, 2)
REPEATS = 3


def _best_of(spec, mesh, threads):
    best, res = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        res = scan_max(spec, mesh, threads=threads)
        best = min(best, time.perf_counter() - start)
    return best, res


def main():
    print("| N | kind | 1 thread | 2 threads | terms / q·L | bounds / q·L |")
    print("|---|---|---|---|---|---|")
    for n in SIZES:
        counts = sample_cycle_structure(n, stream(4, "scan", str(n), 0))
        mesh = Mesh(q=2 * n, theta_num=1, theta_den=7)
        work = mesh.q * len(counts.lengths)
        for kind in ("real", "imag"):
            spec = FieldSpec(counts=counts, kind=kind)
            timed = [_best_of(spec, mesh, t) for t in THREADS]
            found = {(r.index, r.value, r.terms, r.bounds) for _, r in timed}
            if len(found) != 1:
                raise SystemExit(f"thread counts disagree at N = {n}, {kind}")
            res = timed[0][1]
            print(f"| 10^{len(str(n)) - 1} | {kind} | "
                  + " | ".join(f"{s * 1e3:.0f} ms" for s, _ in timed)
                  + f" | {res.terms / work:.3%} | {res.bounds / work:.3%} |", flush=True)


if __name__ == "__main__":
    main()
