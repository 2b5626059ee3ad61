"""Time single scans in fresh processes: untraced, and traced at 1 and 2 threads.

Run from the repository root:

    python3 scripts/scan_threads.py

For N = 10^6, 10^7 and 10^8 and both field kinds it scans the replica-0
structure of the seed-4 ``lln`` streams on the ``lln`` mesh (q = 2N,
theta = 1/7). Each timing is one ``scan_max`` call in a fresh interpreter;
ROUNDS rounds run every configuration once, alternating their order from
round to round, and the table gives the median of each configuration.
The untraced scan runs on the caller's thread at any count, so it has one
column; the traced scan is timed at 1 and at 2 threads, for N up to 10^7
(a trace holds 8 bytes per mesh point). One Markdown row per N and kind
also gives ``terms / (q L)`` and ``bounds / (q L)`` of the untraced scan,
with L the number of distinct cycle lengths. The script checks that every
setting returns the same maximizer, and both thread counts the same trace
bytes.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
SIZES = (10**6, 10**7, 10**8)
TRACED_MAX = 10**7  # largest N timed with a trace
ROUNDS = 5


def _one(n, kind, threads, traced):
    """Time one scan in this interpreter and return the figures as a dict."""
    sys.path.insert(0, SRC)
    from permfield.cycles import sample_cycle_structure
    from permfield.field import FieldSpec, Mesh, scan_max
    from permfield.streams import stream

    counts = sample_cycle_structure(n, stream(4, "scan", str(n), 0))
    mesh = Mesh(q=2 * n, theta_num=1, theta_den=7)
    spec = FieldSpec(counts=counts, kind=kind)
    start = time.perf_counter()
    res = scan_max(spec, mesh, threads=threads, want_trace=traced)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "index": res.index, "value": res.value,
            "terms": res.terms / (mesh.q * len(counts.lengths)),
            "bounds": res.bounds / (mesh.q * len(counts.lengths)),
            "trace": hashlib.sha256(res.trace.tobytes()).hexdigest() if traced else None}


def _fresh(n, kind, threads, traced):
    args = [sys.executable, os.path.abspath(__file__), "--one", str(n), kind,
            str(threads), str(int(traced))]
    return json.loads(subprocess.run(args, capture_output=True, text=True,
                                     check=True).stdout)


def main():
    # (column, threads, traced); 0 threads is the automatic count
    columns = [("untraced", 0, False), ("traced, 1 thread", 1, True),
               ("traced, 2 threads", 2, True)]
    print("| N | kind | " + " | ".join(c for c, _, _ in columns)
          + " | terms / q·L | bounds / q·L |")
    print("|---|---|" + "---|" * len(columns) + "---|---|")
    for n in SIZES:
        for kind in ("real", "imag"):
            runs = [c for c in columns if n <= TRACED_MAX or not c[2]]
            times = {c: [] for c, _, _ in runs}
            found = {}
            for i in range(ROUNDS):
                for column, threads, traced in (runs if i % 2 == 0 else runs[::-1]):
                    out = _fresh(n, kind, threads, traced)
                    times[column].append(out.pop("seconds"))
                    found.setdefault(column, out)
            maxima = {(r["index"], r["value"]) for r in found.values()}
            traces = {found[c]["trace"] for c, _, t in runs if t}
            if len(maxima) != 1 or len(traces) > 1:
                raise SystemExit(f"scans disagree at N = {n}, {kind}")
            cells = [f"{statistics.median(times[c]) * 1e3:.0f} ms" if c in times else "—"
                     for c, _, _ in columns]
            res = found["untraced"]
            print(f"| 10^{len(str(n)) - 1} | {kind} | " + " | ".join(cells)
                  + f" | {res['terms']:.3%} | {res['bounds']:.3%} |", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        n, kind, threads, traced = sys.argv[2:6]
        print(json.dumps(_one(int(n), kind, int(threads), traced == "1")))
    else:
        main()
