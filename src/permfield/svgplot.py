"""Minimal deterministic SVG line plots for reports.

Hand-rolled on purpose: the output must be byte-identical for a fixed
report, with no library-injected ids or timestamps.
"""

import math

from .errors import InvalidArgumentError

__all__ = ["emit_plot"]

WIDTH, HEIGHT = 640, 400
ML, MR, MT, MB = 64, 16, 20, 44
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(x):
    return f"{x:.6g}"


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(t)
        t += step
    return out


def _clean_series(report):
    series = []
    for s in getattr(report, "series", []):
        xs, ys = [], []
        for x, y in zip(s["x"], s["y"]):
            if isinstance(x, str) or isinstance(y, str):
                continue  # sanitized non-finite values
            if math.isfinite(x) and math.isfinite(y):
                xs.append(float(x))
                ys.append(float(y))
        if xs:
            series.append({"name": s["name"], "x": xs, "y": ys})
    return series


def emit_plot(report):
    """Self-contained SVG line plot of the report's series; deterministic bytes."""
    series = _clean_series(report)
    if not series:
        raise InvalidArgumentError("report has no plottable series")

    all_x = [x for s in series for x in s["x"]]
    all_y = [y for s in series for y in s["y"]]
    logx = min(all_x) > 0 and max(all_x) / min(all_x) > 100.0
    if logx:
        tx = lambda x: math.log10(x)
    else:
        tx = lambda x: x
    x_lo, x_hi = min(tx(x) for x in all_x), max(tx(x) for x in all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad_x = 0.04 * (x_hi - x_lo)
    pad_y = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def px(x):
        return ML + (tx(x) - x_lo) / (x_hi - x_lo) * (WIDTH - ML - MR)

    def py(y):
        return HEIGHT - MB - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MT - MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{ML}" y1="{HEIGHT - MB}" x2="{WIDTH - MR}" '
        f'y2="{HEIGHT - MB}" stroke="black"/>',
        f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{HEIGHT - MB}" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = ML + (t - x_lo) / (x_hi - x_lo) * (WIDTH - ML - MR)
        label = _fmt(10**t) if logx else _fmt(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{HEIGHT - MB}" x2="{_fmt(x)}" '
            f'y2="{HEIGHT - MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT - MB + 18}" font-size="11" '
            f'text-anchor="middle">{label}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{ML - 5}" y1="{_fmt(y)}" x2="{ML}" y2="{_fmt(y)}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{ML - 8}" y="{_fmt(y + 4)}" font-size="11" '
            f'text-anchor="end">{_fmt(t)}</text>'
        )
    title = f"{report.name} (seed {report.seed})"
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" font-size="12" '
        f'text-anchor="middle">{title}</text>'
    )

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = list(zip(s["x"], s["y"]))
        if len(pts) == 1:
            x, y = pts[0]
            parts.append(
                f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="4" '
                f'fill="{color}"/>'
            )
        else:
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{WIDTH - MR - 6}" y="{MT + 14 + 14 * i}" '
            f'font-size="11" text-anchor="end" fill="{color}">{s["name"]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
