"""Serialization of study reports: CSV and aligned markdown tables, all
written by ``_write_table`` (the solver's trace and the ``dowg solve``
summary too), and a small hand-rolled SVG log-log plot (no plotting
dependency).

CSV values are written with 6 significant digits, markdown tables with
4-digit scientific errors and 2-decimal orders, matching the usual
convergence-table layout (1/h, error, eoc per scheme).
"""

import math
import os

__all__ = [
    "write_convergence_csv",
    "write_convergence_markdown",
    "write_comparison_csv",
    "write_comparison_markdown",
    "write_angular_csv",
    "write_angular_markdown",
    "write_convergence_svg",
    "write_angular_svg",
    "write_trace_svg",
]


def _with_stream(target, write):
    own = isinstance(target, (str, bytes, os.PathLike))
    stream = open(target, "w") if own else target
    try:
        write(stream)
    finally:
        if own:
            stream.close()


def _write_table(target, head, rows, title=None):
    """Write the column names ``head`` and the ``rows`` (lists of cells)
    to ``target``, a path or a stream: as CSV, or, given a ``title``, as a
    markdown table under that line, whose first row is its alignment row
    (a cell such as ``---:`` per column)."""
    if title is None:
        lines = [",".join(map(str, cells)) for cells in (head, *rows)]
    else:
        align, *rows = rows
        md = ["| " + " | ".join(map(str, cells)) + " |" for cells in (head, *rows)]
        lines = [title, "", md[0], "|" + "|".join(align) + "|", *md[1:]]
    _with_stream(target, lambda s: s.write("\n".join(lines) + "\n"))


def _eoc_str(eoc, fmt="%.2f"):
    return "" if eoc is None else fmt % eoc


def write_convergence_csv(report, target):
    """Rows of (1/h, error, eoc); eoc blank on the first line."""
    rows = []
    for inv_h, err, eoc in report.rows:
        rows.append([inv_h, f"{err:.6g}", _eoc_str(eoc, "%.6g")])
    _write_table(target, ["inv_h", "error", "eoc"], rows)


def write_convergence_markdown(report, target):
    rows = [["---:"] * 3]
    for inv_h, err, eoc in report.rows:
        rows.append([inv_h, f"{err:.4e}", _eoc_str(eoc)])
    _write_table(target, ["1/h", "error", "eoc"], rows,
                 f"Case {report.case}, scheme {report.scheme}, Q{report.k}, M = {report.M}")


def _shared_levels(reports):
    """The names of the reports and their common 1/h column; raises
    ValueError if they do not share their levels."""
    names = list(reports)
    inv_h = reports[names[0]].inv_h
    if any(reports[n].inv_h != inv_h for n in names):
        raise ValueError("comparison reports must share their levels")
    return names, inv_h


def write_comparison_csv(reports, target):
    """Side-by-side error/eoc columns for reports sharing levels."""
    names, inv_h = _shared_levels(reports)
    head, rows = ["inv_h"], []
    for n in names:
        head += [f"{n}_error", f"{n}_eoc"]
    for i, h in enumerate(inv_h):
        cells = [h]
        for n in names:
            _, err, eoc = reports[n].rows[i]
            cells += [f"{err:.6g}", _eoc_str(eoc, "%.6g")]
        rows.append(cells)
    _write_table(target, head, rows)


def write_comparison_markdown(reports, target):
    names, inv_h = _shared_levels(reports)
    first = reports[names[0]]
    head = ["1/h"]
    for n in names:
        head += [f"{n} error", "eoc"]
    rows = [["---:"] * len(head)]
    for i, h in enumerate(inv_h):
        cells = [h]
        for n in names:
            _, err, eoc = reports[n].rows[i]
            cells += [f"{err:.4e}", _eoc_str(eoc)]
        rows.append(cells)
    _write_table(target, head, rows, f"Case {first.case}, Q{first.k}, M = {first.M}")


def write_angular_csv(report, target):
    rows = []
    for M, err in report.rows:
        rows.append([M, f"{err:.6g}"])
    _write_table(target, ["M", "error"], rows)


def write_angular_markdown(report, target):
    rows = [["---:"] * 2]
    for M, err in report.rows:
        rows.append([M, f"{err:.4e}"])
    _write_table(target, ["M", "error"], rows,
                 f"Case {report.case}, scheme {report.scheme}, Q{report.k}, level {report.level}")


# -- SVG ------------------------------------------------------------------

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 24, 52
_COLORS = ("#1f6fb4", "#d1442e", "#3c8a3f", "#8050a0", "#b08020")


def _ticks(lo, hi):
    """Decade tick positions covering [lo, hi] in log10 space."""
    first = math.floor(lo)
    last = math.ceil(hi)
    return [t for t in range(first, last + 1) if lo - 1e-9 <= t <= hi + 1e-9] or [first]


def _svg_loglog(target, series, guides, xlabel, ylabel, title):
    """Write a log-log plot to ``target``, a path or a stream.

    series: (label, xs, ys) tuples; guides: (slope, label) dashed
    reference lines from the first to the last point of the first series.
    Only points whose coordinates are finite and positive are plotted;
    with none, the axes are drawn empty."""
    series = [
        (label, [(math.log10(x), math.log10(y)) for x, y in zip(xs, ys)
                 if 0 < x < math.inf and 0 < y < math.inf])
        for label, xs, ys in series
    ]
    lxs = [lx for _, pts in series for lx, _ in pts] or [0.0]
    lys = [ly for _, pts in series for _, ly in pts] or [0.0]
    lx0, lx1 = min(lxs), max(lxs)
    ly0, ly1 = min(lys), max(lys)
    if lx1 - lx0 < 1e-9:
        lx0, lx1 = lx0 - 0.5, lx1 + 0.5
    pad = 0.05 * max(ly1 - ly0, 1e-9) + 0.08
    ly0, ly1 = ly0 - pad, ly1 + pad

    def px(lx):
        return _ML + (lx - lx0) / (lx1 - lx0) * (_W - _ML - _MR)

    def py(ly):
        return _H - _MB - (ly - ly0) / (ly1 - ly0) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#444"/>',
    ]
    if title:
        out.append(
            f'<text x="{_W / 2:.1f}" y="16" text-anchor="middle">{title}</text>'
        )
    for t in _ticks(lx0, lx1):
        x = px(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" y2="{_H - _MB}" '
            f'stroke="#ddd"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 16}" text-anchor="middle">'
            f"1e{t:d}</text>"
        )
    for t in _ticks(ly0, ly1):
        y = py(t)
        out.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
            f'stroke="#ddd"/>'
        )
        out.append(
            f'<text x="{_ML - 6}" y="{y + 4:.1f}" text-anchor="end">'
            f"1e{t:d}</text>"
        )
    out.append(
        f'<text x="{_W / 2:.1f}" y="{_H - 14}" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>'
    )

    first = series[0][1]
    for slope, label in guides if first else ():
        (lxa, lya), (lxb, _) = first[0], first[-1]
        lyb = lya - slope * (lxb - lxa)
        shift = 0.15  # nudge below the data
        out.append(
            f'<line x1="{px(lxa):.1f}" y1="{py(lya - shift):.1f}" '
            f'x2="{px(lxb):.1f}" y2="{py(lyb - shift):.1f}" '
            f'stroke="#888" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<text x="{px(lxb) - 4:.1f}" y="{py(lyb - shift) + 14:.1f}" '
            f'text-anchor="end" fill="#666">{label}</text>'
        )

    for i, (label, pts) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        line = " ".join(f"{px(lx):.1f},{py(ly):.1f}" for lx, ly in pts)
        out.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        for lx, ly in pts:
            out.append(
                f'<circle cx="{px(lx):.1f}" cy="{py(ly):.1f}" r="3" fill="{color}"/>'
            )
        ly = _MT + 16 + 16 * i
        out.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly}" x2="{_W - _MR - 96}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.8"/>'
        )
        out.append(f'<text x="{_W - _MR - 90}" y="{ly + 4}">{label}</text>')
    out.append("</svg>")
    _with_stream(target, lambda s: s.write("\n".join(out) + "\n"))


def write_convergence_svg(reports, target, title=None):
    """Log-log error curves with k+1/2 and k+1 reference slopes.

    ``reports`` is a single report or a list; slopes are taken from the
    first one.
    """
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    k = reports[0].k
    series = [
        (f"{r.scheme} Q{r.k}", [float(h) for h in r.inv_h], list(r.errors))
        for r in reports
    ]
    guides = [(k + 0.5, f"slope {k + 0.5:g}"), (k + 1.0, f"slope {k + 1:g}")]
    _svg_loglog(target, series, guides, "1/h", "error",
                title or f"{reports[0].case}: error vs 1/h")


def write_angular_svg(report, target, title=None):
    series = [
        (f"{report.scheme} Q{report.k}", [float(m) for m, _ in report.rows],
         [e for _, e in report.rows])
    ]
    _svg_loglog(target, series, [], "M", "error",
                title or f"{report.case}: error vs ordinate count")


def write_trace_svg(trace, target, title=None):
    """Outer-iteration update norms on log-log axes."""
    its = [float(i) for i in range(1, len(trace.errs) + 1)]
    _svg_loglog(target, [("update norm", its, list(trace.errs))], [], "iteration",
                "update", title or "source iteration updates")
