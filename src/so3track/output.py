"""CSV trajectory output and native SVG polyline charts."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


# Rows formatted by one `%`, which holds their floats, their list and the
# string as temporaries.
CSV_BATCH = 256


def write_csv(path, arc, footer_lines=()) -> None:
    """Write an arc as CSV: header, one row per sample, '#' footer lines.

    Column order is t, j, then the arc's recorded columns; every cell is
    written with 17 significant digits (`%.17g`), so an integer value below
    10^17, such as `j` or a 0/1 flag, prints as an integer (the same from a
    float as from an int).  Output is a pure function of the arc, so
    identical runs give byte-identical files.  Each batch of rows is one `%`
    over the row format repeated, on one list of its cells.
    """
    path = Path(path)
    row = ",".join(["%.17g"] * (2 + len(arc.columns))) + "\n"
    with path.open("w", newline="\n") as f:
        f.write("t,j," + ",".join(arc.columns) + "\n")
        for a in range(0, len(arc.t), CSV_BATCH):
            b = a + CSV_BATCH
            rows = np.column_stack((arc.t[a:b], arc.j[a:b], arc.data[a:b]))
            f.write(row * len(rows) % tuple(rows.ravel().tolist()))
        for line in footer_lines:
            f.write(f"# {line}\n")


def _escape(text: str) -> str:
    """text as XML character data: &, < and > escaped, as `xml.sax.saxutils.escape` does.

    That module imports `urllib.request`, which adds megabytes to a run's
    peak memory.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# Chart size in pixels, and the most points drawn of one series (longer series
# are strided down to this).
CHART_WIDTH, CHART_HEIGHT = 720, 440
CHART_MAX_POINTS = 1500


def svg_line_chart(path, title: str, xlabel: str, ylabel: str, series) -> None:
    """Minimal polyline chart; `series` is a list of (name, x, y) arrays.

    The title, the axis labels and the series names are text, XML-escaped.
    """
    path = Path(path)
    title, xlabel, ylabel = _escape(title), _escape(xlabel), _escape(ylabel)
    width, height = CHART_WIDTH, CHART_HEIGHT
    ml, mr, mt, mb = 64, 16, 34, 46
    pw, ph = width - ml - mr, height - mt - mb
    xs = [np.asarray(s[1], dtype=float) for s in series]
    ys = [np.asarray(s[2], dtype=float) for s in series]
    x_min = min(float(x.min()) for x in xs if x.size)
    x_max = max(float(x.max()) for x in xs if x.size)
    y_min = min(float(y.min()) for y in ys if y.size)
    y_max = max(float(y.max()) for y in ys if y.size)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.04 * (y_max - y_min)
    y_min -= pad
    y_max += pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#888"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gx = ml + frac * pw
        gy = mt + frac * ph
        xv = x_min + frac * (x_max - x_min)
        yv = y_max - frac * (y_max - y_min)
        parts.append(
            f'<line x1="{gx:.1f}" y1="{mt}" x2="{gx:.1f}" y2="{mt + ph}" '
            f'stroke="#eee"/>'
        )
        parts.append(
            f'<line x1="{ml}" y1="{gy:.1f}" x2="{ml + pw}" y2="{gy:.1f}" stroke="#eee"/>'
        )
        parts.append(
            f'<text x="{gx:.1f}" y="{height - mb + 16}" text-anchor="middle">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{gy + 4:.1f}" text-anchor="end">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.0f}" y="{height - 10}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.0f})">{ylabel}</text>'
    )
    for k, (name, x, y) in enumerate(series):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        stride = max(1, math.ceil(x.size / CHART_MAX_POINTS))
        # Plot coordinates of the kept points, mapped in one pass each.
        px = ml + (x[::stride] - x_min) / (x_max - x_min) * pw
        py = mt + (y_max - y[::stride]) / (y_max - y_min) * ph
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>')
        parts.append(
            f'<text x="{ml + pw - 6}" y="{mt + 16 + 14 * k}" text-anchor="end" '
            f'fill="{color}">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def write_member_plots(out_dir, stem: str, arc) -> list[Path]:
    """Standard chart set for one member run."""
    out_dir = Path(out_dir)
    t = arc.t
    we = np.sqrt(arc.column("we_x") ** 2 + arc.column("we_y") ** 2 + arc.column("we_z") ** 2)
    written = []
    charts = [
        ("dist", "attitude error |R_e|_I", [("dist_Re", t, arc.column("dist_Re"))]),
        ("theta", "warp angle", [("theta", t, arc.column("theta"))]),
        ("omega", "velocity error norm", [("|omega_e|", t, we)]),
        (
            "torque",
            "control torque",
            [(c, t, arc.column(c)) for c in ("tau_x", "tau_y", "tau_z")],
        ),
        ("lyap", "monitor value", [("lyap", t, arc.column("lyap"))]),
    ]
    for tag, title, series in charts:
        p = out_dir / f"{stem}_{tag}.svg"
        svg_line_chart(p, f"{stem}: {title}", "t [s]", title, series)
        written.append(p)
    return written
