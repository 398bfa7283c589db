"""Deterministic figure emission: per-figure CSV plus a self-contained SVG.

No plotting stack is invoked; the SVG is assembled textually so repeated runs
are byte-identical.  Curves are drawn only where their validity flag is set.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from . import check_work
from .profiles import CurveId, curve, eval_curve, find_crossover, s21_prog_boundary

_COLORS = (
    "#c0392b",
    "#2471a3",
    "#1e8449",
    "#9a7d0a",
    "#6c3483",
    "#b9770e",
)


class Series(NamedTuple):
    curve_id: CurveId
    lo: float
    hi: float


def series_rows(all_series, step: float) -> list[list[tuple]]:
    """Rows (beta, value, label, flag) of each series on its grid: every
    lo + i*step that is at most hi, a point within 1e-12 past hi set to hi.
    The work of every row is checked before any is computed."""
    check_work(
        sum(((s.hi - s.lo) / step + 2) * s.curve_id.work for s in all_series),
        "the beta range, or raise --beta-grid-step",
    )
    out = []
    for series in all_series:
        cid, label = series.curve_id, series.curve_id.label()
        rows = []
        for i in range(max(1, round((series.hi - series.lo) / step)) + 1):
            beta = series.lo + i * step
            if beta > series.hi + 1e-12:
                break
            beta = min(beta, series.hi)
            cv = eval_curve(cid, beta)
            rows.append((beta, cv.value, label, 1 if cv.in_range else 0))
        out.append(rows)
    return out


def csv_text(per_series) -> str:
    """The `beta,value,curve,flag` CSV of `series_rows`' rows."""
    lines = ["beta,value,curve,flag"]
    for rows in per_series:
        lines += (f"{beta:.12g},{value:.12g},{label},{flag}" for beta, value, label, flag in rows)
    return "\n".join(lines) + "\n"


def render_svg(path: Path, all_series, per_series, markers, title: str) -> None:
    width, height = 640, 440
    ml, mr, mt, mb = 60, 20, 34, 44
    plot_w, plot_h = width - ml - mr, height - mt - mb

    xs = [r[0] for rows in per_series for r in rows if r[3]]
    ys = [r[1] for rows in per_series for r in rows if r[3]]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(min(ys), 0.0), max(ys)
    if y1 <= y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y1 += pad

    def px(x: float) -> float:
        return ml + (x - x0) / (x1 - x0) * plot_w

    def py(y: float) -> float:
        return mt + plot_h - (y - y0) / (y1 - y0) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes
    out.append(
        f'<line x1="{ml}" y1="{mt+plot_h}" x2="{ml+plot_w}" y2="{mt+plot_h}" '
        f'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt+plot_h}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for i in range(11):
        x = x0 + i * (x1 - x0) / 10
        out.append(
            f'<line x1="{px(x):.1f}" y1="{mt+plot_h}" x2="{px(x):.1f}" '
            f'y2="{mt+plot_h+4}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px(x):.1f}" y="{mt+plot_h+16}" text-anchor="middle" '
            f'font-size="9" font-family="sans-serif">{x:.2f}</text>'
        )
    for i in range(6):
        y = y0 + i * (y1 - y0) / 5
        out.append(
            f'<line x1="{ml-4}" y1="{py(y):.1f}" x2="{ml}" y2="{py(y):.1f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{ml-7}" y="{py(y)+3:.1f}" text-anchor="end" font-size="9" '
            f'font-family="sans-serif">{y:.3f}</text>'
        )
    out.append(
        f'<text x="{ml+plot_w/2:.1f}" y="{height-8}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">red density</text>'
    )

    for idx, (series, rows) in enumerate(zip(all_series, per_series)):
        label = series.curve_id.label()
        color = _COLORS[idx % len(_COLORS)]
        pts = [
            f"{px(beta):.2f},{py(value):.2f}"
            for beta, value, _, flag in rows
            if flag
        ]
        if pts:
            out.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        lx, ly = ml + plot_w - 130, mt + 14 + 14 * idx
        out.append(
            f'<line x1="{lx}" y1="{ly-4}" x2="{lx+22}" y2="{ly-4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx+27}" y="{ly}" font-size="10" '
            f'font-family="sans-serif">{label}</text>'
        )

    for mx, my, label in markers:
        out.append(
            f'<circle cx="{px(mx):.2f}" cy="{py(my):.2f}" r="3" fill="black"/>'
        )
        out.append(
            f'<text x="{px(mx)+5:.2f}" y="{py(my)-5:.2f}" font-size="9" '
            f'font-family="sans-serif">{label}</text>'
        )
    out.append("</svg>")
    path.write_text("\n".join(out) + "\n")


def figure_definition(fig_id: int, step: float):
    """Series, markers, and title for the four supported figures."""
    if fig_id == 4:
        series = [
            Series(curve("ac4_cliques"), step, 0.5),
            Series(curve("ac4"), 0.0, 0.5),
        ]
        markers = [(0.4, 0.08566600788, "0.08566600788 at 2/5")]
        title = "alternating 4-cycle: clique-partition value vs upper bound"
    elif fig_id == 5:
        series = [
            Series(curve("peenn_hi"), 0.0, 1.0),
            Series(curve("peenn_lo"), 0.0, 1.0),
            Series(curve("r:2,2"), 0.0, 1.0),
        ]
        markers = [
            (9 / 16, 27 / 256, "27/256 at 9/16"),
            (7 / 16, 27 / 256, "27/256 at 7/16"),
        ]
        title = "5-vertex path (red,red,blue,blue): profile branches"
    elif fig_id in (6, 7):
        hi = 1.0 if fig_id == 6 else 0.35
        series = [
            Series(curve("prog_s:2,1"), step, min(hi, 1.0 - step)),
            Series(curve("c:2,1"), 0.0, hi),
            Series(curve("cc:2,1"), 0.0, hi),
            Series(curve("ell:2,1"), 0.25, min(0.5, hi)),
            Series(curve("r:2,1"), 0.0, hi),
        ]
        markers = []
        ystar = s21_prog_boundary()
        if ystar <= hi:
            yv = eval_curve(curve("c:2,1"), ystar).value
            markers.append((ystar, yv, f"program leaves x=0 near {ystar:.4f}"))
        xstar = find_crossover(curve("cc:2,1"), curve("c:2,1"), 0.5, 1.0)
        if xstar <= hi:
            xv = eval_curve(curve("c:2,1"), xstar).value
            markers.append((xstar, xv, f"cc/c crossover near {xstar:.4f}"))
        title = "star with two red and one blue leaf: construction curves"
    else:
        raise ValueError(f"unsupported figure id {fig_id}")
    return series, markers, title


def emit_figure(fig_id: int, outdir: Path, step: float = 0.001) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    series, markers, title = figure_definition(fig_id, step)
    per_series = series_rows(series, step)
    csv_path = outdir / f"figure{fig_id}.csv"
    svg_path = outdir / f"figure{fig_id}.svg"
    csv_path.write_text(csv_text(per_series))
    render_svg(svg_path, series, per_series, markers, title)
    return [csv_path, svg_path]
