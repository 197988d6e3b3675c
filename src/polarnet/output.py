"""CSV and SVG emission for simulation results and metric reports.

All writers produce byte-identical output for identical inputs: fixed
headers, fixed row order, fixed decimal formatting, no locale dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from html import escape

import numpy as np

from .errors import DataError
from .experiment import SUBPOPS, Comparison, EnsembleSummary
from .metrics import MetricsReport

CURVES_HEADER = "day,new_unvacc,new_vacc,new_all,cum_unvacc,cum_vacc,cum_all"


def write_curves_csv(summary: EnsembleSummary, path) -> None:
    """Per-day ensemble-mean infection fractions, new and cumulative."""
    mean = summary.mean_curves
    new = np.array([mean[s] for s in SUBPOPS])  # (3, days)
    table = np.concatenate((new, np.cumsum(new, axis=1))).T  # (days, 6)
    row = "{}" + ",{:.6f}" * 6
    lines = [CURVES_HEADER] + [row.format(day, *cells) for day, cells in enumerate(table.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_csv(comparison: Comparison, path) -> None:
    """One row per (scenario, subpopulation): mean attack rate and peak day."""
    lines = ["scenario,subpop,attack_rate,t_peak"]
    for ens in comparison:
        for subpop in SUBPOPS:
            lines.append(
                f"{ens.allocation.strategy},{subpop},{ens.mean_attack_rate[subpop]:.6f},{ens.mean_t_peak[subpop]:.6f}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_metrics_csv(report: MetricsReport, path) -> None:
    """`metric,value` rows in a fixed order."""
    rows = [
        ("density", repr(float(report.density))),
        ("mean_degree", repr(float(report.mean_degree))),
        ("avg_clustering", repr(float(report.avg_clustering))),
        ("power_law_gamma", repr(float(report.power_law.gamma))),
        ("power_law_kmin", str(int(report.power_law.k_min))),
        ("power_law_r2", repr(float(report.power_law.r2))),
        ("assortativity", repr(float(report.assortativity))),
        ("cross_connection", repr(float(report.cross_connection))),
    ]
    lines = ["metric,value"] + [f"{name},{value}" for name, value in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class CurveGroup:
    """A family of same-colored series sharing one legend entry."""

    label: str
    color: str
    series: list  # of 1-d arrays


_WIDTH, _HEIGHT = 900, 520
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 30, 50, 55


def emit_svg_plot(groups: list[CurveGroup], title: str, path) -> None:
    """Standalone SVG line chart: one polyline per series, one legend entry
    per group, axes with numeric ticks. Valid XML by construction."""
    series = [(np.asarray(s, dtype=np.float64), g.color) for g in groups for s in g.series]
    if not any(s.size for s, _ in series):
        raise DataError("nothing to plot: every series is empty")
    x_max = max(1, max(s.size for s, _ in series) - 1)
    y_max = max(float(s.max()) for s, _ in series if s.size)
    if y_max <= 0:
        y_max = 1.0
    plot_w, plot_h = _WIDTH - _LEFT - _RIGHT, _HEIGHT - _TOP - _BOTTOM

    # day and fraction to SVG coordinates: scalars for the axes, arrays for the curves
    def sx(x):
        return _LEFT + plot_w * x / x_max

    def sy(y):
        return _TOP + plot_h * (1 - y / y_max)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]

    def line(x1, y1, x2, y2):
        out.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" stroke="black"/>')

    def text(x, y, anchor, size, body, extra=""):
        out.append(f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
                   f'font-size="{size}"{extra}>{body}</text>')

    text(f"{_WIDTH / 2:.1f}", 28, "middle", 16, escape(title, quote=False))
    x0, y0 = sx(0), sy(0)
    line(x0, y0, sx(x_max), y0)
    line(x0, y0, x0, sy(y_max))
    for xt in range(0, x_max + 1, max(1, round(x_max / 5))):
        line(sx(xt), y0, sx(xt), y0 + 5)
        text(f"{sx(xt):.2f}", f"{y0 + 20:.2f}", "middle", 11, xt)
    for yt in (y_max * i / 5 for i in range(6)):
        line(x0 - 5, sy(yt), x0, sy(yt))
        text(f"{x0 - 8:.2f}", f"{sy(yt) + 4:.2f}", "end", 11, f"{yt:.4g}")
    mid_y = f"{_TOP + plot_h / 2:.1f}"
    text(f"{_LEFT + plot_w / 2:.1f}", _HEIGHT - 14, "middle", 13, "day")
    text(18, mid_y, "middle", 13, "daily infected fraction", f' transform="rotate(-90 18 {mid_y})"')
    for s, color in series:
        if s.size:
            xy = np.empty(2 * s.size)
            xy[0::2], xy[1::2] = sx(np.arange(s.size)), sy(s)
            points = " ".join(["%.2f,%.2f"] * s.size) % tuple(xy.tolist())
            out.append(f'<polyline fill="none" stroke="{color}" stroke-opacity="0.45" stroke-width="1" points="{points}"/>')
    for row, group in enumerate(groups):
        ly = _TOP + 10 + 18 * row
        lx = _WIDTH - _RIGHT - 170
        out.append(f'<rect x="{lx}" y="{ly - 9}" width="14" height="10" fill="{group.color}"/>')
        out.append(f'<text class="legend" x="{lx + 20}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{escape(group.label, quote=False)}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
