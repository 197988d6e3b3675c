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
    new = {s: summary.mean_curves[s] for s in SUBPOPS}
    cum = {s: np.cumsum(new[s]) for s in SUBPOPS}
    lines = [CURVES_HEADER]
    for day in range(summary.days):
        cells = [str(day)]
        cells += [f"{new[s][day]:.6f}" for s in SUBPOPS]
        cells += [f"{cum[s][day]:.6f}" for s in SUBPOPS]
        lines.append(",".join(cells))
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
    series = [np.asarray(s, dtype=np.float64) for g in groups for s in g.series]
    if not any(s.size for s in series):
        raise DataError("nothing to plot: every series is empty")
    x_max = max(1, max(s.size for s in series) - 1)
    y_max = max(float(s.max()) for s in series if s.size)
    if y_max <= 0:
        y_max = 1.0

    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def sx(x: float) -> float:
        return _LEFT + plot_w * x / x_max

    def sy(y: float) -> float:
        return _TOP + plot_h * (1 - y / y_max)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title, quote=False)}</text>',
    ]
    # axes
    x0, y0 = sx(0), sy(0)
    out.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{sx(x_max):.2f}" y2="{y0:.2f}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{sy(y_max):.2f}" stroke="black"/>'
    )
    x_step = max(1, round(x_max / 5))
    for xt in range(0, x_max + 1, x_step):
        out.append(
            f'<line x1="{sx(xt):.2f}" y1="{y0:.2f}" x2="{sx(xt):.2f}" y2="{y0 + 5:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{sx(xt):.2f}" y="{y0 + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xt}</text>'
        )
    for i in range(6):
        yt = y_max * i / 5
        out.append(
            f'<line x1="{x0 - 5:.2f}" y1="{sy(yt):.2f}" x2="{x0:.2f}" y2="{sy(yt):.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x0 - 8:.2f}" y="{sy(yt) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yt:.4g}</text>'
        )
    out.append(
        f'<text x="{_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">day</text>'
    )
    out.append(
        f'<text x="18" y="{_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_TOP + plot_h / 2:.1f})">daily infected fraction</text>'
    )
    # curves
    for group in groups:
        for s in group.series:
            s = np.asarray(s, dtype=np.float64)
            if not s.size:
                continue
            xy = np.empty(2 * s.size)
            xy[0::2] = _LEFT + plot_w * np.arange(s.size) / x_max  # as sx, sy
            xy[1::2] = _TOP + plot_h * (1 - s / y_max)
            points = " ".join(["%.2f,%.2f"] * s.size) % tuple(xy.tolist())
            out.append(
                f'<polyline fill="none" stroke="{group.color}" stroke-opacity="0.45" '
                f'stroke-width="1" points="{points}"/>'
            )
    # legend
    for row, group in enumerate(groups):
        ly = _TOP + 10 + 18 * row
        lx = _WIDTH - _RIGHT - 170
        out.append(
            f'<rect x="{lx}" y="{ly - 9}" width="14" height="10" fill="{group.color}"/>'
        )
        out.append(
            f'<text class="legend" x="{lx + 20}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{escape(group.label, quote=False)}</text>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
