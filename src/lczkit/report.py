"""Assemble the final statistical artifact: the (delta_t, mean v') table,
the OLS fit, and the hypothesis decision, including the delta_t = 0
baseline row: the scenes' delta_t = 0 counterfactuals, their reconstructions.
"""

from __future__ import annotations

import io as _io
import math
from dataclasses import dataclass

import numpy as np

from .analysis import HypothesisDecision, OlsFit, hypothesis_report, ols_fit, report_figure_data
from .autogeolabel import aggregate_fractions
from .errors import UsageError


@dataclass
class ExperimentRecord:
    scene_id: str
    delta_t: float         # requested temperature variation, kelvin
    achieved_dt: float
    v_prime: float         # vegetation fraction of the counterfactual

    def __post_init__(self):
        if not 0.0 <= self.v_prime <= 1.0:
            raise UsageError("vegetation fractions must lie in [0, 1]")


@dataclass
class ReportBundle:
    aggregated: list       # [(delta_t, mean v')], sorted by delta_t
    fit: OlsFit
    decision: HypothesisDecision
    figure_csv: str
    summary: str


def check_sweep(delta_ts) -> None:
    """The rules a set of delta_t values meets for the slope fit."""
    distinct = sorted(set(delta_ts))
    if not all(map(math.isfinite, distinct)) or 0.0 not in distinct or len(distinct) < 3:
        raise UsageError("delta_t values must be finite, hold the 0 baseline and at least "
                         f"3 distinct values; got {', '.join(map(repr, distinct))}")


def build_report(records, n_excluded: int = 0) -> ReportBundle:
    """Aggregate per-scene fractions, fit, and decide; pure in its inputs."""
    records = list(records)
    if not records:
        raise UsageError("no experiment records")
    distinct = sorted({r.delta_t for r in records})
    check_sweep(distinct)

    aggregated = aggregate_fractions((r.delta_t, r.v_prime) for r in records)
    xs = np.array([dt for dt, _ in aggregated])
    ys = np.array([v for _, v in aggregated])
    fit = ols_fit(xs, ys)
    decision = hypothesis_report(fit)

    buf = _io.StringIO()
    report_figure_data(aggregated, fit, buf)
    figure_csv = buf.getvalue()

    lines = [
        "Counterfactual vegetation-vs-temperature report",
        "=" * 48,
        f"records: {len(records)} over {len(distinct)} temperature variations "
        f"({n_excluded} pairs excluded after numeric failures)",
        "",
        "delta_t [K]   mean v'",
    ]
    lines += [f"{dt:>11.3f}   {v:.6f}" for dt, v in aggregated]
    lines += [
        "",
        f"OLS fit: v'(dt) = a*dt + b",
        f"  a = {fit.a:.6g} 1/K   (95% CI {fit.ci_a[0]:.6g} .. {fit.ci_a[1]:.6g})",
        f"  b = {fit.b:.6g}       (95% CI {fit.ci_b[0]:.6g} .. {fit.ci_b[1]:.6g})",
        f"  R^2 = {fit.r_squared:.4f}   p(a) = {fit.p_a:.6g}   dof = {fit.dof}",
        "",
        decision.summary(),
    ]
    summary = "\n".join(lines)
    return ReportBundle(aggregated, fit, decision, figure_csv, summary)
