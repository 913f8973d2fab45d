"""Ordinary least squares with confidence intervals and a slope p-value.

The slope test is two-sided, from the t-statistic a / SE(a) against the
Student-t distribution with n - 2 degrees of freedom. At integer degrees
of freedom the t CDF is an exact finite sum in atan(|t| / sqrt(dof))
(Abramowitz & Stegun, Handbook of Mathematical Functions, 26.7.3-26.7.4).
A p below 0.1 sums the tail of the same series, until a term is below
1e-17 of the sum; each term is at most cos^2 theta times the one before.
The cooling hypothesis additionally requires a negative slope, so the
decision combines the two-sided p with a sign check; `CONVENTION` states
it, and the decision's summary prints it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError

ALPHA = 0.05  # the slope test's significance level
QUANTILE_TOL = 1e-10  # student_t_quantile's relative bisection tolerance
CONVENTION = ("two-sided p combined with a strict negative-slope "
              "requirement; rejection needs p < alpha AND a < 0")


def student_t_cdf(t: float, dof: int) -> float:
    """P(T <= t) for Student-t with an integer `dof` >= 1 degrees of freedom.

    A&S 26.7.3-26.7.4: with theta = atan(|t| / sqrt(dof)), P(|T| <= |t|) is
    (2/pi)(theta + sin cos S) for odd dof and sin S for even dof, where S is
    a sum of dof // 2 terms in cos^2 theta.
    """
    if not isinstance(dof, numbers.Integral) or dof < 1:
        raise UsageError(f"dof must be an integer >= 1, got {dof!r}")
    if not math.isfinite(t):
        return 1.0 if t > 0 else 0.0
    theta = math.atan(abs(t) / math.sqrt(dof))
    sin, cos = math.sin(theta), math.cos(theta)
    odd = dof % 2
    term, total = 1.0, 0.0
    for k in range(dof // 2):
        total += term
        term *= (2 * k + 1 + odd) / (2 * k + 2 + odd) * cos * cos
    inner = 2.0 / math.pi * (theta + sin * cos * total) if odd else sin * total
    return 0.5 + 0.5 * inner if t >= 0 else 0.5 - 0.5 * inner


def two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student-t at an integer `dof` >= 1.

    Below 0.1 it is the A&S series past its dof // 2 terms, not 1 - P(|T| <= |t|),
    whose precision is only absolute: the whole series sums to 1 / sin for even
    dof and to (pi/2 - theta) / (sin cos) for odd. sin and cos come from t; at
    dof 1, theta lies so near pi/2 that cos(theta) would lose digits."""
    p = 2.0 * (1.0 - student_t_cdf(abs(t), dof))
    if p >= 0.1 or math.isinf(t):
        return p
    hyp = math.hypot(t, math.sqrt(dof))
    sin, cos = abs(t) / hyp, math.sqrt(dof) / hyp
    odd = dof % 2
    term, total, k = 1.0, 0.0, 0
    while k < dof // 2 or term > 1e-17 * total:
        if k >= dof // 2:
            total += term
        term *= (2 * k + 1 + odd) / (2 * k + 2 + odd) * cos * cos
        k += 1
    return 2.0 / math.pi * sin * cos * total if odd else sin * total


def student_t_quantile(p: float, dof: int) -> float:
    """Inverse CDF by bisection; adequate for confidence multipliers."""
    if not 0.0 < p < 1.0:
        raise UsageError("quantile needs p in (0, 1)")
    lo, hi = -1e6, 1e6
    while hi - lo > QUANTILE_TOL * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class OlsFit:
    a: float                   # slope
    b: float                   # intercept
    r_squared: float
    ci_a: tuple                # 95% interval for the slope
    ci_b: tuple
    p_a: float                 # two-sided slope p-value
    dof: int
    n: int
    x_mean: float
    sxx: float
    resid_std: float           # sqrt(SS_res / dof)
    t975: float                # Student-t 0.975 quantile at dof; the 95% interval multiplier


def ols_fit(xs, ys) -> OlsFit:
    """Closed-form simple linear regression ys = a * xs + b."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise UsageError("xs and ys must be 1-d with equal length")
    n = len(xs)
    if n < 3:
        raise UsageError(f"need at least 3 points, got {n}")
    x_mean, y_mean = xs.mean(), ys.mean()
    dx = xs - x_mean
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DataError("xs are all equal; slope is unidentifiable")
    a = float(dx @ (ys - y_mean)) / sxx
    b = y_mean - a * x_mean
    residuals = ys - (a * xs + b)
    ss_res = float(residuals @ residuals)
    ss_tot = float((ys - y_mean) @ (ys - y_mean))
    r_squared = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dof = n - 2
    resid_std = math.sqrt(ss_res / dof)
    se_a = resid_std / math.sqrt(sxx)
    se_b = resid_std * math.sqrt(1.0 / n + x_mean * x_mean / sxx)
    if se_a > 0.0:
        p_a = two_sided_p(a / se_a, dof)
    else:
        p_a = 0.0 if a != 0.0 else 1.0
    t975 = student_t_quantile(0.975, dof)
    return OlsFit(
        a=a, b=b, r_squared=r_squared,
        ci_a=(a - t975 * se_a, a + t975 * se_a),
        ci_b=(b - t975 * se_b, b + t975 * se_b),
        p_a=p_a, dof=dof, n=n, x_mean=float(x_mean), sxx=sxx,
        resid_std=resid_std, t975=t975,
    )


@dataclass
class HypothesisDecision:
    reject_h0: bool
    p_a: float
    slope: float

    def summary(self) -> str:
        verdict = "REJECT H0" if self.reject_h0 else "fail to reject H0"
        return (
            f"{verdict}: slope={self.slope:.6g}, p={self.p_a:.6g}, alpha={ALPHA:g}\n"
            f"H0: vegetation fraction is uncorrelated with temperature variation.\n"
            f"Convention: {CONVENTION}\n"
        )


def hypothesis_report(fit: OlsFit) -> HypothesisDecision:
    """Reject H0 (no cooling correlation) iff p_a < ALPHA and slope < 0."""
    return HypothesisDecision(reject_h0=(fit.p_a < ALPHA) and (fit.a < 0.0),
                              p_a=fit.p_a, slope=fit.a)


def mean_response_ci(fit: OlsFit, x: float):
    """95% confidence band for the fitted mean at x; narrowest at x_mean."""
    fitted = fit.a * x + fit.b
    half = fit.t975 * fit.resid_std * math.sqrt(
        1.0 / fit.n + (x - fit.x_mean) ** 2 / fit.sxx
    )
    return fitted - half, fitted + half


def report_figure_data(aggregated, fit: OlsFit, stream) -> None:
    """CSV with everything needed to re-draw the scatter-plus-fit figure."""
    aggregated = list(aggregated)
    if len(aggregated) < 3:
        raise UsageError("need at least 3 aggregated rows")
    stream.write("delta_t,mean_v,fit_v,ci_lo,ci_hi\n")
    for dt, mean_v in aggregated:
        lo, hi = mean_response_ci(fit, dt)
        fit_v = fit.a * dt + fit.b
        stream.write(f"{dt:.9g},{mean_v:.9g},{fit_v:.9g},{lo:.9g},{hi:.9g}\n")
