"""Ordinary least squares with confidence intervals and a slope p-value.

The slope test is two-sided, from the t-statistic a / SE(a) against the
Student-t distribution with n - 2 degrees of freedom; the t CDF is
evaluated through the regularized incomplete beta function (continued
fraction, Lentz's method). The cooling hypothesis additionally requires a
negative slope, so the decision combines the two-sided p with a sign
check; that convention is recorded in the decision record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError

_BETA_TOL = 1e-10
_BETA_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise DataError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise UsageError("incomplete beta needs a, b > 0")
    if not 0.0 <= x <= 1.0:
        raise UsageError("incomplete beta needs x in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, dof: int) -> float:
    """P(T <= t) for Student-t with `dof` degrees of freedom."""
    if dof < 1:
        raise UsageError("dof must be >= 1")
    if not math.isfinite(t):
        return 1.0 if t > 0 else 0.0
    x = dof / (dof + t * t)
    tail = 0.5 * regularized_incomplete_beta(dof / 2.0, 0.5, x)
    return 1.0 - tail if t >= 0 else tail


def student_t_quantile(p: float, dof: int, tol: float = 1e-10) -> float:
    """Inverse CDF by bisection; adequate for confidence multipliers."""
    if not 0.0 < p < 1.0:
        raise UsageError("quantile needs p in (0, 1)")
    lo, hi = -1e6, 1e6
    while hi - lo > tol * max(1.0, abs(hi)):
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
    residuals: np.ndarray
    se_a: float
    se_b: float
    n: int
    x_mean: float
    sxx: float
    resid_std: float           # sqrt(SS_res / dof)
    t975: float                # Student-t 0.975 quantile at dof; the 95% interval multiplier
    degenerate_y: bool = False # SS_tot was zero; r_squared forced to 0


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
    degenerate = ss_tot == 0.0
    r_squared = 0.0 if degenerate else 1.0 - ss_res / ss_tot
    dof = n - 2
    resid_std = math.sqrt(ss_res / dof)
    se_a = resid_std / math.sqrt(sxx)
    se_b = resid_std * math.sqrt(1.0 / n + x_mean * x_mean / sxx)
    if se_a > 0.0:
        t_stat = a / se_a
        p_a = 2.0 * (1.0 - student_t_cdf(abs(t_stat), dof))
        p_a = min(max(p_a, 0.0), 1.0)
    else:
        p_a = 0.0 if a != 0.0 else 1.0
    t975 = student_t_quantile(0.975, dof)
    return OlsFit(
        a=a, b=b, r_squared=r_squared,
        ci_a=(a - t975 * se_a, a + t975 * se_a),
        ci_b=(b - t975 * se_b, b + t975 * se_b),
        p_a=p_a, dof=dof, residuals=residuals,
        se_a=se_a, se_b=se_b, n=n, x_mean=float(x_mean), sxx=sxx,
        resid_std=resid_std, t975=t975, degenerate_y=degenerate,
    )


@dataclass
class HypothesisDecision:
    reject_h0: bool
    alpha: float
    p_a: float
    slope: float
    convention: str = ("two-sided p combined with a strict negative-slope "
                       "requirement; rejection needs p < alpha AND a < 0")

    def summary(self) -> str:
        verdict = "REJECT H0" if self.reject_h0 else "fail to reject H0"
        return (
            f"{verdict}: slope={self.slope:.6g}, p={self.p_a:.6g}, alpha={self.alpha:g}\n"
            f"H0: vegetation fraction is uncorrelated with temperature variation.\n"
            f"Convention: {self.convention}\n"
        )


def hypothesis_report(fit: OlsFit, alpha: float) -> HypothesisDecision:
    """Reject H0 (no cooling correlation) iff p_a < alpha and slope < 0."""
    if not 0.0 < alpha < 1.0:
        raise UsageError("alpha must be in (0, 1)")
    return HypothesisDecision(
        reject_h0=(fit.p_a < alpha) and (fit.a < 0.0),
        alpha=alpha, p_a=fit.p_a, slope=fit.a,
    )


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
