import io
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from lczkit.analysis import (
    ALPHA,
    HypothesisDecision,
    hypothesis_report,
    mean_response_ci,
    ols_fit,
    report_figure_data,
    student_t_cdf,
    student_t_quantile,
    two_sided_p,
)
from lczkit.errors import DataError, UsageError

# (dof, two-sided-tail quantile, upper CDF value) from standard t tables
T_TABLE = [
    (1, 6.3138, 0.95),
    (1, 12.706, 0.975),
    (2, 2.9200, 0.95),
    (3, 3.1824, 0.975),
    (5, 2.0150, 0.95),
    (7, 2.3646, 0.975),
    (10, 1.8125, 0.95),
    (10, 2.2281, 0.975),
    (20, 2.0860, 0.975),
    (30, 1.6973, 0.95),
    (60, 2.0003, 0.975),
    (120, 1.9799, 0.975),
]


@pytest.mark.parametrize("dof,t,p", T_TABLE, ids=lambda v: str(v))
def test_t_cdf_matches_tables(dof, t, p):
    assert student_t_cdf(t, dof) == pytest.approx(p, abs=1e-3)
    assert student_t_quantile(p, dof) == pytest.approx(t, abs=1e-3)


def test_t_cdf_symmetry_and_center():
    for dof in (1, 4, 17):
        assert student_t_cdf(0.0, dof) == pytest.approx(0.5, abs=1e-12)
        for t in (0.3, 1.7, 4.2):
            assert student_t_cdf(t, dof) + student_t_cdf(-t, dof) == pytest.approx(1.0, abs=1e-10)


def test_t_cdf_matches_scipy():
    """The finite sum is exact up to rounding at every integer dof."""
    ts = np.concatenate([np.linspace(-50.0, 50.0, 101),
                         np.random.default_rng(0).uniform(-50.0, 50.0, 20)])
    for dof in range(1, 201):
        ours = np.array([student_t_cdf(float(t), dof) for t in ts])
        assert np.max(np.abs(ours - scipy.stats.t.cdf(ts, dof))) <= 1e-13, dof


def test_ols_p_matches_linregress():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(5, 41))
        xs = rng.uniform(-10, 10, n)
        ys = rng.uniform(-2, 2) * xs + rng.uniform(-5, 5) + rng.normal(0, 1.0, n)
        ref = scipy.stats.linregress(xs, ys)
        assert ols_fit(xs, ys).p_a == pytest.approx(ref.pvalue, abs=1e-13)


def test_two_sided_p_keeps_its_digits_in_the_tail():
    """Relative, not absolute, precision down to p = 1e-15: 2 * (1 - cdf)
    would keep only ~1e-16 of p, four digits at p = 1e-12."""
    for dof in range(1, 41):
        for p in np.logspace(-15, math.log10(0.5), 50):
            t = scipy.stats.t.isf(p / 2, dof)
            ref = 2 * scipy.stats.t.sf(t, dof)
            assert two_sided_p(t, dof) == pytest.approx(ref, rel=1e-12, abs=0), (dof, p)
            assert two_sided_p(-t, dof) == two_sided_p(t, dof)
    xs = np.arange(12.0)
    ys = -0.5 * xs + np.random.default_rng(1).normal(0, 0.05, 12)
    ref = scipy.stats.linregress(xs, ys).pvalue  # 4.8e-19, where 1 - cdf rounds to 0
    assert ref < 1e-18 and ols_fit(xs, ys).p_a == pytest.approx(ref, rel=1e-10)


def test_t_quantile_inverts_cdf():
    for dof in (2, 9, 33):
        for p in (0.1, 0.5, 0.975, 0.999):
            assert student_t_cdf(student_t_quantile(p, dof), dof) == pytest.approx(p, abs=1e-7)


def test_t_validation():
    with pytest.raises(UsageError):
        student_t_cdf(1.0, 0)
    with pytest.raises(UsageError):
        student_t_quantile(0.0, 5)
    with pytest.raises(UsageError):
        student_t_cdf(1.0, 2.5)


def test_ols_exact_linear_data():
    xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    fit = ols_fit(xs, 2.0 * xs + 1.0)
    assert fit.a == pytest.approx(2.0, abs=1e-12)
    assert fit.b == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.resid_std == pytest.approx(0.0, abs=1e-12)
    assert fit.p_a == 0.0  # zero residual variance, nonzero slope


def test_ols_constant_ys_degenerate():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    fit = ols_fit(xs, np.full(4, 5.0))
    assert fit.r_squared == 0.0  # forced: SS_tot is 0
    assert fit.a == 0.0
    assert fit.p_a == 1.0


def test_ols_validation():
    with pytest.raises(UsageError):
        ols_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DataError):
        ols_fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_ols_matches_scipy_linregress():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(5, 40))
        xs = rng.uniform(-10, 10, n)
        ys = rng.uniform(-3, 3) * xs + rng.uniform(-5, 5) + rng.normal(0, 1.5, n)
        fit = ols_fit(xs, ys)
        ref = scipy.stats.linregress(xs, ys)
        assert fit.a == pytest.approx(ref.slope, abs=1e-10)
        assert fit.b == pytest.approx(ref.intercept, abs=1e-10)
        # each interval's half-width is t975 standard errors
        assert (fit.ci_a[1] - fit.ci_a[0]) / 2 / fit.t975 == pytest.approx(ref.stderr, abs=1e-10)
        assert ((fit.ci_b[1] - fit.ci_b[0]) / 2 / fit.t975
                == pytest.approx(ref.intercept_stderr, abs=1e-10))
        assert fit.p_a == pytest.approx(ref.pvalue, abs=1e-6)
        assert fit.r_squared == pytest.approx(ref.rvalue ** 2, abs=1e-10)


def test_ols_ci_matches_closed_form():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 5, 12)
    ys = -1.3 * xs + 2.0 + rng.normal(0, 0.4, 12)
    fit = ols_fit(xs, ys)
    t975 = scipy.stats.t.ppf(0.975, fit.dof)
    dx = xs - xs.mean()
    resid = ys - (fit.a * xs + fit.b)
    se_a = np.sqrt(resid @ resid / (len(xs) - 2) / (dx @ dx))
    assert fit.ci_a[0] == pytest.approx(fit.a - t975 * se_a, abs=1e-9)
    assert fit.ci_a[1] == pytest.approx(fit.a + t975 * se_a, abs=1e-9)


def test_ols_shift_scale_equivariance():
    rng = np.random.default_rng(4)
    xs = rng.uniform(-5, 5, 15)
    ys = 0.7 * xs - 1.0 + rng.normal(0, 0.8, 15)
    base = ols_fit(xs, ys)
    scaled = ols_fit(xs, 3.0 * ys + 10.0)
    assert scaled.a == pytest.approx(3.0 * base.a, rel=1e-12)
    assert scaled.b == pytest.approx(3.0 * base.b + 10.0, rel=1e-12)
    assert scaled.p_a == pytest.approx(base.p_a, abs=1e-12)
    shifted = ols_fit(xs + 2.0, ys)
    assert shifted.a == pytest.approx(base.a, rel=1e-12)
    assert shifted.b == pytest.approx(base.b - 2.0 * base.a, rel=1e-9)


def test_ols_permutation_invariance():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-5, 5, 20)
    ys = -0.4 * xs + rng.normal(0, 1.0, 20)
    perm = rng.permutation(20)
    a, b = ols_fit(xs, ys), ols_fit(xs[perm], ys[perm])
    assert a.a == pytest.approx(b.a, abs=1e-12)
    assert a.p_a == pytest.approx(b.p_a, abs=1e-12)


def _fit_with(p_a, slope):
    xs = np.array([-1.0, 0.0, 1.0, 2.0])
    fit = ols_fit(xs, np.array([1.0, 0.2, -0.7, -1.9]))
    return replace(fit, p_a=p_a, a=slope)


def test_hypothesis_decision_rules():
    assert ALPHA == 0.05
    assert hypothesis_report(_fit_with(0.01, -0.5)).reject_h0
    assert not hypothesis_report(_fit_with(0.01, 0.5)).reject_h0  # wrong sign
    assert not hypothesis_report(_fit_with(0.2, -0.5)).reject_h0  # not significant
    assert not hypothesis_report(_fit_with(ALPHA, -0.5)).reject_h0  # strict inequality
    assert hypothesis_report(_fit_with(np.nextafter(ALPHA, 0.0), -0.5)).reject_h0


def test_decision_summary_mentions_verdict():
    assert "REJECT H0" in hypothesis_report(_fit_with(0.001, -1.0)).summary()
    assert "fail to reject" in hypothesis_report(_fit_with(0.9, -1.0)).summary()


def test_mean_response_ci_narrowest_at_x_mean():
    rng = np.random.default_rng(6)
    xs = rng.uniform(-4, 4, 10)
    ys = -0.8 * xs + 1.0 + rng.normal(0, 0.3, 10)
    fit = ols_fit(xs, ys)
    width_at = lambda x: np.diff(mean_response_ci(fit, x))[0]
    w_center = width_at(fit.x_mean)
    for x in (fit.x_mean - 3, fit.x_mean - 1, fit.x_mean + 2, fit.x_mean + 5):
        assert width_at(x) >= w_center - 1e-12
    lo, hi = mean_response_ci(fit, fit.x_mean)
    assert lo <= fit.a * fit.x_mean + fit.b <= hi


def test_figure_data_rows_and_intercept():
    xs = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    ys = -0.05 * xs + 0.4 + np.array([0.01, -0.02, 0.0, 0.02, -0.01])
    fit = ols_fit(xs, ys)
    buf = io.StringIO()
    report_figure_data(list(zip(xs, ys)), fit, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "delta_t,mean_v,fit_v,ci_lo,ci_hi"
    assert len(lines) == 1 + len(xs)
    row0 = dict(zip(lines[0].split(","), lines[3].split(",")))
    assert float(row0["delta_t"]) == 0.0
    assert float(row0["fit_v"]) == pytest.approx(fit.b, abs=1e-9)
    assert float(row0["ci_lo"]) <= float(row0["fit_v"]) <= float(row0["ci_hi"])


def test_figure_data_needs_three_rows():
    fit = ols_fit(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.1]))
    with pytest.raises(UsageError):
        report_figure_data([(0.0, 0.0), (1.0, 1.0)], fit, io.StringIO())
