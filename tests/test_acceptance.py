"""Acceptance gate: ten pass/fail criteria covering the numeric identities,
the statistics, the labeling calibration, and the end-to-end pipeline.

Each test prints one `criterion NN: PASS/FAIL` line with the measured
quantities, then asserts. The end-to-end criteria share one module-scoped
pipeline fixture (run twice for the determinism check).
"""

import time

import numpy as np
import pytest
import scipy.stats

from lczkit import autodiff as ad
from lczkit import pipeline as pl
from lczkit import vae as vae_mod
from lczkit.analysis import ols_fit, student_t_cdf
from lczkit.autodiff import Tensor, check_gradient
from lczkit.autogeolabel import LabelRules, segment, vegetation_fraction
from lczkit.config import RunConfig
from lczkit.perturb import batch_perturb, delta_c
from lczkit.rasterizer import rasterize
from lczkit.regressor import RegConfig, forward_graph, init_regressor, l1_loss_graph
from lczkit.synthcity import SceneParams, generate_scene
from lczkit.vae import VaeConfig, init_vae, kld_weight

from test_autodiff import primitive_cases


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """Default-configuration pipeline (500 scenes, 16x16 grid, latent 32,
    k_veg 8, sigma 0.5, 30 held-out scenes, sweep 0/±1/±3/±5/±10), run
    twice with the same seed for the determinism criterion."""
    base = tmp_path_factory.mktemp("acceptance")
    cfg = RunConfig({"seed": 0})
    t0 = time.perf_counter()
    result = pl.run_pipeline(cfg, str(base / "run1"))
    elapsed = time.perf_counter() - t0
    pl.run_pipeline(RunConfig({"seed": 0}), str(base / "run2"))
    return {"result": result, "out1": base / "run1", "out2": base / "run2",
            "elapsed": elapsed}


def test_criterion_01_closed_form_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    max_dot, max_cos = 0.0, 0.0
    for _ in range(1000):
        g = rng.standard_normal(int(rng.integers(2, 128)))
        dt = float(rng.uniform(-10, 10))
        if dt == 0.0:
            continue
        dc = delta_c(g, dt)
        max_dot = max(max_dot, abs(dc @ g - dt) / max(1.0, abs(dt)))
        cos = (dc @ g) * np.sign(dt) / (np.linalg.norm(dc) * np.linalg.norm(g))
        max_cos = max(max_cos, abs(cos - 1.0))
    elapsed = time.perf_counter() - t0
    ok = max_dot <= 1e-9 and max_cos <= 1e-9 and elapsed < 1.0
    _verdict(1, ok, f"1000 cases: dot rel err {max_dot:.2e}, cos err {max_cos:.2e}, "
                    f"{elapsed:.2f}s (<1s)")


def test_criterion_02_minimal_norm():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        g = rng.standard_normal(32)
        dt = float(rng.uniform(-10, 10))
        dc = delta_c(g, dt)
        for _ in range(100):
            null = rng.standard_normal(32)
            null -= (null @ g) / (g @ g) * g
            alt = dc + null
            ok &= abs(alt @ g - dt) <= 1e-8 * max(1.0, abs(dt))
            ok &= np.linalg.norm(dc) <= np.linalg.norm(alt) + 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(2, ok, f"100 cases x 100 constraint-satisfying alternatives, "
                    f"{elapsed:.2f}s (<5s)")


def _params_as_vector_loss(param_dict, build_loss):
    """Loss over a flat parameter vector via frozen selection matrices."""
    names = list(param_dict)
    sizes = [param_dict[n].value.size for n in names]
    shapes = [param_dict[n].shape for n in names]

    def sliced(t, start, size):
        sel = np.zeros((t.value.size, size))
        sel[np.arange(start, start + size), np.arange(size)] = 1.0
        return ad.matmul(ad.reshape(t, (1, t.value.size)), Tensor(sel))

    def loss_of(theta):
        off, pieces = 0, {}
        for n, size, shp in zip(names, sizes, shapes):
            pieces[n] = ad.reshape(sliced(theta, off, size), shp)
            off += size
        return build_loss(pieces)

    theta0 = np.concatenate([param_dict[n].value.ravel() for n in names])
    return loss_of, theta0


def test_criterion_03_gradient_checks():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(103)

    # every primitive at 10 random points
    for _, fn, kinked in primitive_cases(np.random.default_rng(7)):
        for _ in range(10):
            point = rng.standard_normal(6)
            if kinked:
                point = point + np.copysign(0.05, point)
            worst = max(worst, check_gradient(fn, point))

    # composed VAE loss (reconstruction + weighted KLD) w.r.t. all weights
    shape = (2, 4, 4)
    model = init_vae(shape, VaeConfig(latent_dim=2, hidden=4), rng)
    x = rng.standard_normal((1,) + shape)
    eps = rng.standard_normal((1, 2))

    def vae_loss(pieces):
        saved = dict(model.params)
        try:
            model.params.update(pieces)
            mu, lv = vae_mod.encode_graph(model, Tensor(x))
            code = ad.add(mu, ad.mul(ad.exp(ad.scale(lv, 0.5)), Tensor(eps)))
            s_hat = vae_mod.decode_graph(model, code)
            return vae_mod.elbo_loss(Tensor(x), s_hat, mu, lv, 1e-3)
        finally:
            model.params.update(saved)

    loss_of, theta0 = _params_as_vector_loss(model.params, vae_loss)
    for _ in range(10):
        point = theta0 + 0.05 * rng.standard_normal(theta0.shape)
        worst = max(worst, check_gradient(loss_of, point))

    # composed regressor L1 loss w.r.t. all weights (tanh keeps it smooth)
    reg = init_regressor(4, RegConfig(hidden=(5, 3), activation="tanh"), rng)
    codes = rng.standard_normal((3, 4))
    targets = rng.standard_normal((3, 1))

    def reg_loss(pieces):
        saved = dict(reg.params)
        try:
            reg.params.update(pieces)
            return l1_loss_graph(forward_graph(reg, Tensor(codes)), Tensor(targets))
        finally:
            reg.params.update(saved)

    loss_of, theta0 = _params_as_vector_loss(reg.params, reg_loss)
    for _ in range(10):
        point = theta0 + 0.05 * rng.standard_normal(theta0.shape)
        worst = max(worst, check_gradient(loss_of, point))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    _verdict(3, ok, f"max finite-difference rel err {worst:.2e} (<=1e-5), "
                    f"{elapsed:.1f}s (<30s)")


def test_criterion_04_linear_regressor_exactness(tmp_path):
    rng = np.random.default_rng(104)
    shape = (2, 4, 4)
    vae = init_vae(shape, VaeConfig(latent_dim=4, hidden=8), rng)
    reg = init_regressor(4, RegConfig(hidden=(6, 3), activation="identity"), rng)
    reg.t_mean, reg.t_std = 290.0, 2.0
    sweep = (0.0, 1.0, 3.0, 5.0, 10.0, -1.0, -3.0, -5.0, -10.0)
    scenes = np.stack([np.random.default_rng(seed).standard_normal(shape) for seed in range(3)])
    result = batch_perturb(vae, reg, scenes, sweep, [f"seed_{seed}" for seed in range(3)],
                           tmp_path / "cf.lczm")
    worst = max(abs(cf.achieved_dt - cf.requested_dt) for cf in result.scenes)
    ok = not result.failures and len(result.scenes) == len(sweep) * len(scenes) and worst <= 1e-6
    _verdict(4, ok, f"linear model achieved-vs-requested max err {worst:.2e} (<=1e-6) "
                    f"over the 0/±1/±3/±5/±10 sweep")


def test_criterion_05_ols_and_t_distribution():
    rng = np.random.default_rng(105)
    coeff_err, p_err = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(5, 40))
        xs = rng.uniform(-10, 10, n)
        ys = rng.uniform(-2, 2) * xs + rng.uniform(-5, 5) + rng.normal(0, 1.0, n)
        fit = ols_fit(xs, ys)
        ref = scipy.stats.linregress(xs, ys)
        coeff_err = max(coeff_err, abs(fit.a - ref.slope), abs(fit.b - ref.intercept))
        p_err = max(p_err, abs(fit.p_a - ref.pvalue))
    table = [(1, 6.3138, 0.95), (2, 2.9200, 0.95), (5, 2.0150, 0.95),
             (7, 2.3646, 0.975), (10, 2.2281, 0.975), (20, 2.0860, 0.975),
             (30, 1.6973, 0.95), (120, 1.9799, 0.975)]
    cdf_err = max(abs(student_t_cdf(t, dof) - p) for dof, t, p in table)
    xs = np.array([-2.0, 0.0, 1.0, 3.0])
    exact = ols_fit(xs, -1.5 * xs + 4.0)
    ok = (coeff_err <= 1e-10 and p_err <= 1e-6 and cdf_err <= 1e-3
          and exact.r_squared == pytest.approx(1.0, abs=1e-12))
    _verdict(5, ok, f"coeff err {coeff_err:.2e} (<=1e-10), p err {p_err:.2e} (<=1e-6), "
                    f"t-table err {cdf_err:.2e} (<=1e-3), exact-linear R^2 = "
                    f"{exact.r_squared:.12f}")


def test_criterion_06_labeling_calibration():
    rng = np.random.default_rng(106)
    rules = LabelRules()
    hits, errs = 0, []
    for i in range(100):
        params = SceneParams(seed=106, tree_density=0.05 * rng.uniform(0.02, 1.0),
                             building_density=0.008 * rng.uniform(0.3, 1.0))
        truth = generate_scene(params, i)
        stack = rasterize(truth.cloud, params.grid)
        v_est = vegetation_fraction(segment(stack.channels, rules))
        err = abs(v_est - truth.true_veg_fraction)
        errs.append(err)
        hits += err <= 0.1
    ok = hits >= 90
    _verdict(6, ok, f"{hits}/100 scenes within |v_est - v_true| <= 0.1 (need >= 90); "
                    f"mean err {np.mean(errs):.3f}, max {np.max(errs):.3f}")


def test_criterion_07_end_to_end_cooling(full_run):
    fit = full_run["result"].bundle.fit
    decision = full_run["result"].bundle.decision
    elapsed = full_run["elapsed"]
    ok = fit.a < 0 and fit.p_a < 0.05 and decision.reject_h0 and elapsed <= 600
    _verdict(7, ok, f"500-scene pipeline: slope {fit.a:.4g} 1/K (<0), "
                    f"p {fit.p_a:.3g} (<0.05), R^2 {fit.r_squared:.3f}, "
                    f"{elapsed:.0f}s (<=600s)")


def test_criterion_08_holdout_mae(full_run):
    result = full_run["result"]
    temps = np.array([t for _, _, t in result.corpus.entries])
    temp_range = temps.max() - temps.min()
    mae = result.reg_report.mae
    ok = mae <= 0.1 * temp_range
    _verdict(8, ok, f"held-out MAE {mae:.3f} K = {100 * mae / temp_range:.1f}% of the "
                    f"{temp_range:.2f} K corpus range (<=10%) on "
                    f"{result.reg_report.n_holdout} scenes")


def test_criterion_09_seeded_determinism(full_run):
    same = {}
    for rel in ("figure.csv", "fractions.csv"):
        a = (full_run["out1"] / rel).read_bytes()
        b = (full_run["out2"] / rel).read_bytes()
        same[rel] = a == b
    ok = all(same.values())
    _verdict(9, ok, "two same-seed pipeline runs byte-identical: " +
             ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in same.items()))


def test_criterion_10_kld_schedule():
    config = VaeConfig(ramp_epochs=50, lambda_max=1e-5)
    points = {0: 0.0, 25: 5e-6, 50: 1e-5, 100: 1e-5}
    errs = {e: abs(kld_weight(config, e) - v) for e, v in points.items()}
    ok = all(err == 0.0 for err in errs.values())
    _verdict(10, ok, "lambda(0)=0, lambda(25)=5e-6, lambda(50)=lambda(100)=1e-5 "
                     f"(max abs err {max(errs.values()):.1e})")
