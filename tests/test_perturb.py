import numpy as np
import pytest

from lczkit.autodiff import MIN_ROWS
from lczkit.errors import DataError, DegenerateGradientError, UsageError
from lczkit.io import save_model
from lczkit.perturb import (CF_TENSOR, DECODE_ROWS, BatchResult, batch_perturb,
                             delta_c)
from lczkit.regressor import RegConfig, init_regressor
from lczkit.vae import VaeConfig, init_vae

SHAPE = (2, 4, 4)
LATENT = 4


def _models(activation="tanh", seed=0):
    rng = np.random.default_rng(seed)
    vae = init_vae(SHAPE, VaeConfig(latent_dim=LATENT, hidden=8), rng)
    reg = init_regressor(LATENT, RegConfig(hidden=(6, 3), activation=activation), rng)
    reg.t_mean, reg.t_std = 290.0, 2.0
    return vae, reg


@pytest.fixture
def cf_path(tmp_path):
    """The file a test's batches write their counterfactuals to; each batch
    replaces it and keeps its own map of what it wrote."""
    return tmp_path / "cf.lczm"


def _one(vae, reg, scene, dt, path, **kwargs):
    """The counterfactual of one (C, H, W) scene at one delta_t, swept with
    the 0 that every sweep holds."""
    sweep = [0.0, dt] if dt != 0.0 else [0.0]
    result = batch_perturb(vae, reg, scene[None], sweep, ["s"], path, **kwargs)
    assert not result.failures and len(result.scenes) == len(sweep)
    return result.scenes[-1]


def test_delta_c_hand_example():
    assert np.allclose(delta_c(np.array([2.0, 0.0]), 4.0), [2.0, 0.0])


def test_delta_c_zero_dt():
    g = np.array([0.3, -1.2, 0.7])
    assert not delta_c(g, 0.0).any()


def test_delta_c_eq_identity_and_parallelism():
    rng = np.random.default_rng(1)
    for _ in range(200):
        g = rng.standard_normal(64)
        dt = rng.uniform(-10, 10)
        dc = delta_c(g, dt)
        assert abs(dc @ g - dt) <= 1e-9 * max(1.0, abs(dt))
        lam = dt / (g @ g)
        assert np.allclose(dc, lam * g, rtol=1e-12, atol=1e-15)


def test_delta_c_degenerate_gradient_raises():
    with pytest.raises(DegenerateGradientError):
        delta_c(np.full(8, 1e-10), 1.0)


def test_delta_c_minimal_norm_among_constraint_satisfiers():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = rng.standard_normal(16)
        dt = rng.uniform(-5, 5)
        dc = delta_c(g, dt)
        for _ in range(100):
            null = rng.standard_normal(16)
            null -= (null @ g) / (g @ g) * g  # project out the gradient direction
            alt = dc + null
            assert abs(alt @ g - dt) <= 1e-8 * max(1.0, abs(dt))
            assert np.linalg.norm(dc) <= np.linalg.norm(alt) + 1e-12


def test_perturb_zero_dt_reproduces_reconstruction_bit_exact(cf_path):
    vae, reg = _models()
    s = np.random.default_rng(3).standard_normal(SHAPE)
    cf = _one(vae, reg, s, 0.0, cf_path)
    assert cf.counterfactual.tobytes() == cf.reconstruction.tobytes()
    assert not cf.delta_c.any()
    assert cf.achieved_dt == 0.0


def test_perturb_closed_form_parallel_to_gradient(cf_path):
    from lczkit.regressor import grad_wrt_code
    from lczkit.vae import encode

    vae, reg = _models(seed=4)
    s = np.random.default_rng(5).standard_normal(SHAPE)
    cf = _one(vae, reg, s, 2.0, cf_path)
    g = grad_wrt_code(reg, encode(vae, s[None]))[0]
    cos = (cf.delta_c @ g) / (np.linalg.norm(cf.delta_c) * np.linalg.norm(g))
    assert abs(cos - 1.0) <= 1e-9


def test_perturb_linear_regressor_exact_across_sweep(cf_path):
    vae, reg = _models(activation="identity", seed=6)
    s = np.random.default_rng(7).standard_normal(SHAPE)
    for dt in (1.0, 3.0, 5.0, 10.0, -1.0, -3.0, -5.0, -10.0):
        cf = _one(vae, reg, s, dt, cf_path)
        assert cf.achieved_dt == pytest.approx(dt, abs=1e-6)


def test_perturb_first_order_consistency_smooth_model(cf_path):
    vae, reg = _models(activation="tanh", seed=8)
    rng = np.random.default_rng(9)
    for _ in range(5):
        s = rng.standard_normal(SHAPE)
        dt = 1e-3
        cf = _one(vae, reg, s, dt, cf_path)
        assert abs(cf.achieved_dt - dt) / dt <= 0.1


def test_perturb_iterative_reaches_requested_change(cf_path):
    vae, reg = _models(activation="tanh", seed=10)
    s = np.random.default_rng(11).standard_normal(SHAPE)
    one = _one(vae, reg, s, 0.5, cf_path)
    cf = _one(vae, reg, s, 0.5, cf_path, steps=100)
    assert abs(one.achieved_dt - 0.5) > 1e-3  # the closed form alone misses
    assert cf.achieved_dt == pytest.approx(0.5, abs=1e-9)


def test_perturb_iterative_zero_dt(cf_path):
    vae, reg = _models(seed=12)
    s = np.random.default_rng(13).standard_normal(SHAPE)
    cf = _one(vae, reg, s, 0.0, cf_path, steps=100)
    assert not cf.delta_c.any()
    assert cf.counterfactual.tobytes() == cf.reconstruction.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_more_steps_never_move_away_from_the_request(activation, cf_path):
    vae, reg = _models(activation=activation, seed=29)
    rng = np.random.default_rng(30)
    scenes, ids = rng.standard_normal((4, *SHAPE)), [f"s{i}" for i in range(4)]
    sweep = [0.0, 0.5, -1.0, 3.0, -5.0]
    runs = [batch_perturb(vae, reg, scenes, sweep, ids, cf_path, steps=k) for k in range(1, 6)]
    for run in runs[1:]:  # a pair fails, or not, at the first step
        assert run.failures == runs[0].failures
    errors = np.array([[abs(cf.achieved_dt - cf.requested_dt) for cf in run.scenes]
                       for run in runs])
    assert (np.diff(errors, axis=0) <= 0.0).all()
    assert errors[-1].sum() < errors[0].sum()


def test_flat_gradient_fails_the_pair_only_at_the_first_step(monkeypatch, cf_path):
    import lczkit.regressor as reg_mod

    vae, reg = _models(seed=31)
    s = np.random.default_rng(32).standard_normal(SHAPE)
    closed_form = _one(vae, reg, s, 2.0, cf_path)
    grad = reg_mod.grad_wrt_code

    def flat_after(n):  # the true gradient for the first n calls, then zeros
        calls = []

        def patched(model, code):
            calls.append(code)
            return grad(model, code) if len(calls) <= n else np.zeros_like(code)
        return patched

    monkeypatch.setattr(reg_mod, "grad_wrt_code", flat_after(1))  # flat after the first step
    kept = batch_perturb(vae, reg, s[None], [0.0, 2.0], ["s"], cf_path, steps=5)
    assert not kept.failures
    assert kept.scenes[1].delta_c.tobytes() == closed_form.delta_c.tobytes()
    assert kept.scenes[1].achieved_dt == closed_form.achieved_dt

    monkeypatch.setattr(reg_mod, "grad_wrt_code", flat_after(0))  # flat at the scene's code
    with pytest.raises(DataError, match="first: degenerate_gradient"):
        batch_perturb(vae, reg, s[None], [0.0, 2.0], ["s"], cf_path, steps=5)


def test_perturb_freezes_all_weights(cf_path):
    vae, reg = _models(seed=14)
    before = {f"v/{k}": t.value.tobytes() for k, t in vae.params.items()}
    before.update({f"r/{k}": t.value.tobytes() for k, t in reg.params.items()})
    _one(vae, reg, np.random.default_rng(15).standard_normal(SHAPE), 3.0, cf_path)
    after = {f"v/{k}": t.value.tobytes() for k, t in vae.params.items()}
    after.update({f"r/{k}": t.value.tobytes() for k, t in reg.params.items()})
    assert before == after


def test_batch_cardinality(cf_path):
    vae, reg = _models(seed=16)
    rng = np.random.default_rng(17)
    scenes = rng.standard_normal((2, *SHAPE))
    sweep = [0.0, 1.0, 3.0, 5.0, 10.0, -1.0, -3.0, -5.0, -10.0]
    result = batch_perturb(vae, reg, scenes, sweep, ["a", "b"], cf_path)
    assert len(result.scenes) == 18
    assert not result.failures


def test_batch_order_independence(cf_path):
    vae, reg = _models(seed=19)
    rng = np.random.default_rng(20)
    scenes, ids = rng.standard_normal((4, *SHAPE)), [f"s{i}" for i in range(4)]
    fwd = batch_perturb(vae, reg, scenes, [0.0, 1.0, -2.0], ids, cf_path)
    rev = batch_perturb(vae, reg, scenes[::-1], [0.0, 1.0, -2.0], ids[::-1], cf_path)
    by_key_fwd = {(c.scene_id, c.requested_dt): c.counterfactual.tobytes() for c in fwd.scenes}
    by_key_rev = {(c.scene_id, c.requested_dt): c.counterfactual.tobytes() for c in rev.scenes}
    assert by_key_fwd == by_key_rev


def _fails_keeping_the_old_file(vae, reg, scenes, path):
    """batch_perturb of the two scenes at delta_t 0 and 1 fails all its
    pairs, and path keeps the bytes of the batch that wrote it before."""
    before = path.read_bytes()
    with pytest.raises(DataError, match="all 4 pairs failed"):
        batch_perturb(vae, reg, scenes, [0.0, 1.0], ["a", "b"], path)
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no cf.lczm.tmp


def test_batch_all_degenerate_raises(cf_path):
    vae, reg = _models(seed=21)
    scenes = np.random.default_rng(45).standard_normal((2, *SHAPE))
    batch_perturb(vae, reg, scenes, [0.0, 1.0], ["a", "b"], cf_path)
    for t in reg.params.values():
        t.value[:] = 0.0  # gradient identically zero: every pair fails before its decode
    _fails_keeping_the_old_file(vae, reg, scenes, cf_path)


def test_a_batch_whose_decodes_all_fail_keeps_the_old_file(monkeypatch, cf_path):
    import lczkit.vae as vae_mod

    vae, reg = _models(seed=46)
    scenes = np.random.default_rng(47).standard_normal((2, *SHAPE))
    batch_perturb(vae, reg, scenes, [0.0, 1.0], ["a", "b"], cf_path)
    # every row is decoded, and none is written
    monkeypatch.setattr(vae_mod, "decode",
                        lambda model, codes: np.full((len(codes), *model.input_shape), np.inf))
    _fails_keeping_the_old_file(vae, reg, scenes, cf_path)


# 3-row scenes: one a chunk, above DECODE_ROWS (2) or not (4); all in one chunk (256)
@pytest.mark.parametrize("decode_rows", [2, 4, 256])
@pytest.mark.parametrize("poisoned", ["counterfactual", "reconstruction"])
def test_a_failed_decode_writes_the_kept_rows_and_their_count(monkeypatch, tmp_path, poisoned,
                                                              decode_rows):
    """b's row at delta_t = 1 (a counterfactual) or at 0 (its reconstruction,
    which fails all its rows) is non-finite: however the scenes are
    chunked, the file is save_model's file of the clean batch's other rows."""
    import lczkit.perturb as perturb_mod
    import lczkit.vae as vae_mod

    vae, reg = _models(seed=43)
    scenes = np.random.default_rng(44).standard_normal((3, *SHAPE))
    sweep, ids = [1.0, 0.0, -2.0], ["a", "b", "c"]
    clean = batch_perturb(vae, reg, scenes, sweep, ids, tmp_path / "clean.lczm")
    dt = 1.0 if poisoned == "counterfactual" else 0.0
    bad = vae_mod.encode(vae, scenes[1:2])[0] + clean.scenes[3 + sweep.index(dt)].delta_c
    decode = vae_mod.decode

    def decode_inf_at_bad(model, codes):
        out = decode(model, codes)
        out[(codes == bad).all(axis=1)] = np.inf
        return out

    monkeypatch.setattr(vae_mod, "decode", decode_inf_at_bad)
    monkeypatch.setattr(perturb_mod, "DECODE_ROWS", decode_rows)
    result = batch_perturb(vae, reg, scenes, sweep, ids, tmp_path / "cf.lczm")
    failed = [1.0] if poisoned == "counterfactual" else sweep
    assert [(sid, dt, kind) for sid, dt, kind, _ in result.failures] == [
        ("b", dt, "non_finite") for dt in failed]
    kept = [r for r, cf in enumerate(clean.scenes)
            if not (cf.scene_id == "b" and cf.requested_dt in failed)]
    save_model([(CF_TENSOR, clean.decoded[kept])], tmp_path / "expected.lczm")
    assert (tmp_path / "cf.lczm").read_bytes() == (tmp_path / "expected.lczm").read_bytes()
    assert result.decoded.tobytes() == clean.decoded[kept].tobytes()
    assert not (tmp_path / "cf.lczm.tmp").exists()


@pytest.mark.parametrize("steps", [1, 20])
def test_batch_equals_per_pair_perturb_scene_and_encodes_once(steps, monkeypatch, cf_path):
    import lczkit.vae as vae_mod

    vae, reg = _models(activation="tanh", seed=23)
    rng = np.random.default_rng(24)
    scenes, ids = rng.standard_normal((3, *SHAPE)), [f"s{i}" for i in range(3)]
    sweep = [0.0, 0.5, -1.0, 3.0]
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vae_mod, "encode", counted(vae_mod.encode))
    monkeypatch.setattr(vae_mod, "decode", counted(vae_mod.decode))
    result = batch_perturb(vae, reg, scenes, sweep, ids, cf_path, steps=steps)
    assert calls.count("encode") == 1  # the whole batch at once
    assert calls.count("decode") == 1  # the 12 counterfactuals in one call
    assert len(result.scenes) == len(scenes) * len(sweep) and not result.failures
    pairs = [(sid, s, dt) for sid, s in zip(ids, scenes) for dt in sweep]
    for cf, (sid, s, dt) in zip(result.scenes, pairs):
        ref = _one(vae, reg, s, dt, cf_path, steps=steps)  # a batch of one scene and one delta_t
        assert cf.scene_id == sid and cf.requested_dt == dt
        for name in ("original", "reconstruction", "counterfactual", "delta_c"):
            assert np.array_equal(getattr(cf, name), getattr(ref, name)), name
        assert cf.achieved_dt == ref.achieved_dt
    by_scene = [result.scenes[i:i + len(sweep)] for i in range(0, len(result.scenes), len(sweep))]
    for group in by_scene:  # a scene's pairs share one original and reconstruction
        assert all(cf.original is group[0].original for cf in group)
        assert all(cf.reconstruction is group[0].reconstruction for cf in group)
        assert np.shares_memory(group[0].reconstruction, group[0].counterfactual)  # delta_t = 0


@pytest.mark.parametrize("steps", [1, 3])
def test_network_calls_are_whole_batch(steps, monkeypatch, cf_path):
    import lczkit.regressor as reg_mod
    import lczkit.vae as vae_mod

    vae, reg = _models(activation="tanh", seed=33)
    scenes = np.random.default_rng(34).standard_normal((30, *SHAPE))
    sweep = [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 5.0]
    calls = {}

    def counted(mod, name):
        fn = getattr(mod, name)

        def wrapper(model, rows, **kwargs):
            calls.setdefault(name, []).append(len(rows))
            return fn(model, rows, **kwargs)
        monkeypatch.setattr(mod, name, wrapper)

    for mod, name in ((vae_mod, "encode"), (vae_mod, "decode"),
                      (reg_mod, "predict"), (reg_mod, "grad_wrt_code")):
        counted(mod, name)
    result = batch_perturb(vae, reg, scenes, sweep, [f"s{i}" for i in range(30)], cf_path,
                           steps=steps)
    assert len(result.scenes) == 300 and not result.failures
    assert calls["encode"] == [30]
    # codes, then stepped codes; then per further step the pairs still walking
    assert calls["predict"][:2] == [30, 300] and calls["grad_wrt_code"][0] == 30
    if steps == 1:
        assert len(calls["predict"]) == 2 and len(calls["grad_wrt_code"]) == 1
    else:
        assert 2 < len(calls["predict"]) <= 2 + steps - 1
        assert len(calls["grad_wrt_code"]) == len(calls["predict"]) - 1
    rows = 300  # each scene's counterfactuals, its reconstruction the delta_t = 0 one
    assert sum(calls["decode"]) == rows and len(calls["decode"]) <= -(-rows // 256)


def test_batch_records_poisoned_scene_and_keeps_the_rest(cf_path):
    vae, reg = _models(seed=25)
    rng = np.random.default_rng(26)
    scenes, ids = rng.standard_normal((3, *SHAPE)), ["a", "bad", "c"]
    scenes[1] = np.nan
    sweep = [0.0, 1.0, -2.0]
    result = batch_perturb(vae, reg, scenes, sweep, ids, cf_path)
    assert [(sid, dt, kind) for sid, dt, kind, _ in result.failures] == [
        ("bad", dt, "non_finite") for dt in sweep]
    assert [(cf.scene_id, cf.requested_dt) for cf in result.scenes] == [
        (sid, dt) for sid in ("a", "c") for dt in sweep]
    clean = batch_perturb(vae, reg, scenes[[0, 2]], sweep, ["a", "c"], cf_path)
    for cf, ref in zip(result.scenes, clean.scenes):
        assert cf.counterfactual.tobytes() == ref.counterfactual.tobytes()


def test_batch_records_non_finite_counterfactual_per_pair(monkeypatch, cf_path):
    import lczkit.vae as vae_mod

    vae, reg = _models(seed=27)
    rng = np.random.default_rng(28)
    decode = vae_mod.decode

    def decode_inf_far_out(model, code):  # poison only the rows of large latent steps
        out = decode(model, code)
        out[np.linalg.norm(code, axis=-1) >= 1e3] = np.inf
        return out

    monkeypatch.setattr(vae_mod, "decode", decode_inf_far_out)
    result = batch_perturb(vae, reg, rng.standard_normal((1, *SHAPE)), [0.0, 1e9], ["s"], cf_path)
    assert [cf.requested_dt for cf in result.scenes] == [0.0]
    [(sid, dt, kind, message)] = result.failures
    assert (sid, dt, kind) == ("s", 1e9, "non_finite")
    assert "counterfactual" in message


def test_non_finite_reconstruction_fails_all_the_scene_s_pairs(monkeypatch, cf_path):
    import lczkit.vae as vae_mod

    vae, reg = _models(seed=41)
    scenes = np.random.default_rng(42).standard_normal((2, *SHAPE))
    sweep = [1.0, 0.0, -2.0]
    clean = batch_perturb(vae, reg, scenes, sweep, ["a", "b"], cf_path)
    code = vae_mod.encode(vae, scenes[1:])[0]
    decode = vae_mod.decode

    def decode_inf_at_the_code(model, codes):  # b's delta_t = 0 row only
        out = decode(model, codes)
        out[(codes == code).all(axis=1)] = np.inf
        return out

    monkeypatch.setattr(vae_mod, "decode", decode_inf_at_the_code)
    result = batch_perturb(vae, reg, scenes, sweep, ["a", "b"], cf_path)
    assert result.failures == [("b", dt, "non_finite", "decoded reconstruction is non-finite")
                               for dt in sweep]
    assert result.decoded.tobytes() == clean.decoded[:len(sweep)].tobytes()
    assert len({id(cf.reconstruction) for cf in result.scenes}) == 1  # a's, shared
    assert result.scenes[0].reconstruction.tobytes() == result.scenes[1].counterfactual.tobytes()


def test_batch_records_non_finite_step_per_pair(cf_path):
    vae, reg = _models(activation="relu", seed=35)
    scenes = np.random.default_rng(36).standard_normal((2, *SHAPE))
    sweep = [0.0, 1.7e308, 1.0]  # the step for 1.7e308 overflows to inf
    with np.errstate(over="ignore", invalid="ignore"):
        result = batch_perturb(vae, reg, scenes, sweep, ["a", "b"], cf_path)
    assert [(sid, dt, kind) for sid, dt, kind, _ in result.failures] == [
        ("a", 1.7e308, "non_finite"), ("b", 1.7e308, "non_finite")]
    assert all("regressor input is non-finite" in message for *_, message in result.failures)
    clean = batch_perturb(vae, reg, scenes, [0.0, 1.0], ["a", "b"], cf_path)
    assert len(result.scenes) == len(clean.scenes) == 4
    for cf, ref in zip(result.scenes, clean.scenes):
        assert (cf.scene_id, cf.requested_dt, cf.achieved_dt) == (
            ref.scene_id, ref.requested_dt, ref.achieved_dt)
        assert cf.counterfactual.tobytes() == ref.counterfactual.tobytes()


# Perturbs three scenes over the default sweep with the default model shapes
# (13 x 16 x 16 input, latent 32), whose batched decodes are large enough for
# OpenBLAS to split across threads, and prints the pair count and a digest of
# every reconstruction, counterfactual, latent step and achieved delta_t.
_THREADED_PERTURB = """
import hashlib
import os
import tempfile
import numpy as np
from lczkit.perturb import batch_perturb
from lczkit.regressor import RegConfig, init_regressor
from lczkit.vae import VaeConfig, init_vae
rng = np.random.default_rng(0)
vae = init_vae((13, 16, 16), VaeConfig(), rng)
reg = init_regressor(32, RegConfig(activation="tanh"), rng)
scenes = rng.standard_normal((3, 13, 16, 16))
with tempfile.TemporaryDirectory() as tmp:
    result = batch_perturb(vae, reg, scenes, [0, 1, 3, 5, 10, -1, -3, -5, -10], ["a", "b", "c"],
                           os.path.join(tmp, "cf.lczm"), steps=3)
digest = hashlib.sha256()
for cf in result.scenes:
    for part in (cf.reconstruction, cf.counterfactual, cf.delta_c, np.float64(cf.achieved_dt)):
        digest.update(part.tobytes())
print(len(result.scenes), digest.hexdigest())
"""


def test_batch_perturb_blas_thread_invariant(run_under_blas_threads):
    out1, out2 = run_under_blas_threads(_THREADED_PERTURB)
    assert out1 == out2 and out1[0] == "27"


def test_batch_empty_scene_list(cf_path):
    vae, reg = _models(seed=22)
    with pytest.raises(UsageError):
        batch_perturb(vae, reg, np.zeros((0, *SHAPE)), [1.0], [], cf_path)


def test_perturbation_validation(cf_path):
    vae, reg = _models(seed=22)
    scenes = np.zeros((1, *SHAPE))
    with pytest.raises(UsageError):
        batch_perturb(vae, reg, scenes, [1.0, float("nan")], ["a"], cf_path)
    with pytest.raises(UsageError, match="steps must be >= 1"):
        batch_perturb(vae, reg, scenes, [0.0, 1.0], ["a"], cf_path, steps=0)
    for sweep in ([0.0, 1.0, 1.0, -1.0], [0.0, -0.0, 1.0]):  # -0.0 is 0.0
        with pytest.raises(UsageError, match="delta_t values must be distinct"):
            batch_perturb(vae, reg, scenes, sweep, ["a"], cf_path)


def test_batch_refuses_a_repeated_scene_id_before_any_network_call(monkeypatch, cf_path):
    import lczkit.regressor as reg_mod
    import lczkit.vae as vae_mod

    def never(*args, **kwargs):
        raise AssertionError("a network was called")

    for mod, name in ((vae_mod, "encode"), (vae_mod, "decode"),
                      (reg_mod, "predict"), (reg_mod, "grad_wrt_code")):
        monkeypatch.setattr(mod, name, never)
    vae, reg = _models(seed=37)
    scenes = np.random.default_rng(38).standard_normal((3, *SHAPE))
    # adjacent or not, two scenes under one id would share one cf file and one baseline
    for ids in (["a", "a", "b"], ["a", "b", "a"]):
        with pytest.raises(UsageError, match="'a' repeats"):
            batch_perturb(vae, reg, scenes, [0.0, 1.0], ids, cf_path)


def test_batch_refuses_a_sweep_without_zero_before_any_network_call(monkeypatch, cf_path):
    import lczkit.regressor as reg_mod
    import lczkit.vae as vae_mod

    calls = []

    def counted(name):
        def never(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} was called")
        return never

    for mod, name in ((vae_mod, "encode"), (vae_mod, "decode"),
                      (reg_mod, "predict"), (reg_mod, "grad_wrt_code")):
        monkeypatch.setattr(mod, name, counted(name))
    vae, reg = _models(seed=18)
    scenes = np.random.default_rng(40).standard_normal((2, *SHAPE))
    # the delta_t = 0 pair is each scene's reconstruction and baseline
    for sweep in ([], [1.0], [1.0, -2.0, 3.0]):
        with pytest.raises(UsageError, match="hold 0"):
            batch_perturb(vae, reg, scenes, sweep, ["a", "b"], cf_path)
    assert calls == []


def test_decoded_rows_stream_to_the_file_and_the_call_holds_one_chunk(cf_path):
    import tracemalloc

    shape = (13, 16, 16)  # rows large enough that the arrays, not Python objects, set the peak
    rng = np.random.default_rng(39)
    vae = init_vae(shape, VaeConfig(latent_dim=8, hidden=16), rng)
    reg = init_regressor(8, RegConfig(hidden=(6, 3), activation="tanh"), rng)
    reg.t_mean, reg.t_std = 290.0, 2.0
    n, sweep = 25, list(np.linspace(-3.0, 3.0, 31))
    rows = n * len(sweep)  # 775, 0 among them: four chunks of whole scenes
    assert rows >= 3 * DECODE_ROWS
    scenes = rng.standard_normal((n, *shape))
    tracemalloc.start()  # counts numpy's buffers, not the file's pages or its map
    try:
        result = batch_perturb(vae, reg, scenes, sweep, [f"s{i}" for i in range(n)], cf_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.scenes) == rows and not result.failures
    assert isinstance(result.decoded, np.memmap) and not result.decoded.flags.writeable
    assert result.decoded.shape == (rows, *shape)
    for cf in result.scenes:
        assert np.shares_memory(cf.reconstruction, result.decoded)
        assert np.shares_memory(cf.counterfactual, result.decoded)
    # One chunk's rows, as decode returns them and freed before the next
    # decode (the last, 31-row chunk's padded decode makes MIN_ROWS rows),
    # MIN_ROWS rows' worth for the chunk's finiteness mask and the like, and
    # twice the scenes: the batch's copy of them, and as much again for the
    # pairs' codes and steps and the decode's own arrays.
    # That is under half the 775-row payload; holding every row in memory,
    # as a batch of one array does, peaks at about 1.1x it.
    row = np.prod(shape) * 8
    assert peak < (DECODE_ROWS + MIN_ROWS) * row + 2 * scenes.nbytes, peak / (rows * row)
