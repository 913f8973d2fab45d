import hashlib

import numpy as np
import pytest

from lczkit import autodiff as ad
from lczkit import regressor
from lczkit.autodiff import Tensor, check_gradient
from lczkit.errors import FormatError, NumericError, UsageError
from lczkit.io import load_model, save_model
from lczkit.regressor import (
    ErrorReport,
    RegConfig,
    forward_graph,
    grad_wrt_code,
    init_regressor,
    l1_loss_graph,
    predict,
    regressor_from_tensors,
    regressor_tensors,
    train_regressor,
)

LATENT = 6


def _model(activation="relu", seed=0):
    cfg = RegConfig(hidden=(5, 4), activation=activation)
    return init_regressor(LATENT, cfg, np.random.default_rng(seed))


def test_predict_zero_weights_zero_biases():
    model = _model()
    for t in model.params.values():
        t.value[:] = 0.0
    assert predict(model, np.ones((1, LATENT))) == [0.0]


def test_predict_deterministic():
    model = _model()
    c = np.random.default_rng(1).standard_normal((1, LATENT))
    assert predict(model, c) == predict(model, c)


def test_predict_length_mismatch():
    with pytest.raises(UsageError):
        predict(_model(), np.zeros((1, LATENT + 2)))


def test_predict_and_gradient_refuse_a_non_finite_code():
    code = np.zeros((3, LATENT))
    code[1, 2] = np.nan  # relu would map it to 0
    for fn in (predict, grad_wrt_code):
        with pytest.raises(NumericError, match="regressor input is non-finite"):
            fn(_model(), code)


# Calls predict and grad_wrt_code of the default regressor shape (latent 32,
# hidden 128 and 32) with each activation on one batch of 2,200 codes, then
# on a window of every size from 1 to 300 rows of it, and prints per call
# the number of sizes at which some row differs from the same row of the
# 2,200-row call, and the first such sizes.
_ROW_INVARIANCE = """
import numpy as np
from lczkit.regressor import RegConfig, grad_wrt_code, init_regressor, predict
rng = np.random.default_rng(0)
codes = rng.standard_normal((2200, 32))
for activation in ("relu", "tanh"):
    model = init_regressor(32, RegConfig(activation=activation), rng)
    for fn in (predict, grad_wrt_code):
        whole = fn(model, codes)
        starts = {b: 7 * b % (len(codes) - 300) for b in range(1, 301)}
        bad = [b for b, s in starts.items() if not np.array_equal(fn(model, codes[s:s + b]),
                                                                  whole[s:s + b])]
        print(activation, fn.__name__, len(bad), ",".join(map(str, bad[:8])) or "-")
"""


def test_a_row_predicts_and_differentiates_alike_in_any_batch(run_under_blas_threads):
    # ad.MIN_ROWS pads a small batch: grad_wrt_code rounds a row differently in
    # batches of 2-37 rows otherwise, and a one-output layer is no GEMV, whose
    # rounding of a row depends on where the row sits in the batch
    out1, out2 = run_under_blas_threads(_ROW_INVARIANCE)
    expected = [field for act in ("relu", "tanh")
                for name in ("predict", "grad_wrt_code") for field in (act, name, "0", "-")]
    assert out1 == out2 == expected, (out1, out2)


def test_l1_loss_exact():
    pred = Tensor(np.array([[1.0], [3.0], [-2.0]]))
    target = Tensor(np.array([[0.0], [5.0], [-2.0]]))
    assert l1_loss_graph(pred, target).value == pytest.approx((1 + 2 + 0) / 3)


def test_grad_linear_model_equals_weight_row():
    model = _model(activation="identity")
    w_eff = (model.params["W1"].value @ model.params["W2"].value
             @ model.params["W3"].value)[:, 0]
    for seed in range(3):
        c = np.random.default_rng(seed).standard_normal((1, LATENT))
        assert np.allclose(grad_wrt_code(model, c), w_eff * model.t_std, rtol=1e-12)


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_grad_matches_finite_differences(activation):
    model = _model(activation=activation, seed=2)
    model.t_std = 1.7

    def f(x):
        return ad.scale(ad.sum_all(forward_graph(model, ad.reshape(x, (1, LATENT)))),
                        model.t_std)

    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.standard_normal(LATENT)
        assert check_gradient(f, c) <= 1e-5
        leaf_grad = grad_wrt_code(model, c[None])[0]
        ref = Tensor(c.copy())
        ad.backward(f(ref), [ref])
        assert np.allclose(leaf_grad, ref.grad, rtol=1e-12, atol=1e-12)


def test_relu_gradient_piecewise_constant():
    model = _model(seed=4)
    c = np.random.default_rng(5).standard_normal((1, LATENT)) + 0.3
    g0 = grad_wrt_code(model, c)
    g1 = grad_wrt_code(model, c + 1e-9 * np.ones((1, LATENT)))
    assert np.array_equal(g0, g1)


def test_grad_leaves_weights_bit_identical():
    model = _model(seed=6)
    before = {k: t.value.tobytes() for k, t in model.params.items()}
    grad_wrt_code(model, np.random.default_rng(7).standard_normal((1, LATENT)))
    after = {k: t.value.tobytes() for k, t in model.params.items()}
    assert before == after


def test_train_constant_targets_converges():
    rng = np.random.default_rng(8)
    codes = rng.standard_normal((30, LATENT))
    temps = np.full(30, 290.0)
    cfg = RegConfig(hidden=(8, 4), epochs=200, seed=0)
    model, report = train_regressor(codes, temps, cfg)
    assert isinstance(report, ErrorReport)
    assert report.mae < 1e-6


def test_train_learns_linear_signal():
    rng = np.random.default_rng(9)
    codes = rng.standard_normal((120, LATENT))
    w = rng.standard_normal(LATENT)
    temps = 290.0 + codes @ w
    cfg = RegConfig(hidden=(32, 16), epochs=300, seed=1)
    model, report = train_regressor(codes, temps, cfg)
    spread = temps.max() - temps.min()
    assert report.mae <= 0.1 * spread
    assert report.err_min <= 0 <= report.err_max or report.mae < 0.5


def test_train_seed_deterministic():
    rng = np.random.default_rng(10)
    codes = rng.standard_normal((20, LATENT))
    temps = rng.uniform(280, 300, 20)
    cfg = RegConfig(hidden=(6, 3), epochs=20, seed=5)
    m1, r1 = train_regressor(codes, temps, cfg)
    m2, r2 = train_regressor(codes, temps, cfg)
    assert r1 == r2
    for k in m1.params:
        assert np.array_equal(m1.params[k].value, m2.params[k].value)


def test_train_holds_out_the_seeded_rows_and_steps_once_per_epoch_on_all_fit_rows(monkeypatch):
    rng = np.random.default_rng(10)
    codes = rng.standard_normal((20, LATENT))
    codes[:, 0] = np.arange(20)  # each row names itself
    temps = rng.uniform(280, 300, 20)
    cfg = RegConfig(hidden=(6, 3), epochs=3, seed=5)
    seen = {"inputs": [], "optimizers": []}
    init, forward, adam = regressor.init_regressor, regressor.forward_graph, ad.Adam

    def spy_init(*args):
        model = init(*args)
        seen["W1"] = model.params["W1"].value.copy()
        return model

    def spy_forward(model, code):
        seen["inputs"].append(code.value[:, 0].astype(int).tolist())
        return forward(model, code)

    class SpyAdam(adam):
        def __init__(self, *args):
            super().__init__(*args)
            seen["optimizers"].append(self)

    monkeypatch.setattr(regressor, "init_regressor", spy_init)
    monkeypatch.setattr(regressor, "forward_graph", spy_forward)
    monkeypatch.setattr(ad, "Adam", SpyAdam)
    train_regressor(codes, temps, cfg)
    # the held-out rows and the initial W1 drawn from seed 5, pinned
    hold = [9, 18, 3, 7]
    assert hashlib.sha256(seen["W1"].tobytes()).hexdigest() == (
        "84530026885992f81443bf79b97ae8c2cce5290306faf4e3fe93c0ae2f097fec")
    fit = [i for i in np.random.default_rng(cfg.seed).permutation(20) if i not in hold]
    (opt,) = seen["optimizers"]
    assert opt.t == cfg.epochs
    # epochs full-batch steps over the fit rows in split order, then one
    # predict of the held-out rows (padded to autodiff.MIN_ROWS)
    assert seen["inputs"][:-1] == [fit] * cfg.epochs
    assert seen["inputs"][-1][:len(hold)] == hold


def test_trained_model_holds_its_trained_values_through_a_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    codes = rng.standard_normal((30, LATENT))
    temps = 290.0 + codes @ rng.standard_normal(LATENT)
    cfg = RegConfig(hidden=(5, 4), epochs=20, seed=3)
    model, report = train_regressor(codes, temps, cfg)
    # Adam rebinds every value to a view of its one flat buffer
    buffer = model.params["W1"].value.base
    assert buffer is not None and all(t.value.base is buffer for t in model.params.values())
    split = np.random.default_rng(cfg.seed)
    hold = split.permutation(len(codes))[:regressor.n_holdout(len(codes))]
    untrained = init_regressor(LATENT, cfg, split)
    for name, tensor in model.params.items():
        assert not np.array_equal(tensor.value, untrained.params[name].value), name
    assert report.mae == float(np.mean(np.abs(predict(model, codes[hold]) - temps[hold])))
    save_model(regressor_tensors(model), tmp_path / "reg.lczm")
    back = regressor_from_tensors(load_model(tmp_path / "reg.lczm"))
    for name, tensor in model.params.items():
        assert np.array_equal(back.params[name].value, tensor.value), name
    assert np.array_equal(predict(back, codes), predict(model, codes))


def test_train_length_mismatch():
    with pytest.raises(UsageError):
        train_regressor(np.zeros((3, LATENT)), np.zeros(4), RegConfig())


def test_train_refuses_a_split_that_holds_out_no_sample():
    assert [regressor.n_holdout(n) for n in (1, 2, 3, 7, 8, 400)] == [0, 0, 1, 1, 2, 80]
    # round(0.2 * 2) = 0: the MAE would be a training error, so it is refused
    for n in (1, 2):
        with pytest.raises(UsageError, match=f"0.2 of {n} samples holds out 0 and fits {n}"):
            train_regressor(np.zeros((n, LATENT)), np.zeros(n), RegConfig())
    _, report = train_regressor(np.zeros((3, LATENT)), np.zeros(3), RegConfig(epochs=1))
    assert report.n_holdout == 1


def test_persistence_round_trip(tmp_path):
    model = _model(seed=11)
    model.t_mean, model.t_std = 291.5, 2.25
    save_model(regressor_tensors(model), tmp_path / "reg.lczm")
    back = regressor_from_tensors(load_model(tmp_path / "reg.lczm"))
    c = np.random.default_rng(12).standard_normal((1, LATENT))
    assert predict(back, c) == predict(model, c)
    assert back.activation == model.activation
    assert (back.t_mean, back.t_std) == (model.t_mean, model.t_std)


def test_init_draws_as_the_per_weight_formula():
    # reference: each weight He-normal with fan_in rows, in this order, biases zeros
    model = _model(seed=14)
    rng = np.random.default_rng(14)
    expected = {}
    for w, b, n_in, n_out in (("W1", "b1", LATENT, 5), ("W2", "b2", 5, 4), ("W3", "b3", 4, 1)):
        expected[w] = rng.standard_normal((n_in, n_out)) * np.sqrt(2.0 / n_in)
        expected[b] = np.zeros(n_out)
    assert list(model.params) == list(expected)
    for name, value in expected.items():
        assert model.params[name].value.tobytes() == value.tobytes(), name


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_loaded_model_is_the_stored_arrays(activation, tmp_path, monkeypatch):
    model = _model(activation, seed=13)
    model.t_mean, model.t_std = 300.25, 1.5
    save_model(regressor_tensors(model), tmp_path / "reg.lczm")
    stored = load_model(tmp_path / "reg.lczm")

    def no_init(*args, **kwargs):
        raise AssertionError("loading a model must not initialise or draw")

    monkeypatch.setattr(np.random, "default_rng", no_init)
    monkeypatch.setattr(ad, "he_params", no_init)
    back = regressor_from_tensors(stored)
    assert (back.latent_dim, back.hidden, back.activation, back.t_mean, back.t_std) == (
        model.latent_dim, model.hidden, model.activation, model.t_mean, model.t_std)
    assert list(back.params) == list(model.params)
    arrays = dict(stored)
    for name, tensor in back.params.items():
        assert np.array_equal(tensor.value, model.params[name].value)
        assert np.shares_memory(tensor.value, arrays[f"reg/{name}"])


def _replace(tensors, name, value):
    return [(n, np.array(value, dtype=float) if n == name else a) for n, a in tensors]


MALFORMED_REG = {
    "missing weight": lambda ts: [t for t in ts if t[0] != "reg/W2"],
    "wrong-size weight": lambda ts: [(n, a[:, :-1] if n == "reg/W3" else a) for n, a in ts],
    "missing meta": lambda ts: ts[1:],
    "unknown activation code": lambda ts: _replace(ts, "reg/meta", [LATENT, 5, 4, 9]),
    "negative meta": lambda ts: _replace(ts, "reg/meta", [LATENT, -5, 4, 0]),
    "missing t_std": lambda ts: [t for t in ts if t[0] != "reg/t_std"],
    "non-finite t_mean": lambda ts: _replace(ts, "reg/t_mean", [np.nan]),
    "zero t_std": lambda ts: _replace(ts, "reg/t_std", [0.0]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REG))
def test_malformed_model_file_raises_format_error(case, tmp_path):
    save_model(MALFORMED_REG[case](regressor_tensors(_model())), tmp_path / "reg.lczm")
    with pytest.raises(FormatError):
        regressor_from_tensors(load_model(tmp_path / "reg.lczm"))
