import numpy as np
import pytest

from lczkit import autodiff as ad
from lczkit import vae
from lczkit.autodiff import Tensor, backward, check_gradient
from lczkit.errors import FormatError, UsageError
from lczkit.io import load_model, save_model
from lczkit.regressor import RegConfig, grad_wrt_code, init_regressor, predict, train_regressor
from lczkit.vae import (
    VaeConfig,
    decode,
    elbo_loss,
    encode,
    init_vae,
    kld_weight,
    reparameterize,
    train_vae,
    vae_from_tensors,
    vae_tensors,
)

SHAPE = (2, 4, 4)


def _model(arch="mlp", latent=3, hidden=8, seed=0):
    shape = SHAPE if arch == "mlp" else (2, 8, 8)
    model = vae.VaeModel({}, shape, latent, arch, hidden)
    model.params = ad.he_params(model.layout(), np.random.default_rng(seed))
    return model, shape


def test_encode_deterministic():
    model, shape = _model()
    x = np.random.default_rng(1).standard_normal((1, *shape))
    assert np.array_equal(encode(model, x), encode(model, x))


def test_encode_zero_weights_gives_zero_outputs():
    model, shape = _model()
    for t in model.params.values():
        t.value[:] = 0.0
    assert not encode(model, np.ones((1, *shape))).any()


def test_encode_shape_mismatch():
    model, _ = _model()
    with pytest.raises(UsageError):
        encode(model, np.zeros((1, 1, 2, 2)))


def test_decode_shape_and_determinism():
    model, shape = _model()
    c = np.random.default_rng(2).standard_normal((1, model.latent_dim))
    out1, out2 = decode(model, c), decode(model, c)
    assert out1.shape == (1, *shape)
    assert np.array_equal(out1, out2)


def test_decode_length_mismatch():
    model, _ = _model()
    with pytest.raises(UsageError):
        decode(model, np.zeros((1, model.latent_dim + 1)))


def test_network_functions_refuse_a_non_batch_input():
    model, shape = _model()
    reg = init_regressor(model.latent_dim, RegConfig(hidden=(4, 3)), np.random.default_rng(1))
    scene, code = np.zeros(shape), np.zeros(model.latent_dim)
    calls = {"encode": lambda: encode(model, scene),
             "decode": lambda: decode(model, code),
             "predict": lambda: predict(reg, code),
             "grad_wrt_code": lambda: grad_wrt_code(reg, code),
             "elbo_loss": lambda: elbo_loss(*map(Tensor, (scene, scene, code, code)), 1.0)}
    for name, call in calls.items():
        with pytest.raises(UsageError):
            call()
            pytest.fail(f"{name} accepted a non-batch input")
    # the same data as a batch of one row is accepted
    assert encode(model, scene[None]).shape == (1, model.latent_dim)
    assert decode(model, code[None]).shape == (1, *shape)
    assert predict(reg, code[None]).shape == (1,)
    assert grad_wrt_code(reg, code[None]).shape == (1, model.latent_dim)
    assert elbo_loss(*map(Tensor, (scene[None], scene[None], code[None], code[None])),
                     1.0).value == 0.0


def test_decode_continuity():
    model, _ = _model()
    rng = np.random.default_rng(3)
    c = rng.standard_normal((1, model.latent_dim))
    delta = 1e-6 * rng.standard_normal((1, model.latent_dim))
    diff = np.linalg.norm(decode(model, c + delta) - decode(model, c))
    assert diff < 1e-4  # locally Lipschitz: tiny latent step, tiny output step


def test_patch_arch_round_trip_shapes():
    model, shape = _model(arch="patch")
    x = np.random.default_rng(4).standard_normal((1, *shape))
    mu = encode(model, x)
    assert mu.shape == (1, model.latent_dim)
    assert decode(model, mu).shape == (1, *shape)


def test_reparameterize_zero_epsilon():
    mu = np.array([1.0, -2.0])
    code = reparameterize(Tensor(mu), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
    assert np.array_equal(code.value, mu)


def test_reparameterize_unit_logvar_zero():
    mu = np.array([1.0, 0.0])
    e1 = np.array([1.0, 0.0])
    code = reparameterize(Tensor(mu), Tensor(np.zeros(2)), Tensor(e1))
    assert np.array_equal(code.value, mu + e1)


def test_reparameterize_monte_carlo_variance():
    rng = np.random.default_rng(5)
    n = 100_000
    logvar = np.array([0.0, 1.0, -1.0])
    draws = reparameterize(Tensor(np.zeros((n, 3))), Tensor(np.tile(logvar, (n, 1))),
                           Tensor(rng.standard_normal((n, 3))))
    assert np.allclose(draws.value.var(axis=0), np.exp(logvar), rtol=0.05)


def test_kld_schedule_ramp_reference_points():
    config = VaeConfig(ramp_epochs=50, lambda_max=1e-5)
    assert kld_weight(config, 0) == 0.0
    assert kld_weight(config, 25) == pytest.approx(5e-6)
    assert kld_weight(config, 50) == 1e-5
    assert kld_weight(config, 100) == 1e-5


def test_kld_schedule_nondecreasing():
    config = VaeConfig()
    values = [kld_weight(config, e) for e in range(120)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_elbo_perfect_reconstruction_at_prior():
    s, prior = Tensor(np.ones((2, 2))), Tensor(np.zeros((1, 3)))
    loss = elbo_loss(s, s, prior, prior, 1.0)
    assert loss.value == 0.0


def test_elbo_closed_form_kld():
    s = Tensor(np.zeros((2, 2)))
    mu = Tensor(np.array([[1.0, 0.0, 0.0]]))
    loss = elbo_loss(s, s, mu, Tensor(np.zeros((1, 3))), 1.0)
    assert loss.value == pytest.approx(0.5)


def test_elbo_kld_nonnegative():
    rng = np.random.default_rng(6)
    s = Tensor(np.zeros((2, 2)))
    for _ in range(50):
        mu, lv = Tensor(rng.standard_normal((1, 4))), Tensor(rng.standard_normal((1, 4)))
        assert elbo_loss(s, s, mu, lv, 1.0).value >= -1e-12


def test_elbo_gradient_wrt_weights():
    model, shape = _model(latent=2, hidden=4)
    x = np.random.default_rng(7).standard_normal((1,) + shape)
    eps = np.random.default_rng(8).standard_normal((1, 2))
    names = list(model.params)
    sizes = [model.params[n].value.size for n in names]
    shapes = [model.params[n].shape for n in names]

    def loss_of_params(theta):
        off = 0
        pieces = []
        for size, shp in zip(sizes, shapes):
            pieces.append(ad.reshape(_slice(theta, off, size), shp))
            off += size
        saved = {n: model.params[n] for n in names}
        try:
            for n, piece in zip(names, pieces):
                model.params[n] = piece
            mu, lv = vae.encode_graph(model, Tensor(x))
            s_hat = vae.decode_graph(model, reparameterize(mu, lv, Tensor(eps)))
            return elbo_loss(Tensor(x), s_hat, mu, lv, 1e-3)
        finally:
            model.params.update(saved)

    theta0 = np.concatenate([model.params[n].value.ravel() for n in names])
    # zero-initialized biases sit exactly on relu kinks; jitter off them
    theta0 = theta0 + 0.05 * np.random.default_rng(10).standard_normal(theta0.shape)
    assert check_gradient(loss_of_params, theta0) <= 1e-5


def _slice(t, start, size):
    # segment extraction via a frozen selection matrix (keeps op set minimal)
    sel = np.zeros((t.value.size, size))
    sel[np.arange(start, start + size), np.arange(size)] = 1.0
    return ad.matmul(ad.reshape(t, (1, t.value.size)), Tensor(sel))


def _toy_corpus(n=12, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(SHAPE)
    return [base * rng.uniform(0.5, 1.5) + 0.1 * rng.standard_normal(SHAPE)
            for _ in range(n)]


def test_train_vae_seed_deterministic():
    corpus = _toy_corpus()
    cfg = VaeConfig(latent_dim=3, hidden=16, epochs=3, seed=42)
    _, hist1 = train_vae(corpus, cfg)
    _, hist2 = train_vae(corpus, cfg)
    assert hist1 == hist2


def test_trained_models_hold_no_gradient():
    # nothing reads the last Adam step's gradients, so training drops them
    vae_model, _ = train_vae(_toy_corpus(), VaeConfig(latent_dim=3, hidden=16, epochs=2))
    codes = np.random.default_rng(4).standard_normal((20, 3))
    reg_model, _ = train_regressor(codes, 290.0 + codes[:, 0], RegConfig(hidden=(4, 2), epochs=3))
    for model in (vae_model, reg_model):
        assert [name for name, t in model.params.items() if t.grad is not None] == []


def test_trained_vae_holds_its_trained_values_through_a_round_trip(tmp_path):
    corpus = np.asarray(_toy_corpus())
    cfg = VaeConfig(latent_dim=3, hidden=16, epochs=3, seed=42)
    model, _ = train_vae(corpus, cfg)
    # Adam rebinds every value to a view of its one flat buffer
    buffer = model.params["enc/W1"].value.base
    assert buffer is not None and all(t.value.base is buffer for t in model.params.values())
    untrained = init_vae(SHAPE, cfg, np.random.default_rng(cfg.seed))
    for name, tensor in model.params.items():
        assert not np.array_equal(tensor.value, untrained.params[name].value), name
    save_model(vae_tensors(model), tmp_path / "vae.lczm")
    back = vae_from_tensors(load_model(tmp_path / "vae.lczm"))
    for name, tensor in model.params.items():
        assert np.array_equal(back.params[name].value, tensor.value), name
    assert np.array_equal(encode(back, corpus), encode(model, corpus))


def test_train_vae_loss_decreases():
    corpus = _toy_corpus(n=20)
    cfg = VaeConfig(latent_dim=4, hidden=32, epochs=30, seed=1)
    _, history = train_vae(corpus, cfg)
    assert len(history) == 30
    assert history[-1] < 0.5 * history[0]


def test_a_training_step_never_holds_a_dense_weight_gradient():
    """backward and Adam.step of a default-shape training step, after a
    warm-up step, allocate less than enc/W1's 6.5 MiB: Adam builds each
    weight gradient a row block at a time, and no step holds one whole."""
    import tracemalloc

    config = VaeConfig()
    rng = np.random.default_rng(0)
    model = init_vae((13, 16, 16), config, rng)
    opt = ad.Adam(model.params.values(), vae.LR)

    def loss():
        x = Tensor(rng.standard_normal((vae.BATCH_SIZE, 13, 16, 16)))
        mu, logvar = vae.encode_graph(model, x)
        eps = Tensor(rng.standard_normal((vae.BATCH_SIZE, config.latent_dim)))
        return elbo_loss(x, vae.decode_graph(model, reparameterize(mu, logvar, eps)), mu, logvar,
                         config.lambda_max)

    backward(loss(), opt.params)
    opt.step()
    root = loss()
    tracemalloc.start()
    try:
        backward(root, opt.params)
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.params["enc/W1"].value.nbytes == 6.5 * 2 ** 20


# Trains the default mlp shape (13 x 16 x 16 input, hidden 256, latent 32),
# whose matmuls are large enough for OpenBLAS to split across threads, and
# prints a digest of the weights.
_THREADED_TRAIN = """
import hashlib
import numpy as np
from lczkit.vae import VaeConfig, train_vae
corpus = list(np.random.default_rng(0).standard_normal((64, 13, 16, 16)))
model, _ = train_vae(corpus, VaeConfig(latent_dim=32, hidden=256, epochs=3, seed=0))
print(hashlib.sha256(b"".join(t.value.tobytes() for t in model.params.values())).hexdigest())
"""


def test_train_vae_blas_thread_invariant(run_under_blas_threads):
    digest1, digest2 = run_under_blas_threads(_THREADED_TRAIN)
    assert digest1 == digest2


# Calls encode and decode of the default mlp shape (13 x 16 x 16 input,
# hidden 256, latent 32) on one batch of 2,200 rows, then on a window of
# every size from 1 to 300 rows of it, and prints per call the number of
# sizes at which some row differs from the same row of the 2,200-row call,
# and the first such sizes.
_ROW_INVARIANCE = """
import numpy as np
from lczkit.vae import VaeConfig, decode, encode, init_vae
rng = np.random.default_rng(0)
model = init_vae((13, 16, 16), VaeConfig(), rng)
calls = {"encode": (encode, rng.standard_normal((2200, 13, 16, 16))),
         "decode": (decode, rng.standard_normal((2200, model.latent_dim)))}
for name, (fn, rows) in calls.items():
    whole = fn(model, rows)
    starts = {b: 7 * b % (len(rows) - 300) for b in range(1, 301)}
    bad = [b for b, s in starts.items() if not np.array_equal(fn(model, rows[s:s + b]),
                                                              whole[s:s + b])]
    print(name, len(bad), ",".join(map(str, bad[:8])) or "-")
"""


@pytest.mark.parametrize("arch", ["mlp", "patch"])
@pytest.mark.parametrize("rows", [5, 70])  # padded, and not
def test_decode_into_rows_of_a_larger_array(arch, rows):
    """decode's result is the leading rows of decode_graph's value on the
    batch padded to MIN_ROWS rows: of a larger array if it was padded."""
    model, shape = _model(arch)
    codes = np.random.default_rng(3).standard_normal((rows, model.latent_dim))
    out = decode(model, codes)
    assert out.dtype == np.float64 and out.shape == (rows, *shape)
    value = vae.decode_graph(model, Tensor(ad.pad_rows(codes))).value
    assert len(value) == max(rows, ad.MIN_ROWS)
    assert out.tobytes() == value[:rows].tobytes()


def test_a_row_encodes_and_decodes_alike_in_any_batch(run_under_blas_threads):
    # ad.MIN_ROWS pads a small batch: a 1-row encode or decode rounds otherwise
    out1, out2 = run_under_blas_threads(_ROW_INVARIANCE)
    assert out1 == out2 == ["encode", "0", "-", "decode", "0", "-"], (out1, out2)


@pytest.mark.parametrize("arch", ["mlp", "patch"])
def test_decoded_row_does_not_depend_on_its_batch(arch):
    # perturb decodes a scene's code with all its stepped codes in one batch;
    # a 1-row batch is padded to ad.MIN_ROWS rows, so it may not round differently
    model = init_vae((13, 16, 16), VaeConfig(arch=arch), np.random.default_rng(1))
    rng = np.random.default_rng(2)
    codes = rng.standard_normal((24, model.latent_dim))
    whole = decode(model, codes)
    for _ in range(40):
        rows = rng.integers(0, len(codes), size=rng.integers(2, len(codes) + 1))
        assert decode(model, codes[rows]).tobytes() == whole[rows].tobytes()
    for code, row in zip(codes, whole):  # a 1-row batch agrees to float64 rounding
        np.testing.assert_allclose(decode(model, code[None])[0], row, rtol=0, atol=1e-12)


def test_train_vae_empty_corpus():
    with pytest.raises(UsageError):
        train_vae([], VaeConfig())


def test_persistence_round_trip(tmp_path):
    model, shape = _model(seed=3)
    path = tmp_path / "vae.lczm"
    save_model(vae_tensors(model), path)
    back = vae_from_tensors(load_model(path))
    x = np.random.default_rng(9).standard_normal((1, *shape))
    assert np.array_equal(encode(model, x), encode(back, x))
    for name, tensor in model.params.items():
        assert np.array_equal(back.params[name].value, tensor.value)
    assert back.arch == model.arch and back.latent_dim == model.latent_dim


def test_init_draws_as_the_per_weight_formula():
    # reference: each weight He-normal with fan_in rows, in this order, biases zeros
    model = init_vae((2, 4, 4), VaeConfig(latent_dim=3, hidden=8), np.random.default_rng(3))
    rng = np.random.default_rng(3)
    d, hid, n = 32, 8, 3
    expected = {}
    layers = (("enc/W1", "enc/b1", d, hid, 1.0), ("enc/W2", "enc/b2", hid, hid, 1.0),
              ("enc/Wmu", "enc/bmu", hid, n, 0.5), ("enc/Wlv", "enc/blv", hid, n, 0.1),
              ("dec/W1", "dec/b1", n, hid, 1.0), ("dec/W2", "dec/b2", hid, hid, 1.0),
              ("dec/W3", "dec/b3", hid, d, 0.5))
    for w, b, n_in, n_out, gain in layers:
        weight = rng.standard_normal((n_in, n_out)) * np.sqrt(2.0 / n_in)
        expected[w] = weight * gain if gain != 1.0 else weight
        expected[b] = np.zeros(n_out)
    assert list(model.params) == list(expected)
    for name, value in expected.items():
        assert model.params[name].value.tobytes() == value.tobytes(), name


@pytest.mark.parametrize("arch", ["mlp", "patch"])
def test_loaded_model_is_the_stored_arrays(arch, tmp_path, monkeypatch):
    model, _ = _model(arch=arch, seed=4)
    save_model(vae_tensors(model), tmp_path / "vae.lczm")
    stored = load_model(tmp_path / "vae.lczm")

    def no_init(*args, **kwargs):
        raise AssertionError("loading a model must not initialise or draw")

    monkeypatch.setattr(np.random, "default_rng", no_init)
    monkeypatch.setattr(ad, "he_params", no_init)
    back = vae_from_tensors(stored)
    assert (back.input_shape, back.latent_dim, back.arch, back.hidden) == (
        model.input_shape, model.latent_dim, model.arch, model.hidden)
    assert list(back.params) == list(model.params)
    arrays = dict(stored)
    for name, tensor in back.params.items():
        assert np.array_equal(tensor.value, model.params[name].value)
        assert np.shares_memory(tensor.value, arrays[f"vae/{name}"])


def _with_meta(tensors, index, value):
    meta = tensors[0][1].copy()
    meta[index] = value
    return [(tensors[0][0], meta)] + tensors[1:]


MALFORMED_VAE = {
    "missing weight": lambda ts: [t for t in ts if t[0] != "vae/dec/W2"],
    "wrong-size weight": lambda ts: [(n, a[:-1] if n == "vae/enc/b1" else a) for n, a in ts],
    "extra tensor": lambda ts: ts + [("vae/extra", np.zeros(2))],
    "missing meta": lambda ts: ts[1:],
    "short meta": lambda ts: [(ts[0][0], ts[0][1][:-1])] + ts[1:],
    "non-integer meta": lambda ts: _with_meta(ts, 3, 2.5),
    "unknown arch code": lambda ts: _with_meta(ts, 4, 7),
    "patch grid not divisible": lambda ts: _with_meta(ts, 1, 12),
    "other patch widths": lambda ts: _with_meta(ts, 6, 3),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VAE))
def test_malformed_model_file_raises_format_error(case, tmp_path):
    model, _ = _model(arch="patch" if case == "patch grid not divisible" else "mlp")
    save_model(MALFORMED_VAE[case](vae_tensors(model)), tmp_path / "vae.lczm")
    with pytest.raises(FormatError):
        vae_from_tensors(load_model(tmp_path / "vae.lczm"))


def test_model_file_with_a_name_not_utf8_raises_format_error(tmp_path):
    model, _ = _model()
    path = tmp_path / "vae.lczm"
    save_model(vae_tensors(model), path)
    blob = bytearray(path.read_bytes())
    blob[14] = 0xFF  # first name byte: after magic, version, count and the u16 name length
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        vae_from_tensors(load_model(path))
