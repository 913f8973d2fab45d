"""Stage 1: variational autoencoder compressing (C, H, W) rasters to latent codes.

Two interchangeable architectures: "mlp" (flatten, two hidden layers) for
desk-scale grids, and "patch" (two strided patchwise-affine layers of
widths VaeModel.PATCH_FEATURES, then a flatten and an affine head) for
larger grids. Both expose the same encode/decode contract, on batches
only: encode maps (B, C, H, W) to the posterior means (B, n), decode maps
(B, n) back, and one scene is a batch of one row. Either call runs its
graph once on the batch, padded to autodiff.MIN_ROWS rows with copies of
its first row if smaller, and returns the value's first B rows, so a row
encodes and decodes to the same bits in any batch. Training weights the
ELBO's KL term by kld_weight, a linear warm-up set by VaeConfig's
ramp_epochs and lambda_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DivergenceError, FormatError, NumericError, UsageError
from .io import layout_arrays, read_meta

LR = 1e-3         # Adam's learning rate
BATCH_SIZE = 32   # scenes per Adam step


@dataclass
class VaeConfig:
    latent_dim: int = 32
    hidden: int = 256          # mlp hidden width
    arch: str = "mlp"          # "mlp" | "patch"
    epochs: int = 13           # fewest sweeps/vae_epochs_full_batch.csv supports (README Sweeps)
    ramp_epochs: int = 50      # the KL weight rises linearly from 0 ...
    lambda_max: float = 1e-5   # ... to lambda_max over ramp_epochs epochs
    seed: int = 0

    def __post_init__(self):
        for name in ("ramp_epochs", "lambda_max"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0")
        for name in ("latent_dim", "hidden", "epochs"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be at least 1")
        if self.arch not in _ARCHS:
            raise UsageError(f"arch {self.arch!r} is not one of {', '.join(_ARCHS)}")


def kld_weight(config: VaeConfig, epoch: int) -> float:
    """The KL weight of an epoch: linear warm-up from 0 to lambda_max over ramp_epochs."""
    if epoch < 0:
        raise UsageError("epoch must be >= 0")
    if config.ramp_epochs <= 0:
        return config.lambda_max
    return config.lambda_max * min(1.0, epoch / config.ramp_epochs)


@dataclass
class VaeModel:
    params: dict               # name -> Tensor, in layout order
    input_shape: tuple         # (C, H, W)
    latent_dim: int
    arch: str
    hidden: int

    PATCH_SIZES = (4, 2)
    PATCH_FEATURES = (32, 64)  # the patch arch's widths, stored in vae/meta

    def layout(self) -> list:
        """(name, shape, init gain) of each parameter, in draw order."""
        c, h, w = self.input_shape
        n = self.latent_dim
        if self.arch == "mlp":
            d, hid = c * h * w, self.hidden
            return [*_layer("enc/W1", "enc/b1", d, hid),
                    *_layer("enc/W2", "enc/b2", hid, hid),
                    *_layer("enc/Wmu", "enc/bmu", hid, n, 0.5),
                    *_layer("enc/Wlv", "enc/blv", hid, n, 0.1),
                    *_layer("dec/W1", "dec/b1", n, hid),
                    *_layer("dec/W2", "dec/b2", hid, hid),
                    *_layer("dec/W3", "dec/b3", hid, d, 0.5)]
        if self.arch == "patch":
            p1, p2 = self.PATCH_SIZES
            if h % (p1 * p2) or w % (p1 * p2):
                raise UsageError(f"patch arch needs H and W divisible by {p1 * p2}, got HxW {h}x{w}")
            f1, f2 = self.PATCH_FEATURES
            flat = (h // (p1 * p2)) * (w // (p1 * p2)) * f2
            return [*_layer("enc/P1", "enc/pb1", p1 * p1 * c, f1),
                    *_layer("enc/P2", "enc/pb2", p2 * p2 * f1, f2),
                    *_layer("enc/Wmu", "enc/bmu", flat, n, 0.5),
                    *_layer("enc/Wlv", "enc/blv", flat, n, 0.1),
                    *_layer("dec/W", "dec/b", n, flat),
                    *_layer("dec/U2", "dec/ub2", f2, p2 * p2 * f1),
                    *_layer("dec/U1", "dec/ub1", f1, p1 * p1 * c, 0.5)]
        raise UsageError(f"unknown vae arch {self.arch!r}")


def _layer(weight, bias, n_in, n_out, gain=1.0):
    return [(weight, (n_in, n_out), gain), (bias, (n_out,), 0.0)]


def init_vae(input_shape, config: VaeConfig, rng) -> VaeModel:
    model = VaeModel({}, tuple(input_shape), config.latent_dim, config.arch, config.hidden)
    model.params = ad.he_params(model.layout(), rng)
    return model


def _patchify(x: Tensor, p: int) -> Tensor:
    """(B,H,W,F) -> (B*Hp*Wp, p*p*F) rows of flattened patches."""
    b, h, w, f = x.shape
    x = ad.reshape(x, (b, h // p, p, w // p, p, f))
    x = ad.transpose(x, (0, 1, 3, 2, 4, 5))  # (B,Hp,Wp,p,p,F)
    return ad.reshape(x, (b * (h // p) * (w // p), p * p * f))


def _unpatchify(rows: Tensor, b, hp, wp, p, f) -> Tensor:
    """Inverse of _patchify for rows shaped (B*hp*wp, p*p*f)."""
    x = ad.reshape(rows, (b, hp, wp, p, p, f))
    x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
    return ad.reshape(x, (b, hp * p, wp * p, f))


def encode_graph(model: VaeModel, x: Tensor):
    """Build (mu, logvar) graph from a (B, C, H, W) input tensor."""
    b = x.shape[0]
    c, h, w = model.input_shape
    pr = model.params
    if model.arch == "mlp":
        flat = ad.reshape(x, (b, c * h * w))
        h1 = ad.relu(ad.affine(flat, pr["enc/W1"], pr["enc/b1"]))
        h2 = ad.relu(ad.affine(h1, pr["enc/W2"], pr["enc/b2"]))
    else:
        p1, p2 = VaeModel.PATCH_SIZES
        f1, f2 = VaeModel.PATCH_FEATURES
        rows = _patchify(ad.transpose(x, (0, 2, 3, 1)), p1)  # channels last
        l1 = ad.relu(ad.affine(rows, pr["enc/P1"], pr["enc/pb1"]))
        grid1 = ad.reshape(l1, (b, h // p1, w // p1, f1))
        rows2 = _patchify(grid1, p2)
        l2 = ad.relu(ad.affine(rows2, pr["enc/P2"], pr["enc/pb2"]))
        h2 = ad.reshape(l2, (b, (h // (p1 * p2)) * (w // (p1 * p2)) * f2))
    mu = ad.affine(h2, pr["enc/Wmu"], pr["enc/bmu"])
    logvar = ad.affine(h2, pr["enc/Wlv"], pr["enc/blv"])
    return mu, logvar


def decode_graph(model: VaeModel, code: Tensor) -> Tensor:
    """Build the (B, C, H, W) reconstruction graph from (B, n) codes."""
    b = code.shape[0]
    c, h, w = model.input_shape
    pr = model.params
    if model.arch == "mlp":
        h1 = ad.relu(ad.affine(code, pr["dec/W1"], pr["dec/b1"]))
        h2 = ad.relu(ad.affine(h1, pr["dec/W2"], pr["dec/b2"]))
        flat = ad.affine(h2, pr["dec/W3"], pr["dec/b3"])
        return ad.reshape(flat, (b, c, h, w))
    p1, p2 = VaeModel.PATCH_SIZES
    f1, f2 = VaeModel.PATCH_FEATURES
    h2g, w2g = h // (p1 * p2), w // (p1 * p2)
    base = ad.relu(ad.affine(code, pr["dec/W"], pr["dec/b"]))
    rows2 = ad.reshape(base, (b * h2g * w2g, f2))
    up2 = ad.relu(ad.affine(rows2, pr["dec/U2"], pr["dec/ub2"]))
    grid1 = _unpatchify(up2, b, h2g, w2g, p2, f1)
    rows1 = ad.reshape(grid1, (b * (h // p1) * (w // p1), f1))
    up1 = ad.affine(rows1, pr["dec/U1"], pr["dec/ub1"])
    return ad.transpose(_unpatchify(up1, b, h // p1, w // p1, p1, c), (0, 3, 1, 2))


def encode(model: VaeModel, channels) -> np.ndarray:
    """The posterior means mu, (B, n), of a normalized (B, C, H, W) batch;
    only training reads the encoder's logvar."""
    arr = np.asarray(channels, dtype=float)
    if arr.shape[1:] != model.input_shape:
        raise UsageError(f"encode: expected a (B, *{model.input_shape}) batch, got {arr.shape}")
    if not np.all(np.isfinite(arr)):  # relu would map NaN to 0 and hide it
        raise NumericError("encoder input is non-finite")
    mu, _ = encode_graph(model, Tensor(ad.pad_rows(arr)))
    mu = mu.value[:len(arr)]
    if not np.all(np.isfinite(mu)):
        raise DivergenceError("encoder produced non-finite outputs")
    return mu.copy()


def reparameterize(mu: Tensor, logvar: Tensor, epsilon: Tensor) -> Tensor:
    """c = mu + exp(logvar / 2) * epsilon, differentiable in mu and logvar."""
    return ad.add(mu, ad.mul(ad.exp(ad.scale(logvar, 0.5)), epsilon))


def decode(model: VaeModel, code) -> np.ndarray:
    """Decode a (B, n) batch of latent codes to (B, C, H, W) scenes."""
    arr = np.asarray(code, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != model.latent_dim:
        raise UsageError(f"decode: expected a (B, {model.latent_dim}) batch, got {arr.shape}")
    return decode_graph(model, Tensor(ad.pad_rows(arr))).value[:len(arr)]


def elbo_loss(s: Tensor, s_hat: Tensor, mu: Tensor, logvar: Tensor, lam) -> Tensor:
    """Mean squared reconstruction error plus lam * KLD.

    KLD = -1/2 sum_i (1 + logvar_i - mu_i^2 - exp(logvar_i)), summed over
    latent dims and averaged over the batch; mu and logvar are (B, n).
    """
    if lam < 0:
        raise UsageError("lambda must be >= 0")
    if mu.value.ndim != 2:
        raise UsageError(f"elbo_loss: expected (B, n) codes, got shape {mu.shape}")
    rec = ad.mean_all(ad.square(ad.sub(s_hat, s)))
    inner = ad.sub(ad.sub(ad.shift(logvar, 1.0), ad.square(mu)), ad.exp(logvar))
    kld = ad.scale(ad.sum_all(inner), -0.5 / mu.shape[0])
    return ad.add(rec, ad.scale(kld, lam))


def train_vae(corpus, config: VaeConfig):
    """Train on a normalized (N, C, H, W) corpus; returns (model, loss_history).

    Seed-deterministic: initialization, shuffling, and reparameterization
    noise all derive from config.seed.
    """
    data = np.asarray(corpus, dtype=float)
    if data.ndim != 4 or not len(data):
        raise UsageError(f"train_vae: needs a non-empty (N, C, H, W) corpus, "
                         f"got shape {data.shape}")
    n_samples = data.shape[0]
    rng = np.random.default_rng(config.seed)
    model = init_vae(data.shape[1:], config, rng)
    opt = ad.Adam(model.params.values(), LR)
    history = []
    for epoch in range(config.epochs):
        lam = kld_weight(config, epoch)
        perm = rng.permutation(n_samples)
        total, seen = 0.0, 0
        for start in range(0, n_samples, BATCH_SIZE):
            idx = perm[start:start + BATCH_SIZE]
            x = Tensor(data[idx])
            eps = rng.standard_normal((len(idx), config.latent_dim))
            mu, logvar = encode_graph(model, x)
            code = reparameterize(mu, logvar, Tensor(eps))
            s_hat = decode_graph(model, code)
            loss = elbo_loss(x, s_hat, mu, logvar, lam)
            if not np.isfinite(loss.value):
                raise DivergenceError(f"epoch {epoch}: vae loss non-finite")
            ad.backward(loss, opt.params)
            opt.step()
            total += float(loss.value) * len(idx)
            seen += len(idx)
        history.append(total / seen)
    for p in opt.params:  # the last step's gradients, which nothing reads
        p.grad = None
    return model, history


_ARCHS = ("mlp", "patch")  # the arch code stored in vae/meta is the index


def vae_tensors(model: VaeModel):
    meta = np.array(
        [*model.input_shape, model.latent_dim, _ARCHS.index(model.arch),
         model.hidden, *VaeModel.PATCH_FEATURES]
    )
    tensors = [("vae/meta", meta)]
    tensors += [(f"vae/{name}", t.value) for name, t in model.params.items()]
    return tensors


def vae_from_tensors(tensors) -> VaeModel:
    """The model of vae_tensors, its parameters the stored arrays; FormatError
    unless the tensors are exactly vae/meta and the layout it describes, and
    the meta's patch widths are VaeModel.PATCH_FEATURES."""
    c, h, w, n, arch_code, hidden, *widths = read_meta(tensors, "vae/meta", 8)
    if tuple(widths) != VaeModel.PATCH_FEATURES:
        raise FormatError(f"vae/meta: patch widths {tuple(widths)} are not "
                          f"{VaeModel.PATCH_FEATURES}")
    arch = _ARCHS[arch_code] if arch_code < len(_ARCHS) else f"code {arch_code}"
    model = VaeModel({}, (c, h, w), n, arch, hidden)
    try:
        layout = model.layout()
    except UsageError as exc:  # an unknown arch, or a grid the patch arch cannot tile
        raise FormatError(f"vae/meta: {exc}") from None
    _, *weights = layout_arrays(
        tensors, [("vae/meta", (8,))] + [(f"vae/{name}", shape) for name, shape, _ in layout])
    model.params = {name: Tensor(arr) for (name, _, _), arr in zip(layout, weights)}
    return model
