"""Stage 2: three-layer fully connected network predicting scene temperature
from a latent code.

Targets are z-scored during training and de-standardized at predict time,
so the public contract stays in kelvin. predict and grad_wrt_code take a
(B, n) batch of codes and return (B,) temperatures and (B, n) gradients;
one code is a batch of one row. Both pad a batch of fewer than
autodiff.MIN_ROWS rows with copies of its first row and drop them from the
result, and the one-output layer is a row-wise product and sum, not a GEMV,
so a code's temperature and gradient have the same bits in any batch.
Activation is relu by default. tanh (a smoother gradient field for the
perturbation stage) and "identity" (a purely linear model, for exactness
checks) are RegConfig choices for callers that build one; no config key
sets them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DivergenceError, FormatError, NumericError, UsageError
from .io import layout_arrays, read_meta


LR = 5e-3                # at 1e-2 most layer-2 relus die: some codes get no gradient
HOLDOUT_FRACTION = 0.2   # of the training scenes, held out for the MAE


def n_holdout(n: int) -> int:
    """Scenes held out of n training scenes."""
    return int(round(HOLDOUT_FRACTION * n))


@dataclass
class RegConfig:
    hidden: tuple = (128, 32)
    activation: str = "relu"   # "relu" | "tanh" | "identity"
    epochs: int = 100          # full-batch Adam steps
    seed: int = 0

    def __post_init__(self):
        for i, width in enumerate(self.hidden, start=1):
            if width < 1:
                raise UsageError(f"hidden{i} must be at least 1")
        if self.epochs < 1:
            raise UsageError("epochs must be at least 1")
        if self.activation not in _ACTIVATIONS:
            raise UsageError(f"activation {self.activation!r} is not one of "
                             f"{', '.join(_ACTIVATIONS)}")


@dataclass
class RegressorModel:
    params: dict               # W1,b1,W2,b2,W3,b3 as Tensors
    latent_dim: int
    hidden: tuple
    activation: str
    t_mean: float = 0.0        # target standardization constants (kelvin)
    t_std: float = 1.0

    def layout(self) -> list:
        """(name, shape, init gain) of each parameter, in draw order."""
        h1, h2 = self.hidden
        return [("W1", (self.latent_dim, h1), 1.0), ("b1", (h1,), 0.0),
                ("W2", (h1, h2), 1.0), ("b2", (h2,), 0.0),
                ("W3", (h2, 1), 1.0), ("b3", (1,), 0.0)]


@dataclass
class ErrorReport:
    mae: float                 # kelvin, on the held-out split
    err_min: float             # signed error min (prediction - target)
    err_max: float
    n_holdout: int


_ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh, "identity": lambda t: t}
_ACT_NAMES = ("relu", "tanh", "identity")  # the activation code stored in reg/meta is the index


def init_regressor(latent_dim, config: RegConfig, rng) -> RegressorModel:
    model = RegressorModel({}, latent_dim, tuple(config.hidden), config.activation)
    model.params = ad.he_params(model.layout(), rng)
    return model


def forward_graph(model: RegressorModel, code: Tensor) -> Tensor:
    """(B, n) codes -> (B, 1) standardized predictions."""
    act = _ACTIVATIONS[model.activation]
    pr = model.params
    h1 = act(ad.affine(code, pr["W1"], pr["b1"]))
    h2 = act(ad.affine(h1, pr["W2"], pr["b2"]))
    return ad.affine(h2, pr["W3"], pr["b3"])


def _check_code(model, code) -> np.ndarray:
    arr = np.asarray(code, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != model.latent_dim:
        raise UsageError(f"expected a (B, {model.latent_dim}) batch of codes, got {arr.shape}")
    if not np.all(np.isfinite(arr)):  # relu would map NaN to 0 and hide it
        raise NumericError("regressor input is non-finite")
    return arr


def predict(model: RegressorModel, code) -> np.ndarray:
    """Temperatures in kelvin, (B,), for a (B, n) batch of latent codes."""
    arr = _check_code(model, code)
    out = forward_graph(model, Tensor(ad.pad_rows(arr))).value[:len(arr), 0]
    temps = out * model.t_std + model.t_mean
    if not np.all(np.isfinite(temps)):
        raise DivergenceError("regressor produced non-finite prediction")
    return temps


def grad_wrt_code(model: RegressorModel, code) -> np.ndarray:
    """g = dR/dc in kelvin per latent unit, (B, n) for a (B, n) batch of
    codes; differentiated in the code leaf only, so no weight gets an adjoint."""
    arr = _check_code(model, code)
    leaf = Tensor(ad.pad_rows(arr))
    root = ad.sum_all(forward_graph(model, leaf))  # rows are independent: per-row grads exact
    ad.backward(root, [leaf])
    g = leaf.grad[:len(arr)] * model.t_std
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite gradient")
    return g


def l1_loss_graph(pred: Tensor, target: Tensor) -> Tensor:
    return ad.mean_all(ad.absval(ad.sub(pred, target)))


def train_regressor(codes, temps, config: RegConfig):
    """Fit on L1 loss; returns (model, ErrorReport on the held-out split).

    Each epoch is one Adam step on the loss over the whole fit split, in
    split order. The held-out split is a seeded HOLDOUT_FRACTION of the
    input; a split that rounds to no held-out sample, or leaves fewer than
    2 to fit, is a UsageError.
    """
    codes = np.asarray(codes, dtype=float)
    temps = np.asarray(temps, dtype=float)
    if codes.ndim != 2 or len(codes) != len(temps):
        raise UsageError("codes must be (N, n) with matching temps")
    n_hold = n_holdout(len(codes))
    if n_hold < 1 or len(codes) - n_hold < 2:
        raise UsageError(f"holdout fraction {HOLDOUT_FRACTION!r} of {len(codes)} samples "
                         f"holds out {n_hold} and fits {len(codes) - n_hold}; "
                         f"needs at least 1 and 2")
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(codes))
    hold, keep = perm[:n_hold], perm[n_hold:]
    val_codes, val_temps = codes[hold], temps[hold]
    codes, temps = codes[keep], temps[keep]

    model = init_regressor(codes.shape[1], config, rng)
    model.t_mean = float(temps.mean())
    model.t_std = float(max(temps.std(), 1e-8))
    targets = (temps - model.t_mean) / model.t_std

    opt = ad.Adam(model.params.values(), LR)
    inputs, target = Tensor(codes), Tensor(targets[:, None])
    for epoch in range(config.epochs):
        loss = l1_loss_graph(forward_graph(model, inputs), target)
        if not np.isfinite(loss.value):
            raise DivergenceError(f"epoch {epoch}: regression loss non-finite")
        ad.backward(loss, opt.params)
        opt.step()
    for p in opt.params:  # the last step's gradients, which nothing reads
        p.grad = None

    errors = predict(model, val_codes) - val_temps
    report = ErrorReport(
        mae=float(np.mean(np.abs(errors))),
        err_min=float(errors.min()),
        err_max=float(errors.max()),
        n_holdout=len(val_codes),
    )
    return model, report


def regressor_tensors(model: RegressorModel):
    meta = np.array([model.latent_dim, *model.hidden, _ACT_NAMES.index(model.activation)])
    tensors = [("reg/meta", meta), ("reg/t_mean", np.array([model.t_mean])),
               ("reg/t_std", np.array([model.t_std]))]
    tensors += [(f"reg/{name}", t.value) for name, t in model.params.items()]
    return tensors


def regressor_from_tensors(tensors) -> RegressorModel:
    """The model of regressor_tensors, its parameters the stored arrays;
    FormatError unless the tensors are exactly reg/meta, a finite t_mean, a
    positive t_std and the layout the meta describes."""
    n, h1, h2, act_code = read_meta(tensors, "reg/meta", 4)
    if act_code >= len(_ACT_NAMES):
        raise FormatError(f"unknown regressor activation code {act_code}")
    model = RegressorModel({}, n, (h1, h2), _ACT_NAMES[act_code])
    layout = model.layout()
    _, t_mean, t_std, *weights = layout_arrays(
        tensors, [("reg/meta", (4,)), ("reg/t_mean", (1,)), ("reg/t_std", (1,))]
        + [(f"reg/{name}", shape) for name, shape, _ in layout])
    model.t_mean, model.t_std = float(t_mean[0]), float(t_std[0])
    if not (np.isfinite(model.t_mean) and np.isfinite(model.t_std) and model.t_std > 0):
        raise FormatError(f"reg/t_mean {model.t_mean} or reg/t_std {model.t_std} unusable")
    model.params = {name: Tensor(arr) for (name, _, _), arr in zip(layout, weights)}
    return model
