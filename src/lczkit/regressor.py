"""Stage 2: three-layer fully connected network predicting scene temperature
from a latent code.

Targets are z-scored during training and de-standardized at predict time,
so the public contract stays in kelvin. Activation is relu by default; a
tanh variant gives a smoother gradient field for the perturbation stage,
and "identity" yields a purely linear model (useful for exactness checks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DivergenceError, UsageError


@dataclass
class RegConfig:
    hidden: tuple = (128, 32)
    activation: str = "relu"   # "relu" | "tanh" | "identity"
    epochs: int = 400
    lr: float = 1e-3
    batch_size: int = 32
    holdout_fraction: float = 0.2
    seed: int = 0


@dataclass
class RegressorModel:
    params: dict               # W1,b1,W2,b2,W3,b3 as Tensors
    latent_dim: int
    hidden: tuple
    activation: str
    t_mean: float = 0.0        # target standardization constants (kelvin)
    t_std: float = 1.0

    def param_list(self):
        return list(self.params.values())


@dataclass
class ErrorReport:
    mae: float                 # kelvin, on the held-out split
    err_min: float             # signed error min (prediction - target)
    err_max: float
    n_holdout: int


_ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh, "identity": lambda t: t}
_ACT_CODES = {"relu": 0, "tanh": 1, "identity": 2}


def init_regressor(latent_dim, config: RegConfig, rng) -> RegressorModel:
    if config.activation not in _ACTIVATIONS:
        raise UsageError(f"unknown activation {config.activation!r}")
    h1, h2 = config.hidden
    def w(fan_in, shape):
        return Tensor(rng.standard_normal(shape) * np.sqrt(2.0 / fan_in), requires_grad=True)

    params = {
        "W1": w(latent_dim, (latent_dim, h1)), "b1": Tensor(np.zeros(h1), requires_grad=True),
        "W2": w(h1, (h1, h2)), "b2": Tensor(np.zeros(h2), requires_grad=True),
        "W3": w(h2, (h2, 1)), "b3": Tensor(np.zeros(1), requires_grad=True),
    }
    return RegressorModel(params, latent_dim, (h1, h2), config.activation)


def forward_graph(model: RegressorModel, code: Tensor, frozen: bool = False) -> Tensor:
    """(B, n) codes -> (B, 1) standardized predictions."""
    act = _ACTIVATIONS[model.activation]
    pr = model.params
    if frozen:
        pr = {k: ad.stop_gradient(v) for k, v in pr.items()}
    h1 = act(ad.affine(code, pr["W1"], pr["b1"]))
    h2 = act(ad.affine(h1, pr["W2"], pr["b2"]))
    return ad.affine(h2, pr["W3"], pr["b3"])


def _check_code(model, code) -> np.ndarray:
    arr = np.asarray(code, dtype=float)
    if arr.ndim == 1:
        arr = arr[None]
    if arr.shape[1] != model.latent_dim:
        raise UsageError(f"expected latent dim {model.latent_dim}, got {arr.shape[1]}")
    return arr


def predict(model: RegressorModel, code) -> float:
    """Temperature in kelvin for one latent code (or array for a batch)."""
    arr = _check_code(model, code)
    out = forward_graph(model, Tensor(arr)).value[:, 0]
    temps = out * model.t_std + model.t_mean
    if not np.all(np.isfinite(temps)):
        raise DivergenceError("regressor produced non-finite prediction")
    return float(temps[0]) if np.asarray(code).ndim == 1 else temps.copy()


def grad_wrt_code(model: RegressorModel, code) -> np.ndarray:
    """g = dR/dc in kelvin per latent unit; model weights stay frozen."""
    arr = _check_code(model, code)
    leaf = Tensor(arr, requires_grad=True)
    out = forward_graph(model, leaf, frozen=True)
    root = ad.sum_all(out)  # scalar; rows are independent so per-row grads are exact
    ad.backward(root)
    g = leaf.grad * model.t_std
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite gradient")
    return g[0].copy() if np.asarray(code).ndim == 1 else g.copy()


def l1_loss_graph(pred: Tensor, target: Tensor) -> Tensor:
    return ad.mean_all(ad.absval(ad.sub(pred, target)))


def train_regressor(codes, temps, config: RegConfig, val_codes=None, val_temps=None):
    """Fit on L1 loss; returns (model, ErrorReport on the held-out split).

    If no validation split is supplied, a seeded holdout_fraction split is
    carved out of the input.
    """
    codes = np.asarray(codes, dtype=float)
    temps = np.asarray(temps, dtype=float)
    if codes.ndim != 2 or len(codes) != len(temps):
        raise UsageError("codes must be (N, n) with matching temps")
    if len(codes) < 2:
        raise UsageError("need at least 2 training samples")
    rng = np.random.default_rng(config.seed)
    if val_codes is None:
        perm = rng.permutation(len(codes))
        n_hold = int(round(config.holdout_fraction * len(codes)))
        hold, keep = perm[:n_hold], perm[n_hold:]
        if len(keep) < 2:
            raise UsageError("holdout fraction leaves fewer than 2 training samples")
        val_codes, val_temps = codes[hold], temps[hold]
        codes, temps = codes[keep], temps[keep]
    else:
        val_codes = np.asarray(val_codes, dtype=float)
        val_temps = np.asarray(val_temps, dtype=float)
    if len(val_codes) == 0:
        val_codes, val_temps = codes, temps

    model = init_regressor(codes.shape[1], config, rng)
    model.t_mean = float(temps.mean())
    model.t_std = float(max(temps.std(), 1e-8))
    targets = (temps - model.t_mean) / model.t_std

    opt = ad.Adam(model.param_list(), config.lr)
    n = len(codes)
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            pred = forward_graph(model, Tensor(codes[idx]))
            loss = l1_loss_graph(pred, Tensor(targets[idx][:, None]))
            if not np.isfinite(loss.value):
                raise DivergenceError("regression loss non-finite", epoch=epoch)
            opt.zero_grad()
            ad.backward(loss)
            opt.step()

    errors = predict(model, val_codes) - val_temps
    report = ErrorReport(
        mae=float(np.mean(np.abs(errors))),
        err_min=float(errors.min()),
        err_max=float(errors.max()),
        n_holdout=len(val_codes),
    )
    return model, report


def regressor_tensors(model: RegressorModel):
    meta = np.array([model.latent_dim, *model.hidden, _ACT_CODES[model.activation]])
    tensors = [("reg/meta", meta), ("reg/t_mean", np.array([model.t_mean])),
               ("reg/t_std", np.array([model.t_std]))]
    tensors += [(f"reg/{name}", t.value) for name, t in model.params.items()]
    return tensors


def regressor_from_tensors(tensors) -> RegressorModel:
    by_name = dict(tensors)
    n, h1, h2, act_code = (int(round(v)) for v in by_name["reg/meta"])
    activation = {v: k for k, v in _ACT_CODES.items()}[act_code]
    config = RegConfig(hidden=(h1, h2), activation=activation)
    model = init_regressor(n, config, np.random.default_rng(0))
    for name, tensor in model.params.items():
        key = f"reg/{name}"
        if key not in by_name:
            raise UsageError(f"missing tensor {key}")
        tensor.value = by_name[key].reshape(tensor.shape)
    model.t_mean = float(by_name["reg/t_mean"][0])
    model.t_std = float(by_name["reg/t_std"][0])
    return model
