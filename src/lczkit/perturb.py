"""Stage 3: push a requested temperature variation into latent space and
decode the counterfactual scene.

The step is the unique gradient-parallel one, delta_c = (delta_t / ||g||^2) * g,
which satisfies delta_c . g = delta_t and has minimal norm among all steps
doing so. With steps > 1 the same closed form is applied again, at the
stepped code, to what is still missing of delta_t; a repetition is kept only
if it brings the regressor's change closer to the request, and a flat
gradient ends the walk with what was achieved. One step is the closed form.
Note this is NOT a function inverse of the regressor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import regressor as reg
from . import vae as vae_mod
from .errors import DataError, DegenerateGradientError, NumericError, UsageError

DEFAULT_G_FLOOR = 1e-8


@dataclass
class Perturbation:
    delta_t: float
    steps: int = 1                 # closed-form steps at most; 1 is the closed form
    g_floor: float = DEFAULT_G_FLOOR

    def __post_init__(self):
        if not np.isfinite(self.delta_t):
            raise UsageError("delta_t must be finite")
        if self.steps < 1:
            raise UsageError("steps must be >= 1")
        if self.g_floor <= 0:
            raise UsageError("g_floor must be > 0")


@dataclass
class CounterfactualScene:
    original: np.ndarray          # normalized input scene (C, H, W)
    reconstruction: np.ndarray    # D(E(s)) at delta_t = 0
    counterfactual: np.ndarray    # D(c + delta_c)
    delta_c: np.ndarray
    achieved_dt: float            # R(c + delta_c) - R(c), reported honestly
    requested_dt: float
    scene_id: str = ""


@dataclass
class BatchResult:
    scenes: list                  # CounterfactualScene, scene-major order
    failures: list = field(default_factory=list)  # (scene_id, delta_t, kind, message)


@dataclass
class _EncodedScene:
    """The work every delta_t of one scene shares, done once."""

    original: np.ndarray
    code: np.ndarray
    t0: float
    reconstruction: np.ndarray
    g: np.ndarray                 # dR/dc at code


def delta_c(g, delta_t, g_floor=DEFAULT_G_FLOOR) -> np.ndarray:
    """Gradient-parallel latent step: (delta_t / ||g||^2) * g."""
    g = np.asarray(g, dtype=float)
    norm = float(np.linalg.norm(g))
    if norm < g_floor:
        raise DegenerateGradientError(
            f"gradient norm {norm:.3e} below floor {g_floor:.3e}; regressor is locally insensitive"
        )
    return (float(delta_t) / (norm * norm)) * g


def _encode_scene(vae, regressor, channels) -> _EncodedScene:
    original = np.array(channels, dtype=float)  # a copy the caller cannot change
    code = vae_mod.encode_mean(vae, original)
    t0 = reg.predict(regressor, code)
    reconstruction = vae_mod.decode(vae, code)
    if not np.all(np.isfinite(reconstruction)):
        raise NumericError("decoded reconstruction is non-finite")
    g = reg.grad_wrt_code(regressor, code)
    return _EncodedScene(original, code, t0, reconstruction, g)


def _step(vae, regressor, scene: _EncodedScene, perturbation: Perturbation) -> CounterfactualScene:
    """Step the scene's latent code for the requested delta_t and decode;
    a degenerate gradient at the scene's code fails the pair."""
    code, t0, dt = scene.code, scene.t0, perturbation.delta_t
    step = delta_c(scene.g, dt, perturbation.g_floor)
    achieved = reg.predict(regressor, code + step) - t0
    for _ in range(perturbation.steps - 1):
        try:
            candidate = step + delta_c(reg.grad_wrt_code(regressor, code + step),
                                       dt - achieved, perturbation.g_floor)
        except DegenerateGradientError:
            break  # flat region; keep what was achieved
        reached = reg.predict(regressor, code + candidate) - t0
        if not abs(dt - reached) < abs(dt - achieved):
            break  # a step is taken only if it helps
        step, achieved = candidate, reached

    counterfactual = vae_mod.decode(vae, code + step)
    if not np.all(np.isfinite(counterfactual)):
        raise NumericError("decoded counterfactual is non-finite")
    return CounterfactualScene(
        original=scene.original,
        reconstruction=scene.reconstruction,
        counterfactual=counterfactual,
        delta_c=step,
        achieved_dt=float(achieved),
        requested_dt=float(dt),
    )


def perturb_scene(vae, regressor, channels, perturbation: Perturbation) -> CounterfactualScene:
    """Encode a normalized (C, H, W) scene, step its latent code for the
    requested delta_t, decode."""
    return _step(vae, regressor, _encode_scene(vae, regressor, channels), perturbation)


def batch_perturb(vae, regressor, scenes, delta_ts, g_floor=DEFAULT_G_FLOOR,
                  steps=1) -> BatchResult:
    """All scenes x all delta_t values. A scene is a normalized (C, H, W)
    array or a (scene_id, array) pair. Each scene is encoded, predicted,
    reconstructed and differentiated once, then stepped per delta_t.

    A NumericError fails only the pairs it reaches (all of a scene's pairs
    if it comes from the shared per-scene work) and is recorded as
    (scene_id, delta_t, kind, message); the batch fails only if every pair
    does.
    """
    scenes = list(scenes)
    if not scenes:
        raise UsageError("batch_perturb: empty scene list")
    perturbations = [Perturbation(dt, steps=steps, g_floor=g_floor) for dt in delta_ts]
    results, failures = [], []
    for i, scene in enumerate(scenes):
        scene_id, channels = scene if isinstance(scene, tuple) else (f"scene_{i}", scene)
        try:
            encoded = _encode_scene(vae, regressor, channels)
        except NumericError as exc:
            failures += [(scene_id, float(p.delta_t), exc.kind, str(exc)) for p in perturbations]
            continue
        for pert in perturbations:
            try:
                cf = _step(vae, regressor, encoded, pert)
            except NumericError as exc:
                failures.append((scene_id, float(pert.delta_t), exc.kind, str(exc)))
                continue
            cf.scene_id = scene_id
            results.append(cf)
    if failures and not results:
        raise DataError(f"batch_perturb: all {len(failures)} pairs failed; "
                        f"first: {failures[0][2]}: {failures[0][3]}")
    return BatchResult(results, failures)
