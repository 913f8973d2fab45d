"""Stage 3: push a requested temperature variation into latent space and
decode the counterfactual scene.

The step is the unique gradient-parallel one, delta_c = (delta_t / ||g||^2) * g,
which satisfies delta_c . g = delta_t and has minimal norm among all steps
doing so. With steps > 1 the same closed form is applied again, at the
stepped code, to what is still missing of delta_t; a repetition is kept only
if it brings the regressor's change closer to the request, and a flat
gradient ends the walk with what was achieved. One step is the closed form.
Note this is NOT a function inverse of the regressor.

A scene costs one encode and one decode call: its code and every stepped
code of the sweep are decoded as one (K + 1, n) batch, row 0 being the
reconstruction. A row decodes to the same bits in any batch of two or more
rows, so a lone pair decodes [code, code + step] the same way.
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


def delta_c(g, delta_t, g_floor=DEFAULT_G_FLOOR) -> np.ndarray:
    """Gradient-parallel latent step: (delta_t / ||g||^2) * g."""
    g = np.asarray(g, dtype=float)
    norm = float(np.linalg.norm(g))
    if norm < g_floor:
        raise DegenerateGradientError(
            f"gradient norm {norm:.3e} below floor {g_floor:.3e}; regressor is locally insensitive"
        )
    return (float(delta_t) / (norm * norm)) * g


def _walk(regressor, code, t0, g, perturbation: Perturbation):
    """The latent step for one delta_t and the change R(c + step) - R(c) it
    achieves; a degenerate gradient at the scene's code fails the pair."""
    dt = perturbation.delta_t
    step = delta_c(g, dt, perturbation.g_floor)
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
    return step, achieved


def _sweep_scene(vae, regressor, channels, perturbations, scene_id="") -> list:
    """One scene through every perturbation: encode, predict and
    differentiate once, walk each delta_t, then decode the code and every
    stepped code in one batch, row 0 being the reconstruction. Returns one
    CounterfactualScene or NumericError per perturbation; a failure of the
    shared work, a non-finite reconstruction included, is raised."""
    original = np.array(channels, dtype=float)  # a copy the caller cannot change
    code = vae_mod.encode_mean(vae, original)
    t0 = reg.predict(regressor, code)
    try:
        g = reg.grad_wrt_code(regressor, code)
    except NumericError as exc:  # fails every pair, unless the reconstruction does first
        outcomes = [exc] * len(perturbations)
    else:
        outcomes = []
        for pert in perturbations:
            try:
                outcomes.append(_walk(regressor, code, t0, g, pert))
            except NumericError as exc:
                outcomes.append(exc)
    walked = [o for o in outcomes if not isinstance(o, NumericError)]
    decoded = iter(vae_mod.decode(vae, np.stack([code] + [code + step for step, _ in walked])))
    reconstruction = next(decoded)
    if not np.all(np.isfinite(reconstruction)):
        raise NumericError("decoded reconstruction is non-finite")
    results = []
    for pert, outcome in zip(perturbations, outcomes):
        if not isinstance(outcome, NumericError):
            counterfactual = next(decoded)
            if not np.all(np.isfinite(counterfactual)):
                outcome = NumericError("decoded counterfactual is non-finite")
            else:
                outcome = CounterfactualScene(
                    original=original, reconstruction=reconstruction,
                    counterfactual=counterfactual, delta_c=outcome[0],
                    achieved_dt=float(outcome[1]), requested_dt=float(pert.delta_t),
                    scene_id=scene_id)
        results.append(outcome)
    return results


def perturb_scene(vae, regressor, channels, perturbation: Perturbation) -> CounterfactualScene:
    """Encode a normalized (C, H, W) scene, step its latent code for the
    requested delta_t and decode code and stepped code as one batch; a
    NumericError is raised, not recorded."""
    [outcome] = _sweep_scene(vae, regressor, channels, [perturbation])
    if isinstance(outcome, NumericError):
        raise outcome
    return outcome


def batch_perturb(vae, regressor, scenes, delta_ts, g_floor=DEFAULT_G_FLOOR,
                  steps=1) -> BatchResult:
    """All scenes x all delta_t values. A scene is a normalized (C, H, W)
    array or a (scene_id, array) pair. Each scene is encoded, predicted and
    differentiated once and stepped per delta_t; its reconstruction and
    all its counterfactuals are decoded in one call.

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
            outcomes = _sweep_scene(vae, regressor, channels, perturbations, scene_id)
        except NumericError as exc:
            outcomes = [exc] * len(perturbations)
        for pert, outcome in zip(perturbations, outcomes):
            if isinstance(outcome, NumericError):
                failures.append((scene_id, float(pert.delta_t), outcome.kind, str(outcome)))
            else:
                results.append(outcome)
    if failures and not results:
        raise DataError(f"batch_perturb: all {len(failures)} pairs failed; "
                        f"first: {failures[0][2]}: {failures[0][3]}")
    return BatchResult(results, failures)
