"""Stage 3: push a requested temperature variation into latent space and
decode the counterfactual scene.

The step is the unique gradient-parallel one, delta_c = (delta_t / ||g||^2) * g,
which satisfies delta_c . g = delta_t and has minimal norm among all steps
doing so. With steps > 1 the same closed form is applied again, at the
stepped code, to what is still missing of delta_t; a repetition is kept only
if it brings the regressor's change closer to the request, and a flat
gradient ends the walk with what was achieved. One step is the closed form.
Note this is NOT a function inverse of the regressor.

batch_perturb is the one entry point: it takes the scenes as one
(N, C, H, W) array with their ids. A scene costs one encode and one decode
call: its code and every stepped code of the sweep are decoded as one
(K + 1, n) batch, row 0 being the reconstruction. A row decodes to the same
bits in any batch of two or more rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import regressor as reg
from . import vae as vae_mod
from .errors import DataError, DegenerateGradientError, NumericError, UsageError

DEFAULT_G_FLOOR = 1e-8


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


def _walk(regressor, code, t0, g, dt, steps, g_floor):
    """The latent step for one delta_t and the change R(c + step) - R(c) it
    achieves; a degenerate gradient at the scene's code fails the pair."""
    step = delta_c(g, dt, g_floor)
    achieved = reg.predict(regressor, (code + step)[None])[0] - t0
    for _ in range(steps - 1):
        try:
            candidate = step + delta_c(reg.grad_wrt_code(regressor, (code + step)[None])[0],
                                       dt - achieved, g_floor)
        except DegenerateGradientError:
            break  # flat region; keep what was achieved
        reached = reg.predict(regressor, (code + candidate)[None])[0] - t0
        if not abs(dt - reached) < abs(dt - achieved):
            break  # a step is taken only if it helps
        step, achieved = candidate, reached
    return step, achieved


def _sweep_scene(vae, regressor, original, delta_ts, steps, g_floor, scene_id) -> list:
    """One (C, H, W) scene through every delta_t: encode, predict and
    differentiate once, walk each delta_t, then decode the code and every
    stepped code in one batch, row 0 being the reconstruction. Returns one
    CounterfactualScene or NumericError per delta_t; a failure of the
    shared work, a non-finite reconstruction included, is raised."""
    code = vae_mod.encode_mean(vae, original[None])[0]
    t0 = reg.predict(regressor, code[None])[0]
    try:
        g = reg.grad_wrt_code(regressor, code[None])[0]
    except NumericError as exc:  # fails every pair, unless the reconstruction does first
        outcomes = [exc] * len(delta_ts)
    else:
        outcomes = []
        for dt in delta_ts:
            try:
                outcomes.append(_walk(regressor, code, t0, g, dt, steps, g_floor))
            except NumericError as exc:
                outcomes.append(exc)
    walked = [o for o in outcomes if not isinstance(o, NumericError)]
    decoded = iter(vae_mod.decode(vae, np.stack([code] + [code + step for step, _ in walked])))
    reconstruction = next(decoded)
    if not np.all(np.isfinite(reconstruction)):
        raise NumericError("decoded reconstruction is non-finite")
    results = []
    for dt, outcome in zip(delta_ts, outcomes):
        if not isinstance(outcome, NumericError):
            counterfactual = next(decoded)
            if not np.all(np.isfinite(counterfactual)):
                outcome = NumericError("decoded counterfactual is non-finite")
            else:
                outcome = CounterfactualScene(
                    original=original, reconstruction=reconstruction,
                    counterfactual=counterfactual, delta_c=outcome[0],
                    achieved_dt=float(outcome[1]), requested_dt=dt, scene_id=scene_id)
        results.append(outcome)
    return results


def batch_perturb(vae, regressor, scenes, delta_ts, scene_ids, g_floor=DEFAULT_G_FLOOR,
                  steps=1) -> BatchResult:
    """All scenes x all delta_t values: scenes is a normalized (N, C, H, W)
    array and scene_ids its N ids. Each scene is encoded, predicted and
    differentiated once and stepped per delta_t, by at most `steps`
    closed-form steps; its reconstruction and all its counterfactuals are
    decoded in one call.

    A NumericError fails only the pairs it reaches (all of a scene's pairs
    if it comes from the shared per-scene work) and is recorded as
    (scene_id, delta_t, kind, message); the batch fails only if every pair
    does.
    """
    scenes = np.array(scenes, dtype=float)  # originals the caller cannot change
    if scenes.ndim != 4 or not len(scenes) or len(scene_ids) != len(scenes):
        raise UsageError(f"batch_perturb: needs a non-empty (N, C, H, W) array and its N ids, "
                         f"got shape {scenes.shape} and {len(scene_ids)} ids")
    delta_ts = [float(dt) for dt in delta_ts]
    if not np.all(np.isfinite(delta_ts)):
        raise UsageError(f"batch_perturb: delta_t values must be finite, got {delta_ts}")
    if steps < 1:
        raise UsageError(f"batch_perturb: steps must be >= 1, got {steps}")
    if not g_floor > 0:
        raise UsageError(f"batch_perturb: g_floor must be > 0, got {g_floor}")
    results, failures = [], []
    for scene_id, original in zip(scene_ids, scenes):
        try:
            outcomes = _sweep_scene(vae, regressor, original, delta_ts, steps, g_floor, scene_id)
        except NumericError as exc:
            outcomes = [exc] * len(delta_ts)
        for dt, outcome in zip(delta_ts, outcomes):
            if isinstance(outcome, NumericError):
                failures.append((scene_id, dt, outcome.kind, str(outcome)))
            else:
                results.append(outcome)
    if failures and not results:
        raise DataError(f"batch_perturb: all {len(failures)} pairs failed; "
                        f"first: {failures[0][2]}: {failures[0][3]}")
    return BatchResult(results, failures)
