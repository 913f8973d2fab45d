"""Stage 3: push a requested temperature variation into latent space and
decode the counterfactual scene.

The step is the unique gradient-parallel one, delta_c = (delta_t / ||g||^2) * g,
which satisfies delta_c . g = delta_t and has minimal norm among all steps
doing so. With steps > 1 the same closed form is applied again, at the
stepped code, to what is still missing of delta_t; a repetition is kept only
if it brings the regressor's change closer to the request, and a flat
gradient (norm below G_FLOOR) ends the walk with what was achieved. One step
is the closed form. Note this is NOT a function inverse of the regressor.

batch_perturb is the one entry point: it takes the scenes as one (N, C, H, W)
array with their distinct ids, and distinct delta_t values that hold 0, and
works on the whole batch. It makes one encode of the finite scenes, one
predict and one gradient over their codes, one predict over all stepped codes,
and per further walk step one gradient and one predict over the pairs still
walking. The stepped codes are then decoded a chunk of whole scenes at a
time, each scene's counterfactuals in sweep order, in one call of at most
DECODE_ROWS rows (more only for a scene that alone has more), and each
chunk's kept rows are written straight to the one tensor of the LCZM file
the caller names before the next chunk is decoded; no array of all the
batch's rows is ever made. A scene's delta_t = 0 step is zero, so that row
is its reconstruction D(E(s)). If a decoded row fails, the rows after it
move up, so a scene's rows stay consecutive. The written file is mapped
back read-only: every counterfactual of the result is a view of that map,
and a scene's counterfactuals are one slice of it. Every network call runs
on at least autodiff.MIN_ROWS rows, so a row has the same bits in any
batch: a batched result equals the result of the scene, or the pair, alone.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import regressor as reg
from . import vae as vae_mod
from .errors import DataError, DegenerateGradientError, NumericError, UsageError
from .io import map_tensor, row_writer

G_FLOOR = 1e-8  # a gradient norm below it is flat: no step is taken along it
DECODE_ROWS = 256  # rows per decode call and written chunk, unless one scene has more
CF_TENSOR = "cf/counterfactual"  # the one tensor of a batch's file, a row per kept pair


@dataclass
class CounterfactualScene:
    original: np.ndarray          # normalized input scene (C, H, W)
    reconstruction: np.ndarray    # D(E(s)): the scene's delta_t = 0 counterfactual
    counterfactual: np.ndarray    # D(c + delta_c)
    delta_c: np.ndarray           # the latent step c' - c, a row of the batch's pair steps
    achieved_dt: float            # R(c + delta_c) - R(c), reported honestly
    requested_dt: float
    scene_id: str = ""


@dataclass
class BatchResult:
    scenes: list                  # CounterfactualScene, scene-major order
    failures: list                # (scene_id, delta_t, kind, message)
    decoded: np.memmap            # (R, C, H, W), read-only map of the written file:
                                  # row i is scenes[i].counterfactual, a view of it


def _steps(g, delta_t):
    """delta_c of each row of a (B, n) gradient for (B,) delta_t values: the
    (B, n) steps and the rows' gradient norms. A row whose norm is below
    G_FLOOR gets a zero step."""
    norm = np.linalg.norm(g, axis=1)
    scale = np.divide(delta_t, norm * norm, out=np.zeros(len(g)), where=~(norm < G_FLOOR))
    return scale[:, None] * g, norm


def _flat(norm) -> DegenerateGradientError:
    return DegenerateGradientError(f"gradient norm {norm:.3e} below floor {G_FLOOR:.3e}; "
                                   f"regressor is locally insensitive")


def delta_c(g, delta_t) -> np.ndarray:
    """Gradient-parallel latent step: (delta_t / ||g||^2) * g."""
    [step], [norm] = _steps(np.asarray(g, dtype=float)[None], np.array([float(delta_t)]))
    if norm < G_FLOOR:
        raise _flat(norm)
    return step


def _apply(fn, model, rows, errors, shape) -> np.ndarray:
    """fn(model, ...) over the rows whose entry in errors is None, as a
    (len(rows), *shape) array; NaN in the other rows. One call, or, if it
    raises a NumericError, one call per row, and each such error goes to its
    row's entry in errors. A row has the same bits in any batch, so the rows
    that pass do not change."""
    out = np.full((len(rows), *shape), np.nan)
    live = np.array([i for i, err in enumerate(errors) if err is None], dtype=int)
    if not live.size:
        return out
    try:
        out[live] = fn(model, rows[live])
    except NumericError:
        for i in live:
            try:
                out[i] = fn(model, rows[i:i + 1])[0]
            except NumericError as exc:
                errors[i] = exc
    return out


def _walk(regressor, codes, t0, dts, step, achieved, errors, steps):
    """Up to steps - 1 more closed-form steps on what each pair still misses,
    updating step, achieved and errors in place. A pair walks on while a step
    brings it closer to its delta_t; a flat gradient stops it with what it
    achieved, and a NumericError fails it."""
    walking = np.array([err is None for err in errors])
    for _ in range(steps - 1):
        idx = np.flatnonzero(walking)
        if not idx.size:
            break
        new_errors = [None] * len(idx)
        g = _apply(reg.grad_wrt_code, regressor, codes[idx] + step[idx], new_errors,
                   codes.shape[1:])
        more, norm = _steps(g, dts[idx] - achieved[idx])
        candidate = step[idx] + more
        reached = _apply(reg.predict, regressor, codes[idx] + candidate, new_errors, ()) - t0[idx]
        # NaN, from a failed row, is never better
        better = (np.abs(dts[idx] - reached) < np.abs(dts[idx] - achieved[idx])) & ~(norm < G_FLOOR)
        for r, err in enumerate(new_errors):
            if err is not None:
                errors[idx[r]] = err
        step[idx[better]], achieved[idx[better]] = candidate[better], reached[better]
        walking[idx[~better]] = False


def batch_perturb(vae, regressor, scenes, delta_ts, scene_ids, path, steps=1) -> BatchResult:
    """All scenes x all delta_t values: scenes is a normalized (N, C, H, W)
    array and scene_ids its N distinct ids; delta_ts must hold 0. Each scene
    is encoded, predicted and differentiated once and stepped per delta_t, by
    at most `steps` closed-form steps; its counterfactuals are decoded with
    other whole scenes', up to DECODE_ROWS rows a call, its delta_t = 0 row
    its reconstruction, and written as rows of the CF_TENSOR tensor of the LCZM
    file at `path`, which the result maps.

    A NumericError fails only the pairs it reaches (all of a scene's pairs
    if it comes from the scene's input, code, prediction, gradient or
    reconstruction) and is recorded as (scene_id, delta_t, kind, message);
    the batch fails only if every pair does, and then `path` keeps its old
    bytes.
    """
    scenes = np.array(scenes, dtype=float)  # originals the caller cannot change
    if scenes.ndim != 4 or not len(scenes) or len(scene_ids) != len(scenes):
        raise UsageError(f"batch_perturb: needs a non-empty (N, C, H, W) array and its N ids, "
                         f"got shape {scenes.shape} and {len(scene_ids)} ids")
    delta_ts = [float(dt) for dt in delta_ts]
    if not np.all(np.isfinite(delta_ts)) or 0.0 not in delta_ts:
        raise UsageError(f"batch_perturb: delta_t values must be finite and hold 0, "
                         f"got {delta_ts}")
    if steps < 1:
        raise UsageError(f"batch_perturb: steps must be >= 1, got {steps}")
    for name, values in (("scene ids", scene_ids), ("delta_t values", delta_ts)):
        repeated = [v for v, count in Counter(values).items() if count > 1]  # -0.0 == 0.0
        if repeated:
            raise UsageError(f"batch_perturb: {name} must be distinct, {repeated[0]!r} repeats")
    n, k, latent = len(scenes), len(delta_ts), (vae.latent_dim,)
    zero = delta_ts.index(0.0)
    # A scene's input, code, prediction or gradient error fails all its
    # pairs and skips their decode; errors[p] below is pair p's failure.
    scene_errors = [None if ok else NumericError("encoder input is non-finite")
                    for ok in np.isfinite(scenes).all(axis=(1, 2, 3))]
    codes = _apply(vae_mod.encode, vae, scenes, scene_errors, latent)
    t0 = _apply(reg.predict, regressor, codes, scene_errors, ())
    grads = _apply(reg.grad_wrt_code, regressor, codes, scene_errors, latent)

    owner = np.repeat(np.arange(n), k)  # pair p = i * k + j is scene i at delta_ts[j]
    dts = np.tile(np.array(delta_ts), n)
    step, norm = _steps(grads[owner], dts)
    errors = [scene_errors[i] or (_flat(norm[p]) if norm[p] < G_FLOOR else None)
              for p, i in enumerate(owner)]
    pair_codes = codes[owner]
    achieved = _apply(reg.predict, regressor, pair_codes + step, errors, ()) - t0[owner]
    _walk(regressor, pair_codes, t0[owner], dts, step, achieved, errors, steps)

    rows = [p for p, err in enumerate(errors) if err is None]  # pairs to decode, scene-major
    table = pair_codes + step
    chunks = []  # whole scenes' rows, at most DECODE_ROWS unless one scene has more
    for _, scene_rows in itertools.groupby(rows, lambda p: p // k):
        scene_rows = list(scene_rows)
        if chunks and len(chunks[-1]) + len(scene_rows) <= DECODE_ROWS:
            chunks[-1] += scene_rows
        else:
            chunks.append(scene_rows)
    with row_writer(path, CF_TENSOR, (len(rows), *scenes.shape[1:])) as write:
        for chunk in chunks:
            block = vae_mod.decode(vae, table[chunk])
            for p, ok in zip(chunk, np.isfinite(block).reshape(len(chunk), -1).all(axis=1)):
                if not ok:
                    what = "reconstruction" if p % k == zero else "counterfactual"
                    errors[p] = NumericError(f"decoded {what} is non-finite")
            # A scene's delta_t = 0 pair is its reconstruction: its failure
            # fails all the scene's pairs, before any of its rows is written.
            for i in dict.fromkeys(p // k for p in chunk):
                if errors[i * k + zero] is not None:
                    errors[i * k:(i + 1) * k] = [errors[i * k + zero]] * k
            keep = np.array([errors[p] is None for p in chunk])
            write(block if keep.all() else block[keep])
            del block  # freed before the next chunk's decode: one chunk's rows at a time
        failures = [(scene_ids[p // k], delta_ts[p % k], err.kind, str(err))
                    for p, err in enumerate(errors) if err is not None]
        if len(failures) == len(errors):
            raise DataError(f"batch_perturb: all {len(failures)} pairs failed; "
                            f"first: {failures[0][2]}: {failures[0][3]}")

    kept = [p for p in rows if errors[p] is None]  # the pair of each written row
    decoded = map_tensor(path, [(CF_TENSOR, (len(kept), *scenes.shape[1:]))])
    views = np.asarray(decoded)  # its rows as plain ndarray views, ~10x cheaper than memmap ones
    # one original and one reconstruction view per scene, which all its pairs share
    shared = {p // k: (scenes[p // k], views[r]) for r, p in enumerate(kept) if p % k == zero}
    results = [CounterfactualScene(
        *shared[p // k], counterfactual=views[r], delta_c=step[p],
        achieved_dt=float(achieved[p]), requested_dt=delta_ts[p % k], scene_id=scene_ids[p // k])
        for r, p in enumerate(kept)]
    return BatchResult(results, failures, decoded)
