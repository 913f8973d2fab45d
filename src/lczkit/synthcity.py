"""Deterministic synthetic urban scenes with a planted temperature law.

Ground is a flat jittered plane of single-return points; trees are
blunt-cone canopies of multi-return points with high local elevation
variance; buildings are axis-aligned boxes sampled on the roof plane with
single returns. The planted law t = T_BASE - k_veg * v + noise gives the
end-to-end pipeline an unambiguous sign to recover.

A scene draws from one generator, seeded by the scene, in a fixed order.
numpy's Generator.uniform(low, high) is low + (high - low) * u and
normal(loc, scale) is loc + scale * z, with u = random() and
z = standard_normal() the next raw draws, in those two roundings; so the
scene draws raw blocks and scales them as arrays, with the bits and the
stream position of the scalar draws. Disc placement draws all its
candidates in one block, then rewinds the stream to just past the
candidates it tried.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import UsageError
from .io import PointCloud, SceneManifest, write_manifest
from .rasterizer import GridSpec, rasterize, save_stack

# Canopy point density relative to the ground plane. The multi-return rule
# fires when canopy points reach ~30% of a cell's returns, so this ratio
# fixes the crown coverage at which a cell flips to vegetation; values near
# 1.0 put that flip around half coverage, matching the center-in-crown
# ground-truth masks.
CANOPY_DENSITY_FACTOR = 1.2
POINTS_PER_M2 = 8.0                   # ground and roof points per m^2
CROWN_RADIUS_RANGE = (1.5, 2.5)       # meters
TREE_HEIGHT_RANGE = (4.0, 9.0)        # meters
BUILDING_SIDE_RANGE = (3.0, 6.0)      # footprint side, meters
BUILDING_HEIGHT_RANGE = (4.0, 10.0)   # meters
TREE_SCALE_RANGE = (0.02, 1.0)        # a scene's factor on SceneParams.tree_density
BUILDING_SCALE_RANGE = (0.3, 1.0)     # a scene's factor on SceneParams.building_density
T_BASE = 295.0                        # kelvin, the temperature of a scene with no vegetation


@dataclass
class SceneParams:
    grid: GridSpec = field(default_factory=GridSpec)
    tree_density: float = 0.05          # trees per m^2
    building_density: float = 0.008     # buildings per m^2
    seed: int = 0

    def __post_init__(self):
        for name in ("tree_density", "building_density"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0")


@dataclass
class TemperatureLaw:
    # kelvin per unit vegetation fraction: > 0 cools; 0 (the null law) and
    # < 0 (the reversed law) are negative controls
    k_veg: float = 8.0
    noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.k_veg):
            raise UsageError("k_veg must be finite")
        if self.noise_sigma < 0:
            raise UsageError("noise_sigma must be >= 0")


@dataclass
class SceneTruth:
    cloud: PointCloud
    veg_mask: np.ndarray       # (H, W) bool, cell centers inside a crown
    bld_mask: np.ndarray       # (H, W) bool, minus vegetation precedence
    true_veg_fraction: float


def _place_discs(rng, n_target, extent_x, extent_y, radius_range, max_tries=2000):
    """Dart-throwing Poisson-disc placement; discs stay inside the extent.

    Candidate k is a radius r ~ U(radius_range) and a centre
    ~ U(r, max(r, extent - r)) per axis. Candidates are tried in order, and
    one is kept when its centre is at least 0.8 (r + r') from that of
    every disc kept before it, until n_target are kept or max_tries are
    tried. All max_tries candidates are drawn in one block; rng is then
    rewound and advanced by the draws of the candidates tried, so it ends
    where drawing them one by one would leave it. Returns the kept
    centres' x and y and the radii.
    """
    if n_target <= 0:
        return np.empty(0), np.empty(0), np.empty(0)
    start = rng.bit_generator.state
    u = rng.random((max_tries, 3))
    lo, hi = map(float, radius_range)
    r = lo + (hi - lo) * u[:, 0]
    cx = r + (np.maximum(r, extent_x - r) - r) * u[:, 1]
    cy = r + (np.maximum(r, extent_y - r) - r) * u[:, 2]
    free = np.ones(max_tries, dtype=bool)  # clear of every disc kept so far
    kept = []
    k = 0  # candidates tried
    while len(kept) < n_target and k < max_tries:
        k += int(free[k:].argmax())
        if not free[k]:  # no candidate left is free: all of them get tried
            k = max_tries
            break
        kept.append(k)
        later = slice(k + 1, None)
        free[later] &= ((cx[later] - cx[k]) ** 2 + (cy[later] - cy[k]) ** 2
                        >= (0.8 * (r[later] + r[k])) ** 2)
        k += 1
    rng.bit_generator.state = start
    rng.random(3 * k)
    return cx[kept], cy[kept], r[kept]


def _crown_points(rng, cx, cy, r, h) -> tuple:
    """Point columns (x, y, z, intensity, return_number, num_returns) of
    the tree crowns: blunt cones of volumetric multi-return scatter.

    Tree by tree, the stream gives the n points' radius, angle and height
    fractions (for uniform(0, 1), uniform(0, 2 pi) and uniform(0.3 h, top)),
    their standard normals (for normal(15000, 3000)), then their return
    counts; the points of all trees are computed from these at once.
    """
    counts = np.maximum(4, np.round(
        CANOPY_DENSITY_FACTOR * POINTS_PER_M2 * np.pi * r * r).astype(np.int64))
    ends = np.cumsum(counts)
    u = np.empty((3, counts.sum()))
    normals = np.empty(u.shape[1])
    num_returns = np.empty(u.shape[1], dtype=np.int64)
    return_numbers = np.empty_like(num_returns)
    for a, b in zip((ends - counts).tolist(), ends.tolist()):
        u[:, a:b] = rng.random((3, b - a))
        rng.standard_normal(out=normals[a:b])
        num_returns[a:b] = rng.integers(2, 4, b - a)
        return_numbers[a:b] = rng.integers(1, num_returns[a:b] + 1)
    u_radius, u_angle, u_height = u
    cx, cy, r, h = (np.repeat(a, counts) for a in (cx, cy, r, h))
    frac = np.sqrt(u_radius)  # uniform over the disc
    theta = 2.0 * np.pi * u_angle
    x = cx + frac * r * np.cos(theta)
    y = cy + frac * r * np.sin(theta)
    top = h * (1.0 - 0.25 * frac * frac)  # mild taper keeps edge cells rough
    low = 0.3 * h
    z = low + (top - low) * u_height
    return x, y, z, 15000.0 + 3000.0 * normals, return_numbers, num_returns


def generate_scene(params: SceneParams, scene_seed: int) -> SceneTruth:
    """Build one scene; fully determined by (params, scene_seed)."""
    rng = np.random.default_rng([params.seed, scene_seed])
    ex = params.grid.extent_x
    ey = params.grid.extent_y
    area = ex * ey

    # ground plane
    n_ground = max(1, int(round(POINTS_PER_M2 * area)))
    ones = np.ones(n_ground, dtype=np.int64)
    parts = [(rng.uniform(0.0, ex, n_ground), rng.uniform(0.0, ey, n_ground),
              rng.normal(0.0, 0.05, n_ground), rng.normal(20000.0, 2000.0, n_ground),
              ones, ones)]

    # trees: crowns placed by dart throwing
    n_trees = rng.poisson(params.tree_density * area)
    tx, ty, tr = _place_discs(rng, n_trees, ex, ey, CROWN_RADIUS_RANGE)
    heights = rng.uniform(*TREE_HEIGHT_RANGE, len(tr))
    parts.append(_crown_points(rng, tx, ty, tr, heights))

    # buildings: roof-plane samples, single return, smooth
    n_bld = rng.poisson(params.building_density * area)
    boxes = np.empty((n_bld, 4))
    for k in range(n_bld):
        w = rng.uniform(*BUILDING_SIDE_RANGE)
        l = rng.uniform(*BUILDING_SIDE_RANGE)
        x0 = rng.uniform(0.0, max(1e-9, ex - w))
        y0 = rng.uniform(0.0, max(1e-9, ey - l))
        bh = rng.uniform(*BUILDING_HEIGHT_RANGE)
        boxes[k] = x0, y0, x0 + w, y0 + l
        n_pts = max(4, int(round(POINTS_PER_M2 * w * l)))
        ones = np.ones(n_pts, dtype=np.int64)
        parts.append((rng.uniform(x0, x0 + w, n_pts), rng.uniform(y0, y0 + l, n_pts),
                      bh + rng.normal(0.0, 0.02, n_pts), rng.normal(40000.0, 3000.0, n_pts),
                      ones, ones))

    x, y, z, intensity, return_number, num_returns = (np.concatenate(c) for c in zip(*parts))
    cloud = PointCloud.from_arrays(x, y, z, np.clip(intensity, 0.0, 65535.0),
                                   return_number, num_returns)

    # per-cell ground truth on the rasterization grid, vegetation precedence;
    # one (tree or building, row, column) broadcast per mask
    spec = params.grid
    cols = (np.arange(spec.width) + 0.5) * spec.cell_size
    rows = (np.arange(spec.height) + 0.5) * spec.cell_size
    dx2 = (cols - tx[:, None]) ** 2
    dy2 = (rows - ty[:, None]) ** 2
    veg_mask = (dx2[:, None, :] + dy2[:, :, None] <= (tr * tr)[:, None, None]).any(axis=0)
    x0, y0, x1, y1 = boxes.T[:, :, None]
    in_x = (cols >= x0) & (cols <= x1)
    in_y = (rows >= y0) & (rows <= y1)
    bld_mask = (in_y[:, :, None] & in_x[:, None, :]).any(axis=0) & ~veg_mask
    return SceneTruth(cloud, veg_mask, bld_mask, float(veg_mask.mean()))


def scene_temperature(law: TemperatureLaw, true_veg_fraction: float, scene_seed: int) -> float:
    if not 0.0 <= true_veg_fraction <= 1.0:
        raise UsageError("vegetation fraction must lie in [0, 1]")
    rng = np.random.default_rng([law.seed, scene_seed, 7])
    noise = rng.normal(0.0, law.noise_sigma) if law.noise_sigma > 0 else 0.0
    return T_BASE - law.k_veg * true_veg_fraction + noise


@dataclass
class CorpusResult:
    entries: list              # (scene_id, raster_path, temperature)
    train_ids: list
    test_ids: list


def split_sizes(n_scenes: int) -> tuple:
    """(train, test) scene counts of the corpus's 80/20 split."""
    n_train = int(round(0.8 * n_scenes))
    return n_train, n_scenes - n_train


def _write_scene(params: SceneParams, law: TemperatureLaw, out_dir: str, i: int,
                 raster_path: str, density_scale: float, bld_scale: float) -> tuple:
    """Build, rasterize and write scene i to out_dir/raster_path; its temperature."""
    scene_params = replace(
        params,
        tree_density=params.tree_density * density_scale,
        building_density=params.building_density * bld_scale,
    )
    truth = generate_scene(scene_params, i)
    save_stack(rasterize(truth.cloud, params.grid).channels, os.path.join(out_dir, raster_path))
    return scene_temperature(law, truth.true_veg_fraction, i)


def generate_corpus(n_scenes: int, params: SceneParams, law: TemperatureLaw,
                    seed: int, out_dir: str) -> CorpusResult:
    """Write n_scenes rasterized scenes plus manifest CSVs (80/20 split).

    Per-scene tree density is scaled by a seeded uniform draw so planted
    vegetation fractions spread from ~0 to ~0.6. Scenes are built in one
    worker process per usable CPU; each is fixed by its index, so the bytes
    written do not depend on how many workers there are.
    """
    if n_scenes < 1:
        raise UsageError("n_scenes must be >= 1")
    # Imported here: a module-level import would slow every lczkit start.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    rng = np.random.default_rng([seed, 11])
    density_scales = rng.uniform(*TREE_SCALE_RANGE, n_scenes)
    bld_scales = rng.uniform(*BUILDING_SCALE_RANGE, n_scenes)

    ids = [f"scene_{i:05d}" for i in range(n_scenes)]
    paths = [os.path.join("scenes", f"{scene_id}.lczm") for scene_id in ids]
    # sched_getaffinity is missing on macOS.
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    # fork, not spawn: a spawned worker would import numpy and lczkit again
    # before its first scene. A few chunks per worker: one message per scene
    # costs more than the finer balance saves.
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        temps = list(pool.map(partial(_write_scene, params, law, out_dir), range(n_scenes),
                              paths, density_scales.tolist(), bld_scales.tolist(),
                              chunksize=max(1, n_scenes // (8 * workers))))
    entries = list(zip(ids, paths, temps))

    order = rng.permutation(n_scenes)
    n_train, _ = split_sizes(n_scenes)
    train = [entries[j] for j in sorted(order[:n_train])]
    test = [entries[j] for j in sorted(order[n_train:])]
    for name, split in (("manifest", entries), ("train", train), ("test", test)):
        write_manifest(SceneManifest(split), os.path.join(out_dir, f"{name}.csv"))
    return CorpusResult(entries, [e[0] for e in train], [e[0] for e in test])
