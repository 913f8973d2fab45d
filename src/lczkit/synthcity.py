"""Deterministic synthetic urban scenes with a planted temperature law.

Ground is a flat jittered plane of single-return points; trees are
blunt-cone canopies of multi-return points with high local elevation
variance; buildings are axis-aligned boxes sampled on the roof plane with
single returns. The planted law t = t_base - k_veg * v + noise gives the
end-to-end pipeline an unambiguous sign to recover.
"""

from __future__ import annotations

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


@dataclass
class SceneParams:
    grid: GridSpec = field(default_factory=GridSpec)
    tree_density: float = 0.05          # trees per m^2
    building_density: float = 0.008     # buildings per m^2
    crown_radius_range: tuple = (1.5, 2.5)   # meters
    tree_height_range: tuple = (4.0, 9.0)    # meters
    building_side_range: tuple = (3.0, 6.0)  # footprint side, meters
    building_height_range: tuple = (4.0, 10.0)
    points_per_m2: float = 8.0
    seed: int = 0

    def __post_init__(self):
        for name in ("crown_radius_range", "tree_height_range",
                     "building_side_range", "building_height_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise UsageError(f"{name} is degenerate: {lo} > {hi}")
        for name in ("tree_density", "building_density"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0")
        if self.points_per_m2 <= 0:
            raise UsageError("points_per_m2 must be > 0")


@dataclass
class TemperatureLaw:
    t_base: float = 295.0   # kelvin
    k_veg: float = 8.0      # kelvin per unit vegetation fraction (cooling)
    noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.k_veg <= 0:
            raise UsageError("k_veg must be > 0 (vegetation cools)")
        if self.noise_sigma < 0:
            raise UsageError("noise_sigma must be >= 0")


@dataclass
class SceneTruth:
    cloud: PointCloud
    veg_mask: np.ndarray       # (H, W) bool, cell centers inside a crown
    bld_mask: np.ndarray       # (H, W) bool, minus vegetation precedence
    true_veg_fraction: float


def _place_discs(rng, n_target, extent_x, extent_y, radius_range, max_tries=2000):
    """Dart-throwing Poisson-disc placement; discs stay inside the extent."""
    centers, radii = [], []
    tries = 0
    while len(centers) < n_target and tries < max_tries:
        tries += 1
        r = rng.uniform(*radius_range)
        cx = rng.uniform(r, max(r, extent_x - r))
        cy = rng.uniform(r, max(r, extent_y - r))
        ok = all((cx - px) ** 2 + (cy - py) ** 2 >= (0.8 * (r + pr)) ** 2
                 for (px, py), pr in zip(centers, radii))
        if ok:
            centers.append((cx, cy))
            radii.append(r)
    return centers, radii


def generate_scene(params: SceneParams, scene_seed: int) -> SceneTruth:
    """Build one scene; fully determined by (params, scene_seed)."""
    rng = np.random.default_rng([params.seed, scene_seed])
    ex = params.grid.extent_x
    ey = params.grid.extent_y
    area = ex * ey
    parts = []

    # ground plane
    n_ground = max(1, int(round(params.points_per_m2 * area)))
    gx = rng.uniform(0.0, ex, n_ground)
    gy = rng.uniform(0.0, ey, n_ground)
    gz = rng.normal(0.0, 0.05, n_ground)
    gi = np.clip(rng.normal(20000.0, 2000.0, n_ground), 0.0, 65535.0)
    parts.append(PointCloud.from_arrays(gx, gy, gz, gi,
                                        np.ones(n_ground, dtype=np.int64),
                                        np.ones(n_ground, dtype=np.int64)))

    # trees: blunt cones of volumetric multi-return scatter
    n_trees = rng.poisson(params.tree_density * area)
    centers, radii = _place_discs(rng, n_trees, ex, ey, params.crown_radius_range)
    heights = rng.uniform(*params.tree_height_range, len(centers))
    for (cx, cy), r, h in zip(centers, radii, heights):
        n_pts = max(4, int(round(CANOPY_DENSITY_FACTOR * params.points_per_m2 * np.pi * r * r)))
        frac = np.sqrt(rng.uniform(0.0, 1.0, n_pts))  # uniform over the disc
        theta = rng.uniform(0.0, 2.0 * np.pi, n_pts)
        px = cx + frac * r * np.cos(theta)
        py = cy + frac * r * np.sin(theta)
        top = h * (1.0 - 0.25 * frac * frac)  # mild taper keeps edge cells rough
        pz = rng.uniform(0.3 * h, top)
        pi = np.clip(rng.normal(15000.0, 3000.0, n_pts), 0.0, 65535.0)
        nr = rng.integers(2, 4, n_pts)
        rn = rng.integers(1, nr + 1)
        parts.append(PointCloud.from_arrays(px, py, pz, pi, rn, nr))

    # buildings: roof-plane samples, single return, smooth
    n_bld = rng.poisson(params.building_density * area)
    buildings = []
    for _ in range(n_bld):
        w = rng.uniform(*params.building_side_range)
        l = rng.uniform(*params.building_side_range)
        x0 = rng.uniform(0.0, max(1e-9, ex - w))
        y0 = rng.uniform(0.0, max(1e-9, ey - l))
        bh = rng.uniform(*params.building_height_range)
        buildings.append((x0, y0, w, l))
        n_pts = max(4, int(round(params.points_per_m2 * w * l)))
        bx = rng.uniform(x0, x0 + w, n_pts)
        by = rng.uniform(y0, y0 + l, n_pts)
        bz = bh + rng.normal(0.0, 0.02, n_pts)
        bi = np.clip(rng.normal(40000.0, 3000.0, n_pts), 0.0, 65535.0)
        parts.append(PointCloud.from_arrays(bx, by, bz, bi,
                                            np.ones(n_pts, dtype=np.int64),
                                            np.ones(n_pts, dtype=np.int64)))

    cloud = PointCloud.concatenate(parts)

    # per-cell ground truth on the rasterization grid, vegetation precedence
    spec = params.grid
    cols = (np.arange(spec.width) + 0.5) * spec.cell_size + spec.origin_x
    rows = (np.arange(spec.height) + 0.5) * spec.cell_size + spec.origin_y
    cxs, cys = np.meshgrid(cols, rows)
    veg_mask = np.zeros((spec.height, spec.width), dtype=bool)
    for (cx, cy), r in zip(centers, radii):
        veg_mask |= (cxs - cx) ** 2 + (cys - cy) ** 2 <= r * r
    bld_mask = np.zeros_like(veg_mask)
    for x0, y0, w, l in buildings:
        bld_mask |= (cxs >= x0) & (cxs <= x0 + w) & (cys >= y0) & (cys <= y0 + l)
    bld_mask &= ~veg_mask
    return SceneTruth(cloud, veg_mask, bld_mask, float(veg_mask.mean()))


def scene_temperature(law: TemperatureLaw, true_veg_fraction: float, scene_seed: int) -> float:
    if not 0.0 <= true_veg_fraction <= 1.0:
        raise UsageError("vegetation fraction must lie in [0, 1]")
    rng = np.random.default_rng([law.seed, scene_seed, 7])
    noise = rng.normal(0.0, law.noise_sigma) if law.noise_sigma > 0 else 0.0
    return law.t_base - law.k_veg * true_veg_fraction + noise


@dataclass
class CorpusResult:
    manifest_path: str
    entries: list              # (scene_id, raster_path, temperature)
    true_fractions: dict       # scene_id -> planted vegetation fraction
    train_ids: list
    test_ids: list


def split_sizes(n_scenes: int) -> tuple:
    """(train, test) scene counts of the corpus's 80/20 split."""
    n_train = int(round(0.8 * n_scenes))
    return n_train, n_scenes - n_train


def _write_scene(params: SceneParams, law: TemperatureLaw, out_dir: str, i: int,
                 raster_path: str, density_scale: float, bld_scale: float) -> tuple:
    """Build, rasterize and write scene i to out_dir/raster_path; its
    (temperature, planted vegetation fraction)."""
    scene_params = replace(
        params,
        tree_density=params.tree_density * density_scale,
        building_density=params.building_density * bld_scale,
    )
    truth = generate_scene(scene_params, i)
    stack = rasterize(truth.cloud, params.grid)
    save_stack(stack, os.path.join(out_dir, raster_path))
    return scene_temperature(law, truth.true_veg_fraction, i), truth.true_veg_fraction


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
    density_scales = rng.uniform(0.02, 1.0, n_scenes)
    bld_scales = rng.uniform(0.3, 1.0, n_scenes)

    ids = [f"scene_{i:05d}" for i in range(n_scenes)]
    paths = [os.path.join("scenes", f"{scene_id}.lczm") for scene_id in ids]
    # sched_getaffinity is missing on macOS.
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    # fork, not spawn: a spawned worker would import numpy and lczkit again
    # before its first scene. A few chunks per worker: one message per scene
    # costs more than the finer balance saves.
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        scenes = list(pool.map(partial(_write_scene, params, law, out_dir), range(n_scenes),
                               paths, density_scales.tolist(), bld_scales.tolist(),
                               chunksize=max(1, n_scenes // (8 * workers))))
    entries = [(scene_id, path, temp) for scene_id, path, (temp, _) in zip(ids, paths, scenes)]
    fractions = {scene_id: fraction for scene_id, (_, fraction) in zip(ids, scenes)}

    order = rng.permutation(n_scenes)
    n_train, _ = split_sizes(n_scenes)
    train = [entries[j] for j in sorted(order[:n_train])]
    test = [entries[j] for j in sorted(order[n_train:])]
    for name, split in (("manifest", entries), ("train", train), ("test", test)):
        write_manifest(SceneManifest(split), os.path.join(out_dir, f"{name}.csv"))
    return CorpusResult(os.path.join(out_dir, "manifest.csv"), entries, fractions,
                        [e[0] for e in train], [e[0] for e in test])
