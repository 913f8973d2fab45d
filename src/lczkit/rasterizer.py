"""Grid an irregular point cloud into a 13-channel statistics stack.

Channel set (fixed order): five elevation statistics, four intensity
statistics, and four return-count statistics per cell. Elevation channels
are expressed relative to the scene's 2nd z-percentile (a cheap ground
proxy) so the empty-cell fill value 0 reads as "at ground level".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, UsageError
from .io import PointCloud, layout_arrays, load_model, save_model

CHANNEL_NAMES = (
    "z_min", "z_max", "z_mean", "z_std", "z_range",
    "i_mean", "i_std", "i_min", "i_max",
    "point_count", "mean_return_number", "multi_return_fraction", "last_return_fraction",
)
N_CHANNELS = len(CHANNEL_NAMES)
STACK_TENSOR = "stack/channels"
STD_FLOOR = 1e-6
GROUND_PERCENTILE = 2.0


@dataclass
class GridSpec:
    cell_size: float = 1.0  # meters; the grid's corner is at x = y = 0
    width: int = 16
    height: int = 16

    def __post_init__(self):
        if self.cell_size <= 0:
            raise UsageError("cell_size must be > 0")
        for name in ("width", "height"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be at least 1")

    @property
    def extent_x(self) -> float:
        return self.width * self.cell_size

    @property
    def extent_y(self) -> float:
        return self.height * self.cell_size


@dataclass
class RasterStack:
    channels: np.ndarray  # shape (N_CHANNELS, height, width); row 0 at y = 0
    n_outside: int = 0  # points outside the grid extent, ignored


@dataclass
class NormStats:
    mean: np.ndarray  # (N_CHANNELS,)
    std: np.ndarray   # (N_CHANNELS,), clamped to >= STD_FLOOR

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if self.mean.shape != self.std.shape:
            raise UsageError("mean/std shape mismatch")


def rasterize(cloud: PointCloud, spec: GridSpec) -> RasterStack:
    """Bin points to cells and compute per-cell statistics.

    Deterministic and permutation-invariant: points are sorted by
    (cell, x, y, z, intensity) before accumulation so summation order is
    fixed. Out-of-extent points are counted on the result and skipped.
    """
    h, w = spec.height, spec.width
    channels = np.zeros((N_CHANNELS, h, w))
    if len(cloud) == 0:
        return RasterStack(channels)

    z = cloud.z.astype(float) - np.percentile(cloud.z, GROUND_PERCENTILE)
    col = np.floor(cloud.x / spec.cell_size).astype(np.int64)
    row = np.floor(cloud.y / spec.cell_size).astype(np.int64)
    inside = (col >= 0) & (col < w) & (row >= 0) & (row < h)
    n_outside = int(len(cloud) - inside.sum())
    if not inside.any():
        return RasterStack(channels, n_outside=n_outside)

    cell = row[inside] * w + col[inside]
    x, y = cloud.x[inside], cloud.y[inside]
    zz = z[inside]
    inten = cloud.intensity[inside].astype(float)
    rn = cloud.return_number[inside].astype(float)
    nr = cloud.num_returns[inside].astype(float)

    # Sorted by cell, then x: one sort on x and a stable one on the cell
    # (in the smallest unsigned type, which numpy radix-sorts up to 16 bits).
    # When no two points of a cell share an x this is the whole
    # (cell, x, y, z, intensity) order; otherwise the five-key sort breaks
    # the ties.
    order = np.argsort(x)
    order = order[np.argsort(cell[order].astype(np.min_scalar_type(h * w - 1)), kind="stable")]
    xs, cs = x[order], cell[order]
    if np.any((xs[1:] == xs[:-1]) & (cs[1:] == cs[:-1])):
        order = np.lexsort((inten, zz, y, x, cell))
    cell, zz, inten, rn, nr = cell[order], zz[order], inten[order], rn[order], nr[order]
    starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
    cells = cell[starts]
    counts = np.diff(starts, append=len(cell))

    def seg_sum(a):
        return np.add.reduceat(a, starts)

    def seg_min(a):
        return np.minimum.reduceat(a, starts)

    def seg_max(a):
        return np.maximum.reduceat(a, starts)

    def seg_std(a, mean):
        dev = a - np.repeat(mean, counts)
        return np.sqrt(seg_sum(dev * dev) / counts)

    z_mean = seg_sum(zz) / counts
    i_mean = seg_sum(inten) / counts
    z_min, z_max = seg_min(zz), seg_max(zz)
    stats = {
        "z_min": z_min,
        "z_max": z_max,
        "z_mean": z_mean,
        "z_std": seg_std(zz, z_mean),
        "z_range": z_max - z_min,
        "i_mean": i_mean,
        "i_std": seg_std(inten, i_mean),
        "i_min": seg_min(inten),
        "i_max": seg_max(inten),
        "point_count": counts.astype(float),
        "mean_return_number": seg_sum(rn) / counts,
        "multi_return_fraction": seg_sum((nr > 1).astype(float)) / counts,
        "last_return_fraction": seg_sum((rn == nr).astype(float)) / counts,
    }
    channels.reshape(N_CHANNELS, h * w)[:, cells] = [stats[name] for name in CHANNEL_NAMES]
    return RasterStack(channels, n_outside=n_outside)


def compute_norm_stats(channels) -> NormStats:
    """Per-channel mean/std over every cell of an (N, 13, H, W) split
    (population std)."""
    channels = np.asarray(channels, dtype=float)
    if channels.ndim != 4 or channels.shape[1] != N_CHANNELS or not len(channels):
        raise UsageError(f"compute_norm_stats needs an (N >= 1, {N_CHANNELS}, H, W) array, "
                         f"got shape {channels.shape}")
    # One contiguous row of N*H*W cells per channel, reduced along the row:
    # mean(axis=(0, 2, 3)) sums in another order and gives other bits.
    flat = channels.transpose(1, 0, 2, 3).reshape(N_CHANNELS, -1)
    mean = flat.mean(axis=1)
    std = np.maximum(flat.std(axis=1), STD_FLOOR)
    return NormStats(mean, std)


def normalize(channels: np.ndarray, stats: NormStats) -> np.ndarray:
    """Scale (..., C, H, W) channels to zero mean and unit std per channel."""
    if channels.ndim < 3 or channels.shape[-3] != len(stats.mean):
        raise UsageError("norm stats channel count mismatch")
    out = np.subtract(channels, stats.mean[:, None, None])  # one new array, divided in place
    return np.divide(out, stats.std[:, None, None], out=out)


def save_stack(channels: np.ndarray, path) -> None:
    """Write a (13, H, W) stack as the one LCZM tensor stack/channels."""
    save_model([(STACK_TENSOR, channels)], path)


def load_stack(path) -> np.ndarray:
    """The (13, H, W) channels of a save_stack file; a FormatError naming
    the file unless it holds just that one tensor."""
    return load_model(path, lambda tensors: layout_arrays(
        tensors, [(STACK_TENSOR, (N_CHANNELS, "H", "W"))])[0])


def norm_stats_tensors(stats: NormStats):
    return [("norm/mean", stats.mean), ("norm/std", stats.std)]


def norm_stats_from_tensors(tensors) -> NormStats:
    """The stats of norm_stats_tensors; FormatError unless they are finite
    and the std at least STD_FLOOR, as compute_norm_stats makes them."""
    mean, std = layout_arrays(tensors, [("norm/mean", (N_CHANNELS,)), ("norm/std", (N_CHANNELS,))])
    if not (np.isfinite([mean, std]).all() and std.min() >= STD_FLOOR):
        raise FormatError(f"norm/mean must be finite and norm/std finite and >= {STD_FLOOR}")
    return NormStats(mean, std)
