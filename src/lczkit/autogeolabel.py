"""Rule-based labeling of raster channels into vegetation / building /
background, plus vegetation-fraction bookkeeping.

Canopy scatters laser pulses, so vegetation keys on elevation roughness
(z_std) together with the multi-return fraction; buildings on elevated,
smooth surfaces. Precedence is vegetation > building > background.
Thresholds carry physical units, so segmentation expects DE-normalized
channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .rasterizer import CHANNEL_NAMES, N_CHANNELS

BACKGROUND, BUILDING, VEGETATION = 0, 1, 2

LABEL_CHANNELS = ("z_mean", "z_std", "multi_return_fraction")  # the channels segment reads
_LABEL_INDEX = tuple(CHANNEL_NAMES.index(name) for name in LABEL_CHANNELS)


@dataclass
class LabelRules:
    veg_zstd_min: float = 0.5       # meters
    veg_multiret_min: float = 0.3   # fraction
    bld_height_min: float = 3.0     # meters
    bld_zstd_max: float = 0.4       # meters

    def __post_init__(self):
        for name in ("veg_zstd_min", "veg_multiret_min", "bld_height_min", "bld_zstd_max"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0")
        if self.bld_zstd_max >= self.veg_zstd_min:
            raise UsageError("bld_zstd_max must be < veg_zstd_min (disjointness guard)")


def label_channels(scenes, norm) -> np.ndarray:
    """The LABEL_CHANNELS of a normalized (K, 13, H, W) array, de-normalized
    (times the std, plus the mean), as one (K, 3, H, W) array, which segment
    takes as it takes whole scenes."""
    if scenes.ndim != 4 or scenes.shape[1] != N_CHANNELS:
        raise UsageError(f"label_channels needs a (K, {N_CHANNELS}, H, W) array, "
                         f"got shape {scenes.shape}")
    out = np.empty((len(scenes), len(LABEL_CHANNELS), *scenes.shape[2:]))
    for c, i in enumerate(_LABEL_INDEX):
        np.multiply(scenes[:, i], norm.std[i], out=out[:, c])
        np.add(out[:, c], norm.mean[i], out=out[:, c])
    return out


def segment(channels: np.ndarray, rules: LabelRules) -> np.ndarray:
    """Label each cell of a de-normalized (13, H, W) scene, or of a
    (K, 13, H, W) stack of scenes, or of their LABEL_CHANNELS alone as
    (3, H, W) or (K, 3, H, W): an (H, W), or (K, H, W), uint8 array of
    BACKGROUND, BUILDING and VEGETATION."""
    if channels.ndim not in (3, 4) or channels.shape[-3] not in (N_CHANNELS, len(_LABEL_INDEX)):
        raise UsageError(f"segment needs a ({N_CHANNELS}, H, W) or ({len(_LABEL_INDEX)}, H, W) "
                         f"array or a stack of them, got shape {channels.shape}")
    index = _LABEL_INDEX if channels.shape[-3] == N_CHANNELS else range(len(_LABEL_INDEX))
    z_mean, z_std, multiret = (channels[..., i, :, :] for i in index)
    veg = (z_std >= rules.veg_zstd_min) & (multiret >= rules.veg_multiret_min)
    bld = (z_mean >= rules.bld_height_min) & (z_std <= rules.bld_zstd_max) & ~veg
    labels = np.full(z_std.shape, BACKGROUND, dtype=np.uint8)
    labels[bld] = BUILDING
    labels[veg] = VEGETATION
    return labels


def vegetation_fraction(labels: np.ndarray):
    """The share of cells of an (H, W) label array that are VEGETATION, or
    the (K,) shares of a (K, H, W) stack."""
    h, w = labels.shape[-2:]
    return np.count_nonzero(labels == VEGETATION, axis=(-2, -1)) / (h * w)


def aggregate_fractions(tuples):
    """Average v' per distinct delta_t; returns [(delta_t, mean_v)] sorted
    by delta_t."""
    tuples = list(tuples)
    if not tuples:
        raise UsageError("aggregate_fractions: empty input")
    sums, counts = {}, {}
    for dt, v in tuples:
        dt = float(dt)
        sums[dt] = sums.get(dt, 0.0) + float(v)
        counts[dt] = counts.get(dt, 0) + 1
    return [(dt, sums[dt] / counts[dt]) for dt in sorted(sums)]

