"""Parsing, serialization, and persistence.

Formats owned here:
  * whitespace XYZ point clouds ("x y z intensity return_number num_returns")
  * the LCZM binary tensor container used for model weights, raster stacks
    and counterfactuals; it stores float64, the dtype every stage computes
    in, so a save -> load round trip returns the same bits
  * the scene manifest CSV ("scene_id,raster_path,temperature_kelvin")
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ParseError, UsageError, ValidationError

FLOAT_FMT = "%.9g"  # text formats print 9 significant digits

LCZM_MAGIC = b"LCZM"
LCZM_VERSION = 2


@dataclass
class PointCloud:
    """Struct-of-arrays point cloud; all arrays share one length."""

    x: np.ndarray = field(default_factory=lambda: np.empty(0))
    y: np.ndarray = field(default_factory=lambda: np.empty(0))
    z: np.ndarray = field(default_factory=lambda: np.empty(0))
    intensity: np.ndarray = field(default_factory=lambda: np.empty(0))
    return_number: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    num_returns: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __len__(self):
        return len(self.x)

    @classmethod
    def from_arrays(cls, x, y, z, intensity, return_number, num_returns) -> "PointCloud":
        arrs = [np.asarray(a, dtype=float) for a in (x, y, z, intensity)]
        rn = np.asarray(return_number, dtype=np.int64)
        nr = np.asarray(num_returns, dtype=np.int64)
        n = len(arrs[0])
        if any(len(a) != n for a in arrs[1:]) or len(rn) != n or len(nr) != n:
            raise UsageError("point cloud arrays must share one length")
        return cls(arrs[0], arrs[1], arrs[2], arrs[3], rn, nr)

    @classmethod
    def concatenate(cls, clouds) -> "PointCloud":
        clouds = list(clouds)
        if not clouds:
            return cls()
        return cls.from_arrays(
            np.concatenate([c.x for c in clouds]),
            np.concatenate([c.y for c in clouds]),
            np.concatenate([c.z for c in clouds]),
            np.concatenate([c.intensity for c in clouds]),
            np.concatenate([c.return_number for c in clouds]),
            np.concatenate([c.num_returns for c in clouds]),
        )


@dataclass
class SceneManifest:
    entries: list  # of (scene_id, raster_path, temperature_kelvin)

    def __post_init__(self):
        ids = [e[0] for e in self.entries]
        if len(ids) != len(set(ids)):
            raise ValidationError("duplicate scene_id in manifest")
        for sid, _, t in self.entries:
            if not math.isfinite(t):
                raise ValidationError(f"non-finite temperature for scene {sid}")


def parse_point_cloud(stream) -> PointCloud:
    """Parse whitespace-separated point lines; '#' starts a comment line."""
    if isinstance(stream, (str, bytes)):
        stream = _io.StringIO(stream.decode("utf-8", "replace") if isinstance(stream, bytes) else stream)
    cols = ([], [], [], [], [], [])
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 6:
            raise ParseError(f"expected 6 fields, got {len(tokens)}", line=lineno)
        try:
            x, y, z, inten = (float(t) for t in tokens[:4])
            rn, nr = int(tokens[4]), int(tokens[5])
        except ValueError as exc:
            raise ParseError(f"bad numeric token: {exc}", line=lineno) from None
        if not all(math.isfinite(v) for v in (x, y, z, inten)):
            raise ValidationError("non-finite coordinate or intensity", line=lineno)
        if inten < 0:
            raise ValidationError("negative intensity", line=lineno)
        if rn < 1:
            raise ValidationError("return_number must be >= 1", line=lineno)
        if rn > nr:
            raise ValidationError("return_number exceeds num_returns", line=lineno)
        for col, v in zip(cols, (x, y, z, inten, rn, nr)):
            col.append(v)
    return PointCloud.from_arrays(*cols)


def save_model(weights, path) -> None:
    """Write named tensors to the LCZM container.

    Layout: magic "LCZM", version u32, tensor count u32, then per tensor
    name length u16 + UTF-8 name, rank u8, dims as u32, payload as
    little-endian float64, row-major. Version 2; version 1 (float32
    payload) is not read.
    """
    weights = list(weights)
    with open(path, "wb") as fh:
        fh.write(LCZM_MAGIC)
        fh.write(struct.pack("<II", LCZM_VERSION, len(weights)))
        for name, tensor in weights:
            arr = np.asarray(tensor, dtype="<f8")
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise UsageError(f"tensor name too long: {name!r}")
            if arr.ndim > 0xFF:
                raise UsageError(f"tensor rank too large: {arr.ndim}")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def _read_exact(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what}")
    return data


def load_model(path):
    """Read an LCZM container; returns list of (name, float64 ndarray)."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != LCZM_MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != LCZM_VERSION:
            raise FormatError(f"unsupported format version {version}")
        out = []
        for idx in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, f"tensor {idx} name length"))
            name = _read_exact(fh, name_len, f"tensor {idx} name").decode("utf-8", "replace")
            (rank,) = struct.unpack("<B", _read_exact(fh, 1, f"tensor {name!r} rank"))
            dims = struct.unpack(
                f"<{rank}I", _read_exact(fh, 4 * rank, f"tensor {name!r} dims")
            )
            arr = np.empty(dims, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise FormatError(f"truncated file while reading tensor {name!r} payload")
            out.append((name, arr))
        return out


def read_meta(tensors, name, size) -> list:
    """Tensor `name` of a load_model list as `size` non-negative integers."""
    meta = dict(tensors).get(name)
    if meta is None or meta.shape != (size,) or not all(v >= 0 and v.is_integer() for v in meta):
        raise FormatError(f"{name} is missing or not {size} non-negative integers")
    return [int(v) for v in meta]


def layout_arrays(tensors, expected) -> list:
    """The arrays of a load_model list whose (name, shape) pairs are exactly
    `expected`, in order; FormatError at the first that is not."""
    found = [(name, arr.shape) for name, arr in tensors]
    for i, (want, have) in enumerate(itertools.zip_longest(expected, found, fillvalue="nothing")):
        if want != have:
            raise FormatError(f"tensor {i}: expected {want}, found {have}")
    return [arr for _, arr in tensors]


def read_manifest(path) -> SceneManifest:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty manifest") from None
        if header != ["scene_id", "raster_path", "temperature_kelvin"]:
            raise ParseError(f"bad manifest header: {header}")
        entries = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ParseError("expected 3 columns", line=row_no)
            try:
                temp = float(row[2])
            except ValueError:
                raise ParseError(f"bad temperature {row[2]!r}", line=row_no) from None
            entries.append((row[0], row[1], temp))
    return SceneManifest(entries)


def write_manifest(manifest: SceneManifest, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scene_id", "raster_path", "temperature_kelvin"])
        for sid, rpath, temp in manifest.entries:
            writer.writerow([sid, rpath, FLOAT_FMT % temp])
