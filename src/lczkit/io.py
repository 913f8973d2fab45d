"""Parsing, serialization, and persistence.

Formats owned here:
  * whitespace XYZ point clouds ("x y z intensity return_number num_returns")
  * the LCZM binary tensor container used for model weights, raster stacks
    and counterfactuals; it stores float64, the dtype every stage computes
    in, so a save -> load round trip returns the same bits. A payload is
    written from the tensor's own buffer when it is already C-contiguous
    little-endian float64, such as a slice of rows, and converted once
    otherwise. save_model writes whole tensors; row_writer writes one
    tensor a block of rows at a time, as perturb streams the
    counterfactuals, and map_tensor maps such a file back read-only, so
    its rows need no second copy in memory
  * the run directory's csv tables, one schema each (below): the scene
    manifests, counterfactuals/index.csv and failures.csv, fractions.csv
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import struct
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import FormatError, ParseError, UsageError, ValidationError

LCZM_MAGIC = b"LCZM"
LCZM_VERSION = 2

# Table schemas: (column, type) in file order, for write_table and read_table.
MANIFEST = (("scene_id", str), ("raster_path", str), ("temperature_kelvin", float))
CF_INDEX = (("scene_id", str), ("delta_t", float), ("achieved_dt", float))
CF_FAILURES = (("scene_id", str), ("delta_t", float), ("kind", str), ("message", str))
FRACTIONS = (("scene_id", str), ("delta_t", float), ("achieved_dt", float), ("v_prime", float))


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


@dataclass
class SceneManifest:
    entries: list  # of (scene_id, raster_path, temperature_kelvin)

    def __post_init__(self):
        ids = [e[0] for e in self.entries]
        if len(ids) != len(set(ids)):
            raise ValidationError("duplicate scene_id in manifest")


def text_lines(path):
    """The lines of a UTF-8 text file; a ParseError names the file and the
    first line that is not UTF-8."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8: {exc.reason}", line=lineno, path=path) from None


def parse_point_cloud(stream, path=None) -> PointCloud:
    """Parse an iterable of whitespace-separated point lines; '#' starts a
    comment line. A ParseError names the line and, if given, the file."""
    cols = ([], [], [], [], [], [])
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 6:
            raise ParseError(f"expected 6 fields, got {len(tokens)}", line=lineno, path=path)
        try:
            x, y, z, inten = (float(t) for t in tokens[:4])
            rn, nr = int(tokens[4]), int(tokens[5])
        except ValueError as exc:
            raise ParseError(f"bad numeric token: {exc}", line=lineno, path=path) from None
        if not all(math.isfinite(v) for v in (x, y, z, inten)):
            raise ValidationError("non-finite coordinate or intensity", line=lineno, path=path)
        if inten < 0:
            raise ValidationError("negative intensity", line=lineno, path=path)
        if rn < 1:
            raise ValidationError("return_number must be >= 1", line=lineno, path=path)
        if rn > nr:
            raise ValidationError("return_number exceeds num_returns", line=lineno, path=path)
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
    with atomic_open(path) as fh:
        fh.write(_file_header(len(weights)))
        for name, tensor in weights:
            arr = np.asarray(tensor, dtype="<f8", order="C")
            fh.write(_tensor_header(name, arr.shape))
            fh.write(arr.data)  # the payload's own buffer, not a bytes copy of it


def _file_header(count) -> bytes:
    return LCZM_MAGIC + struct.pack("<II", LCZM_VERSION, count)


def _tensor_header(name, shape) -> bytes:
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise UsageError(f"tensor name too long: {name!r}")
    if len(shape) > 0xFF:
        raise UsageError(f"tensor rank too large: {len(shape)}")
    return struct.pack(f"<H{len(encoded)}sB{len(shape)}I", len(encoded), encoded, len(shape),
                       *shape)


@contextlib.contextmanager
def row_writer(path, name, shape):
    """An LCZM file of one tensor, `name`, written a block of rows at a time:
    yields write(block), which appends a (K, *shape[1:]) block from its own
    buffer. The header gives shape's R, the rows planned; if fewer were
    written when the block ends, it is patched to their count. The file
    replaces `path` as atomic_open's does, so if the block raises, `path`
    keeps its old bytes."""
    planned, written = shape[0], 0

    def write(block):
        nonlocal written
        arr = np.asarray(block, dtype="<f8", order="C")
        if arr.shape[1:] != tuple(shape[1:]) or written + len(arr) > planned:
            raise UsageError(f"row_writer: a {arr.shape} block after {written} rows does not "
                             f"fit the tensor's {tuple(shape)}")
        fh.write(arr.data)
        written += len(arr)

    with atomic_open(path) as fh:
        fh.write(_file_header(1))
        fh.write(_tensor_header(name, shape))
        rows_at = fh.tell() - 4 * len(shape)
        yield write
        if written < planned:
            fh.seek(rows_at)
            fh.write(struct.pack("<I", written))


def _read_exact(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what}")
    return data


@contextlib.contextmanager
def atomic_open(path):
    """A binary file that replaces `path` when the block ends; if the block
    raises, it is removed and `path` keeps its old bytes, if any. The
    directory of `path` is made if missing."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def _headers(fh):
    """(name, dims) of each tensor of an open LCZM file, each with fh at the
    tensor's payload, which the caller reads before the next."""
    magic = _read_exact(fh, 4, "magic")
    if magic != LCZM_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
    if version != LCZM_VERSION:
        raise FormatError(f"unsupported format version {version}")
    for idx in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(fh, 2, f"tensor {idx} name length"))
        name = _read_exact(fh, name_len, f"tensor {idx} name").decode("utf-8", "replace")
        (rank,) = struct.unpack("<B", _read_exact(fh, 1, f"tensor {name!r} rank"))
        dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"tensor {name!r} dims"))
        yield name, dims


def _payload(fh, dims, name) -> np.ndarray:
    arr = np.empty(dims, dtype="<f8")
    if fh.readinto(arr) != arr.nbytes:
        raise FormatError(f"truncated file while reading tensor {name!r} payload")
    return arr


def _one_tensor(fh, expected):
    """(name, dims) of an open LCZM file's one tensor, fh at its payload,
    once it passes check_layout against `expected` and the file ends where
    the payload does."""
    found = list(itertools.islice(_headers(fh), 1))
    check_layout(found, expected)
    (name, dims), = found
    _check_end(fh, 8 * math.prod(dims))
    return name, dims


def _check_end(fh, payload=0) -> None:
    """FormatError unless the file ends `payload` bytes after fh's position."""
    extra = os.fstat(fh.fileno()).st_size - fh.tell() - payload
    if extra < 0:
        raise FormatError(f"truncated file: the payload lacks {-extra} bytes")
    if extra > 0:
        raise FormatError(f"{extra} extra bytes at the end of the file")


def load_model(path, build=list):
    """build(list of (name, float64 ndarray)) of an LCZM container; a
    FormatError, from the container or from build, names the file."""
    try:
        with open(path, "rb") as fh:
            tensors = [(name, _payload(fh, dims, name)) for name, dims in _headers(fh)]
            _check_end(fh)
        return build(tensors)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_row_blocks(path, sizes, expected):
    """An LCZM file's one tensor in blocks of sizes[0], sizes[1], ... rows,
    one in memory at a time, once it passes check_layout against `expected`
    and the file ends where it does; a FormatError names the file."""
    try:
        with open(path, "rb") as fh:
            name, dims = _one_tensor(fh, expected)
            for size in sizes:
                yield _payload(fh, (size, *dims[1:]), name)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def map_tensor(path, expected) -> np.memmap:
    """An LCZM file's one tensor as a read-only np.memmap, checked as
    load_row_blocks checks it; a FormatError names the file."""
    try:
        with open(path, "rb") as fh:
            _, dims = _one_tensor(fh, expected)
            offset = fh.tell()
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return np.memmap(path, dtype="<f8", mode="r", offset=offset, shape=dims)


def read_meta(tensors, name, size) -> list:
    """Tensor `name` of a load_model list as `size` non-negative integers."""
    meta = dict(tensors).get(name)
    if meta is None or meta.shape != (size,) or not all(v >= 0 and v.is_integer() for v in meta):
        raise FormatError(f"{name} is missing or not {size} non-negative integers")
    return [int(v) for v in meta]


def check_layout(found, expected) -> None:
    """FormatError at the first of `found`'s (name, shape) pairs that is not
    `expected`'s, in order, or at a missing or extra one; an expected dim
    given as a string, such as "H", matches any size >= 1."""
    for i, (want, have) in enumerate(itertools.zip_longest(expected, found)):
        if not (want and have and want[0] == have[0] and len(want[1]) == len(have[1]) and all(
                size >= 1 if isinstance(dim, str) else size == dim
                for dim, size in zip(want[1], have[1]))):
            raise FormatError(f"tensor {i}: expected {want or 'nothing'}, "
                              f"found {have or 'nothing'}")


def layout_arrays(tensors, expected) -> list:
    """The arrays of a load_model list whose (name, shape) pairs pass
    check_layout against `expected`."""
    check_layout([(name, arr.shape) for name, arr in tensors], expected)
    return [arr for _, arr in tensors]


def write_table(path, schema, rows) -> None:
    """A header of schema's column names, then one line per row: csv with
    "\n" line ends, floats as repr, quotes only where a field needs them:
    one holding the delimiter, a quote, "\n" or "\r"."""
    # The writer quotes a field holding any character of its line terminator
    # and writes each row with one call, so rows go out with "\r\n", end in "\n".
    lines = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(
        [[name for name, _ in schema], *rows])
    write_text(path, "".join(f"{line[:-2]}\n" for line in lines))


def read_table(path, schema) -> list:
    """The rows of a write_table file as tuples typed by schema; ParseError
    with the file and line at a line that is not UTF-8, a wrong header,
    field count or value, or a non-finite float."""
    names = [name for name, _ in schema]
    reader = csv.reader(text_lines(path), strict=True)
    try:
        if next(reader, None) != names:
            raise ValueError(f"header is not {','.join(names)}")
        rows = list(reader)
        with contextlib.suppress(ValueError):
            return _typed_columns(rows, schema)
        # A field is bad: read the file again, typing row by row, for the
        # line that the first bad row ends on.
        reader = csv.reader(text_lines(path), strict=True)
        next(reader)
        return [_typed_row(row, schema) for row in reader]
    except (csv.Error, ValueError) as exc:
        raise ParseError(str(exc), line=max(reader.line_num, 1), path=path) from None


def _typed_columns(rows, schema) -> list:
    """rows as tuples typed by schema, converted a column at a time;
    ValueError when any field is bad."""
    if not set(map(len, rows)) <= {len(schema)}:
        raise ValueError("a row has the wrong field count")
    columns = [list(map(typ, column)) for column, (_, typ) in zip(zip(*rows), schema)]
    if not all(all(map(math.isfinite, column))
               for column, (_, typ) in zip(columns, schema) if typ is float):
        raise ValueError("a float is not finite")
    return list(zip(*columns))


def _typed_row(row, schema) -> tuple:
    if len(row) != len(schema):
        raise ValueError(f"expected {len(schema)} fields, found {len(row)}")
    values = tuple(typ(text) for text, (_, typ) in zip(row, schema))
    for text, value in zip(row, values):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{text!r} is not a finite float")
    return values


def read_manifest(path) -> SceneManifest:
    return SceneManifest(read_table(path, MANIFEST))


def write_manifest(manifest: SceneManifest, path) -> None:
    write_table(path, MANIFEST, manifest.entries)
