import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lczkit.errors import FormatError, LczError, ParseError, ValidationError
from lczkit.io import (
    LCZM_MAGIC,
    PointCloud,
    SceneManifest,
    load_model,
    parse_point_cloud,
    read_manifest,
    save_model,
    write_manifest,
)


def test_parse_single_point():
    cloud = parse_point_cloud("1.0 2.0 10.5 300 1 2\n")
    assert len(cloud) == 1
    assert (cloud.x[0], cloud.y[0], cloud.z[0], cloud.intensity[0]) == (1.0, 2.0, 10.5, 300.0)
    assert (cloud.return_number[0], cloud.num_returns[0]) == (1, 2)


def test_parse_empty_stream():
    assert len(parse_point_cloud("")) == 0


def test_parse_comments_and_blanks_skipped():
    text = "# header\n\n1 2 3 100 1 1\n  # another\n4 5 6 200 2 2\n"
    assert len(parse_point_cloud(text)) == 2


def test_parse_return_count_violation_reports_line():
    with pytest.raises(ValidationError) as exc:
        parse_point_cloud("1 2 3 100 3 2\n")
    assert exc.value.line == 1


def test_parse_malformed_line_number():
    with pytest.raises(ParseError) as exc:
        parse_point_cloud("1 2 3 100 1 1\nnot a point\n")
    assert exc.value.line == 2


def test_parse_rejects_negative_intensity():
    with pytest.raises(ValidationError):
        parse_point_cloud("1 2 3 -5 1 1\n")


@given(st.lists(st.tuples(
    st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.floats(-100, 1000),
    st.floats(0, 65535), st.integers(1, 3)), max_size=30))
def test_point_cloud_round_trip(rows):
    cols = [[row[k] for row in rows] for k in range(5)]
    cloud = PointCloud.from_arrays(*cols, cols[4])
    text = "".join(f"{x!r} {y!r} {z!r} {i!r} {rn} {rn}\n" for x, y, z, i, rn in rows)
    back = parse_point_cloud(text)
    for attr in ("x", "y", "z", "intensity", "return_number", "num_returns"):
        assert np.array_equal(getattr(back, attr), getattr(cloud, attr))


@given(st.binary(max_size=200))
@settings(max_examples=100)
def test_parsers_never_crash_on_fuzz(data):
    try:
        parse_point_cloud(data)
    except LczError:
        pass  # structured error is the contract


def test_model_round_trip(tmp_path):
    path = tmp_path / "m.lczm"
    tensors = [("a/w", np.array([[1.0, 2.0], [3.0, 4.0]])),
               ("a/b", np.zeros(3)),
               ("a/int", np.array([7, 8]))]  # stored as float64
    save_model(tensors, path)
    back = load_model(path)
    assert [n for n, _ in back] == ["a/w", "a/b", "a/int"]
    for (_, orig), (_, loaded) in zip(tensors, back):
        assert loaded.dtype == np.float64
        assert np.array_equal(orig, loaded)


def test_model_round_trip_rank_0(tmp_path):
    save_model([("pi", np.array(np.pi))], tmp_path / "s.lczm")
    [(name, back)] = load_model(tmp_path / "s.lczm")
    assert name == "pi" and back.shape == () and back == np.pi


def test_model_round_trip_random(tmp_path):
    rng = np.random.default_rng(0)
    tensors = [(f"t{i}", rng.standard_normal((i + 1, 3)) * 10.0 ** (3 * i - 6))
               for i in range(5)]
    save_model(tensors, tmp_path / "r.lczm")
    back = load_model(tmp_path / "r.lczm")
    for (_, orig), (_, loaded) in zip(tensors, back):
        assert loaded.dtype == np.float64 and loaded.shape == orig.shape
        assert orig.tobytes() == loaded.tobytes()


def test_model_version_1_rejected(tmp_path):
    # version 1 stored a float32 payload; it is refused, not converted
    path = tmp_path / "v1.lczm"
    path.write_bytes(LCZM_MAGIC + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"w"
                     + struct.pack("<BI", 1, 2) + np.ones(2, dtype="<f4").tobytes())
    with pytest.raises(FormatError) as exc:
        load_model(path)
    assert "version 1" in str(exc.value)


def test_model_empty_list(tmp_path):
    path = tmp_path / "e.lczm"
    save_model([], path)
    assert load_model(path) == []


def test_model_bad_magic(tmp_path):
    path = tmp_path / "bad.lczm"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(FormatError):
        load_model(path)


def test_model_truncated(tmp_path):
    path = tmp_path / "t.lczm"
    save_model([("w", np.ones((4, 4)))], path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(FormatError) as exc:
        load_model(path)
    assert "truncated" in str(exc.value)


def test_manifest_round_trip(tmp_path):
    manifest = SceneManifest([("s1", "a.lczm", 290.5), ("s2", "b.lczm", 285.0)])
    path = tmp_path / "manifest.csv"
    write_manifest(manifest, path)
    assert path.read_text().splitlines()[0] == "scene_id,raster_path,temperature_kelvin"
    back = read_manifest(path)
    assert back.entries == manifest.entries


def test_manifest_duplicate_id_rejected():
    with pytest.raises(ValidationError):
        SceneManifest([("s1", "a", 1.0), ("s1", "b", 2.0)])
