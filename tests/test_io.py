import ast
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lczkit
from lczkit.errors import FormatError, LczError, ParseError, UsageError, ValidationError
from lczkit.io import (
    CF_FAILURES,
    FRACTIONS,
    LCZM_MAGIC,
    PointCloud,
    SceneManifest,
    check_layout,
    load_model,
    load_row_blocks,
    map_tensor,
    parse_point_cloud,
    read_manifest,
    read_table,
    row_writer,
    save_model,
    text_lines,
    write_manifest,
    write_table,
)


def test_parse_single_point():
    cloud = parse_point_cloud("1.0 2.0 10.5 300 1 2\n".splitlines(keepends=True))
    assert len(cloud) == 1
    assert (cloud.x[0], cloud.y[0], cloud.z[0], cloud.intensity[0]) == (1.0, 2.0, 10.5, 300.0)
    assert (cloud.return_number[0], cloud.num_returns[0]) == (1, 2)


def test_parse_empty_stream():
    assert len(parse_point_cloud("".splitlines(keepends=True))) == 0


def test_parse_comments_and_blanks_skipped():
    text = "# header\n\n1 2 3 100 1 1\n  # another\n4 5 6 200 2 2\n"
    assert len(parse_point_cloud(text.splitlines(keepends=True))) == 2


def test_parse_return_count_violation_reports_line():
    with pytest.raises(ValidationError) as exc:
        parse_point_cloud("1 2 3 100 3 2\n".splitlines(keepends=True))
    assert exc.value.line == 1


def test_parse_malformed_line_number():
    with pytest.raises(ParseError) as exc:
        parse_point_cloud("1 2 3 100 1 1\nnot a point\n".splitlines(keepends=True))
    assert exc.value.line == 2


def test_parse_rejects_negative_intensity():
    with pytest.raises(ValidationError):
        parse_point_cloud("1 2 3 -5 1 1\n".splitlines(keepends=True))


@given(st.lists(st.tuples(
    st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.floats(-100, 1000),
    st.floats(0, 65535), st.integers(1, 3)), max_size=30))
def test_point_cloud_round_trip(rows):
    cols = [[row[k] for row in rows] for k in range(5)]
    cloud = PointCloud.from_arrays(*cols, cols[4])
    text = "".join(f"{x!r} {y!r} {z!r} {i!r} {rn} {rn}\n" for x, y, z, i, rn in rows)
    back = parse_point_cloud(text.splitlines(keepends=True))
    for attr in ("x", "y", "z", "intensity", "return_number", "num_returns"):
        assert np.array_equal(getattr(back, attr), getattr(cloud, attr))


def _read_table_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(data)
        return read_table(path, FRACTIONS)


def _parse_point_cloud_bytes(data):
    """A point file's bytes parsed as `lcz rasterize` reads them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.txt"
        path.write_bytes(data)
        return parse_point_cloud(text_lines(path), path=path)


@given(st.one_of(st.binary(max_size=200),
                 st.binary(max_size=200).map(
                     lambda b: b"scene_id,delta_t,achieved_dt,v_prime\n" + b)))
@settings(max_examples=100)
def test_parsers_never_crash_on_fuzz(data):
    for parse in (_parse_point_cloud_bytes, _read_table_bytes):
        try:
            parse(data)
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


def test_model_payload_is_written_from_any_layout_as_little_endian_rows(tmp_path):
    grid = np.arange(24.0).reshape(2, 3, 4) * np.pi
    tensors = [("transposed", grid.transpose(2, 0, 1)), ("strided", grid[:, ::2, 1::2]),
               ("big_endian", grid.astype(">f8")), ("rows", grid[1:]), ("rank0", np.array(-0.5)),
               ("empty", np.zeros((0, 3)))]
    save_model(tensors, tmp_path / "views.lczm")
    expected = LCZM_MAGIC + struct.pack("<II", 2, len(tensors))
    for name, t in tensors:  # the previous writer's formula is the oracle
        expected += struct.pack("<H", len(name)) + name.encode()
        expected += struct.pack(f"<B{t.ndim}I", t.ndim, *t.shape)
        expected += np.asarray(t, "<f8").tobytes()
    assert (tmp_path / "views.lczm").read_bytes() == expected


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


def test_row_blocks_are_the_first_tensors_consecutive_rows(tmp_path):
    path = tmp_path / "rows.lczm"
    rows = np.arange(60.0).reshape(5, 3, 4)
    save_model([("t", rows)], path)
    blocks = list(load_row_blocks(path, [2, 3], [("t", (5, "C", 4))]))
    assert [block.tobytes() for block in blocks] == [rows[:2].tobytes(), rows[2:].tobytes()]
    with pytest.raises(FormatError) as exc:  # more rows than the tensor has
        list(load_row_blocks(path, [6], [("t", (5, 3, 4))]))
    assert str(exc.value).startswith(f"{path}: ") and "truncated" in str(exc.value)
    with pytest.raises(FormatError) as exc:  # another layout than the expected one
        next(load_row_blocks(path, [5], [("t", (6, 3, 4))]))
    assert str(exc.value) == f"{path}: tensor 0: expected ('t', (6, 3, 4)), found ('t', (5, 3, 4))"


@pytest.mark.parametrize("planned", [5, 7])
def test_row_writer_writes_save_model_s_file_of_the_rows_it_was_given(tmp_path, planned):
    rows = np.arange(60.0).reshape(5, 3, 4)
    save_model([("t", rows)], tmp_path / "whole.lczm")
    path = tmp_path / "rows.lczm"
    with row_writer(path, "t", (planned, 3, 4)) as write:
        write(rows[:2])
        write(rows[2:2])
        write(rows[2:])
    assert path.read_bytes() == (tmp_path / "whole.lczm").read_bytes()  # R patched to 5
    mapped = map_tensor(path, [("t", (5, 3, "W"))])
    assert mapped.tobytes() == rows.tobytes() and not mapped.flags.writeable
    with pytest.raises(FormatError) as exc:
        map_tensor(path, [("t", (6, 3, 4))])
    assert str(exc.value) == f"{path}: tensor 0: expected ('t', (6, 3, 4)), found ('t', (5, 3, 4))"


@pytest.mark.parametrize("block", [np.zeros((3, 3, 4)), np.zeros((1, 3, 5))])
def test_row_writer_refuses_a_block_off_the_shape_and_keeps_the_old_file(tmp_path, block):
    path = tmp_path / "rows.lczm"
    save_model([("t", np.ones((2, 3, 4)))], path)
    before = path.read_bytes()
    with pytest.raises(UsageError, match="does not fit"):
        with row_writer(path, "t", (2, 3, 4)) as write:
            write(block)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.lczm"]


@pytest.mark.parametrize("found, error", [
    ([("a", (2, 3)), ("b", (4,))], None),
    ([("a", (2, 1)), ("b", (4,))], None),  # "W" matches any size >= 1
    ([("a", (2, 0)), ("b", (4,))], "tensor 0: expected ('a', (2, 'W')), found ('a', (2, 0))"),
    ([("a", (2,)), ("b", (4,))], "tensor 0: expected ('a', (2, 'W')), found ('a', (2,))"),
    ([("a", (2, 3)), ("c", (4,))], "tensor 1: expected ('b', (4,)), found ('c', (4,))"),
    ([("a", (2, 3)), ("b", (5,))], "tensor 1: expected ('b', (4,)), found ('b', (5,))"),
    ([("a", (2, 3))], "tensor 1: expected ('b', (4,)), found nothing"),
    ([], "tensor 0: expected ('a', (2, 'W')), found nothing"),
    ([("a", (2, 3)), ("b", (4,)), ("c", ())], "tensor 2: expected nothing, found ('c', ())"),
])
def test_check_layout_names_the_first_pair_off_the_expected_ones(found, error):
    expected = [("a", (2, "W")), ("b", (4,))]
    if error is None:
        check_layout(found, expected)
    else:
        with pytest.raises(FormatError) as exc:
            check_layout(found, expected)
        assert str(exc.value) == error


def test_lczm_readers_refuse_bytes_after_the_last_tensor(tmp_path):
    path = tmp_path / "m.lczm"
    save_model([("t", np.arange(6.0).reshape(2, 3))], path)
    whole = path.read_bytes()

    def blocks(path):
        return list(load_row_blocks(path, [1, 1], [("t", (2, 3))]))

    def mapped(path):
        return map_tensor(path, [("t", (2, 3))])

    path.write_bytes(whole + b"\0" * 4)
    for read in (load_model, blocks, mapped):
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: 4 extra bytes at the end of the file"
    save_model([("t", np.arange(6.0).reshape(2, 3)), ("u", np.zeros(2))], path)
    extra = len(path.read_bytes()) - len(whole)
    for read in (blocks, mapped):  # they read the first of two tensors
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: {extra} extra bytes at the end of the file"
    path.write_bytes(whole[:-8])
    for read in (blocks, mapped):  # refused before a row is read or mapped
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: truncated file: the payload lacks 8 bytes"


def test_manifest_round_trip(tmp_path):
    manifest = SceneManifest([("s1", "a.lczm", 290.5), ("s2", "b.lczm", 285.0),
                              ("s3", "c.lczm", 292.8536153371237)])
    path = tmp_path / "manifest.csv"
    write_manifest(manifest, path)
    assert path.read_text().splitlines()[0] == "scene_id,raster_path,temperature_kelvin"
    back = read_manifest(path)
    assert back.entries == manifest.entries


def test_manifest_duplicate_id_rejected():
    with pytest.raises(ValidationError):
        SceneManifest([("s1", "a", 1.0), ("s1", "b", 2.0)])


def test_table_dialect_and_a_message_with_a_comma_round_trip(tmp_path):
    rows = [("s1", 1.5, "non_finite", 'decoded, "counterfactual"\nis non-finite'),
            ("s2", -0.1, "degenerate_gradient", "plain"),
            ("s3", 2.0, "non_finite", "a\rb"),
            ("s4", -3.0, "non_finite", "a\r\nb")]
    path = tmp_path / "failures.csv"
    write_table(path, CF_FAILURES, rows)
    assert path.read_bytes() == (
        b"scene_id,delta_t,kind,message\n"
        b's1,1.5,non_finite,"decoded, ""counterfactual""\nis non-finite"\n'
        b"s2,-0.1,degenerate_gradient,plain\n"
        b's3,2.0,non_finite,"a\rb"\n'
        b's4,-3.0,non_finite,"a\r\nb"\n')
    assert read_table(path, CF_FAILURES) == rows


def _table_case(text, line, schema=FRACTIONS):
    """A case whose id names only its text and line, as the schema is not
    the point of most of them."""
    return pytest.param(text, line, schema, id=f"{text}-{line}")


@pytest.mark.parametrize("text, line, schema", [
    _table_case("scene_id,delta_t,achieved_dt,v_prime,v_baseline\n", 1),  # the column fractions.csv dropped
    _table_case("scene_id,delta_t,achieved_dt,v_prime\n", 1, CF_FAILURES),  # another table's header
    _table_case("", 1),
    _table_case("scene_id,delta_t,achieved_dt,v_prime\ns,0.0,0.0,0.5\ns,1.0,0.9\n", 3),
    _table_case("scene_id,delta_t,achieved_dt,v_prime\ns,0.0,0.0,x\n", 2),
    _table_case("scene_id,delta_t,achieved_dt,v_prime\ns,inf,0.0,0.5\n", 2),
])
def test_read_table_error_names_file_and_line(tmp_path, text, line, schema):
    path = tmp_path / "fractions.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_table(path, schema)
    assert exc.value.line == line and str(path) in str(exc.value)


# 2000 failure rows; those of index 5 mod 10 have a message over two lines,
# so a one-line row i whose index is 0 mod 10 ends on line 2 + i + i // 10.
_FAILURES = [(f"s{i}", i / 4, "non_finite", "two\nlines" if i % 10 == 5 else "one")
             for i in range(2000)]


@pytest.mark.parametrize("edits, line, message", [
    ({1500: ("s", "x1", "non_finite", "one")}, 1500, "could not convert string to float: 'x1'"),
    ({1500: ("s", float("nan"), "non_finite", "one")}, 1500, "'nan' is not a finite float"),
    ({1500: ("s", 1.0, "non_finite")}, 1500, "expected 4 fields, found 3"),
    ({1800: ("s", "x1", "non_finite", "one"), 1500: ("s", 1.0, "non_finite")}, 1500,
     "expected 4 fields, found 3"),
])
def test_read_table_names_the_first_bad_row_deep_in_a_table(tmp_path, edits, line, message):
    """Fields are typed a column at a time, yet the error names the line of
    the first bad row, counting the lines of quoted fields before it."""
    path = tmp_path / "failures.csv"
    write_table(path, CF_FAILURES, [edits.get(i, row) for i, row in enumerate(_FAILURES)])
    with pytest.raises(ParseError, match=message) as exc:
        read_table(path, CF_FAILURES)
    assert exc.value.line == 2 + line + line // 10 and str(path) in str(exc.value)
    write_table(path, CF_FAILURES, _FAILURES)
    assert read_table(path, CF_FAILURES) == _FAILURES


def test_interrupted_write_keeps_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "m.lczm"
    save_model([("w", np.ones(3))], path)
    before = path.read_bytes()
    with pytest.raises(UsageError):  # raised after the first tensor is written
        save_model([("w", np.zeros(3)), ("x" * 0x10000, np.zeros(3))], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.lczm"]


WRITE_CALLS = {"write_text", "write_bytes", "tofile", "save", "savez", "savetxt"}


def test_only_io_opens_files_for_writing():
    """Every write goes through io's atomic writer; no other module writes."""
    writes = []
    for path in sorted(Path(lczkit.__file__).parent.glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                if all(isinstance(m, ast.Constant) and isinstance(m.value, str)
                       and set(m.value) <= set("rbt") for m in modes):
                    continue
            elif not (isinstance(func, ast.Attribute) and name in WRITE_CALLS):
                continue
            writes.append(f"{path.name}:{node.lineno}")
    assert writes == []
