import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lczkit.errors import FormatError, UsageError
from lczkit.io import PointCloud, load_model
from lczkit.rasterizer import (
    CHANNEL_NAMES,
    GridSpec,
    NormStats,
    compute_norm_stats,
    load_stack,
    norm_stats_from_tensors,
    norm_stats_tensors,
    normalize,
    rasterize,
    save_stack,
)
from lczkit.synthcity import SceneParams, generate_scene

SPEC = GridSpec(1.0, 4, 4)
CH = {name: i for i, name in enumerate(CHANNEL_NAMES)}  # a stack's channel index by name


def _cloud(rows):
    if not rows:
        return PointCloud()
    cols = list(zip(*rows))
    return PointCloud.from_arrays(*cols)


def test_empty_cloud_all_fill():
    stack = rasterize(PointCloud(), SPEC)
    assert not stack.channels.any()
    assert stack.channels[CH["point_count"]].sum() == 0


def test_two_points_one_cell_statistics():
    # two ground returns at z = 0 in another cell put the ground reference at 0
    cloud = _cloud([(0.5, 0.5, 10.0, 100.0, 1, 1), (0.7, 0.3, 14.0, 200.0, 1, 1),
                    (3.5, 3.5, 0.0, 50.0, 1, 1), (3.5, 3.5, 0.0, 50.0, 1, 1)])
    stack = rasterize(cloud, SPEC)
    assert stack.channels[CH["z_min"]][0, 0] == 10.0
    assert stack.channels[CH["z_max"]][0, 0] == 14.0
    assert stack.channels[CH["z_mean"]][0, 0] == 12.0
    assert stack.channels[CH["z_range"]][0, 0] == 4.0
    assert stack.channels[CH["point_count"]][0, 0] == 2.0
    assert stack.channels[CH["i_mean"]][0, 0] == 150.0
    assert stack.channels[CH["i_min"]][0, 0] == 100.0
    assert stack.channels[CH["i_max"]][0, 0] == 200.0


def test_ground_referencing_shifts_elevation():
    cloud = _cloud([(0.5, 0.5, 100.0, 10.0, 1, 1), (2.5, 2.5, 104.0, 10.0, 1, 1)])
    stack = rasterize(cloud, SPEC)
    # 2nd percentile of {100, 104} sits slightly above 100
    assert stack.channels[CH["z_mean"]][0, 0] == pytest.approx(-0.08)
    assert stack.channels[CH["z_mean"]][2, 2] == pytest.approx(3.92)


def test_out_of_extent_points_counted_and_ignored():
    cloud = _cloud([(0.5, 0.5, 1.0, 10.0, 1, 1), (99.0, 99.0, 1.0, 10.0, 1, 1),
                    (-1.0, 0.5, 1.0, 10.0, 1, 1)])
    stack = rasterize(cloud, SPEC)
    assert stack.n_outside == 2
    assert stack.channels[CH["point_count"]].sum() == 1


@st.composite
def clouds(draw):
    n = draw(st.integers(0, 60))
    rows = [(
        draw(st.floats(-1.0, 5.0)), draw(st.floats(-1.0, 5.0)),
        draw(st.floats(0.0, 20.0)), draw(st.floats(0.0, 1000.0)),
    ) for _ in range(n)]
    nrs = [draw(st.integers(1, 3)) for _ in range(n)]
    rns = [draw(st.integers(1, nr)) for nr in nrs]
    return _cloud([r + (rn, nr) for r, rn, nr in zip(rows, rns, nrs)])


def _shuffled(cloud, perm):
    return PointCloud.from_arrays(
        cloud.x[perm], cloud.y[perm], cloud.z[perm],
        cloud.intensity[perm], cloud.return_number[perm], cloud.num_returns[perm],
    )


@given(clouds(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_permutation_invariance_bit_exact(cloud, rand):
    perm = list(range(len(cloud)))
    rand.shuffle(perm)
    a = rasterize(cloud, SPEC)
    b = rasterize(_shuffled(cloud, perm), SPEC)
    assert a.channels.tobytes() == b.channels.tobytes()


def _lexsort_oracle(cloud, spec):
    """The channels of `rasterize` with the points of each cell ordered by
    the five-key lexsort on (cell, x, y, z, intensity)."""
    channels = np.zeros((len(CHANNEL_NAMES), spec.height, spec.width))
    z = cloud.z - np.percentile(cloud.z, 2.0) if len(cloud) else cloud.z
    col = np.floor(cloud.x / spec.cell_size).astype(np.int64)
    row = np.floor(cloud.y / spec.cell_size).astype(np.int64)
    inside = (col >= 0) & (col < spec.width) & (row >= 0) & (row < spec.height)
    if not inside.any():
        return channels
    cell = (row * spec.width + col)[inside]
    order = np.lexsort((cloud.intensity[inside], z[inside], cloud.y[inside],
                        cloud.x[inside], cell))
    cell, zz, inten = cell[order], z[inside][order], cloud.intensity[inside][order]
    rn = cloud.return_number[inside][order].astype(float)
    nr = cloud.num_returns[inside][order].astype(float)
    starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    n = np.diff(np.r_[starts, len(cell)])

    def total(a):
        return np.add.reduceat(a, starts)

    z_mean, i_mean = total(zz) / n, total(inten) / n
    z_dev, i_dev = zz - np.repeat(z_mean, n), inten - np.repeat(i_mean, n)
    z_min, z_max = np.minimum.reduceat(zz, starts), np.maximum.reduceat(zz, starts)
    values = (z_min, z_max, z_mean, np.sqrt(total(z_dev * z_dev) / n), z_max - z_min,
              i_mean, np.sqrt(total(i_dev * i_dev) / n),
              np.minimum.reduceat(inten, starts), np.maximum.reduceat(inten, starts),
              n.astype(float), total(rn) / n,
              total((nr > 1).astype(float)) / n, total((rn == nr).astype(float)) / n)
    c = cell[starts]
    for ci, value in enumerate(values):
        channels[ci, c // spec.width, c % spec.width] = value
    return channels


@st.composite
def tied_clouds(draw):
    """Clouds whose cells hold points with equal x, and exact duplicates:
    x comes from a few values (0.0 and -0.0 among them), and points from a
    small pool as often as they are drawn fresh."""
    def point():
        nr = draw(st.integers(1, 3))
        return (draw(st.sampled_from([-0.0, 0.0, 0.25, 1.5, 1.75, 3.5, 4.5])),
                draw(st.sampled_from([0.5, 2.25]) | st.floats(-1.0, 5.0)),
                draw(st.sampled_from([1.0, 3.0]) | st.floats(0.0, 20.0)),
                draw(st.sampled_from([10.0, 20.0]) | st.floats(0.0, 1000.0)),
                draw(st.integers(1, nr)), nr)

    pool = [point() for _ in range(draw(st.integers(1, 6)))]
    n = draw(st.integers(0, 60))
    return _cloud([draw(st.sampled_from(pool)) if draw(st.booleans()) else point()
                   for _ in range(n)])


@given(tied_clouds(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_tied_x_and_duplicate_points_match_the_lexsort_oracle(cloud, rand):
    stack = rasterize(cloud, SPEC)
    assert stack.channels.tobytes() == _lexsort_oracle(cloud, SPEC).tobytes()
    perm = list(range(len(cloud)))
    rand.shuffle(perm)
    assert rasterize(_shuffled(cloud, perm), SPEC).channels.tobytes() == stack.channels.tobytes()


def test_a_synthetic_scene_matches_the_lexsort_oracle():
    params = SceneParams(seed=2)
    cloud = generate_scene(params, 4).cloud
    assert rasterize(cloud, params.grid).channels.tobytes() == \
        _lexsort_oracle(cloud, params.grid).tobytes()


@given(clouds())
@settings(max_examples=40, deadline=None)
def test_stack_invariants(cloud):
    stack = rasterize(cloud, SPEC)
    count = stack.channels[CH["point_count"]]
    in_extent = int(len(cloud) - stack.n_outside)
    assert count.sum() == in_extent
    occupied = count >= 1
    assert np.all(stack.channels[CH["z_min"]][occupied] <= stack.channels[CH["z_mean"]][occupied] + 1e-12)
    assert np.all(stack.channels[CH["z_mean"]][occupied] <= stack.channels[CH["z_max"]][occupied] + 1e-12)
    for name in ("multi_return_fraction", "last_return_fraction"):
        assert np.all((stack.channels[CH[name]] >= 0) & (stack.channels[CH[name]] <= 1))
    assert np.all(np.isfinite(stack.channels))


def test_norm_stats_constant_channel_clamped():
    channels = np.zeros((len(CHANNEL_NAMES), 2, 2))
    channels[0] = 5.0
    stats = compute_norm_stats(channels[None])
    assert stats.mean[0] == 5.0
    assert stats.std[0] == 1e-6


def test_norm_stats_hand_computation():
    channels = np.zeros((len(CHANNEL_NAMES), 2, 2))
    channels[0] = [[0.0, 2.0], [0.0, 2.0]]
    stats = compute_norm_stats(channels[None])
    assert stats.mean[0] == 1.0
    assert stats.std[0] == 1.0


def test_norm_stats_matches_two_pass_oracle():
    rng = np.random.default_rng(3)
    stacks = np.stack([rng.standard_normal((len(CHANNEL_NAMES), 2, 2)) * 10 for _ in range(5)])
    stats = compute_norm_stats(stacks)
    for ci in range(len(CHANNEL_NAMES)):
        cells = [float(v) for s in stacks for v in s[ci].ravel()]
        mean = sum(cells) / len(cells)
        var = sum((v - mean) ** 2 for v in cells) / len(cells)
        assert stats.mean[ci] == pytest.approx(mean, rel=1e-12)
        assert stats.std[ci] == pytest.approx(max(var ** 0.5, 1e-6), rel=1e-12)


def test_norm_stats_empty_collection():
    with pytest.raises(UsageError):
        compute_norm_stats([])


def test_norm_stats_tensors_round_trip_and_malformed_rejected():
    stats = compute_norm_stats(np.random.default_rng(4).standard_normal(
        (1, len(CHANNEL_NAMES), 2, 2)))
    tensors = norm_stats_tensors(stats)
    back = norm_stats_from_tensors(tensors)
    assert np.array_equal(back.mean, stats.mean) and np.array_equal(back.std, stats.std)
    for malformed in (tensors[:1], [tensors[0], ("norm/std", stats.std[:-1])]):
        with pytest.raises(FormatError):
            norm_stats_from_tensors(malformed)


def test_normalize_examples_and_round_trip():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((len(CHANNEL_NAMES), 2, 2))
    stats = compute_norm_stats(stack[None])
    normed = normalize(stack, stats)
    # value == mean -> 0; mean + std -> 1
    probe = np.broadcast_to(stats.mean[:, None, None], stack.shape).copy()
    assert np.allclose(normalize(probe, stats), 0.0)
    probe2 = np.broadcast_to((stats.mean + stats.std)[:, None, None], stack.shape).copy()
    assert np.allclose(normalize(probe2, stats), 1.0)
    back = normed * stats.std[:, None, None] + stats.mean[:, None, None]
    assert np.allclose(back, stack, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("lead", [(), (4,)])  # one stack, a split
def test_normalize_has_the_bits_of_the_formula_and_keeps_its_input(lead):
    import tracemalloc

    rng = np.random.default_rng(6)
    c = len(CHANNEL_NAMES)
    # large enough that numpy's own ~27 KB of ufunc buffers do not count
    stack = 7.0 * rng.standard_normal((*lead, c, 64, 64)) + 2.0
    stats = NormStats(rng.standard_normal(c), rng.uniform(0.1, 3.0, c))
    before = stack.tobytes()
    tracemalloc.start()
    try:
        normed = normalize(stack, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = (stack - stats.mean[:, None, None]) / stats.std[:, None, None]
    assert normed.tobytes() == expected.tobytes()
    assert stack.tobytes() == before
    assert peak < 1.5 * stack.nbytes, peak / stack.nbytes  # one new array, not two


def test_normalize_channel_count_mismatch():
    stack = np.zeros((len(CHANNEL_NAMES), 2, 2))
    with pytest.raises(UsageError):
        normalize(stack, NormStats(np.zeros(3), np.ones(3)))


def test_stack_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    cloud = _cloud([(rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(0, 10),
                     rng.uniform(0, 100), 1, 2) for _ in range(40)])
    stack = rasterize(cloud, SPEC)
    path = tmp_path / "s.lczm"
    save_stack(stack.channels, path)
    back = load_stack(path)
    assert back.dtype == np.float64
    assert back.tobytes() == stack.channels.tobytes()
    assert [(name, a.shape) for name, a in load_model(path)] == [("stack/channels", (13, 4, 4))]
