import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lczkit.autogeolabel import (
    BACKGROUND,
    BUILDING,
    LABEL_CHANNELS,
    VEGETATION,
    LabelRules,
    aggregate_fractions,
    label_channels,
    segment,
    vegetation_fraction,
)
from lczkit.errors import UsageError
from lczkit.rasterizer import CHANNEL_NAMES, N_CHANNELS, NormStats

RULES = LabelRules()


def _stack(h=2, w=2, **named_channels):
    channels = np.zeros((len(CHANNEL_NAMES), h, w))
    for name, grid in named_channels.items():
        channels[CHANNEL_NAMES.index(name)] = grid
    return channels


def test_rough_multireturn_cell_is_vegetation():
    stack = _stack(1, 1, z_std=0.8, multi_return_fraction=0.5)
    assert segment(stack, RULES)[0, 0] == VEGETATION


def test_tall_smooth_cell_is_building():
    stack = _stack(1, 1, z_mean=5.0, z_std=0.1)
    assert segment(stack, RULES)[0, 0] == BUILDING


def test_flat_ground_is_background():
    stack = _stack(1, 1)
    assert segment(stack, RULES)[0, 0] == BACKGROUND


def test_vegetation_takes_precedence_over_building():
    # satisfies the roughness+multireturn rule and the tall rule at once
    stack = _stack(1, 1, z_mean=6.0, z_std=0.6, multi_return_fraction=0.9)
    assert segment(stack, RULES)[0, 0] == VEGETATION


def test_thresholds_are_inclusive():
    stack = _stack(1, 1, z_std=0.5, multi_return_fraction=0.3)
    assert segment(stack, RULES)[0, 0] == VEGETATION
    stack = _stack(1, 1, z_mean=3.0, z_std=0.4)
    assert segment(stack, RULES)[0, 0] == BUILDING


def test_rough_without_multireturn_is_not_vegetation():
    stack = _stack(1, 1, z_std=2.0, multi_return_fraction=0.1)
    assert segment(stack, RULES)[0, 0] != VEGETATION


def test_rules_validation():
    with pytest.raises(UsageError):
        LabelRules(veg_zstd_min=-0.1)
    with pytest.raises(UsageError):
        LabelRules(bld_zstd_max=0.6, veg_zstd_min=0.5)


def test_vegetation_fraction_and_counts_partition():
    labels = np.array([[VEGETATION, BUILDING], [BACKGROUND, VEGETATION]], dtype=np.uint8)
    assert vegetation_fraction(labels) == 0.5
    counts = [np.count_nonzero(labels == code) for code in (BACKGROUND, BUILDING, VEGETATION)]
    assert counts == [1, 1, 2]
    assert sum(counts) == labels.size


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_every_cell_gets_exactly_one_label(seed):
    rng = np.random.default_rng(seed)
    stack = _stack(
        4, 4,
        z_mean=rng.uniform(0, 10, (4, 4)),
        z_std=rng.uniform(0, 2, (4, 4)),
        multi_return_fraction=rng.uniform(0, 1, (4, 4)),
    )
    labels = segment(stack, RULES)
    assert labels.shape == (4, 4) and labels.dtype == np.uint8
    assert np.all(np.isin(labels, (BACKGROUND, BUILDING, VEGETATION)))
    assert sum(np.count_nonzero(labels == code)
               for code in (BACKGROUND, BUILDING, VEGETATION)) == labels.size


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.5, 1.5))
@settings(max_examples=25, deadline=None)
def test_raising_roughness_threshold_never_adds_vegetation(seed, bump):
    rng = np.random.default_rng(seed)
    stack = _stack(
        4, 4,
        z_std=rng.uniform(0, 2, (4, 4)),
        multi_return_fraction=rng.uniform(0, 1, (4, 4)),
    )
    loose = segment(stack, RULES)
    strict = segment(stack, LabelRules(veg_zstd_min=RULES.veg_zstd_min + bump))
    assert vegetation_fraction(strict) <= vegetation_fraction(loose)


def test_aggregate_fractions_means_and_order():
    rows = [(1.0, 0.2), (-1.0, 0.6), (1.0, 0.4), (0.0, 0.5)]
    assert aggregate_fractions(rows) == [(-1.0, 0.6), (0.0, 0.5), (1.0, pytest.approx(0.3))]


def test_aggregate_fractions_full_sweep_has_nine_rows():
    sweep = [0.0, 1.0, 3.0, 5.0, 10.0, -1.0, -3.0, -5.0, -10.0]
    rows = [(dt, 0.1) for dt in sweep for _ in range(3)]
    agg = aggregate_fractions(rows)
    assert [dt for dt, _ in agg] == sorted(sweep)
    assert len(agg) == 9


def test_aggregate_fractions_empty_raises():
    with pytest.raises(UsageError):
        aggregate_fractions([])



def _on_a_value(values, rng):
    """Two distinct entries of positive values, lower first, so that a rule
    threshold sits exactly on a cell."""
    found = np.unique(values)
    hi = rng.integers(1, len(found))
    return float(found[rng.integers(0, hi)]), float(found[hi])


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_three_label_channels_label_as_the_whole_denormalized_stack(seed, k, h, w):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((k + 1, N_CHANNELS, h, w))  # normalized, as a decoder gives it
    mean, std = rng.uniform(-4.0, 4.0, N_CHANNELS), rng.uniform(0.05, 2.0, N_CHANNELS)
    index = [CHANNEL_NAMES.index(name) for name in LABEL_CHANNELS]
    # positive de-normalized label channels, so the thresholds can be cell values
    mean[index], std[index] = rng.uniform(3.0, 5.0, 3), rng.uniform(0.05, 0.5, 3)
    norm = NormStats(mean, std)
    whole = stack * std[:, None, None] + mean[:, None, None]  # de-normalized, all channels
    z_mean, z_std, multiret = (whole[:, i] for i in index)
    bld_zstd_max, veg_zstd_min = _on_a_value(z_std, rng)
    rules = LabelRules(veg_zstd_min=veg_zstd_min, bld_zstd_max=bld_zstd_max,
                       veg_multiret_min=_on_a_value(multiret, rng)[1],
                       bld_height_min=_on_a_value(z_mean, rng)[1])
    three = label_channels(stack, norm)
    assert three.shape == (k + 1, 3, h, w)
    assert np.array_equal(three, whole[:, index])
    for c, threshold in ((1, rules.veg_zstd_min), (1, rules.bld_zstd_max),
                         (2, rules.veg_multiret_min), (0, rules.bld_height_min)):
        assert np.any(three[:, c] == threshold)
    labels = segment(three, rules)
    assert np.array_equal(labels, segment(whole, rules))
    assert np.array_equal(vegetation_fraction(labels),
                          vegetation_fraction(segment(whole, rules)))
    assert np.array_equal(segment(three[0], rules), segment(whole[0], rules))


def test_label_channels_and_segment_refuse_other_shapes():
    norm = NormStats(np.zeros(N_CHANNELS), np.ones(N_CHANNELS))
    with pytest.raises(UsageError):
        label_channels(np.zeros((2, 3, 4, 4)), norm)
    with pytest.raises(UsageError):
        label_channels(np.zeros((N_CHANNELS, 4, 4)), norm)
    with pytest.raises(UsageError):
        segment(np.zeros((2, 4, 4, 4)), RULES)
