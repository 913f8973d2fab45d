import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from lczkit.analysis import ols_fit
from lczkit.autogeolabel import LabelRules, segment, vegetation_fraction
from lczkit.errors import UsageError
from lczkit.io import SceneManifest, read_manifest, write_manifest
from lczkit.rasterizer import load_stack, rasterize, save_stack
from lczkit.synthcity import (
    BUILDING_SCALE_RANGE,
    T_BASE,
    TREE_SCALE_RANGE,
    SceneParams,
    TemperatureLaw,
    _place_discs,
    generate_corpus,
    generate_scene,
    scene_temperature,
    split_sizes,
)


def _cloud_bytes(cloud):
    return b"".join(a.tobytes() for a in (cloud.x, cloud.y, cloud.z, cloud.intensity,
                                          cloud.return_number, cloud.num_returns))


def test_scene_deterministic_in_seed_pair():
    params = SceneParams(seed=3)
    a = generate_scene(params, 5)
    b = generate_scene(params, 5)
    assert _cloud_bytes(a.cloud) == _cloud_bytes(b.cloud)
    assert np.array_equal(a.veg_mask, b.veg_mask)


def test_scene_varies_with_scene_seed():
    params = SceneParams(seed=3)
    a = generate_scene(params, 5)
    b = generate_scene(params, 6)
    assert _cloud_bytes(a.cloud) != _cloud_bytes(b.cloud)


def test_zero_densities_gives_bare_ground():
    params = SceneParams(tree_density=0.0, building_density=0.0, seed=1)
    truth = generate_scene(params, 0)
    assert truth.true_veg_fraction == 0.0
    assert not truth.veg_mask.any() and not truth.bld_mask.any()
    assert np.all(truth.cloud.num_returns == 1)
    assert np.all(np.abs(truth.cloud.z) < 1.0)  # jittered plane only


def test_canopy_points_are_multireturn_and_elevated():
    params = SceneParams(tree_density=0.05, building_density=0.0, seed=2)
    truth = generate_scene(params, 1)
    assert truth.veg_mask.any()
    multi = truth.cloud.num_returns > 1
    assert multi.any()
    assert truth.cloud.z[multi].min() > 1.0  # canopy sits above the ground


def test_rooftop_points_are_single_return_and_smooth():
    params = SceneParams(tree_density=0.0, building_density=0.02, seed=4)
    truth = generate_scene(params, 2)
    if not truth.bld_mask.any():
        pytest.skip("poisson draw produced no buildings for this seed")
    assert np.all(truth.cloud.num_returns == 1)
    roof = truth.cloud.z > 1.0
    assert roof.any()
    assert truth.cloud.z[roof].std() < 2.5  # flat roofs, not volumetric scatter


def _place_discs_one_by_one(rng, n_target, extent_x, extent_y, radius_range, max_tries):
    """The dart thrower _place_discs must match: one candidate drawn and
    tried at a time."""
    centers, radii = [], []
    tries = 0
    while len(centers) < n_target and tries < max_tries:
        tries += 1
        r = rng.uniform(*radius_range)
        cx = rng.uniform(r, max(r, extent_x - r))
        cy = rng.uniform(r, max(r, extent_y - r))
        if all((cx - px) ** 2 + (cy - py) ** 2 >= (0.8 * (r + pr)) ** 2
               for (px, py), pr in zip(centers, radii)):
            centers.append((cx, cy))
            radii.append(r)
    return centers, radii


def test_place_discs_keeps_the_discs_and_stream_of_one_by_one_draws():
    """The same discs, bit for bit, and the generator left in the same
    state, on random cases that include targets of 0, targets the tries
    cannot reach, a single try and extents narrower than a disc."""
    cases = np.random.default_rng(2024)
    edges = {"no target": 0, "target not reached": 0, "one try": 0, "narrow": 0}
    for case in range(300):
        lo = cases.uniform(0.2, 4.0)
        radius_range = (lo, lo + cases.choice([0.0, cases.uniform(0.0, 3.0)]))
        extent_x, extent_y = cases.uniform(1.0, 40.0, 2).tolist()
        n_target = int(cases.integers(0, 40))
        max_tries = int(cases.choice([1, 5, 50, 2000]))
        a, b = np.random.default_rng(case), np.random.default_rng(case)
        centers, radii = _place_discs_one_by_one(a, n_target, extent_x, extent_y,
                                                 radius_range, max_tries)
        x, y, r = _place_discs(b, n_target, extent_x, extent_y, radius_range, max_tries)
        assert list(zip(x.tolist(), y.tolist())) == centers, case
        assert r.tolist() == radii, case
        assert a.bit_generator.state == b.bit_generator.state, case
        edges["no target"] += n_target == 0
        edges["target not reached"] += len(radii) < n_target
        edges["one try"] += max_tries == 1
        edges["narrow"] += min(extent_x, extent_y) < 2 * lo
    assert min(edges.values()) >= 3, edges


def test_scene_params_validation():
    for name in ("tree_density", "building_density"):
        with pytest.raises(UsageError, match=f"{name} must be >= 0"):
            SceneParams(**{name: -0.1})
    assert SceneParams(tree_density=0.0, building_density=0.0).tree_density == 0.0


def test_temperature_law_validation():
    for k_veg in (math.nan, math.inf, -math.inf):
        with pytest.raises(UsageError, match="k_veg must be finite"):
            TemperatureLaw(k_veg=k_veg)
    with pytest.raises(UsageError):
        scene_temperature(TemperatureLaw(), 1.5, 0)


def test_temperature_law_takes_the_null_and_reversed_laws():
    # Negative controls: no vegetation effect (0) and warming vegetation (-8).
    assert scene_temperature(TemperatureLaw(k_veg=0.0, noise_sigma=0.0), 0.75, 0) == 295.0
    assert scene_temperature(TemperatureLaw(k_veg=-8.0, noise_sigma=0.0), 0.5, 0) == 299.0


def test_temperature_noiseless_examples():
    law = TemperatureLaw(k_veg=8.0, noise_sigma=0.0)
    assert scene_temperature(law, 0.0, 0) == T_BASE
    assert scene_temperature(law, 1.0, 0) == T_BASE - 8.0
    assert scene_temperature(law, 0.5, 123) == T_BASE - 4.0


def test_temperature_deterministic_per_scene_seed():
    law = TemperatureLaw(noise_sigma=0.5, seed=9)
    assert scene_temperature(law, 0.3, 4) == scene_temperature(law, 0.3, 4)
    assert scene_temperature(law, 0.3, 4) != scene_temperature(law, 0.3, 5)


def test_temperature_noise_statistics():
    law = TemperatureLaw(k_veg=8.0, noise_sigma=0.5, seed=0)
    temps = np.array([scene_temperature(law, 0.5, s) for s in range(10_000)])
    # mean within 3 standard errors; spread matches sigma
    assert abs(temps.mean() - 291.0) <= 3 * 0.5 / np.sqrt(len(temps))
    assert temps.std() == pytest.approx(0.5, rel=0.05)


def test_corpus_split_and_manifests(tmp_path):
    params = SceneParams(seed=7)
    law = TemperatureLaw(seed=7)
    result = generate_corpus(10, params, law, seed=7, out_dir=str(tmp_path))
    assert len(result.entries) == 10
    assert len(result.train_ids) == 8 and len(result.test_ids) == 2
    assert not set(result.train_ids) & set(result.test_ids)
    # test_corpus_deterministic pins each temperature to its scene's planted fraction
    assert read_manifest(tmp_path / "manifest.csv").entries == result.entries
    for _, rpath, _ in result.entries:
        assert load_stack(tmp_path / rpath).shape == (13, 16, 16)


def _serial_corpus(n_scenes, params, law, seed, out_dir):
    """generate_corpus written out in one process, scene after scene."""
    rng = np.random.default_rng([seed, 11])
    density_scales = rng.uniform(*TREE_SCALE_RANGE, n_scenes)
    bld_scales = rng.uniform(*BUILDING_SCALE_RANGE, n_scenes)
    entries = []
    for i in range(n_scenes):
        truth = generate_scene(replace(
            params, tree_density=params.tree_density * density_scales[i],
            building_density=params.building_density * bld_scales[i]), i)
        raster_path = os.path.join("scenes", f"scene_{i:05d}.lczm")
        save_stack(rasterize(truth.cloud, params.grid).channels, os.path.join(out_dir, raster_path))
        entries.append((f"scene_{i:05d}", raster_path,
                        scene_temperature(law, truth.true_veg_fraction, i)))
    order = rng.permutation(n_scenes)
    n_train, _ = split_sizes(n_scenes)
    for name, split in (("manifest", entries),
                        ("train", [entries[j] for j in sorted(order[:n_train])]),
                        ("test", [entries[j] for j in sorted(order[n_train:])])):
        write_manifest(SceneManifest(split), os.path.join(out_dir, f"{name}.csv"))


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_corpus_deterministic(tmp_path, monkeypatch):
    """Every file of a corpus built in worker processes has the bytes of a
    serial build, whatever the number of workers, and no worker outlives
    the call."""
    params = SceneParams(seed=5)
    law = TemperatureLaw(seed=5)
    _serial_corpus(12, params, law, 5, str(tmp_path / "serial"))
    expected = _tree_bytes(tmp_path / "serial")
    assert len(expected) == 15
    a = generate_corpus(12, params, law, seed=5, out_dir=str(tmp_path / "a"))
    assert not multiprocessing.active_children()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    b = generate_corpus(12, params, law, seed=5, out_dir=str(tmp_path / "b"))
    assert not multiprocessing.active_children()
    monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS
    c = generate_corpus(12, params, law, seed=5, out_dir=str(tmp_path / "c"))
    assert not multiprocessing.active_children()
    assert _tree_bytes(tmp_path / "a") == expected
    assert _tree_bytes(tmp_path / "b") == expected
    assert _tree_bytes(tmp_path / "c") == expected
    assert a.train_ids == b.train_ids == c.train_ids


def test_corpus_requires_scenes(tmp_path):
    with pytest.raises(UsageError):
        generate_corpus(0, SceneParams(), TemperatureLaw(), 0, str(tmp_path))


def test_planted_law_is_recoverable():
    """The planted slope must be visible straight from the ground truth."""
    params = SceneParams(seed=11)
    law = TemperatureLaw(k_veg=8.0, noise_sigma=0.5, seed=11)
    rng = np.random.default_rng(11)
    fractions, temps = [], []
    for i in range(60):
        scaled = SceneParams(seed=11, tree_density=params.tree_density * rng.uniform(0.02, 1.0))
        truth = generate_scene(scaled, i)
        fractions.append(truth.true_veg_fraction)
        temps.append(scene_temperature(law, truth.true_veg_fraction, i))
    fractions, temps = np.array(fractions), np.array(temps)
    assert np.corrcoef(fractions, temps)[0, 1] < -0.8
    fit = ols_fit(fractions, temps)
    assert fit.a == pytest.approx(-law.k_veg, rel=0.15)


def test_rasterized_scene_matches_truth_fraction():
    params = SceneParams(seed=13, tree_density=0.04)
    truth = generate_scene(params, 3)
    stack = rasterize(truth.cloud, params.grid)
    v_est = vegetation_fraction(segment(stack.channels, LabelRules()))
    assert abs(v_est - truth.true_veg_fraction) <= 0.15
