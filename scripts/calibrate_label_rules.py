#!/usr/bin/env python3
"""Calibrate the rule-based labeling thresholds against the synthetic
generator's ground-truth masks.

Sweeps the vegetation thresholds (z_std minimum, multi-return-fraction
minimum) and the building thresholds (height minimum, z_std maximum) over
a grid of candidate values, scores each candidate on cell-level accuracy
and on the per-scene vegetation-fraction error, and prints the winners.
The shipped thresholds were frozen from a run of this script; re-run it
after changing the scene generator. The `labels.*` keys of
`lczkit.config.DEFAULTS` read the `lczkit.autogeolabel.LabelRules`
defaults, so adopting new thresholds means editing those defaults only;
to try them on one run, pass `--labels.<name>=<value>` flags instead.

Usage:
    python3 scripts/calibrate_label_rules.py [--scenes N] [--seed S]
"""

import argparse
import sys

import numpy as np

from lczkit.autogeolabel import BUILDING, VEGETATION, LabelRules, segment, vegetation_fraction
from lczkit.errors import UsageError
from lczkit.rasterizer import rasterize
from lczkit.synthcity import SceneParams, generate_scene

VEG_ZSTD_GRID = (0.3, 0.4, 0.5, 0.6, 0.8)
VEG_MULTIRET_GRID = (0.2, 0.3, 0.4, 0.5)
BLD_HEIGHT_GRID = (2.0, 3.0, 4.0)
BLD_ZSTD_GRID = (0.2, 0.3, 0.4)


def build_scenes(n_scenes, seed):
    rng = np.random.default_rng(seed)
    generator = SceneParams()  # the densities the generator draws scenes around
    scenes = []
    for i in range(n_scenes):
        params = SceneParams(
            seed=seed,
            tree_density=generator.tree_density * rng.uniform(0.02, 1.0),
            building_density=generator.building_density * rng.uniform(0.3, 1.0),
        )
        truth = generate_scene(params, i)
        scenes.append((rasterize(truth.cloud, params.grid), truth))
    return scenes


def score(scenes, rules):
    frac_errs, veg_cell_acc, bld_cell_acc = [], [], []
    for stack, truth in scenes:
        labels = segment(stack.channels, rules)
        frac_errs.append(abs(vegetation_fraction(labels) - truth.true_veg_fraction))
        veg_cell_acc.append(np.mean((labels == VEGETATION) == truth.veg_mask))
        bld_cell_acc.append(np.mean((labels == BUILDING) == truth.bld_mask))
    frac_errs = np.array(frac_errs)
    return {
        "mean_frac_err": float(frac_errs.mean()),
        "max_frac_err": float(frac_errs.max()),
        "hit_rate": float(np.mean(frac_errs <= 0.1)),
        "veg_cell_acc": float(np.mean(veg_cell_acc)),
        "bld_cell_acc": float(np.mean(bld_cell_acc)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenes", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(f"generating {args.scenes} calibration scenes (seed {args.seed}) ...")
    scenes = build_scenes(args.scenes, args.seed)

    # the frozen defaults win ties: a candidate must clearly beat them
    defaults = LabelRules()
    margin = 0.005

    print("\nvegetation thresholds "
          "(z_std_min, multiret_min) -> frac err / hit rate / cell acc")
    best_veg = (defaults.veg_zstd_min, defaults.veg_multiret_min)
    best_err = score(scenes, defaults)["mean_frac_err"]
    for zs in VEG_ZSTD_GRID:
        for mr in VEG_MULTIRET_GRID:
            try:
                rules = LabelRules(veg_zstd_min=zs, veg_multiret_min=mr)
            except UsageError:
                continue
            s = score(scenes, rules)
            marker = ""
            if s["mean_frac_err"] < best_err - margin:
                best_err, best_veg, marker = s["mean_frac_err"], (zs, mr), "  <-- new best"
            print(f"  ({zs:.1f}, {mr:.1f}): mean {s['mean_frac_err']:.3f}  "
                  f"max {s['max_frac_err']:.3f}  hits {100 * s['hit_rate']:.0f}%  "
                  f"cells {100 * s['veg_cell_acc']:.1f}%{marker}")

    zs, mr = best_veg
    print("\nbuilding thresholds (height_min, z_std_max) -> building cell acc")
    best_bld = (defaults.bld_height_min, defaults.bld_zstd_max)
    best_acc = score(scenes, LabelRules(veg_zstd_min=zs, veg_multiret_min=mr))["bld_cell_acc"]
    for bh in BLD_HEIGHT_GRID:
        for bz in BLD_ZSTD_GRID:
            try:
                rules = LabelRules(veg_zstd_min=zs, veg_multiret_min=mr,
                                   bld_height_min=bh, bld_zstd_max=bz)
            except UsageError:
                continue
            s = score(scenes, rules)
            marker = ""
            if s["bld_cell_acc"] > best_acc + margin:
                best_acc, best_bld, marker = s["bld_cell_acc"], (bh, bz), "  <-- new best"
            print(f"  ({bh:.1f}, {bz:.1f}): cells {100 * s['bld_cell_acc']:.2f}%{marker}")

    bh, bz = best_bld
    final = LabelRules(veg_zstd_min=zs, veg_multiret_min=mr,
                       bld_height_min=bh, bld_zstd_max=bz)
    s = score(scenes, final)
    print("\ncalibrated rules:")
    print(f"  veg_zstd_min      = {zs}")
    print(f"  veg_multiret_min  = {mr}")
    print(f"  bld_height_min    = {bh}")
    print(f"  bld_zstd_max      = {bz}")
    print(f"fraction error: mean {s['mean_frac_err']:.3f}, max {s['max_frac_err']:.3f}, "
          f"within 0.1 on {100 * s['hit_rate']:.0f}% of scenes")
    if (zs, mr, bh, bz) != (defaults.veg_zstd_min, defaults.veg_multiret_min,
                            defaults.bld_height_min, defaults.bld_zstd_max):
        print("\nNOTE: winner differs from the shipped defaults "
              f"({defaults}). To adopt it, update the LabelRules defaults in "
              "lczkit/autogeolabel.py; to try it on one run, pass "
              f"--labels.veg_zstd_min={zs} --labels.veg_multiret_min={mr} "
              f"--labels.bld_height_min={bh} --labels.bld_zstd_max={bz}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
