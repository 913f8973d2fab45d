#!/usr/bin/env python3
"""Run the whole chain over a grid of config values at several master
seeds, and tabulate each run's verdict.

For each master seed and each cell of the grid (the product of the
`--grid key=v1,v2,...` value lists, in the order given), the chain runs
into a throwaway directory, on the defaults or on `--config FILE` with the
cell's values set. A run chains the pipeline's stage functions in
`run_pipeline`'s order, with its in-memory hand-offs, but trains a VAE
only if no earlier run of the same seed trained one on the same VAE config
and the same training-split channels; otherwise it takes that VAE and its
norm stats in memory. Each run adds one row to the CSV table at `--out`:
the seed and the cell's values, then

  slope      the OLS slope a of mean v' on delta_t (1/K)
  rho        -a * synth.k_veg, the share of the planted slope recovered;
             0 under the null law (k_veg 0) whatever a is, and it moves
             with k_veg by construction (ROADMAP "Measured"), so compare
             slope, not rho, across laws
  p          the slope's two-sided OLS p
  reject_h0  1 if the report rejects H0 (p < 0.05 and a < 0), else 0
  mae_k      the regressor's held-out MAE (K)
  mae_pct    that MAE as a % of the corpus's temperature range
  crit8      1 if mae_pct <= 10 (acceptance criterion 8), else 0
  failed     the perturbation pairs that failed, which the verdict omits
  wall_s     the run's wall seconds, VAE training only if the run trained

Every cell's config is built before any run, and a value or `--config`
file it cannot be built from is refused (exit 2). The table is rewritten
after every run. A (seed, cell) that it already holds is not run again,
so a cut sweep resumes where it stopped, and a table gains rows from
another grid over the same keys. A run that ends in an LczError prints
one line naming its seed, cell and error, adds no row and does not stop
the sweep; the exit status is then 1.

Usage:
    python3 scripts/sweep.py --seeds 0-9 --grid synth.k_veg=8,4 \\
        --grid vae.epochs=20,15,14,13,12,10 --out sweeps/vae_epochs_full_batch.csv
"""

import argparse
import hashlib
import itertools
import os
import sys
import tempfile
import time

from lczkit import pipeline as pl
from lczkit.config import DEFAULTS, RunConfig
from lczkit.errors import LczError
from lczkit.io import read_table, write_table

RESULTS = (("slope", float), ("rho", float), ("p", float), ("reject_h0", int),
           ("mae_k", float), ("mae_pct", float), ("crit8", int), ("failed", int),
           ("wall_s", float))


def parse_seeds(text):
    """'0-9' or '0,3,5-7' -> [0, ..., 9] or [0, 3, 5, 6, 7]; ValueError at
    an empty or descending range."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        lo, hi = int(lo), int(hi if dash else lo)
        if hi < lo:
            raise ValueError(f"bad --seeds range {part!r}: it runs from {lo} down to {hi}")
        seeds += range(lo, hi + 1)
    return seeds


def parse_grid(specs):
    """['k=v1,v2', ...] -> [(k, ['v1', 'v2']), ...], each key once."""
    grid = []
    for spec in specs:
        key, _, values = spec.partition("=")
        if key not in DEFAULTS or key == "seed" or key in dict(grid) or not values:
            raise ValueError(f"bad --grid {spec!r}: needs key=v1,v2,... with a config "
                             "key other than seed, each key once")
        grid.append((key, values.split(",")))
    return grid


def run_row(cfg, trained):
    """The results of one chain on cfg, in RESULTS order. trained maps
    (VAE config, training-split channels digest) to the (vae, norm) of a
    VAE already trained on them; a VAE this run trains is added to it."""
    with tempfile.TemporaryDirectory(prefix="lcz-sweep-") as out:
        t0 = time.perf_counter()
        pl.write_run_manifest(cfg, out)
        corpus = pl.run_synth(cfg, out)
        # The inputs run_train_vae reads; VaeConfig is unhashable, its repr is not.
        key = (repr(cfg.vae_config()), hashlib.sha256(pl.load_split(out, "train")[1]).digest())
        if key not in trained:
            trained[key] = pl.run_train_vae(cfg, out)[:2]
        vae_model, norm = trained[key]
        reg_model, reg_report = pl.run_train_reg(cfg, out, vae_model, norm)
        batch = pl.run_perturb(cfg, out, vae_model, norm, reg_model)
        records = pl.run_label(cfg, out, batch, norm)
        bundle = pl.run_analyze(cfg, out, records, n_excluded=len(batch.failures))
        wall = time.perf_counter() - t0
    fit = bundle.fit
    temps = [t for _, _, t in corpus.entries]
    mae = reg_report.mae
    mae_pct = 100.0 * mae / (max(temps) - min(temps))
    return (fit.a, -fit.a * cfg["synth.k_veg"], fit.p_a, int(bundle.decision.reject_h0),
            mae, mae_pct, int(mae_pct <= 10.0), len(batch.failures), wall)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="master seeds, e.g. 0-9 or 0,3,5-7")
    parser.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2,...")
    parser.add_argument("--config", help="key=value file the grid's values are set on")
    parser.add_argument("--out", required=True, help="the CSV table to write or extend")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
        grid = parse_grid(args.grid)
    except ValueError as exc:
        parser.error(str(exc))

    keys = [key for key, _ in grid]
    runs = []
    for seed, cell in itertools.product(seeds, itertools.product(*(v for _, v in grid))):
        given = {"seed": str(seed), **dict(zip(keys, cell))}
        try:
            runs.append(RunConfig.from_file(args.config, given))
        except OSError as exc:
            parser.error(f"--config: {exc}")
        except LczError as exc:
            parser.error(" ".join(f"{k}={v}" for k, v in given.items()) + f": {exc}")

    schema = (("seed", int), *((key, type(DEFAULTS[key])) for key in keys), *RESULTS)
    failed = 0
    try:
        rows = read_table(args.out, schema) if os.path.exists(args.out) else []
        done = {row[:1 + len(keys)] for row in rows}
        for _, seed_runs in itertools.groupby(runs, lambda cfg: cfg["seed"]):
            trained = {}  # the VAEs this seed's runs trained, for its later runs
            for cfg in seed_runs:
                head = (cfg["seed"], *(cfg[key] for key in keys))
                if head in done:
                    continue
                done.add(head)
                cell_text = " ".join(f"{k}={v}" for k, v in zip(("seed", *keys), head))
                try:
                    results = run_row(cfg, trained)
                except LczError as exc:
                    failed += 1
                    print(f"sweep: {cell_text}: {exc}", file=sys.stderr, flush=True)
                    continue
                rows.append(head + results)
                write_table(args.out, schema, rows)
                slope, rho, p, reject, _, mae_pct, _, failures, wall = results
                print(f"{cell_text}: slope {slope:.6g} rho {rho:.3f} p {p:.3g} "
                      f"reject {reject} MAE {mae_pct:.2f}% failed {failures} {wall:.1f} s",
                      flush=True)
    except LczError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
