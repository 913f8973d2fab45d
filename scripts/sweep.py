#!/usr/bin/env python3
"""Run the whole chain over a grid of config values at several master
seeds, and tabulate each run's verdict.

For each master seed and each cell of the grid (the product of the
`--grid key=v1,v2,...` value lists, in the order given), `run_pipeline`
runs into a throwaway directory, on the defaults or on `--config FILE`
with the cell's values set. Each run adds one row to the CSV table at
`--out`: the seed and the cell's values, then

  slope      the OLS slope a of mean v' on delta_t (1/K)
  rho        -a * synth.k_veg, the share of the planted slope recovered
  p          the slope's two-sided OLS p
  reject_h0  1 if the report rejects H0 (p < 0.05 and a < 0), else 0
  mae_k      the regressor's held-out MAE (K)
  mae_pct    that MAE as a % of the corpus's temperature range
  crit8      1 if mae_pct <= 10 (acceptance criterion 8), else 0
  failed     the perturbation pairs that failed, which the verdict omits
  wall_s     the run's wall seconds

The table is rewritten after every run. A (seed, cell) that it already
holds is not run again, so a cut sweep resumes where it stopped, and a
table gains rows from another grid over the same keys. A run that ends in
an LczError prints one line naming its seed, cell and error, adds no row
and does not stop the sweep; the exit status is then 1.

Usage:
    python3 scripts/sweep.py --seeds 0-9 --grid synth.k_veg=8,4 \\
        --grid vae.epochs=40,30,20,15,10 --out sweeps/vae_epochs.csv
"""

import argparse
import itertools
import os
import sys
import tempfile
import time

from lczkit.config import DEFAULTS, RunConfig
from lczkit.errors import LczError
from lczkit.io import read_table, write_table
from lczkit.pipeline import run_pipeline

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


def run_row(cfg):
    """The results of one chain on cfg, in RESULTS order."""
    with tempfile.TemporaryDirectory(prefix="lcz-sweep-") as out:
        t0 = time.perf_counter()
        result = run_pipeline(cfg, out)
        wall = time.perf_counter() - t0
    fit = result.bundle.fit
    temps = [t for _, _, t in result.corpus.entries]
    mae = result.reg_report.mae
    mae_pct = 100.0 * mae / (max(temps) - min(temps))
    return (fit.a, -fit.a * cfg["synth.k_veg"], fit.p_a, int(result.bundle.decision.reject_h0),
            mae, mae_pct, int(mae_pct <= 10.0), len(result.batch.failures), wall)


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
    schema = (("seed", int), *((key, type(DEFAULTS[key])) for key in keys), *RESULTS)
    failed = 0
    try:
        rows = read_table(args.out, schema) if os.path.exists(args.out) else []
        done = {row[:1 + len(keys)] for row in rows}
        for seed, cell in itertools.product(seeds, itertools.product(*(v for _, v in grid))):
            cfg = RunConfig.from_file(args.config, {"seed": str(seed), **dict(zip(keys, cell))})
            head = (seed, *(cfg[key] for key in keys))
            if head in done:
                continue
            done.add(head)
            cell_text = " ".join(f"{k}={v}" for k, v in zip(("seed", *keys), head))
            try:
                results = run_row(cfg)
            except LczError as exc:
                failed += 1
                print(f"sweep: {cell_text}: {exc}", file=sys.stderr, flush=True)
                continue
            rows.append(head + results)
            write_table(args.out, schema, rows)
            slope, rho, p, reject, _, mae_pct, _, failures, wall = results
            print(f"{cell_text}: slope {slope:.6g} rho {rho:.3f} p {p:.3g} reject {reject} "
                  f"MAE {mae_pct:.2f}% failed {failures} {wall:.1f} s", flush=True)
    except LczError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
