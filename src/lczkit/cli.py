"""Single orchestration binary: one subcommand per pipeline stage plus
`pipeline` (full chain) and `check` (numeric self-test).

Exit codes: 0 success, 1 usage error or unusable path (OSError), 2 data/numeric
error or malformed file. Any RunConfig key can be overridden on the
command line with --<key>=<value> dotted flags, e.g. --vae.latent_dim=64.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import pipeline as pl
from . import rasterizer
from .config import DEFAULTS, RunConfig
from .errors import DataError, LczError, UsageError
from .io import parse_point_cloud, text_lines

SUBCOMMANDS = ("synth", "rasterize", "train-vae", "train-reg", "perturb",
               "label", "analyze", "pipeline", "check")

_FLAG_ALIASES = {"dt-sweep": "perturb.dt_sweep"}


def _split_overrides(extra):
    overrides = {}
    for token in extra:
        if not token.startswith("--") or "=" not in token:
            raise UsageError(f"unknown flag {token!r}")
        key, _, value = token[2:].partition("=")
        key = _FLAG_ALIASES.get(key, key)
        if key not in DEFAULTS:
            raise UsageError(f"unknown config key {key!r} (from flag {token!r})")
        overrides[key] = value
    return overrides


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad built-in flag is a usage error like any other
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="lcz", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", default="run", help="run directory")
    parser.add_argument("--input", default=None, help="input file (rasterize)")
    parser.add_argument("--output", default=None, help="output file (rasterize)")
    return parser


def run(argv) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    overrides = _split_overrides(extra)
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = RunConfig.from_file(args.config, overrides)
    out = args.out

    if args.subcommand == "check":
        errors = pl.run_check(cfg["seed"])
        for name, value in errors.items():
            print(f"{name} = {value:.3e}")
        ok = (errors["grad_max_rel_err"] <= 1e-5 and errors["eq_dot_rel_err"] <= 1e-9
              and errors["eq_cos_err"] <= 1e-9)
        print("check:", "OK" if ok else "FAILED")
        if not ok:
            raise DataError("numeric self-check failed")
        return 0

    if args.subcommand == "rasterize":
        if not args.input or not args.output:
            raise UsageError("rasterize needs --input and --output")
        cloud = parse_point_cloud(text_lines(args.input), path=args.input)
        stack = rasterizer.rasterize(cloud, cfg.grid_spec())
        rasterizer.save_stack(stack.channels, args.output)
        print(f"rasterized {len(cloud)} points -> {args.output} "
              f"({stack.n_outside} outside extent)")
        return 0

    if args.subcommand != "pipeline":  # run_pipeline writes its own
        pl.write_run_manifest(cfg, out)
    if args.subcommand == "synth":
        corpus = pl.run_synth(cfg, out)
        print(f"wrote {len(corpus.entries)} scenes "
              f"({len(corpus.train_ids)} train / {len(corpus.test_ids)} test) under {out}")
    elif args.subcommand == "train-vae":
        _, _, history = pl.run_train_vae(cfg, out)
        print(f"vae trained, {len(history)} epochs, "
              f"loss {history[0]:.4f} -> {history[-1]:.4f}")
    elif args.subcommand == "train-reg":
        _, rep = pl.run_train_reg(cfg, out)
        print(f"regressor trained: holdout MAE {rep.mae:.3f} K, "
              f"signed error ({rep.err_min:+.3f} K, {rep.err_max:+.3f} K) "
              f"on {rep.n_holdout} scenes")
    elif args.subcommand == "perturb":
        batch = pl.run_perturb(cfg, out)
        kinds = Counter(kind for _, _, kind, _ in batch.failures)
        failed = ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items())) or "none"
        print(f"{len(batch.scenes)} counterfactuals written; failed pairs: {failed}")
    elif args.subcommand == "label":
        records = pl.run_label(cfg, out)
        print(f"labeled {len(records)} counterfactuals -> fractions.csv")
    elif args.subcommand == "analyze":
        bundle = pl.run_analyze(cfg, out)
        print(bundle.summary)
    elif args.subcommand == "pipeline":
        result = pl.run_pipeline(cfg, out)
        print(result.bundle.summary)
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing input, or an --out or --input of the wrong kind
        print(f"usage error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1
    except LczError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
