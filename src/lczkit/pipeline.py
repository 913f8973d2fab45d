"""Stage orchestration shared by the CLI and the acceptance suite.

Each run_* function reads/writes only the formats owned by the io module
and returns its in-memory artifacts so callers can chain stages without
re-reading from disk.
"""

from __future__ import annotations

import dataclasses
import itertools
import os

import numpy as np

from . import autogeolabel, perturb, rasterizer, regressor, report, synthcity, vae
from .autodiff import Tensor, check_gradient
from .config import RunConfig
from .errors import FormatError, ParseError, UsageError, ValidationError
from .io import (CF_FAILURES, CF_INDEX, FRACTIONS, load_model, load_row_blocks, read_manifest,
                 read_table, save_model, write_table, write_text)
from .rasterizer import N_CHANNELS, NormStats, load_stack

MODEL_DIR = "models"
CORPUS_DIR = "corpus"
CF_DIR = "counterfactuals"
CF_FILE = "cf.lczm"


def write_run_manifest(cfg: RunConfig, out_dir: str) -> None:
    write_text(os.path.join(out_dir, "run_config.txt"), cfg.resolved_text())


def run_synth(cfg: RunConfig, out_dir: str) -> synthcity.CorpusResult:
    return synthcity.generate_corpus(
        cfg["synth.n_scenes"], cfg.scene_params(), cfg.temperature_law(),
        cfg["seed"], os.path.join(out_dir, CORPUS_DIR),
    )


def load_split(out_dir: str, which: str, n=None):
    """The first n >= 1 scenes (all by default) of one split manifest: (ids,
    channels, temps), the channels one (N, 13, H, W) array. A manifest that
    lists no scene, or a stack whose grid is not the first stack's, is a
    FormatError naming its file."""
    corpus_dir = os.path.join(out_dir, CORPUS_DIR)
    manifest = os.path.join(corpus_dir, f"{which}.csv")
    entries = read_manifest(manifest).entries[:n]
    if not entries:
        raise FormatError(f"{manifest}: lists no scene")
    for i, (_, rpath, _) in enumerate(entries):
        path = os.path.join(corpus_dir, rpath)
        scene = load_stack(path)
        if i == 0:
            channels = np.empty((len(entries), *scene.shape))
        elif scene.shape != channels.shape[1:]:
            raise FormatError(f"{path}: grid {scene.shape[1:]} is not the split's "
                              f"{channels.shape[2:]}")
        channels[i] = scene
    return [sid for sid, _, _ in entries], channels, np.array([t for _, _, t in entries])


def _check_grid(out_dir: str, which: str, channels, vae_model) -> None:
    """A FormatError naming the split's manifest unless its stacks fit the models."""
    if channels.shape[1:] != vae_model.input_shape:
        raise FormatError(f"{os.path.join(out_dir, CORPUS_DIR, f'{which}.csv')}: the split's "
                          f"stacks are {channels.shape[1:]}, the models' {vae_model.input_shape}")


def run_train_vae(cfg: RunConfig, out_dir: str):
    """Compute norm stats on the training split, train, persist both."""
    _, channels, _ = load_split(out_dir, "train")
    norm = rasterizer.compute_norm_stats(channels)
    channels = rasterizer.normalize(channels, norm)  # only this copy is alive while training
    model, history = vae.train_vae(channels, cfg.vae_config())
    save_model(rasterizer.norm_stats_tensors(norm), os.path.join(out_dir, MODEL_DIR, "norm.lczm"))
    save_model(vae.vae_tensors(model), os.path.join(out_dir, MODEL_DIR, "vae.lczm"))
    return model, norm, history


def load_models(out_dir: str, *names) -> list:
    """The named models ("norm", "vae", "reg") from <out_dir>/models/<name>.lczm."""
    readers = {"norm": rasterizer.norm_stats_from_tensors, "vae": vae.vae_from_tensors,
               "reg": regressor.regressor_from_tensors}
    return [load_model(os.path.join(out_dir, MODEL_DIR, f"{name}.lczm"), readers[name])
            for name in names]


def run_train_reg(cfg: RunConfig, out_dir: str, vae_model=None, norm=None):
    if vae_model is None or norm is None:
        vae_model, norm = load_models(out_dir, "vae", "norm")
    _, channels, train_temps = load_split(out_dir, "train")
    _check_grid(out_dir, "train", channels, vae_model)
    codes = vae.encode(vae_model, rasterizer.normalize(channels, norm))
    model, err_report = regressor.train_regressor(codes, train_temps, cfg.reg_config())
    save_model(regressor.regressor_tensors(model), os.path.join(out_dir, MODEL_DIR, "reg.lczm"))
    return model, err_report


def run_perturb(cfg: RunConfig, out_dir: str, vae_model=None, norm=None, reg_model=None):
    """Sweep the first perturb.n_scenes held-out scenes. batch_perturb
    streams the decoded counterfactuals into cf.lczm and maps it back;
    index.csv and failures.csv are written after it. A regressor of another
    code size than the VAE's is a FormatError naming reg.lczm."""
    if vae_model is None:
        vae_model, norm, reg_model = load_models(out_dir, "vae", "norm", "reg")
    if reg_model.latent_dim != vae_model.latent_dim:
        raise FormatError(f"{os.path.join(out_dir, MODEL_DIR, 'reg.lczm')}: the regressor reads "
                          f"{reg_model.latent_dim}-dim codes, the VAE writes "
                          f"{vae_model.latent_dim}-dim ones")
    test_ids, channels, _ = load_split(out_dir, "test", cfg["perturb.n_scenes"])
    _check_grid(out_dir, "test", channels, vae_model)
    result = perturb.batch_perturb(vae_model, reg_model, rasterizer.normalize(channels, norm),
                                   cfg.dt_sweep(), test_ids, os.path.join(out_dir, CF_DIR, CF_FILE),
                                   steps=cfg["perturb.steps"])
    _write_batch(result, out_dir)
    return result


def _write_batch(batch: perturb.BatchResult, out_dir: str) -> None:
    """The tables beside the cf.lczm that batch_perturb wrote: row i of
    index.csv is the pair of the file's row i, and failures.csv lists the
    pairs that failed."""
    cf_dir = os.path.join(out_dir, CF_DIR)
    write_table(os.path.join(cf_dir, "index.csv"), CF_INDEX, index_rows(batch))
    write_table(os.path.join(cf_dir, "failures.csv"), CF_FAILURES, batch.failures)


def index_rows(batch: perturb.BatchResult) -> list:
    """index.csv's rows of a batch: its pairs, in the order of its decoded rows."""
    return [(cf.scene_id, cf.requested_dt, cf.achieved_dt) for cf in batch.scenes]


def _scene_sizes(rows, index) -> list:
    """The row counts of index.csv's scenes in turn. A ParseError names index
    and the line unless each scene's rows are consecutive and hold one
    delta_t = 0 row, its baseline."""
    sizes, seen = [], set()
    for sid, group in itertools.groupby(enumerate(rows, start=2), lambda item: item[1][0]):
        lines, group = zip(*group)
        zeros = [line for line, (_, dt, _) in zip(lines, group) if dt == 0.0]
        if sid in seen:
            raise ParseError(f"the rows of scene {sid!r} are not consecutive", line=lines[0],
                             path=index)
        if len(zeros) != 1:  # name the second such row, or the scene's first
            raise ParseError(f"scene {sid!r} has {len(zeros)} delta_t = 0 rows, not 1",
                             line=(zeros[1:] or lines)[0], path=index)
        seen.add(sid)
        sizes.append(len(lines))
    return sizes


def label_records(rows, blocks, norm: NormStats, rules) -> list:
    """The ExperimentRecords of rows (scene_id, delta_t, achieved_dt), from
    an iterable of (K, 13, H, W) blocks of their normalized counterfactuals
    taken in row order, one block at a time; only the channels segment reads
    are de-normalized, into one (K, 3, H, W) array."""
    fractions = itertools.chain.from_iterable(autogeolabel.vegetation_fraction(
        autogeolabel.segment(autogeolabel.label_channels(cfs, norm), rules)) for cfs in blocks)
    return [report.ExperimentRecord(sid, dt, adt, float(v))
            for (sid, dt, adt), v in zip(rows, fractions, strict=True)]


def run_label(cfg: RunConfig, out_dir: str, batch=None, norm=None) -> list:
    """Label every pair of the in-memory batch or, without one, of cf.lczm,
    whose row i is index.csv's row i, read one scene at a time; write
    fractions.csv."""
    index = os.path.join(out_dir, CF_DIR, "index.csv")
    if batch is None:
        rows, (norm,) = read_table(index, CF_INDEX), load_models(out_dir, "norm")
        blocks = load_row_blocks(os.path.join(out_dir, CF_DIR, CF_FILE), _scene_sizes(rows, index),
                                 [(perturb.CF_TENSOR, (len(rows), N_CHANNELS, "H", "W"))])
    else:
        rows, blocks = index_rows(batch), [batch.decoded]
    try:
        records = label_records(rows, blocks, norm, cfg.label_rules())
    except FormatError as exc:  # cf.lczm's, which holds a row per row of index.csv
        raise FormatError(f"{exc}, for the {len(rows)} rows of {index}") from None
    write_table(os.path.join(out_dir, "fractions.csv"), FRACTIONS,
                [(r.scene_id, r.delta_t, r.achieved_dt, r.v_prime) for r in records])
    return records


def run_analyze(cfg: RunConfig, out_dir: str, records=None, n_excluded=0) -> report.ReportBundle:
    """Without in-memory records, read fractions.csv and count the failed
    pairs in counterfactuals/failures.csv."""
    if records is None:
        path = os.path.join(out_dir, "fractions.csv")
        n_excluded = len(read_table(os.path.join(out_dir, CF_DIR, "failures.csv"), CF_FAILURES))
        try:
            bundle = report.build_report(
                [report.ExperimentRecord(*row) for row in read_table(path, FRACTIONS)], n_excluded)
        except UsageError as exc:  # a value that parses but breaks a rule
            raise ValidationError(str(exc), path=path) from None
    else:
        bundle = report.build_report(records, n_excluded=n_excluded)
    write_text(os.path.join(out_dir, "figure.csv"), bundle.figure_csv)
    write_text(os.path.join(out_dir, "report.txt"), bundle.summary)
    return bundle


@dataclasses.dataclass
class PipelineResult:
    corpus: synthcity.CorpusResult
    vae_model: object
    norm: NormStats
    reg_model: object
    reg_report: regressor.ErrorReport
    batch: perturb.BatchResult
    bundle: report.ReportBundle


def run_pipeline(cfg: RunConfig, out_dir: str) -> PipelineResult:
    """synth -> rasterize -> train-vae -> train-reg -> perturb -> label -> analyze."""
    write_run_manifest(cfg, out_dir)
    corpus = run_synth(cfg, out_dir)
    vae_model, norm, _ = run_train_vae(cfg, out_dir)
    reg_model, reg_report = run_train_reg(cfg, out_dir, vae_model, norm)
    batch = run_perturb(cfg, out_dir, vae_model, norm, reg_model)
    records = run_label(cfg, out_dir, batch, norm)
    bundle = run_analyze(cfg, out_dir, records, n_excluded=len(batch.failures))
    return PipelineResult(corpus, vae_model, norm, reg_model, reg_report, batch, bundle)


def run_check(seed: int = 0) -> dict:
    """Self-check: gradient-parallel step identities plus finite-difference
    validation of a small composed network. Returns the measured errors."""
    rng = np.random.default_rng(seed)
    max_dot_err = 0.0
    max_cos_err = 0.0
    for _ in range(1000):
        g = rng.standard_normal(64)
        dt = rng.uniform(-10.0, 10.0)
        step = perturb.delta_c(g, dt)
        max_dot_err = max(max_dot_err, abs(step @ g - dt) / max(1e-30, abs(dt)))
        if dt != 0.0:
            cos = abs(step @ g) / (np.linalg.norm(step) * np.linalg.norm(g))
            max_cos_err = max(max_cos_err, abs(cos - 1.0))

    from . import autodiff as ad

    w1 = rng.standard_normal((6, 5)) * 0.5
    b1 = rng.standard_normal(5) * 0.1
    w2 = rng.standard_normal((5, 1)) * 0.5

    def net(x):
        h = ad.tanh(ad.affine(ad.reshape(x, (1, 6)), Tensor(w1), Tensor(b1)))
        return ad.mean_all(ad.matmul(h, Tensor(w2)))

    grad_err = max(check_gradient(net, rng.standard_normal(6)) for _ in range(10))
    return {"eq_dot_rel_err": max_dot_err, "eq_cos_err": max_cos_err,
            "grad_max_rel_err": grad_err}
