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

from . import analysis, autogeolabel, perturb, rasterizer, regressor, report, synthcity, vae
from .autodiff import Tensor, check_gradient
from .config import RunConfig
from .errors import FormatError, ParseError, UsageError, ValidationError
from .io import (CF_FAILURES, CF_INDEX, FRACTIONS, layout_arrays, load_model, read_manifest,
                 read_table, save_model, write_table, write_text)
from .rasterizer import N_CHANNELS, NormStats, load_stack

MODEL_DIR = "models"
CORPUS_DIR = "corpus"
CF_DIR = "counterfactuals"


def write_run_manifest(cfg: RunConfig, out_dir: str) -> None:
    write_text(os.path.join(out_dir, "run_config.txt"), cfg.resolved_text())


def run_synth(cfg: RunConfig, out_dir: str) -> synthcity.CorpusResult:
    return synthcity.generate_corpus(
        cfg["synth.n_scenes"], cfg.scene_params(), cfg.temperature_law(),
        cfg["seed"], os.path.join(out_dir, CORPUS_DIR),
    )


def load_split(out_dir: str, which: str, n=None):
    """The first n scenes (all by default) of one split manifest: (ids,
    channels, temps), the channels one (N, 13, H, W) array. A stack whose
    grid is not the first stack's is a FormatError naming its file."""
    corpus_dir = os.path.join(out_dir, CORPUS_DIR)
    entries = read_manifest(os.path.join(corpus_dir, f"{which}.csv")).entries[:n]
    channels = np.empty((0, N_CHANNELS, 0, 0))
    for i, (_, rpath, _) in enumerate(entries):
        path = os.path.join(corpus_dir, rpath)
        scene = load_stack(path).channels
        if i == 0:
            channels = np.empty((len(entries), *scene.shape))
        elif scene.shape != channels.shape[1:]:
            raise FormatError(f"{path}: grid {scene.shape[1:]} is not the split's "
                              f"{channels.shape[2:]}")
        channels[i] = scene
    return [sid for sid, _, _ in entries], channels, np.array([t for _, _, t in entries])


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
    codes = vae.encode_mean(vae_model, rasterizer.normalize(channels, norm))
    model, err_report = regressor.train_regressor(codes, train_temps, cfg.reg_config())
    save_model(regressor.regressor_tensors(model), os.path.join(out_dir, MODEL_DIR, "reg.lczm"))
    return model, err_report


def run_perturb(cfg: RunConfig, out_dir: str, vae_model=None, norm=None, reg_model=None):
    """Sweep the first perturb.n_scenes held-out scenes; persist
    counterfactual tensors, index and failures."""
    if vae_model is None:
        vae_model, norm, reg_model = load_models(out_dir, "vae", "norm", "reg")
    test_ids, channels, _ = load_split(out_dir, "test", cfg["perturb.n_scenes"])
    result = perturb.batch_perturb(vae_model, reg_model, rasterizer.normalize(channels, norm),
                                   cfg.dt_sweep(), test_ids, steps=cfg["perturb.steps"])
    _write_batch(result, out_dir)
    return result


def _write_batch(batch: perturb.BatchResult, out_dir: str) -> None:
    """One LCZM file per scene: its original once, then its counterfactuals
    stacked along a slot axis, written from its rows of the batch's decoded
    array. index.csv maps each (scene, delta_t) pair to its file and slot,
    slots 0..K-1 in order; failures.csv lists the pairs that failed."""
    index = []
    for i, (group, rows) in enumerate(batch.by_scene()):
        rel = f"cf_{i:05d}.lczm"
        save_model([("cf/original", group[0].original), ("cf/counterfactual", rows)],
                   os.path.join(out_dir, CF_DIR, rel))
        index += [(cf.scene_id, cf.requested_dt, cf.achieved_dt, rel, slot)
                  for slot, cf in enumerate(group)]
    write_table(os.path.join(out_dir, CF_DIR, "index.csv"), CF_INDEX, index)
    write_table(os.path.join(out_dir, CF_DIR, "failures.csv"), CF_FAILURES, batch.failures)


def _scene_records(scene_ids, cfs, pairs, norm: NormStats, rules) -> list:
    """The ExperimentRecords of one scene's K pairs: cfs holds its K
    normalized counterfactuals as a (K, 13, H, W) array; only the channels
    segment reads are de-normalized, into one (K, 3, H, W) array. scene_ids
    and pairs are the K pairs' ids and (requested, achieved) delta_t; the
    delta_t = 0 pair, the scene's reconstruction, gives the baseline."""
    fractions = autogeolabel.vegetation_fraction(
        autogeolabel.segment(autogeolabel.label_channels(cfs, norm), rules))
    baseline = float(fractions[[dt for dt, _ in pairs].index(0.0)])
    return [report.ExperimentRecord(scene_id=sid, delta_t=dt, achieved_dt=adt,
                                    v_prime=float(v), v_baseline=baseline)
            for sid, (dt, adt), v in zip(scene_ids, pairs, fractions)]


def _batch_scenes(batch: perturb.BatchResult):
    """Per scene of an in-memory batch, the arguments of _scene_records."""
    for group, rows in batch.by_scene():
        yield ([cf.scene_id for cf in group], rows,
               [(cf.requested_dt, cf.achieved_dt) for cf in group])


def _cf_arrays(tensors) -> list:
    """A cf file's original (13, H, W) and counterfactuals (K, 13, H, W);
    the file sets H, W and K."""
    by_name = dict(tensors)
    scene = (rasterizer.N_CHANNELS, *np.shape(by_name.get("cf/original"))[-2:])
    k = (np.shape(by_name.get("cf/counterfactual")) or (-1,))[0]
    return layout_arrays(tensors, [("cf/original", scene), ("cf/counterfactual", (k, *scene))])


def _file_scenes(out_dir: str):
    """Per counterfactuals file, in index.csv order, the arguments of
    _scene_records; one file is in memory at a time. A file's index rows
    list its K slots 0..K-1, in order, as _write_batch writes them."""
    index = os.path.join(out_dir, CF_DIR, "index.csv")
    rows = enumerate(read_table(index, CF_INDEX), start=2)
    for rel, group in itertools.groupby(rows, lambda row: row[1][3]):
        lines, entries = zip(*group)
        scene_ids, dts, achieved, _, slots = zip(*entries)
        _, cfs = load_model(os.path.join(out_dir, CF_DIR, rel), _cf_arrays)
        if slots != tuple(range(len(cfs))):
            # name the first row off that order or, for a subset, the last row
            j = next((j for j, slot in enumerate(slots) if slot != j or j >= len(cfs)), -1)
            raise ParseError(f"the rows of {rel} must list its slots 0..{len(cfs) - 1} "
                             f"once each, in order", line=lines[j], path=index)
        zeros = [line for line, dt in zip(lines, dts) if dt == 0.0]
        if len(zeros) != 1:  # the scene's baseline
            raise ParseError(f"{rel} has {len(zeros)} delta_t = 0 rows, not 1",
                             line=zeros[1] if len(zeros) > 1 else None, path=index)
        yield scene_ids, cfs, list(zip(dts, achieved))


def run_label(cfg: RunConfig, out_dir: str, batch=None, norm=None) -> list:
    """Label every pair of the in-memory batch or, without one, of the
    counterfactuals files, one scene at a time; write fractions.csv."""
    if batch is None:
        (norm,) = load_models(out_dir, "norm")
    scenes = _file_scenes(out_dir) if batch is None else _batch_scenes(batch)
    rules = cfg.label_rules()
    records = [record for scene in scenes for record in _scene_records(*scene, norm, rules)]
    write_table(os.path.join(out_dir, "fractions.csv"), FRACTIONS,
                [(r.scene_id, r.delta_t, r.achieved_dt, r.v_prime, r.v_baseline)
                 for r in records])
    return records


def run_analyze(cfg: RunConfig, out_dir: str, records=None, n_excluded=0) -> report.ReportBundle:
    """Without in-memory records, read fractions.csv and count the failed
    pairs in counterfactuals/failures.csv."""
    if records is None:
        path = os.path.join(out_dir, "fractions.csv")
        try:
            records = [report.ExperimentRecord(*row) for row in read_table(path, FRACTIONS)]
            report.check_sweep(r.delta_t for r in records)
        except UsageError as exc:  # a value that parses but breaks a rule
            raise ValidationError(str(exc), path=path) from None
        n_excluded = len(read_table(os.path.join(out_dir, CF_DIR, "failures.csv"), CF_FAILURES))
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

    grad_err = max(
        check_gradient(net, rng.standard_normal(6), h=1e-5) for _ in range(10)
    )
    return {"eq_dot_rel_err": max_dot_err, "eq_cos_err": max_cos_err,
            "grad_max_rel_err": grad_err}
