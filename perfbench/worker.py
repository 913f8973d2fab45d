"""One benchmark process: set up a workload, or run one timed pass.

Started by run.py as `python3 perfbench/worker.py '<json spec>'` with the
checkout's `src` on PYTHONPATH and the BLAS thread count already set. It
prints one JSON object as its last stdout line. Each pass is checked by
the correctness gate here, where the program's outputs are in memory.

Every pass runs in a fresh process, as each `lcz` command does, so every
pass pays the same first-use costs (page faults of a fresh heap) and its
peak RSS is its own.

Spec keys: mode ("setup" or "pass"), workload, seed, scale ("full" or
"tiny"), trace, dir (the run directory), spans (span file path, traced runs
only), run_id, spawned (time.monotonic() at spawn).
"""

from __future__ import annotations

import json
import sys
import time

SPEC = json.loads(sys.argv[1]) if __name__ == "__main__" else None

import hashlib  # noqa: E402  (timed from spawn: these imports count as set-up)
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from lczkit import pipeline as pl  # noqa: E402
from lczkit.config import RunConfig  # noqa: E402
from lczkit.io import read_manifest  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

READY = time.monotonic()

OUTPUT_FILES = ("fractions.csv", "figure.csv")


def make_config(spec) -> RunConfig:
    values = dict(WORKLOADS[spec["workload"]]["config"])
    if spec["scale"] == "tiny":
        values.update(TINY)
    values["seed"] = spec["seed"]
    return RunConfig.from_file(None, values)


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_digests(out: str) -> dict:
    return {name: digest(os.path.join(out, name)) for name in OUTPUT_FILES}


def corpus_temps(out: str, split: str) -> list:
    return [t for _, _, t in read_manifest(os.path.join(out, pl.CORPUS_DIR, split)).entries]


def pairs_planned(cfg: RunConfig, out: str) -> int:
    n_test = len(corpus_temps(out, "test.csv"))
    return min(cfg["perturb.n_scenes"], n_test) * len(cfg.dt_sweep())


def all_finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def mae_bound(out: str) -> float:
    """Criterion 8: held-out MAE at most 10% of the corpus temperature range."""
    temps = corpus_temps(out, "manifest.csv")
    return 0.1 * (max(temps) - min(temps))


def gate(batch, bundle, planned: int) -> dict:
    """Checks on one pass's outputs; every value must be True."""
    scenes = batch.scenes
    fit = bundle.fit
    return {
        "reject_h0_negative_slope": bool(bundle.decision.reject_h0 and fit.a < 0),
        "finite": all_finite(
            [fit.a, fit.b, fit.p_a, *fit.ci_a, *fit.ci_b],
            [v for _, v in bundle.aggregated],
            [cf.achieved_dt for cf in scenes],
            *(a for cf in scenes
              for a in (cf.original, cf.reconstruction, cf.counterfactual, cf.delta_c))),
        "all_pairs_accounted": len(scenes) + len(batch.failures) == planned,
    }


def chain_pass(cfg, out):
    result = pl.run_pipeline(cfg, out)
    return result.batch, result.bundle, result


def restage_pass(cfg, out):
    batch = pl.run_perturb(cfg, out)
    pl.run_label(cfg, out)
    return batch, pl.run_analyze(cfg, out), None


def one_pass(spec, cfg) -> dict:
    """Time one pass and gate its outputs."""
    kind, out = WORKLOADS[spec["workload"]]["kind"], spec["dir"]
    # Every pass starts from the same files: a pass that creates its outputs
    # costs more than one that overwrites them.
    if kind == "chain":
        shutil.rmtree(out, ignore_errors=True)
    else:
        shutil.rmtree(os.path.join(out, pl.CF_DIR), ignore_errors=True)
        for name in (*OUTPUT_FILES, "report.txt"):
            if os.path.exists(os.path.join(out, name)):
                os.remove(os.path.join(out, name))
    start, cpu = time.perf_counter(), time.process_time()
    batch, bundle, result = (chain_pass if kind == "chain" else restage_pass)(cfg, out)
    run_s, cpu = time.perf_counter() - start, time.process_time() - cpu
    rss_mb = peak_rss_mb()  # before the untimed checks below allocate
    planned = pairs_planned(cfg, out)
    checks = gate(batch, bundle, planned)
    rec = {"run_s": run_s, "cpu_s": cpu, "peak_rss_mb": rss_mb,
           "pairs": planned, "ok_pairs": len(batch.scenes),
           "dt_abs_err_k": float(np.mean([abs(cf.achieved_dt - cf.requested_dt)
                                          for cf in batch.scenes])),
           "slope": bundle.fit.a, "p": bundle.fit.p_a,
           "digests": output_digests(out), "gate": checks}
    if kind == "chain":
        mae, bound = result.reg_report.mae, mae_bound(out)
        rec["holdout_mae_k"] = mae
        # Criterion 8 is an accuracy target the acceptance suite fixes at
        # seed 0; at other seeds it is reported, not gated (see README).
        rec["criterion_8"] = {"mae_k": mae, "bound_k": bound,
                              "holds": bool(math.isfinite(mae) and mae <= bound)}
        checks["holdout_mae_finite"] = math.isfinite(mae)
        if not spec["trace"]:
            # One chain pass per run: check byte-identity by re-running the
            # untrained stages from the same in-memory models (untimed).
            rerun = pl.run_perturb(cfg, out, result.vae_model, result.norm, result.reg_model)
            records = pl.run_label(cfg, out, rerun, result.norm)
            pl.run_analyze(cfg, out, records, n_excluded=len(rerun.failures))
            checks["rerun_byte_identical"] = output_digests(out) == rec["digests"]
    return rec


def run_setup(spec, cfg) -> dict:
    """Restage set-up: synth and train the models every pass reuses."""
    out = spec["dir"]
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    pl.write_run_manifest(cfg, out)
    pl.run_synth(cfg, out)
    vae_model, norm, _ = pl.run_train_vae(cfg, out)
    _, report = pl.run_train_reg(cfg, out, vae_model, norm)
    prep_s = time.perf_counter() - start
    models = os.path.join(out, pl.MODEL_DIR)
    return {"prep_s": prep_s, "holdout_mae_k": report.mae,
            "models": {name: digest(os.path.join(models, name))
                       for name in sorted(os.listdir(models))}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(spec) -> dict:
    reply = {"ready_s": READY - spec["spawned"], "env": environment()}
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer(spec["run_id"])
        reply["wrapped"] = spans.install(tracer)
    cfg = make_config(spec)
    needs_prep = spec["mode"] == "setup" and WORKLOADS[spec["workload"]]["kind"] == "restage"
    try:
        if needs_prep:
            reply.update(run_setup(spec, cfg))
        elif spec["mode"] == "pass":
            reply["pass"] = one_pass(spec, cfg)
    except Exception:  # reported to the harness, which counts the pairs as failed
        reply["error"] = traceback.format_exc()
        try:
            reply["error_pairs"] = pairs_planned(cfg, spec["dir"])
        except OSError:  # failed before the corpus was written
            reply["error_pairs"] = 1
    if tracer is not None:
        tracer.dump(spec["spans"], spec["mode"])
        reply["span_cost_ns"] = spans.span_cost_ns()
    return reply


if __name__ == "__main__":
    print(json.dumps(main(SPEC)))
