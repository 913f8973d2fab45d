"""The benchmark worker's calls into the package, run in-process at the
self-test size, so that a change to a pipeline signature the benchmark
uses fails here."""

import os
import time

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import worker

    return worker


def _main(worker, mode, workload, out):
    reply = worker.main({"mode": mode, "workload": workload, "seed": 0, "scale": "tiny",
                         "trace": 0, "dir": str(out), "run_id": f"{workload}-{mode}",
                         "spawned": time.monotonic()})
    assert "error" not in reply, reply["error"]
    return reply


def test_default_chain_pass_meets_the_gate(worker, tmp_path):
    gate = _main(worker, "pass", "default-chain", tmp_path / "chain")["pass"]["gate"]
    # reject_h0_negative_slope is left out: the self-test size trains too little.
    for check in ("finite", "all_pairs_accounted", "holdout_mae_finite", "rerun_byte_identical"):
        assert gate[check] is True, check


def test_restage_sweep_setup_and_pass_meet_the_gate(worker, tmp_path):
    out = tmp_path / "restage"
    setup = _main(worker, "setup", "restage-sweep", out)
    assert set(setup["models"]) >= {"norm.lczm", "vae.lczm", "reg.lczm"}
    gate = _main(worker, "pass", "restage-sweep", out)["pass"]["gate"]
    for check in ("finite", "all_pairs_accounted"):
        assert gate[check] is True, check
