import csv
import importlib.util
import math
import os

import pytest

from lczkit import pipeline, vae
from lczkit.config import DEFAULTS, RunConfig
from lczkit.errors import DataError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_label_rules_runs(capsys):
    assert _load("calibrate_label_rules").main(["--scenes", "3"]) == 0
    assert "calibrated rules:" in capsys.readouterr().out


def _tiny_config(tmp_path):
    """The sizes of perfbench's TINY set, with the grid setting vae.epochs."""
    config = tmp_path / "tiny.cfg"
    config.write_text("synth.n_scenes=60\nvae.hidden=32\nreg.epochs=20\nperturb.n_scenes=12\n")
    return config


def test_sweep_writes_one_row_per_cell_with_the_slope_of_its_run(tmp_path, monkeypatch,
                                                                 capsys):
    config = _tiny_config(tmp_path)
    table = tmp_path / "sweep.csv"
    sweep = _load("sweep")
    trainings = []
    train = vae.train_vae
    monkeypatch.setattr(vae, "train_vae", lambda *args: trainings.append(args) or train(*args))
    argv = ["--seeds", "0-1", "--grid", "vae.epochs=1,2", "--config", str(config),
            "--out", str(table)]
    assert sweep.main(argv) == 0
    assert len(trainings) == 4  # no VAE is reused across VAE settings
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["seed", "vae.epochs", "slope", "rho", "p", "reject_h0", "mae_k",
                             "mae_pct", "crit8", "failed", "wall_s"]
    assert [(r["seed"], r["vae.epochs"]) for r in rows] == [("0", "1"), ("0", "2"),
                                                            ("1", "1"), ("1", "2")]
    cfg = RunConfig.from_file(str(config), {"seed": "1", "vae.epochs": "2"})
    result = pipeline.run_pipeline(cfg, str(tmp_path / "run"))
    fit = result.bundle.fit
    assert float(rows[3]["slope"]) == fit.a
    assert int(rows[3]["failed"]) == len(result.batch.failures)
    assert float(rows[3]["rho"]) == -fit.a * 8.0 and float(rows[3]["p"]) == fit.p_a
    # A second call finds every cell in the table and runs none.
    before = table.read_bytes()
    capsys.readouterr()
    assert sweep.main(argv) == 0
    assert table.read_bytes() == before and capsys.readouterr().out == ""

    # The temperature law and the regressor move no training-split channel,
    # so each seed's four runs of this grid share one VAE, and every row is
    # the row of a fresh chain.
    config.write_text(config.read_text() + "vae.epochs=2\n")
    table = tmp_path / "sweep2.csv"
    trainings.clear()
    argv = ["--seeds", "0-1", "--grid", "synth.k_veg=8,0", "--grid", "reg.epochs=20,10",
            "--config", str(config), "--out", str(table)]
    assert sweep.main(argv) == 0
    assert len(trainings) == 2
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for i, row in enumerate(rows):
        cell = {key: row[key] for key in ("seed", "synth.k_veg", "reg.epochs")}
        result = pipeline.run_pipeline(RunConfig.from_file(str(config), cell),
                                       str(tmp_path / f"run{i}"))
        assert float(row["slope"]) == result.bundle.fit.a
        assert float(row["p"]) == result.bundle.fit.p_a
        assert float(row["mae_k"]) == result.reg_report.mae
        assert int(row["failed"]) == len(result.batch.failures)


def test_sweep_goes_on_past_a_failed_run_and_exits_one(tmp_path, monkeypatch, capsys):
    config = _tiny_config(tmp_path)
    table = tmp_path / "sweep.csv"
    sweep = _load("sweep")
    run = pipeline.run_perturb

    def failing_at_seed_one(cfg, out, *models):
        if cfg["seed"] == 1:
            raise DataError("batch_perturb: all 12 pairs failed; first: degenerate_gradient")
        return run(cfg, out, *models)

    monkeypatch.setattr(pipeline, "run_perturb", failing_at_seed_one)
    argv = ["--seeds", "0-2", "--grid", "vae.epochs=1", "--config", str(config),
            "--out", str(table)]
    assert sweep.main(argv) == 1
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["seed"], r["vae.epochs"]) for r in rows] == [("0", "1"), ("2", "1")]
    assert capsys.readouterr().err.splitlines() == [
        "sweep: seed=1 vae.epochs=1: batch_perturb: all 12 pairs failed; "
        "first: degenerate_gradient"]


@pytest.mark.parametrize("seeds", ["5-3", "0,2-1", "5-", ""])
def test_sweep_refuses_an_empty_or_descending_seed_range(tmp_path, capsys, seeds):
    table = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        _load("sweep").main(["--seeds", seeds, "--out", str(table)])
    assert exc.value.code == 2 and not table.exists()
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("grid, config, named", [
    ("vae.epochs=1,abc", "tiny.cfg", "'abc'"),
    ("vae.epochs=1,0", "tiny.cfg", "vae.epochs=0"),
    ("vae.epochs=1", "missing.cfg", "missing.cfg"),
    ("vae.epochs=1", "bad.cfg", "bad.cfg: line 5: expected key=value, got 'foo'"),
    ("synth.k_veg=8", "zero.cfg", "zero.cfg: line 5: vae.epochs must be at least 1"),
])
def test_sweep_refuses_a_bad_grid_value_or_config_file_before_any_run(tmp_path, capsys, grid,
                                                                      config, named):
    text = _tiny_config(tmp_path).read_text()
    (tmp_path / "bad.cfg").write_text(text + "foo\n")
    (tmp_path / "zero.cfg").write_text(text + "vae.epochs=0\n")
    table = tmp_path / "t.csv"
    argv = ["--seeds", "0", "--grid", grid, "--config", str(tmp_path / config),
            "--out", str(table)]
    with pytest.raises(SystemExit) as exc:
        _load("sweep").main(argv)
    assert exc.value.code == 2 and not table.exists()
    assert named in capsys.readouterr().err


def _sweep_rows(name):
    """{(seed, k_veg, swept value): row} of the committed table sweeps/<name>."""
    with open(os.path.join(ROOT, "sweeps", name), newline="") as fh:
        rows = list(csv.DictReader(fh))
    swept = list(rows[0])[2]
    return {(int(r["seed"]), float(r["synth.k_veg"]), int(r[swept])): r for r in rows}


def _rho_holds(rows, e, cells):
    """Rule parts (b) and (d): the mean rho of E over cells is no lower than
    E = 20's by more than one standard error of the paired differences."""
    diffs = [float(rows[(s, k, e)]["rho"]) - float(rows[(s, k, 20)]["rho"]) for s, k in cells]
    mean = sum(diffs) / len(diffs)
    sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1))
    return mean >= -sd / math.sqrt(len(diffs))


def test_the_default_vae_epochs_is_the_fewest_the_committed_sweep_supports():
    rows = _sweep_rows("vae_epochs_full_batch.csv")
    epochs = sorted({e for _, _, e in rows})
    cells20 = [(s, k) for s in range(10) for k in (8.0, 4.0)]
    cells30 = [(s, 8.0) for s in range(30)]
    planted = cells20 + cells30[10:]

    def passes(e):
        reject = all(rows[(s, k, e)]["failed"] == "0" and (rows[(s, k, e)]["reject_h0"] == "1"
                                                           or rows[(s, k, 20)]["reject_h0"] == "0")
                     for s, k in planted)  # (a)
        crit8 = (sum(int(rows[(s, k, e)]["crit8"]) for s, k in cells30)
                 >= sum(int(rows[(s, k, 20)]["crit8"]) for s, k in cells30)
                 and rows[(0, 8.0, e)]["crit8"] == "1")  # (c)
        return reject and _rho_holds(rows, e, cells20) and crit8 and _rho_holds(rows, e, cells30)

    chosen = DEFAULTS["vae.epochs"]
    assert chosen in epochs and passes(chosen)
    assert not any(passes(e) for e in epochs if e < chosen)
    # The E = 20 runs are the default runs of the full-batch regressor table.
    reg = _sweep_rows("reg_full_batch.csv")
    shared = [(s, k) for s, k, e in rows if e == 20 and (s, k, 100) in reg]
    assert set(cells20) <= set(shared)
    for s, k in shared:
        for col in ("slope", "p", "mae_k"):
            assert float(rows[(s, k, 20)][col]) == float(reg[(s, k, 100)][col]), (s, k, col)
