import csv
import importlib.util
import os

from lczkit import pipeline
from lczkit.config import RunConfig

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_label_rules_runs(capsys):
    assert _load("calibrate_label_rules").main(["--scenes", "3"]) == 0
    assert "calibrated rules:" in capsys.readouterr().out


def test_sweep_writes_one_row_per_cell_with_the_slope_of_its_run(tmp_path, capsys):
    # The sizes of perfbench's TINY set, with the grid setting vae.epochs.
    config = tmp_path / "tiny.cfg"
    config.write_text("synth.n_scenes=60\nvae.hidden=32\nreg.epochs=20\nperturb.n_scenes=12\n")
    table = tmp_path / "sweep.csv"
    sweep = _load("sweep")
    argv = ["--seeds", "0-1", "--grid", "vae.epochs=1,2", "--config", str(config),
            "--out", str(table)]
    assert sweep.main(argv) == 0
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["seed", "vae.epochs", "slope", "rho", "p", "reject_h0", "mae_k",
                             "mae_pct", "crit8", "wall_s"]
    assert [(r["seed"], r["vae.epochs"]) for r in rows] == [("0", "1"), ("0", "2"),
                                                            ("1", "1"), ("1", "2")]
    cfg = RunConfig.from_file(str(config), {"seed": "1", "vae.epochs": "2"})
    fit = pipeline.run_pipeline(cfg, str(tmp_path / "run")).bundle.fit
    assert float(rows[3]["slope"]) == fit.a
    assert float(rows[3]["rho"]) == -fit.a * 8.0 and float(rows[3]["p"]) == fit.p_a
    # A second call finds every cell in the table and runs none.
    before = table.read_bytes()
    capsys.readouterr()
    assert sweep.main(argv) == 0
    assert table.read_bytes() == before and capsys.readouterr().out == ""
