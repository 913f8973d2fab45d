import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_label_rules_runs(capsys):
    assert _load("calibrate_label_rules").main(["--scenes", "3"]) == 0
    assert "calibrated rules:" in capsys.readouterr().out
