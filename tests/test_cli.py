import ast
import dataclasses
import inspect
import math
import multiprocessing
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import lczkit
from lczkit import analysis, perturb, pipeline, rasterizer, regressor, report, synthcity
from lczkit.cli import _split_overrides, main
from lczkit.config import DEFAULTS, VIEWS, RunConfig, stage_seed
from lczkit.errors import ParseError, UsageError
from lczkit.io import CF_INDEX, load_model, read_manifest, read_table, save_model
from lczkit.perturb import batch_perturb
from lczkit.rasterizer import CHANNEL_NAMES, GridSpec, load_stack, save_stack
from lczkit.regressor import RegConfig
from lczkit.synthcity import SceneParams

SMALL_CONFIG = """\
# desk-scale smoke configuration
synth.n_scenes = 60
vae.latent_dim = 8
vae.hidden = 64
vae.epochs = 12
reg.epochs = 60
perturb.n_scenes = 4
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


# --- config object ----------------------------------------------------------

def test_config_defaults_and_override():
    cfg = RunConfig()
    assert cfg["vae.latent_dim"] == DEFAULTS["vae.latent_dim"]
    cfg = RunConfig.from_file(None, {"vae.latent_dim": "64"})
    assert cfg["vae.latent_dim"] == 64


def test_config_unknown_key_rejected():
    with pytest.raises(UsageError):
        RunConfig({"vae.latent_dims": 8})
    with pytest.raises(UsageError):
        RunConfig()["nope"]


def test_config_file_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed=1\nnot a pair\n")
    with pytest.raises(ParseError) as exc:
        RunConfig.from_file(str(path))
    assert exc.value.line == 2


def test_config_bad_value_type(tmp_path):
    with pytest.raises(UsageError):
        RunConfig.from_file(None, {"vae.epochs": "many"})


def test_config_resolved_text_round_trips(tmp_path):
    cfg = RunConfig.from_file(None, {"seed": "9", "synth.k_veg": "4.0"})
    path = tmp_path / "resolved.cfg"
    path.write_text(cfg.resolved_text())
    again = RunConfig.from_file(str(path))
    assert again.values == cfg.values


def test_dt_sweep_parsing():
    cfg = RunConfig({"perturb.dt_sweep": "0, 1.5, -2"})
    assert cfg.dt_sweep() == [0.0, 1.5, -2.0]
    baseline, *_ = RunConfig({"perturb.dt_sweep": "-0,1,-1"}).dt_sweep()
    assert baseline == 0.0 and math.copysign(1.0, baseline) == 1.0
    for bad in ("0,oops", "1,2,-2", "0,1", "0,1,1,0", "0,1,nan", "0,1,-inf", "",
                "0,1,1,-1", "0,-0,1,-1"):
        with pytest.raises(UsageError, match="perturb.dt_sweep"):
            RunConfig({"perturb.dt_sweep": bad})


def test_patch_arch_refuses_a_grid_it_cannot_tile():
    assert RunConfig({"vae.arch": "patch", "grid.width": 24}).view("vae").arch == "patch"
    for key, grid in (("grid.width", "12x16"), ("grid.height", "16x12")):  # width x height
        with pytest.raises(UsageError, match=f"grid.width/grid.height {grid} "):
            RunConfig({"vae.arch": "patch", key: 12})


def test_run_config_views_equal_the_dataclass_defaults():
    cfg = RunConfig()
    views = [(cfg.view(section), cls) for section, (cls, _, _) in VIEWS.items()]
    for view, cls in [*views, (cfg.scene_params(), SceneParams)]:
        if hasattr(view, "seed"):  # stage seeds come from the master seed
            view = dataclasses.replace(view, seed=cls().seed)
        assert view == cls(), cls.__name__
    assert inspect.signature(batch_perturb).parameters["steps"].default == cfg["perturb.steps"]


def _project_text(*patterns):
    """The text of the repository's files matching patterns, globs from its root."""
    root = Path(__file__).parents[1]
    return "".join(path.read_text() for pattern in patterns for path in root.glob(pattern))


def test_every_view_field_backs_a_key_or_is_passed_by_name():
    # A value that no key sets and no caller passes is a module constant,
    # not a field.
    source = _project_text("src/lczkit/*.py", "scripts/*.py", "tests/test_acceptance.py")
    sections = [*((cls, section) for section, (cls, _, _) in VIEWS.items()), (SceneParams, "synth")]
    unreached = [f"{cls.__name__}.{field.name}" for cls, section in sections
                 for field in dataclasses.fields(cls)
                 if f"{section}.{field.name}" not in DEFAULTS
                 and not re.search(rf"\b{field.name}=(?!=)", source)]
    assert unreached == []


# The records the stages return.
STAGE_RECORDS = (analysis.OlsFit, analysis.HypothesisDecision, report.ReportBundle,
                 report.ExperimentRecord, synthcity.CorpusResult, synthcity.SceneTruth,
                 regressor.ErrorReport, rasterizer.RasterStack, perturb.BatchResult,
                 perturb.CounterfactualScene, pipeline.PipelineResult)


def test_every_record_field_is_read():
    # A value that nothing reads is a local of the code that computes it,
    # not a field.
    source = _project_text("src/lczkit/*.py", "scripts/*.py", "perfbench/*.py",
                           "tests/test_acceptance.py")
    unread = [f"{cls.__name__}.{field.name}" for cls in STAGE_RECORDS
              for field in dataclasses.fields(cls)
              if not re.search(rf"\.{field.name}\b", source)]
    assert unread == []


def _definitions_and_names(path):
    """The functions, classes and methods path defines, as (name, is a
    method, first line, last line), and the names its code uses (comments
    and strings aside), as (name, after a dot, line)."""
    tree = ast.parse(path.read_text())
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    defs = [(node.name, id(node) in methods, node.lineno, node.end_lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    names = [(node.id, False, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Name)]
    names += [(node.attr, True, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)]
    return defs, names


def test_every_function_class_and_method_is_named_outside_its_definition():
    # Code that nothing reaches is deleted, not kept for later. A method
    # counts as reached where `.name` appears; a dunder is reached by Python.
    root = Path(__file__).parents[1]
    paths = [*root.glob("src/lczkit/*.py"), *root.glob("scripts/*.py"),
             *root.glob("perfbench/*.py"), root / "tests" / "test_acceptance.py"]
    scanned = {path: _definitions_and_names(path) for path in paths}
    unreached = [f"{path.name}: {name}"
                 for path in root.glob("src/lczkit/*.py")
                 for name, method, first, last in scanned[path][0]
                 if not (name.startswith("__") and name.endswith("__"))
                 and not any(used == name and (dotted or not method)
                             and not (where == path and first <= line <= last)
                             for where, (_, names) in scanned.items()
                             for used, dotted, line in names)]
    assert unreached == []


def _unread_keys(defaults, views, source):
    """The keys of defaults that source reads neither as cfg["key"] nor, for
    a key that backs a field of views, by building its section's view."""
    backed = {f"{section}.{name}": section for section, (_, names, _) in views.items()
              for name in names.split()}
    return [key for key in defaults if f'["{key}"]' not in source
            and not (key in backed and f'.view("{backed[key]}")' in source)]


def test_every_config_key_is_read_by_a_stage():
    source = "".join(path.read_text() for path in Path(lczkit.__file__).parent.glob("*.py"))
    assert _unread_keys(DEFAULTS, VIEWS, source) == []
    # a table section that no stage builds leaves its keys unread
    views = {**VIEWS, "spare": (GridSpec, "width", None)}
    assert _unread_keys({**DEFAULTS, "spare.width": 16}, views, source) == ["spare.width"]
    assert _unread_keys(DEFAULTS, VIEWS, source.replace('.view("labels")', "")) == [
        key for key in DEFAULTS if key.startswith("labels.")]


def test_readme_lists_exactly_the_config_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration keys\n")[1].split("\n## ")[0]
    listed = re.findall(r"^- `([^`]+)`", section, flags=re.M)
    assert sorted(listed) == sorted(DEFAULTS)


def test_stage_seeds_distinct_and_stable():
    assert stage_seed(0, "vae") == stage_seed(0, "vae")
    assert stage_seed(0, "vae") != stage_seed(0, "reg")
    assert stage_seed(0, "vae") != stage_seed(1, "vae")


# --- flag handling ----------------------------------------------------------

def test_override_flags_split():
    assert _split_overrides(["--vae.latent_dim=64"]) == {"vae.latent_dim": "64"}
    assert _split_overrides(["--perturb.dt_sweep=0,1,-1"]) == {"perturb.dt_sweep": "0,1,-1"}


def test_unknown_flag_exits_one(tmp_path, capsys):
    assert main(["check", "--bogus=1", "--out", str(tmp_path)]) == 1
    assert "unknown" in capsys.readouterr().err
    # a key has one spelling: --perturb.dt_sweep, not --dt-sweep
    assert main(["check", "--dt-sweep=0,1,-1", "--out", str(tmp_path)]) == 1
    assert "unknown config key 'dt-sweep'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["pipeline", "--seed", "abc"], ["check", "--seed", "1.5"],
                                  ["pipelin"], []])
def test_bad_built_in_flag_or_subcommand_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1, err
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lcz")


# dataclass fields that no caller varies: they have no config key
REMOVED_KEYS = ("vae.lr", "vae.batch_size", "reg.hidden1", "reg.hidden2", "reg.activation",
                "reg.lr", "reg.batch_size", "reg.holdout_fraction", "synth.tree_density",
                "synth.building_density", "synth.points_per_m2", "synth.t_base",
                "analysis.alpha")


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "run"
    cfg.write_text("vae.latent=8\n")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    for flag in ("--perturb.mode=iterative", "--perturb.zeta=0.1", "--perturb.g_floor=1e-8"):
        capsys.readouterr()
        assert main(["perturb", flag, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and flag[2:flag.index("=")] in err, err
    for key in REMOVED_KEYS:
        cfg.write_text(f"seed = 1\n{key} = 1\n")
        for given, named in (([f"--{key}=1"], f"{key!r} (from flag"),
                             (["--config", str(cfg)],
                              f"{cfg}: line 2: unknown config key {key!r}")):
            assert main(["pipeline", *given, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and named in err, err
            assert not out.exists()


@pytest.mark.parametrize("text, code, named", [
    ("seed=1\nfoo\n", 2, "line 2: expected key=value, got 'foo'"),
    ("vae.epochs=2\nvae.epochs=3\n", 2, "line 2: 'vae.epochs' is set again (first on line 1)"),
    ("vae.epochs=abc\n", 1, "line 1: bad value 'abc' for key 'vae.epochs'"),
    ("vae.epoch=3\n", 1, "line 1: unknown config key 'vae.epoch'"),
    ("seed=1\nvae.epochs=0\n", 1, "line 2: vae.epochs must be at least 1"),
    ("seed=1\nlabels.veg_zstd_min=0.1\n", 1,
     "line 2: labels.bld_zstd_max must be < labels.veg_zstd_min"),
    # a refusal whose message names two keys of the file names no line
    ("labels.veg_zstd_min=0.1\nlabels.bld_zstd_max=0.2\n", 1,
     "labels.bld_zstd_max must be < labels.veg_zstd_min"),
])
def test_a_refused_config_file_is_named_in_one_line(tmp_path, capsys, text, code, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{cfg}: {named}" in err, err
    assert not out.exists()


def test_a_refused_override_does_not_name_the_config_file(tmp_path, small_config, capsys):
    out = tmp_path / "run"
    assert main(["synth", "--config", small_config, "--out", str(out), "--vae.epochs=0"]) == 1
    assert capsys.readouterr().err == "usage error: vae.epochs must be at least 1\n"


def test_pipeline_refuses_an_unusable_sweep_before_any_stage(tmp_path, small_config, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", small_config, "--out", str(out),
                 "--perturb.dt_sweep=1,2,-2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1, err
    assert "perturb.dt_sweep" in err and not out.exists()


@pytest.mark.parametrize("flag", ["--perturb.n_scenes=-2", "--perturb.n_scenes=0",
                                  "--perturb.steps=0"])
def test_pipeline_refuses_a_perturb_count_below_one_before_any_stage(
        flag, tmp_path, small_config, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", small_config, "--out", str(out), flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1, err
    assert flag[2:flag.index("=")] in err and not out.exists()


@pytest.mark.parametrize("flag", ["--vae.arch=foo", "--labels.veg_zstd_min=-1",
                                  "--vae.latent_dim=0", "--vae.epochs=0",
                                  "--vae.lambda_max=-1", "--synth.n_scenes=0",
                                  "--synth.n_scenes=1", "--synth.n_scenes=2",
                                  "--synth.n_scenes=3", "--synth.noise_sigma=-1",
                                  "--vae.ramp_epochs=-5", "--synth.k_veg=nan",
                                  "--grid.cell_size=nan", "--labels.veg_zstd_min=nan",
                                  "--seed=-1",
                                  # settings of deleted keys, refused as unknown keys
                                  "--reg.activation=foo", "--analysis.alpha=0",
                                  "--reg.holdout_fraction=1.5", "--vae.batch_size=0",
                                  "--reg.batch_size=0", "--synth.points_per_m2=-1",
                                  "--vae.lr=0", "--reg.lr=-1", "--vae.lr=nan"])
def test_pipeline_refuses_an_unusable_setting_before_any_stage(
        flag, tmp_path, small_config, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", small_config, "--out", str(out), flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1, err
    assert flag[2:flag.index("=")] in err and not out.exists()


# --- subcommands ------------------------------------------------------------

def test_check_exits_zero(tmp_path, capsys):
    assert main(["check", "--seed", "3", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "check: OK" in out


def test_check_fails_off_gradient_direction(tmp_path, capsys, monkeypatch):
    """A step with the right dot product but an orthogonal component of
    equal norm leaves the gradient direction, so the check must fail."""
    exact = lczkit.perturb.delta_c

    def skewed(g, dt):
        step = exact(g, dt)
        other = np.roll(g, 1)
        other -= (other @ g) / (g @ g) * g
        return step + other * (np.linalg.norm(step) / np.linalg.norm(other))

    monkeypatch.setattr(lczkit.perturb, "delta_c", skewed)
    assert main(["check", "--seed", "3", "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "eq_cos_err = 2.929e-01" in out and "check: FAILED" in out


def test_rasterize_subcommand(tmp_path, capsys):
    points = tmp_path / "pts.txt"
    points.write_text(
        "# x y z intensity return_number num_returns\n"
        "0.5 0.5 1.0 100 1 2\n"
        "1.5 1.5 2.0 200 2 2\n"
    )
    out = tmp_path / "stack.lczm"
    code = main(["rasterize", "--input", str(points), "--output", str(out),
                 "--grid.width=4", "--grid.height=4"])
    assert code == 0
    channels = load_stack(str(out))
    assert channels.shape == (13, 4, 4)
    assert channels[CHANNEL_NAMES.index("point_count")].sum() == 2
    assert "rasterized 2 points" in capsys.readouterr().out


def test_rasterize_requires_paths(tmp_path):
    assert main(["rasterize", "--out", str(tmp_path)]) == 1


def test_rasterize_missing_input_is_data_error(tmp_path):
    # unreadable cloud file surfaces as exit 2, not a traceback
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 0.5 nope 100 1 1\n")
    assert main(["rasterize", "--input", str(bad),
                 "--output", str(tmp_path / "o.lczm")]) == 2


@pytest.mark.parametrize("stage, flag, data", [
    ("synth", "--config", b"seed=1\n\xff\xfe=3\n"),
    ("rasterize", "--input", b"0.5 0.5 1.0 100 1 1\n0.5 0.5 \xff 100 1 1\n"),
    ("rasterize", "--input", b"0.5 0.5 1.0 100 1 1\n# \xff\n"),
    ("rasterize", "--input", b"0.5 0.5 1.0 100 1 1\n0.5 0.5 nope 100 1 1\n"),
], ids=["config_not_utf8", "points_not_utf8", "points_comment_not_utf8", "points_bad_token"])
def test_a_malformed_text_file_exits_two_naming_it_and_the_line(tmp_path, capsys, stage, flag,
                                                                data):
    bad, out = tmp_path / "bad.txt", tmp_path / "out"
    bad.write_bytes(data)
    assert main([stage, flag, str(bad), "--out", str(out), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2: ") and len(err.splitlines()) == 1, err
    assert not out.exists()


def test_pipeline_runs_are_byte_identical(tmp_path, small_config, capsys):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["pipeline", "--config", small_config, "--seed", "4",
                 "--out", str(out1)]) == 0
    assert main(["pipeline", "--config", small_config, "--seed", "4",
                 "--out", str(out2)]) == 0
    for rel in ("figure.csv", "fractions.csv", "report.txt", "run_config.txt"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
    assert "OLS fit" in capsys.readouterr().out


def test_pipeline_writes_all_artifacts(tmp_path, small_config, monkeypatch):
    out = tmp_path / "run"
    writes, write = [], pipeline.write_run_manifest
    monkeypatch.setattr(pipeline, "write_run_manifest",
                        lambda cfg, out_dir: writes.append(out_dir) or write(cfg, out_dir))
    assert main(["pipeline", "--config", small_config, "--seed", "1",
                 "--out", str(out)]) == 0
    assert writes == [str(out)]  # run_config.txt, once
    scenes = [f"corpus/{rel}" for _, rel, _ in read_manifest(out / "corpus/manifest.csv").entries]
    assert len(scenes) == 60
    # exactly these files, so a file that nothing reads cannot come back unnoticed
    assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == {
        "run_config.txt", "corpus/manifest.csv", "corpus/train.csv", "corpus/test.csv",
        *scenes, "models/norm.lczm", "models/vae.lczm", "models/reg.lczm",
        "counterfactuals/cf.lczm", "counterfactuals/index.csv", "counterfactuals/failures.csv",
        "fractions.csv", "figure.csv", "report.txt"}
    # one tensor, a row per index.csv row: 4 scenes of 9 pairs
    [(name, cfs)] = load_model(out / "counterfactuals/cf.lczm")
    assert name == "cf/counterfactual" and cfs.shape == (36, 13, 16, 16)
    assert len(read_table(out / "counterfactuals/index.csv", CF_INDEX)) == 36
    # staged reruns read the persisted artifacts back
    assert main(["label", "--config", small_config, "--seed", "1",
                 "--out", str(out)]) == 0
    assert main(["analyze", "--config", small_config, "--seed", "1",
                 "--out", str(out)]) == 0


def test_seed_changes_results(tmp_path, small_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", small_config, "--seed", "1", "--out", str(out1)]) == 0
    assert main(["synth", "--config", small_config, "--seed", "2", "--out", str(out2)]) == 0
    a = (out1 / "corpus/manifest.csv").read_bytes()
    b = (out2 / "corpus/manifest.csv").read_bytes()
    assert a != b


def _run_files(out):
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_staged_run_equals_pipeline(tmp_path, small_config):
    chained, staged = tmp_path / "chained", tmp_path / "staged"
    assert main(["pipeline", "--config", small_config, "--seed", "3",
                 "--out", str(chained)]) == 0
    for stage in ("synth", "train-vae", "train-reg", "perturb", "label", "analyze"):
        assert main([stage, "--config", small_config, "--seed", "3",
                     "--out", str(staged)]) == 0, stage
    chained_files, staged_files = _run_files(chained), _run_files(staged)
    for rel in ("fractions.csv", "figure.csv", "report.txt", "models/norm.lczm",
                "models/vae.lczm", "models/reg.lczm", "counterfactuals/cf.lczm",
                "counterfactuals/index.csv"):
        assert staged_files[rel] == chained_files[rel], rel
    assert staged_files == chained_files


def test_staged_perturb_records_failures_and_analyze_counts_them(tmp_path, small_config, capsys):
    out = tmp_path / "run"
    args = ["--config", small_config, "--seed", "2", "--out", str(out)]
    for stage in ("synth", "train-vae", "train-reg"):
        assert main([stage, *args]) == 0, stage
    # poison the first held-out scene: all of its pairs fail, the rest survive
    sid, rel, _ = read_manifest(out / "corpus" / "test.csv").entries[0]
    channels = load_stack(out / "corpus" / rel)
    channels[:] = np.nan
    save_stack(channels, out / "corpus" / rel)
    capsys.readouterr()
    assert main(["perturb", *args]) == 0
    n_dt = len(RunConfig().dt_sweep())
    assert f"failed pairs: {n_dt} non_finite" in capsys.readouterr().out
    rows = (out / "counterfactuals" / "failures.csv").read_text().splitlines()
    assert rows[0] == "scene_id,delta_t,kind,message"
    assert len(rows) == 1 + n_dt
    assert all(row.startswith(f"{sid},") and ",non_finite," in row for row in rows[1:])
    index = (out / "counterfactuals" / "index.csv").read_text().splitlines()
    assert len(index) == 1 + 3 * n_dt and sid not in "".join(index)
    assert main(["label", *args]) == 0
    assert main(["analyze", *args]) == 0
    assert f"({n_dt} pairs excluded after numeric failures)" in (out / "report.txt").read_text()


def test_missing_and_malformed_model_files_exit_without_traceback(tmp_path, small_config, capsys):
    out = tmp_path / "run"
    args = ["--config", small_config, "--seed", "5", "--out", str(out), "--vae.epochs=1"]
    for stage in ("synth", "train-vae"):
        assert main([stage, *args]) == 0, stage
    capsys.readouterr()
    # a stage run before the one that writes its input: one-line usage error
    for stage, missing in (("perturb", "reg.lczm"), ("label", "index.csv")):
        assert main([stage, *args]) == 1, stage
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and missing in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
    # a model file without its last weight: one-line data error
    vae_path = out / "models" / "vae.lczm"
    save_model(load_model(vae_path)[:-1], vae_path)
    assert main(["train-reg", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "vae/dec/b3" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("where", ["out_is_a_file", "input_is_a_directory"])
def test_out_or_input_of_the_wrong_kind_exits_one(tmp_path, capsys, where):
    (tmp_path / "taken").write_text("")
    argv = (["synth", "--out", str(tmp_path / "taken")] if where == "out_is_a_file" else
            ["rasterize", "--input", str(tmp_path), "--output", str(tmp_path / "s.lczm")])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1


def test_an_error_in_a_synth_worker_exits_one_and_leaves_no_process(tmp_path, capfd):
    # capfd, not capsys: a forked worker writes to file descriptor 2.
    scenes = tmp_path / "run" / "corpus" / "scenes"
    scenes.parent.mkdir(parents=True)
    scenes.write_text("")
    assert main(["synth", "--out", str(tmp_path / "run"), "--synth.n_scenes=12"]) == 1
    err = capfd.readouterr().err
    assert err.startswith("usage error: ") and str(scenes) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not multiprocessing.active_children()


# --- corrupt artifacts ------------------------------------------------------

def _edit_row(path, row, edit):
    lines = path.read_text().split("\n")
    lines[row] = edit(lines[row])
    path.write_text("\n".join(lines))


def _set_field(path, row, col, value):
    def edit(line):
        fields = line.split(",")
        fields[col] = value
        return ",".join(fields)
    _edit_row(path, row, edit)


def _keep_rows(path, keep):
    header, *rows = path.read_text().splitlines()
    kept = [row for row in rows if keep(float(row.split(",")[1]))]
    path.write_text("".join(f"{line}\n" for line in [header, *kept]))


def _first_test_stack(out):
    return out / "corpus" / read_manifest(out / "corpus" / "test.csv").entries[0][1]


def _edit_tensors(path, edit):
    save_model(edit(load_model(path)), path)


def _old_stack_layout(tensors):
    """The stack in the earlier layout: 13 named (H, W) channel tensors, then
    a grid/spec record."""
    (_, channels), = tensors
    return [*((f"channel/{name}", c) for name, c in zip(CHANNEL_NAMES, channels)),
            ("grid/spec", np.array([0.0, 0.0, 1.0, 16.0, 16.0]))]


def _other_patch_widths(tensors):
    """vae/meta's last two ints, the patch widths, set to (3, 4)."""
    (name, meta), *rest = tensors
    return [(name, np.concatenate([meta[:6], [3.0, 4.0]])), *rest]


def _norm_std(value):
    """norm/std set to value in every channel."""
    return lambda tensors: [tensors[0], ("norm/std", np.full(len(CHANNEL_NAMES), value))]


def _latent_steps(cfs):
    return "cf/delta_c", np.zeros((len(cfs), 16))


def _not_utf8(path, row):
    lines = path.read_bytes().split(b"\n")
    lines[row] = b"\xff" + lines[row]
    path.write_bytes(b"\n".join(lines))


def _header_only(path):
    path.write_text(path.read_text().splitlines(keepends=True)[0])


def _append_bytes(path):
    path.write_bytes(path.read_bytes() + b"\0" * 4)


def _swap_rows(path, a, b):
    lines = path.read_text().split("\n")
    lines[a], lines[b] = lines[b], lines[a]
    path.write_text("\n".join(lines))


FRACTIONS = ("analyze", lambda out: out / "fractions.csv")
FAILURES = ("analyze", lambda out: out / "counterfactuals" / "failures.csv")
INDEX = ("label", lambda out: out / "counterfactuals" / "index.csv")
CF_FILE = ("label", lambda out: out / "counterfactuals" / "cf.lczm")
NORM = ("label", lambda out: out / "models" / "norm.lczm")
VAE = ("perturb", lambda out: out / "models" / "vae.lczm")
STACK = ("perturb", _first_test_stack)
TEST_MANIFEST = ("perturb", lambda out: out / "corpus" / "test.csv")
TRAIN_MANIFEST_AT_VAE = ("train-vae", lambda out: out / "corpus" / "train.csv")
TRAIN_MANIFEST_AT_REG = ("train-reg", lambda out: out / "corpus" / "train.csv")

CORRUPTIONS = {
    "fractions_extra_field": (FRACTIONS, lambda p: _edit_row(p, 1, lambda line: line + ",0.5")),
    "fractions_non_number": (FRACTIONS, lambda p: _set_field(p, 1, 3, "lots")),
    "fractions_non_finite": (FRACTIONS, lambda p: _set_field(p, 2, 1, "nan")),
    "fractions_header": (FRACTIONS, lambda p: _set_field(p, 0, 1, "dt")),
    "fractions_v_prime_above_one": (FRACTIONS, lambda p: _set_field(p, 1, 3, "1.5")),
    "fractions_no_baseline": (FRACTIONS, lambda p: _keep_rows(p, lambda dt: dt != 0.0)),
    "fractions_two_distinct_dt": (FRACTIONS, lambda p: _keep_rows(p, lambda dt: dt in (0.0, 1.0))),
    "fractions_not_utf8": (FRACTIONS, lambda p: _not_utf8(p, 1)),  # in the first scene id
    "failures_garbage_row": (FAILURES, lambda p: p.write_text(p.read_text() + "garbage\n")),
    "index_header": (INDEX, lambda p: _set_field(p, 0, 2, "achieved")),
    "index_field_count": (INDEX, lambda p: _edit_row(p, 1, lambda line: line.rsplit(",", 1)[0])),
    # the two scenes' delta_t = 0 rows swapped: the second scene's rows are not consecutive
    "index_rows_out_of_order": (INDEX, lambda p: _swap_rows(p, 1, 10)),
    # row i is the tensor's row i, so a row fewer is refused
    "index_rows_a_subset": (INDEX, lambda p: _keep_rows(p, lambda dt: dt != 1.0)),
    # a scene needs one delta_t = 0 row, its baseline
    "index_no_baseline_row": (INDEX, lambda p: _set_field(p, 1, 1, "0.5")),
    "index_two_baseline_rows": (INDEX, lambda p: _set_field(p, 2, 1, "0.0")),
    # the file holds one tensor, cf/counterfactual, a (13, H, W) row per index.csv row
    "cf_file_missing_a_tensor": (CF_FILE, lambda p: _edit_tensors(p, lambda t: t[:-1])),
    "cf_file_with_a_reconstruction": (CF_FILE, lambda p: _edit_tensors(
        p, lambda t: [("cf/reconstruction", t[0][1][:1]), *t])),
    "cf_file_with_latent_steps": (CF_FILE, lambda p: _edit_tensors(
        p, lambda t: [*t, _latent_steps(t[0][1])])),
    "cf_file_wrong_tensor_name": (CF_FILE, lambda p: _edit_tensors(
        p, lambda t: [("cf/original", a) for _, a in t])),
    "cf_file_a_row_fewer": (CF_FILE, lambda p: _edit_tensors(
        p, lambda t: [(n, a[:-1]) for n, a in t])),
    "cf_file_a_channel_fewer": (CF_FILE, lambda p: _edit_tensors(
        p, lambda t: [(n, a[:, 1:]) for n, a in t])),
    "cf_file_zero_width": (CF_FILE, lambda p: _edit_tensors(
        p, lambda t: [(n, a[..., :0]) for n, a in t])),
    "cf_file_truncated": (CF_FILE, lambda p: p.write_bytes(p.read_bytes()[:-8])),
    "cf_file_trailing_bytes": (CF_FILE, _append_bytes),
    "norm_file_trailing_bytes": (NORM, _append_bytes),
    # norm stats as compute_norm_stats makes them: finite, the std >= STD_FLOOR
    "norm_std_nan": (NORM, lambda p: _edit_tensors(p, _norm_std(np.nan))),
    "norm_std_zero": (NORM, lambda p: _edit_tensors(p, _norm_std(0.0))),
    "vae_meta_other_patch_widths": (VAE, lambda p: _edit_tensors(p, _other_patch_widths)),
    # the file holds one tensor, stack/channels, of shape (13, H, W)
    "stack_old_layout": (STACK, lambda p: _edit_tensors(p, _old_stack_layout)),
    "stack_wrong_tensor_name": (STACK, lambda p: _edit_tensors(
        p, lambda t: [("stack/z_mean", a) for _, a in t])),
    "stack_second_tensor": (STACK, lambda p: _edit_tensors(p, lambda t: [*t, *t])),
    "stack_twelve_channels": (STACK, lambda p: _edit_tensors(
        p, lambda t: [(n, a[1:]) for n, a in t])),
    "stack_rank_two": (STACK, lambda p: _edit_tensors(p, lambda t: [(n, a[0]) for n, a in t])),
    "stack_trailing_bytes": (STACK, _append_bytes),
    "manifest_bad_temperature": (TEST_MANIFEST, lambda p: _set_field(p, 1, 2, "hot")),
    # a split manifest that lists no scene, at each stage that loads its split
    "manifest_no_scene_at_perturb": (TEST_MANIFEST, _header_only),
    "manifest_no_scene_at_train_vae": (TRAIN_MANIFEST_AT_VAE, _header_only),
    "manifest_no_scene_at_train_reg": (TRAIN_MANIFEST_AT_REG, _header_only),
}

# The line of the file that the refusal names, where it names one; the
# labeled run perturbs 2 scenes, 9 pairs each.
CORRUPT_LINES = {"fractions_extra_field": 2, "fractions_header": 1, "index_header": 1,
                 "index_field_count": 2, "index_rows_out_of_order": 12,
                 "index_no_baseline_row": 2, "index_two_baseline_rows": 3,
                 "fractions_not_utf8": 2}


@pytest.fixture(scope="module")
def labeled_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("labeled") / "run"
    for stage in ("synth", "train-vae", "train-reg", "perturb", "label"):
        assert main([stage, "--seed", "6", "--out", str(out), "--synth.n_scenes=30",
                     "--vae.epochs=2", "--vae.hidden=32", "--reg.epochs=5",
                     "--perturb.n_scenes=2"]) == 0, stage
    return out


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_artifact_exits_two_naming_the_file(tmp_path, labeled_run, capsys, case):
    (stage, locate), corrupt = CORRUPTIONS[case]
    out = tmp_path / "run"
    shutil.copytree(labeled_run, out)
    path = locate(out)
    corrupt(path)
    capsys.readouterr()
    assert main([stage, "--seed", "6", "--out", str(out), "--perturb.n_scenes=2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err and str(path) in err, err
    if case in CORRUPT_LINES:
        assert f"{path}: line {CORRUPT_LINES[case]}: " in err, err


def test_a_split_stack_on_another_grid_exits_two_naming_it(tmp_path, labeled_run, capsys):
    out = tmp_path / "run"
    shutil.copytree(labeled_run, out)
    second = out / "corpus" / read_manifest(out / "corpus" / "test.csv").entries[1][1]
    save_stack(load_stack(second)[:, :8, :8], second)
    capsys.readouterr()
    assert main(["perturb", "--seed", "6", "--out", str(out), "--perturb.n_scenes=2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert second.name in err, err


@pytest.mark.parametrize("split, stage", [("test", "perturb"), ("train", "train-reg")])
def test_a_split_on_another_grid_than_the_models_exits_two_naming_its_manifest(
        tmp_path, labeled_run, capsys, split, stage):
    out = tmp_path / "run"
    shutil.copytree(labeled_run, out)
    manifest = out / "corpus" / f"{split}.csv"
    for _, rpath, _ in read_manifest(manifest).entries:
        save_stack(load_stack(out / "corpus" / rpath)[:, :8, :8], out / "corpus" / rpath)
    capsys.readouterr()
    assert main([stage, "--seed", "6", "--out", str(out), "--perturb.n_scenes=2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert f"{manifest}: " in err and "(13, 8, 8)" in err and "(13, 16, 16)" in err, err


def test_a_regressor_of_another_latent_size_exits_two_naming_it(tmp_path, labeled_run, capsys):
    out = tmp_path / "run"
    shutil.copytree(labeled_run, out)
    reg = out / "models" / "reg.lczm"
    other = regressor.init_regressor(16, RegConfig(), np.random.default_rng(0))
    save_model(regressor.regressor_tensors(other), reg)
    capsys.readouterr()
    assert main(["perturb", "--seed", "6", "--out", str(out), "--perturb.n_scenes=2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert f"{reg}: " in err and "16-dim" in err and "32-dim" in err, err
