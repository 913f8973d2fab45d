import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lczkit import pipeline as pl
from lczkit.config import RunConfig
from lczkit.errors import DataError
from lczkit.io import CF_INDEX, FRACTIONS, load_model, read_table, save_model, write_table
from lczkit.perturb import batch_perturb
from lczkit.rasterizer import N_CHANNELS, NormStats, norm_stats_tensors
from lczkit.regressor import RegConfig, init_regressor
from lczkit.vae import VaeConfig, init_vae

SHAPE = (N_CHANNELS, 4, 4)
IDS = ["s0", "s1", "s2"]


@pytest.fixture
def setup(tmp_path):
    """Random-init models, three normalized scenes and norm stats on disk:
    what staged label reads besides the counterfactuals."""
    rng = np.random.default_rng(40)
    vae = init_vae(SHAPE, VaeConfig(latent_dim=4, hidden=8), rng)
    reg = init_regressor(4, RegConfig(hidden=(6, 3), activation="tanh"), rng)
    reg.t_mean, reg.t_std = 290.0, 2.0
    norm = NormStats(rng.uniform(0.0, 1.5, N_CHANNELS), rng.uniform(0.2, 1.0, N_CHANNELS))
    save_model(norm_stats_tensors(norm), tmp_path / pl.MODEL_DIR / "norm.lczm")
    return vae, reg, rng.standard_normal((len(IDS), *SHAPE)), norm, tmp_path


def _cf_file(out):
    """Where run_perturb has batch_perturb write a run's counterfactuals."""
    return out / pl.CF_DIR / pl.CF_FILE


def _rows(records):
    return [(r.scene_id, r.delta_t, r.achieved_dt, r.v_prime) for r in records]


def _label_both_ways(batch, norm, out, edit_index=lambda rows: rows):
    """Records of labeling the batch in memory, and of labeling its file
    from disk after edit_index has rewritten index.csv's rows."""
    cfg = RunConfig()
    in_memory = _rows(pl.run_label(cfg, str(out), batch, norm))
    pl._write_batch(batch, str(out))
    index = out / pl.CF_DIR / "index.csv"
    write_table(index, CF_INDEX, edit_index(read_table(index, CF_INDEX)))
    return in_memory, _rows(pl.run_label(cfg, str(out)))


K = 4  # pairs per scene in the refusal cases

# index.csv edits that take the second scene's rows off the tensor's row
# order, each scene's rows in one run with its delta_t = 0 row first, and
# the line (the header is line 1) that the refusal names, or None
_OFF_ORDER = {
    # its second row moved past the third scene's rows
    "out_of_order": (lambda rows: rows[:K + 1] + rows[K + 2:] + rows[K + 1:K + 2], 3 * K + 1),
    # its delta_t = 0 row twice
    "repeated": (lambda rows: rows[:K + 1] + rows[K:], K + 3),
    # its delta_t = 0 row dropped
    "no_baseline": (lambda rows: rows[:K] + rows[K + 1:], K + 2),
    # a row more or a row fewer than the tensor's
    "out_of_range": (lambda rows: rows[:2 * K] + rows[2 * K - 1:], None),
    "a_subset": (lambda rows: rows[:2 * K - 1] + rows[2 * K:], None),
}


@pytest.mark.parametrize("case", sorted(_OFF_ORDER))
def test_staged_label_refuses_rows_off_the_slot_order(setup, case):
    vae, reg, scenes, norm, out = setup
    edit, line = _OFF_ORDER[case]
    batch = batch_perturb(vae, reg, scenes, [0.0, 0.5, -1.0, 2.0], IDS, _cf_file(out))
    with pytest.raises(DataError) as exc:
        _label_both_ways(batch, norm, out, edit)
    assert getattr(exc.value, "line", None) == line
    named = "'s1'" if line else "cf.lczm"  # the scene in index.csv, or both files
    assert "index.csv" in str(exc.value) and named in str(exc.value), exc.value


def test_staged_label_equals_in_memory_label_with_a_failed_middle_pair(setup, monkeypatch):
    import lczkit.vae as vae_mod

    vae, reg, scenes, norm, out = setup
    decode = vae_mod.decode

    def decode_inf_far_out(model, code):  # poison only the rows of huge latent steps
        out = decode(model, code)
        out[np.linalg.norm(code, axis=-1) >= 1e3] = np.inf
        return out

    monkeypatch.setattr(vae_mod, "decode", decode_inf_far_out)
    batch = batch_perturb(vae, reg, scenes, [0.0, 0.5, 1e9, -1.0], IDS, _cf_file(out))
    assert [(sid, dt) for sid, dt, *_ in batch.failures] == [(sid, 1e9) for sid in IDS]
    in_memory, staged = _label_both_ways(batch, norm, out)
    assert staged == in_memory
    # the file holds the three pairs of each scene that passed, in index.csv's row order
    assert [row[:2] for row in read_table(out / pl.CF_DIR / "index.csv", CF_INDEX)] == [
        (sid, dt) for sid in IDS for dt in (0.0, 0.5, -1.0)]
    [(_, cfs)] = load_model(_cf_file(out))
    assert cfs.tobytes() == batch.decoded.tobytes()
    # the failed row left no gap: the kept rows are those of the sweep without it
    clean = batch_perturb(vae, reg, scenes, [0.0, 0.5, -1.0], IDS, out / "clean.lczm")
    assert batch.decoded.tobytes() == clean.decoded.tobytes()
    assert ([cf.delta_c.tobytes() for cf in batch.scenes] ==
            [cf.delta_c.tobytes() for cf in clean.scenes])
    assert in_memory == _rows(pl.run_label(RunConfig(), str(out), clean, norm))


def test_staged_label_of_uneven_scene_blocks_equals_in_memory_label(setup, monkeypatch):
    """s0 loses its delta_t = 2 pair, s1's reconstruction fails and s2 keeps
    all four pairs: labeling in memory reads decoded as one block, labeling
    from disk reads the scenes' blocks of 3, 0 and 4 rows, each the scene's
    own rows of decoded, and both give the same records."""
    import lczkit.autogeolabel as geo
    import lczkit.vae as vae_mod

    vae, reg, scenes, norm, out = setup
    sweep = [0.0, 0.5, 2.0, -1.0]
    clean = batch_perturb(vae, reg, scenes, sweep, IDS, out / "clean.lczm")
    codes = vae_mod.encode(vae, scenes)
    poisoned = np.stack([codes[0] + clean.scenes[2].delta_c, codes[1]])  # s0 at 2.0, s1's D(E(s))
    decode = vae_mod.decode

    def decode_inf_at(model, rows):
        out = decode(model, rows)
        out[(rows[:, None] == poisoned[None]).all(axis=2).any(axis=1)] = np.inf
        return out

    monkeypatch.setattr(vae_mod, "decode", decode_inf_at)
    batch = batch_perturb(vae, reg, scenes, sweep, IDS, _cf_file(out))
    assert [(sid, dt, kind) for sid, dt, kind, _ in batch.failures] == [
        ("s0", 2.0, "non_finite"), *(("s1", dt, "non_finite") for dt in sweep)]
    assert [(cf.scene_id, cf.requested_dt) for cf in batch.scenes] == [
        ("s0", 0.0), ("s0", 0.5), ("s0", -1.0), *(("s2", dt) for dt in sweep)]

    blocks = []
    label_channels = geo.label_channels

    def spy(cfs, norm):
        blocks.append(cfs.tobytes())
        return label_channels(cfs, norm)

    monkeypatch.setattr(geo, "label_channels", spy)
    in_memory, staged = _label_both_ways(batch, norm, out)
    assert staged == in_memory
    assert [row[:2] for row in in_memory] == [
        (cf.scene_id, cf.requested_dt) for cf in batch.scenes]
    own = [batch.decoded[:3].tobytes(), batch.decoded[3:].tobytes()]
    assert blocks == [batch.decoded.tobytes(), *own]  # in memory, then from disk
    assert batch.decoded[3:].tobytes() == clean.decoded[8:].tobytes()


# A whole `lcz pipeline` run at small sizes (those of perfbench's TINY set).
_TINY_CHAIN = """
from lczkit import pipeline
from lczkit.config import RunConfig
cfg = RunConfig.from_file(None, {"seed": 0, "synth.n_scenes": 60, "vae.epochs": 2,
                                 "vae.hidden": 32, "reg.epochs": 20, "perturb.n_scenes": 12})
"""

# The chain into a temporary directory, printing the path and sha256 of
# every file of its run directory.
_TINY_RUN = _TINY_CHAIN + """
import hashlib, pathlib, tempfile
with tempfile.TemporaryDirectory() as out:
    pipeline.run_pipeline(cfg, out)
    for path in sorted(pathlib.Path(out).rglob("*")):
        if path.is_file():
            print(path.relative_to(out).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
"""

# The chain into the directory of its first argument, printing the name of
# the OpenBLAS kernel set that ran it, or "unknown" where it cannot be read.
_TINY_RUN_IN = _TINY_CHAIN + """
import ctypes, sys
pipeline.run_pipeline(cfg, sys.argv[1])
try:
    with open("/proc/self/maps") as maps:
        lib = ctypes.CDLL(next(line.split()[-1] for line in maps if "openblas" in line))
except (OSError, StopIteration):
    lib = None
core = "unknown"
for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
             "openblas_get_corename64_", "openblas_get_corename"):
    if hasattr(lib, name):
        getattr(lib, name).restype = ctypes.c_char_p
        core = getattr(lib, name)().decode()
        break
print(core)
"""

# figure.csv and report.txt of the seed-0 tiny chain, which hold across
# BLAS kernels, and corpus.sha256, the digest of each file its synth stage
# writes (no BLAS call reaches them); a change that moves them updates
# these files.
_REFERENCE = Path(__file__).parent / "data" / "tiny"


def test_whole_run_is_byte_identical_under_one_and_two_blas_threads(run_under_blas_threads):
    out1, out2 = run_under_blas_threads(_TINY_RUN)
    names = out1[::2]
    assert {"models/vae.lczm", "models/reg.lczm", "figure.csv", "report.txt"} <= set(names)
    assert [name for name in names if name.startswith("counterfactuals/")] == [
        "counterfactuals/cf.lczm", "counterfactuals/failures.csv", "counterfactuals/index.csv"]
    assert out1 == out2
    digests = dict(zip(out1[::2], out1[1::2]))
    corpus = dict(line.split()[::-1] for line in
                  (_REFERENCE / "corpus.sha256").read_text().splitlines())
    assert len(corpus) == 63
    assert {name: d for name, d in digests.items() if name.startswith("corpus/")} == corpus
    for name in ("figure.csv", "report.txt"):
        assert digests[name] == hashlib.sha256((_REFERENCE / name).read_bytes()).hexdigest(), name


def _dynamic_arch_openblas() -> bool:
    try:  # numpy 1.25 and later report their build configuration as a dict
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return (platform.machine().lower() in ("x86_64", "amd64")
            and "openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="needs numpy's BLAS to be a DYNAMIC_ARCH OpenBLAS on x86-64, "
                           "the one whose kernels OPENBLAS_CORETYPE picks")
def test_whole_run_gives_the_same_results_under_the_haswell_blas_kernels(tmp_path):
    """The tiny chain under the host's own OpenBLAS kernels and under the
    Haswell ones. Bytes hold per kernel set, results across them: the
    figure, the report and every labeled fraction are identical, and the
    model tensors and achieved delta_t agree to rounding. Measured on an
    AVX-512 Xeon, native (SkylakeX) against Haswell: vae.lczm differed by
    at most 2.9e-14, reg.lczm by 3.5e-15 and achieved_dt by 5.7e-14; the
    bound is 1e-12."""
    src = str(Path(pl.__file__).resolve().parents[1])
    runs, cores = [], []
    for extra in ({}, {"OPENBLAS_CORETYPE": "Haswell"}):
        out = tmp_path / extra.get("OPENBLAS_CORETYPE", "native")
        env = dict(os.environ, **extra,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _TINY_RUN_IN, str(out)], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        runs.append(out)
        cores.append(proc.stdout.split()[-1])
    native, haswell = runs
    assert cores[1] in ("Haswell", "unknown"), cores  # the kernel setting took effect
    for name in ("figure.csv", "report.txt"):
        assert (native / name).read_bytes() == (haswell / name).read_bytes(), name
        assert (native / name).read_bytes() == (_REFERENCE / name).read_bytes(), name
    fractions = [read_table(run / "fractions.csv", FRACTIONS) for run in runs]
    assert [row[:2] + row[3:] for row in fractions[0]] == [row[:2] + row[3:] for row in fractions[1]]
    achieved = [[row[2] for row in read_table(run / pl.CF_DIR / "index.csv", CF_INDEX)]
                for run in runs]
    assert np.abs(np.subtract(*achieved)).max() <= 1e-12
    for name in ("vae", "reg"):
        a, b = (load_model(run / pl.MODEL_DIR / f"{name}.lczm") for run in runs)
        assert [n for n, _ in a] == [n for n, _ in b]
        assert max(np.abs(x - y).max() for (_, x), (_, y) in zip(a, b)) <= 1e-12, name
