"""Flat key=value run configuration with typo-safe keys and seeded
determinism.

Every key has a default; unknown keys raise. The defaults live in the
typed views' dataclasses: DEFAULTS lists the keys, reads each field's
default, and states a literal only for a key no field backs. A field
without a key stays only if code passes it (RegConfig.activation); a value
no caller varies is a module constant, such as vae.LR, synthcity.T_BASE or
analysis.ALPHA. One master seed fans out to per-stage seeds via
sha256(master:stage), so a single --seed reproduces the whole run.
"""

from __future__ import annotations

import hashlib
import math

from .autogeolabel import LabelRules
from .errors import ParseError, UsageError
from .io import text_lines
from .rasterizer import GridSpec
from .regressor import RegConfig, n_holdout
from .report import check_sweep
from .synthcity import SceneParams, TemperatureLaw, split_sizes
from .vae import VaeConfig, VaeModel


def _fields(section: str, view, names: str) -> dict:
    """{section.name: the default of view's field name} for each name."""
    return {f"{section}.{name}": getattr(view, name) for name in names.split()}


DEFAULTS = {
    "seed": 0,
    **_fields("grid", GridSpec(), "width height cell_size"),
    **_fields("vae", VaeConfig(), "latent_dim hidden arch epochs ramp_epochs lambda_max"),
    **_fields("reg", RegConfig(), "epochs"),
    "perturb.dt_sweep": "0,1,3,5,10,-1,-3,-5,-10",
    "perturb.steps": 1,        # closed-form steps on the remaining delta_t
    "perturb.n_scenes": 30,    # held-out scenes to perturb
    **_fields("labels", LabelRules(), "veg_zstd_min veg_multiret_min bld_height_min bld_zstd_max"),
    "synth.n_scenes": 500,
    **_fields("synth", TemperatureLaw(), "k_veg noise_sigma"),
}


def stage_seed(master: int, stage: str) -> int:
    digest = hashlib.sha256(f"{master}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _coerce(key: str, text: str):
    if key not in DEFAULTS:
        raise UsageError(f"unknown config key {key!r}")
    default = DEFAULTS[key]
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError:
        raise UsageError(f"bad value {text!r} for key {key!r}") from None


class RunConfig:
    def __init__(self, values=None):
        self.values = dict(DEFAULTS)
        for key, val in (values or {}).items():
            if key not in DEFAULTS:
                raise UsageError(f"unknown config key {key!r}")
            if isinstance(DEFAULTS[key], float) and not math.isfinite(val):
                raise UsageError(f"bad {key} {val!r}: must be finite")
            self.values[key] = val
        # A setting no stage can run with is refused before any stage runs.
        # Each typed view checks its own fields; a field its message names
        # is named as the key, after its section.
        if not self["seed"] >= 0:  # numpy seeds only non-negative integers
            raise UsageError(f"bad seed {self['seed']!r}: must be at least 0")
        views = (("grid", self.grid_spec), ("vae", self.vae_config), ("reg", self.reg_config),
                 ("labels", self.label_rules), ("synth", self.temperature_law))
        for section, view in views:
            try:
                view()
            except UsageError as exc:
                raise UsageError(" ".join(f"{section}.{word}" if f"{section}.{word}" in DEFAULTS
                                          else word for word in str(exc).split(" "))) from None
        if self["vae.arch"] == "patch":
            w, h = self["grid.width"], self["grid.height"]
            try:
                VaeModel({}, (1, h, w), 1, "patch", 1).layout()
            except UsageError as exc:
                raise UsageError(f"bad grid.width/grid.height {w}x{h} for vae.arch 'patch': "
                                 f"{exc}") from None
        self.dt_sweep()
        for key in ("synth.n_scenes", "perturb.n_scenes", "perturb.steps"):
            if not self[key] >= 1:
                raise UsageError(f"bad {key} {self[key]!r}: must be at least 1")
        n_train, n_test = split_sizes(self["synth.n_scenes"])
        n_hold = n_holdout(n_train)
        if n_test < 1 or n_hold < 1 or n_train - n_hold < 2:
            raise UsageError(f"bad synth.n_scenes {self['synth.n_scenes']!r}: the 80/20 split "
                             f"leaves {n_test} test scenes and {n_train} training scenes, of "
                             f"which the regressor holds out {n_hold} and fits "
                             f"{n_train - n_hold}; needs at least 1, 1 and 2")

    @classmethod
    def from_file(cls, path=None, overrides=None) -> "RunConfig":
        """The config of path's key=value lines with overrides set on top.
        A refusal of a value the file sets names the file, and its line
        where one line set it; a key the file sets twice is a ParseError
        naming the second line."""
        values, lines = {}, {}  # lines: key -> the file line that set it
        if path is not None:
            for lineno, line in enumerate(text_lines(path), start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ParseError(f"expected key=value, got {stripped!r}", line=lineno,
                                     path=path)
                key, _, text = stripped.partition("=")
                key = key.strip()
                if key in lines:
                    raise ParseError(f"{key!r} is set again (first on line {lines[key]})",
                                     line=lineno, path=path)
                try:
                    values[key] = _coerce(key, text.strip())
                except UsageError as exc:
                    raise UsageError(f"{path}: line {lineno}: {exc}") from None
                lines[key] = lineno
        for key, text in (overrides or {}).items():
            values[key] = _coerce(key, text) if isinstance(text, str) else text
            lines.pop(key, None)
        try:
            return cls(values)
        except UsageError as exc:
            try:  # without the file's values, is the setting still refused?
                cls({key: val for key, val in values.items() if key not in lines})
            except UsageError:
                raise exc from None
            named = [lineno for key, lineno in lines.items() if key in str(exc)]
            where = f"line {named[0]}: " if len(named) == 1 else ""
            raise UsageError(f"{path}: {where}{exc}") from None

    def __getitem__(self, key):
        if key not in self.values:
            raise UsageError(f"unknown config key {key!r}")
        return self.values[key]

    def resolved_text(self) -> str:
        return "".join(f"{k}={self.values[k]}\n" for k in sorted(self.values))

    # typed views -----------------------------------------------------

    def grid_spec(self) -> GridSpec:
        return GridSpec(self["grid.cell_size"], self["grid.width"], self["grid.height"])

    def vae_config(self) -> VaeConfig:
        return VaeConfig(
            latent_dim=self["vae.latent_dim"], hidden=self["vae.hidden"],
            arch=self["vae.arch"], epochs=self["vae.epochs"],
            ramp_epochs=self["vae.ramp_epochs"], lambda_max=self["vae.lambda_max"],
            seed=stage_seed(self["seed"], "vae"),
        )

    def reg_config(self) -> RegConfig:
        return RegConfig(epochs=self["reg.epochs"], seed=stage_seed(self["seed"], "reg"))

    def label_rules(self) -> LabelRules:
        return LabelRules(
            veg_zstd_min=self["labels.veg_zstd_min"],
            veg_multiret_min=self["labels.veg_multiret_min"],
            bld_height_min=self["labels.bld_height_min"],
            bld_zstd_max=self["labels.bld_zstd_max"],
        )

    def scene_params(self) -> SceneParams:
        return SceneParams(grid=self.grid_spec(), seed=stage_seed(self["seed"], "synth"))

    def temperature_law(self) -> TemperatureLaw:
        return TemperatureLaw(
            k_veg=self["synth.k_veg"], noise_sigma=self["synth.noise_sigma"],
            seed=stage_seed(self["seed"], "law"),
        )

    def dt_sweep(self) -> list:
        raw = self["perturb.dt_sweep"]
        try:
            # + 0.0 folds -0 into 0, so "-0,1,-1" writes what "0,1,-1" writes
            sweep = [float(tok) + 0.0 for tok in str(raw).split(",") if tok.strip() != ""]
            check_sweep(sweep)
            if len(set(sweep)) < len(sweep):  # 0.0 and -0.0 are one value
                raise UsageError("a delta_t value repeats")
        except (ValueError, UsageError) as exc:
            raise UsageError(f"bad perturb.dt_sweep {raw!r}: {exc}") from None
        return sweep
