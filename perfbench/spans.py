"""Span tracing of lczkit from outside the package, and the per-layer
metrics derived from the spans.

`install(tracer)` replaces every public function of the traced lczkit
modules, and `autodiff.Adam.step`, with a wrapper that records one span per
call. A name is replaced everywhere a caller looks it up: in its defining
module, in every module that bound it with `from ... import`, and in
module-level dict tables such as `regressor._ACTIVATIONS`. Spans stay in
memory and are written out by `Tracer.dump` when the run ends.

`layer_metrics(span_sets)` needs only the standard library, so the harness
parent can compute metrics from the span files without importing lczkit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("analysis", "autodiff", "autogeolabel", "io", "perturb", "pipeline",
          "rasterizer", "regressor", "report", "synthcity", "vae")

# Bytes the Adam update must touch per parameter element at the least:
# read value, grad, m and v, write value, m and v; 8 bytes each in float64.
ADAM_BYTES_PER_ELEM = 7 * 8


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(code):
    return 1 if code.ndim == 1 else code.shape[0]


# Counters recorded on a span after its call returns: (args, kwargs, result) -> dict.
COUNTERS = {
    "autodiff.Adam.step": lambda a, k, r: {
        "elems": sum(p.value.size for p in a[0].params if p.grad is not None)},
    "autodiff.topo_order": lambda a, k, r: {"nodes": len(r)},
    "synthcity.generate_scene": lambda a, k, r: {"points": len(r.cloud)},
    "rasterizer.rasterize": lambda a, k, r: {"outside": int(r.n_outside)},
    "io.save_model": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "io.load_model": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "regressor.grad_wrt_code": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "code"))},
    "perturb.batch_perturb": lambda a, k, r: {
        "scenes": len(_arg(a, k, 2, "scenes")),
        "attempted": len(_arg(a, k, 2, "scenes")) * len(_arg(a, k, 3, "delta_ts")),
        "ok": len(r.scenes)},
}


class Tracer:
    """In-memory span store. A span is [id, name, start_ns, end_ns, parent, counts]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._next = 0

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            span = [sid, name, clock(), None, parent, None]
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                spans.append(span)
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str, part: str) -> None:
        with open(path, "w") as fh:
            header = {"run": self.run_id, "part": part, "spans": len(self.spans)}
            fh.write(json.dumps(header) + "\n")
            for sid, name, start, end, parent, counts in sorted(self.spans):
                rec = {"run": self.run_id, "id": sid, "name": name, "start_ns": start,
                       "end_ns": end, "parent": parent}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def span_cost_ns(calls: int = 100_000) -> float:
    """Time the wrapper adds per call, from a wrapped and a bare no-op."""
    def noop():
        return None

    traced = Tracer("calibration").wrap(noop, "noop")
    timings = []
    for fn in (noop, traced):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter_ns() - start)
    return (timings[1] - timings[0]) / calls


def install(tracer: Tracer) -> int:
    """Wrap the lczkit layer functions; returns the number of names wrapped."""
    modules = {name: importlib.import_module(f"lczkit.{name}") for name in LAYERS}
    wrapped = {}  # original function -> wrapper
    for short, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            wrapped[fn] = tracer.wrap(fn, f"{short}.{attr}")
            setattr(mod, attr, wrapped[fn])
    adam = modules["autodiff"].Adam
    adam.step = tracer.wrap(adam.step, "autodiff.Adam.step")
    # Rebind `from x import f` names and dict tables that hold the originals.
    for mod in modules.values():
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if inspect.isfunction(item) and item in wrapped:
                        val[key] = wrapped[item]
    return len(wrapped) + 1


def read_spans(path: str) -> list:
    """Spans of one span file, as [id, name, start_ns, end_ns, parent, counts]."""
    with open(path) as fh:
        fh.readline()
        return [[r["id"], r["name"], r["start_ns"], r["end_ns"], r["parent"], r.get("counts", {})]
                for r in map(json.loads, fh)]


STAGES = {"vae.train_vae": "train_vae", "regressor.train_regressor": "train_reg",
          "perturb.batch_perturb": "perturb"}
PIPELINE_STAGES = ("synth", "train_vae", "train_reg", "perturb", "label", "analyze")


def _ancestor_map(spans, roots):
    """span id -> value of the nearest enclosing span whose name is in `roots`."""
    found = {}
    for sid, name, _, _, parent, _ in spans:  # parents have smaller ids
        found[sid] = roots[name] if name in roots else found.get(parent)
    return found


def layer_metrics(span_sets) -> dict:
    """Per-layer metrics, {name: (value, unit)}, over one or more span lists.

    Each list comes from one process, so ids are only unique within a list.
    """
    total_s, calls, counts, self_s = {}, {}, {}, {}
    by_stage = {}  # (name, stage) -> [seconds, calls, counts]
    cf_bytes = 0
    for spans in span_sets:
        spans = sorted(spans)
        stage = _ancestor_map(spans, STAGES)
        in_run_perturb = _ancestor_map(spans, {"pipeline.run_perturb": True})
        child_s = {}
        for sid, name, start, end, parent, c in spans:
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0) + end - start
        for sid, name, start, end, parent, c in spans:
            dur = (end - start) / 1e9
            total_s[name] = total_s.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child_s.get(sid, 0) / 1e9
            calls[name] = calls.get(name, 0) + 1
            acc = by_stage.setdefault((name, stage[sid]), [0.0, 0, {}])
            acc[0] += dur
            acc[1] += 1
            for key, val in (c or {}).items():
                counts[(name, key)] = counts.get((name, key), 0) + val
                acc[2][key] = acc[2].get(key, 0) + val
            if name == "io.save_model" and in_run_perturb[sid]:
                cf_bytes += c["bytes"]

    def stage_acc(name, st):
        return by_stage.get((name, st), [0.0, 0, {}])

    m = {}
    for st in PIPELINE_STAGES:
        m[f"pipeline.run_{st}_s"] = (total_s.get(f"pipeline.run_{st}", 0.0), "s")
    for st in ("train_vae", "train_reg"):
        sec, n, c = stage_acc("autodiff.Adam.step", st)
        elems = c.get("elems", 0)
        m[f"autodiff.adam_step_s.{st}"] = (sec, "s")
        m[f"autodiff.adam_steps.{st}"] = (n, "count")
        m[f"autodiff.adam_elems.{st}"] = (elems, "count")
        m[f"autodiff.adam_bytes_computed.{st}"] = (elems * ADAM_BYTES_PER_ELEM, "bytes")
    for st in ("train_vae", "train_reg", "perturb"):
        sec, n, _ = stage_acc("autodiff.backward", st)
        m[f"autodiff.backward_s.{st}"] = (sec, "s")
        m[f"autodiff.backward_calls.{st}"] = (n, "count")
        m[f"autodiff.graph_nodes.{st}"] = (stage_acc("autodiff.topo_order", st)[2].get("nodes", 0),
                                           "count")
    m["vae.train_vae_self_s"] = (self_s.get("vae.train_vae", 0.0), "s")
    m["vae.train_steps"] = (stage_acc("autodiff.Adam.step", "train_vae")[1], "count")
    m["regressor.train_regressor_self_s"] = (self_s.get("regressor.train_regressor", 0.0), "s")
    timed_calls = {
        "vae": ("encode", "decode"),
        "regressor": ("predict",),
        "rasterizer": ("rasterize",),
        "autogeolabel": ("segment",),
        "io": ("save_model", "load_model"),
    }
    for layer, names in timed_calls.items():
        for fn in names:
            m[f"{layer}.{fn}_s"] = (total_s.get(f"{layer}.{fn}", 0.0), "s")
            m[f"{layer}.{fn}_calls"] = (calls.get(f"{layer}.{fn}", 0), "count")
    m["regressor.grad_wrt_code_s"] = (total_s.get("regressor.grad_wrt_code", 0.0), "s")
    m["regressor.grad_wrt_code_rows"] = (
        counts.get(("regressor.grad_wrt_code", "rows"), 0), "count")
    attempted = counts.get(("perturb.batch_perturb", "attempted"), 0)
    scenes = counts.get(("perturb.batch_perturb", "scenes"), 0)
    m["perturb.batch_perturb_s"] = (total_s.get("perturb.batch_perturb", 0.0), "s")
    m["perturb.pairs_attempted"] = (attempted, "count")
    m["perturb.pairs_ok"] = (counts.get(("perturb.batch_perturb", "ok"), 0), "count")
    m["perturb.encodes_per_scene"] = (
        stage_acc("vae.encode", "perturb")[1] / scenes if scenes else 0.0, "count")
    m["perturb.decodes_per_pair"] = (
        stage_acc("vae.decode", "perturb")[1] / attempted if attempted else 0.0, "count")
    m["synthcity.generate_scene_s"] = (total_s.get("synthcity.generate_scene", 0.0), "s")
    m["synthcity.points"] = (counts.get(("synthcity.generate_scene", "points"), 0), "count")
    m["rasterizer.points_outside"] = (counts.get(("rasterizer.rasterize", "outside"), 0), "count")
    m["io.bytes_written"] = (counts.get(("io.save_model", "bytes"), 0), "bytes")
    m["io.bytes_read"] = (counts.get(("io.load_model", "bytes"), 0), "bytes")
    m["io.bytes_written_per_pair"] = (cf_bytes / attempted if attempted else 0.0, "bytes")
    m["report.build_report_s"] = (total_s.get("report.build_report", 0.0), "s")
    m["analysis.student_t_quantile_calls"] = (calls.get("analysis.student_t_quantile", 0), "count")
    m["trace.spans"] = (sum(len(s) for s in span_sets), "count")
    return m
