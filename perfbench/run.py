#!/usr/bin/env python3
"""lczkit benchmark harness.

    python3 perfbench/run.py --workload default-chain --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. The master seed becomes the seed of the
lczkit RunConfig; the program receives nothing else. Load is a closed loop
of one client: workload passes run back to back, each in a fresh worker
process, as many as fit in `--seconds` (at least one pass). Set-up runs
first, several times in fresh processes, and `setup_s` is the median. Every pass goes
through the correctness gate in worker.py; a failed check marks all of that
pass's counterfactual pairs as failed and the command exits 1.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs one untraced
and one traced pass (and, for restage-sweep, a traced set-up), writes the
spans, and reports the per-layer metrics with the tracing overhead.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. Details, samples and the environment go to
`.perfbench_work/<workload>/result.json`. Exit codes: 0 correct, 1 gate
failed, 2 no lczkit source in this directory. Acceptance criterion 8 (held-out
MAE at most 10% of the corpus range) is printed for each chain pass but is
not part of the gate: the acceptance suite fixes it at seed 0 only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
# Every worker is killed once the whole run has taken this long, so that a
# run ends within 180 s even when a worker hangs.
RUN_LIMIT_S = 170
UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test size, not for measurement")
    return p.parse_args(argv)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


class Harness:
    def __init__(self, args):
        self.args = args
        self.work = os.path.join(ROOT, ".perfbench_work", args.workload)
        self.run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        self.attempted = self.failed = 0
        self.checks = {}
        self.log = []

    def spawn(self, mode, run_dir, trace=False, spans_path=None) -> dict:
        spec = {"mode": mode, "workload": self.args.workload, "seed": self.args.seed,
                "scale": self.args.scale, "trace": trace,
                "dir": run_dir, "spans": spans_path, "run_id": self.run_id,
                "spawned": time.monotonic()}
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            done = subprocess.run([sys.executable, WORKER, json.dumps(spec)], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout, check=False)
            lines = done.stdout.strip().splitlines()
            reply = json.loads(lines[-1]) if done.returncode == 0 and lines else {
                "error": f"worker exit {done.returncode}: {done.stderr[-2000:]}"}
        except subprocess.TimeoutExpired:
            reply = {"error": f"worker killed at the {RUN_LIMIT_S} s run limit"}
        reply["mode"], reply["trace"] = mode, trace
        self.log.append(reply)
        self.account(reply)
        return reply

    def account(self, reply) -> None:
        """Count pairs; a pass that fails a check fails all its pairs."""
        if "pass" in reply:
            rec = reply["pass"]
            ok = all(rec["gate"].values())
            self.attempted += rec["pairs"]
            self.failed += rec["pairs"] - rec["ok_pairs"] if ok else rec["pairs"]
            for name, val in rec["gate"].items():
                self.checks[name] = self.checks.get(name, True) and val
        if "error" in reply:
            pairs = reply.get("error_pairs", 1)
            self.attempted += pairs
            self.failed += pairs
            self.checks["no_errors"] = False
            print(f"error in {reply['mode']} worker:\n{reply['error']}", file=sys.stderr)

    def passes(self):
        return [reply["pass"] for reply in self.log if "pass" in reply]

    def setup(self, count, trace=False, spans_path=None) -> list:
        """Set up `count` times; returns the replies, the last one's directory kept."""
        replies = [self.spawn("setup", os.path.join(self.work, f"setup_{i}"),
                              trace=trace, spans_path=spans_path) for i in range(count)]
        models = {json.dumps(r.get("models"), sort_keys=True) for r in replies}
        self.checks["setups_byte_identical"] = len(models) == 1
        return replies

    def same_outputs(self) -> None:
        digests = {json.dumps(rec["digests"], sort_keys=True) for rec in self.passes()}
        self.checks["outputs_byte_identical"] = len(digests) <= 1

    def measure(self) -> dict:
        spec = WORKLOADS[self.args.workload]
        restage = spec["kind"] == "restage"
        replies = self.setup(spec["setups"])
        run_dir = os.path.join(self.work, f"setup_{spec['setups'] - 1}" if restage else "pass")
        # Passes run back to back while one more of average length still ends
        # within --seconds; the first pass always runs.
        start, count = time.perf_counter(), 0
        while "error" not in self.spawn("pass", run_dir):
            count += 1
            if (time.perf_counter() - start) * (count + 1) / count > self.args.seconds:
                break
        self.same_outputs()
        passes = self.passes()
        if not passes:
            return {}
        return {
            "run_s": statistics.median(p["run_s"] for p in passes),
            "setup_s": statistics.median(r["ready_s"] + r.get("prep_s", 0.0) for r in replies),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "ok_ratio": 1.0 - self.failed / self.attempted,
        }

    def traced(self) -> dict:
        restage = WORKLOADS[self.args.workload]["kind"] == "restage"
        files = []
        if restage:
            files.append(os.path.join(self.work, "spans_setup.jsonl"))
            trained = self.setup(1, trace=True, spans_path=files[-1])[0]
        run_dir = os.path.join(self.work, "setup_0" if restage else "pass")
        plain = self.spawn("pass", run_dir)
        files.append(os.path.join(self.work, "spans_pass.jsonl"))
        traced = self.spawn("pass", run_dir, trace=True, spans_path=files[-1])
        self.same_outputs()
        if "pass" not in plain or "pass" not in traced or not all(map(os.path.exists, files)):
            return {}
        mae = trained.get("holdout_mae_k") if restage else plain["pass"]["holdout_mae_k"]
        if mae is None:
            return {}
        metrics = spans.layer_metrics([spans.read_spans(f) for f in files])
        metrics["regressor.holdout_mae_k"] = (mae, "K")
        metrics["perturb.dt_abs_err_k"] = (plain["pass"]["dt_abs_err_k"], "K")
        untraced_s, traced_s = plain["pass"]["run_s"], traced["pass"]["run_s"]
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.untraced_run_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        # The gap above is as noisy as two passes; this estimate is steady.
        spans_n = metrics["trace.spans"][0]
        metrics["trace.span_cost_s"] = (spans_n * traced["span_cost_ns"] / 1e9, "s")
        return metrics

    def environment(self) -> dict:
        worker_env = next((r["env"] for r in self.log if "env" in r), {})
        return {**worker_env, "nproc": self.threads, "cpu_count": os.cpu_count(),
                "blas_threads_set": self.threads, "git_commit": git_commit(),
                "run_id": self.run_id, "args": vars(self.args)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lczkit", "__init__.py")):
        print(f"no lczkit source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    harness = Harness(args)
    shutil.rmtree(harness.work, ignore_errors=True)
    os.makedirs(harness.work)
    if args.trace:
        metrics = harness.traced()
    else:
        metrics = {k: (v, UNITS[k]) for k, v in harness.measure().items()}
    correct = bool(metrics) and all(harness.checks.values()) and harness.attempted > 0
    result = {"correct": correct, "attempted": max(harness.attempted, 1),
              "failed": harness.failed if harness.attempted else 1,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    env = harness.environment()
    with open(os.path.join(harness.work, "result.json"), "w") as fh:
        json.dump({"result": result, "checks": harness.checks, "environment": env,
                   "workers": harness.log}, fh, indent=1)
    print("environment " + json.dumps(env, sort_keys=True))
    print("checks " + json.dumps(harness.checks, sort_keys=True))
    criterion_8 = [p["criterion_8"] for p in harness.passes() if "criterion_8" in p]
    if criterion_8:
        print("criterion_8 (reported, not gated) " + json.dumps(criterion_8))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
