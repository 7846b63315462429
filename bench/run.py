"""The outwalk benchmark.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Run from anywhere; the program under test is the checkout that holds this
directory (its src/ and configs/).  Each workload gets its inputs from the
seed, times set-up in fresh processes, then repeats the workload, each time
in a fresh process, for S seconds and reports medians.  Every repetition's
outputs are checked.  With --trace 1 the per-layer metrics come from one
traced repetition instead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import metrics
import workloads
from tracer import load_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170          # per workload, for all its child processes
DEFAULT_SECONDS = 30


class BenchError(RuntimeError):
    """The benchmark could not run in this directory."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="bench/run.py",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                   help="workload seed in [0, 2**64); %d reproduces the "
                        "shipped configs" % workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                   help="how long the repetitions run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    args = p.parse_args(argv)
    if not 0 <= args.seed < workloads.SEED_LIMIT:
        p.error("--seed must lie in [0, 2**64), got %d" % args.seed)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def check_checkout(root):
    need = [os.path.join(root, "src", "outwalk", "__init__.py")]
    need += [os.path.join(root, "configs", c)
             for c in ("outf2_clt.json", "tree_srw_f2.json")]
    absent = [p for p in need if not os.path.isfile(p)]
    if absent:
        raise BenchError("not an outwalk checkout, missing: "
                         + ", ".join(os.path.relpath(p, root) for p in absent))


def machine_record():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def file_digests(out_dir, names):
    """sha256 of each named output; None for a missing file."""
    out = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            out[name] = None
            continue
        with open(path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def digest_mismatches(actual, expected):
    """Names whose digest differs from the expected one (or is missing)."""
    return sorted(n for n in expected if actual.get(n) != expected[n])


class Runner:
    """Runs one workload's child processes inside a scratch directory."""

    def __init__(self, name, seed, work):
        self.name = name
        self.work = work
        self.spec = workloads.make_inputs(name, seed, ROOT, work)
        self.spec_path = os.path.join(work, "spec.json")
        with open(self.spec_path, "w") as fh:
            json.dump(self.spec, fh)
        with open(DIGESTS) as fh:
            recorded = json.load(fh).get(name, {})
        self.expected = recorded if workloads.digests_apply(name, seed) else {}
        self.first_digests = None
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self._count = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def child(self, mode):
        self._count += 1
        d = os.path.join(self.work, "%s-%d" % (mode, self._count))
        os.makedirs(d)
        # a session of its own, so that pool workers die with the child
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), mode,
             self.spec_path, d],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("%s child of %s ran past the %d s budget"
                             % (mode, self.name, RUN_BUDGET_S)) from None
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        result_path = os.path.join(d, "result.json")
        if proc.returncode != 0 or not os.path.isfile(result_path):
            raise BenchError("%s child of %s exited %d: %s" % (
                mode, self.name, proc.returncode, err.strip()[-2000:]))
        with open(result_path) as fh:
            result = json.load(fh)
        if mode != "setup":
            self._check(result, os.path.join(d, "out"))
        return result, d

    def _check(self, result, out_dir):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        if result["failed"]:
            self.problems.append("%d of %d operations failed%s" % (
                result["failed"], result["attempted"],
                ": " + result["error"] if "error" in result else ""))
        digests = file_digests(out_dir, self.spec["outputs"])
        if self.first_digests is None:
            self.first_digests = digests
        bad = digest_mismatches(digests, self.expected)
        if bad:
            self.problems.append("outputs differ from recorded digests: %s "
                                 "(got %s)" % (", ".join(bad), digests))
        if digests != self.first_digests:
            self.problems.append("outputs differ between repetitions")
        missing = [n for n, d in digests.items() if d is None]
        if missing:
            self.problems.append("outputs not written: " + ", ".join(missing))
        shutil.rmtree(out_dir, ignore_errors=True)

    def setup_times(self):
        self.child("setup")     # compiles bytecode and warms the file cache
        return [self.child("setup")[0]["setup_s"]
                for _ in range(SETUP_SAMPLES)]

    def repetitions(self, seconds):
        reps = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            reps.append(self.child("rep")[0])
            took = time.perf_counter() - t0
            if time.perf_counter() - start + took > seconds:
                return reps


def end_to_end(runner, seconds):
    setup = runner.setup_times()
    reps = runner.repetitions(seconds)
    values = {"setup_s": statistics.median(setup)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        values[key] = statistics.median(r[key] for r in reps)
    notes = ["medians of %d set-ups and %d repetitions" % (len(setup),
                                                          len(reps)),
             "setup_s: " + " ".join("%.3f" % s for s in setup)]
    notes += ["%s: %s" % (key, " ".join("%.3f" % r[key] for r in reps))
              for key in ("wall_s", "cpu_s", "peak_rss_mb")]
    return values, notes


def per_layer(runner, seconds):
    plain = runner.repetitions(seconds / 2.0)
    traced, d = runner.child("trace")
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    overhead = traced["wall_s"] - untraced_wall
    values, idle = metrics.layer_metrics(
        load_spans(os.path.join(d, "spans")), traced["walk_info"], overhead)
    notes = ["tracing overhead: traced wall_s %.3f s - untraced %.3f s "
             "(median of %d) = %.3f s" % (traced["wall_s"], untraced_wall,
                                         len(plain), overhead)]
    if idle:
        notes.append("not exercised by %s (reported as 0): %s"
                     % (runner.name, ", ".join(idle)))
    if traced["missing_targets"]:
        notes.append("not found in this outwalk, so not traced: "
                     + ", ".join(traced["missing_targets"]))
    return values, notes


def run_workload(name, seed, seconds, trace):
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=name + "-",
                            dir=os.path.join(ROOT, ".bench_work"))
    try:
        runner = Runner(name, seed, work)
        measure = per_layer if trace else end_to_end
        values, notes = measure(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return runner, values, notes


def _terminate(signum, frame):
    # unwinds through Runner.child, which kills the running child's group
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        check_checkout(ROOT)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    record = machine_record()
    record["loadavg_start"] = list(os.getloadavg())
    results = []
    try:
        for name in names:
            results.append((name,) + run_workload(name, args.seed,
                                                  args.seconds, args.trace))
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)
    record["loadavg_end"] = list(os.getloadavg())
    print("machine: " + json.dumps(record, sort_keys=True))

    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, runner, values, notes in results:
        ratio = runner.failed / runner.attempted if runner.attempted else 1.0
        print("== %s (seed %d)" % (name, args.seed))
        for note in notes:
            print("   " + note)
        for key, v in values.items():
            print("   %-40s %14.6g %s" % (key, v, metrics.UNITS[key]))
        print("   %-40s %14.6g ratio (%d of %d)" % (
            "fail_ratio", ratio, runner.failed, runner.attempted))
        for problem in dict.fromkeys(runner.problems):   # once each
            print("   INCORRECT: " + problem)
        out["correct"] = out["correct"] and not runner.problems
        out["attempted"] += runner.attempted
        out["failed"] += runner.failed
        prefix = "" if len(results) == 1 else name + "."
        for key, v in values.items():
            out["metrics"][prefix + key] = {"value": v,
                                            "unit": metrics.UNITS[key]}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
