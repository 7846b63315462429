"""One fresh process of the benchmark, started by run.py.

    python3 bench/child.py {setup|rep|trace} SPEC.json DIR

setup  times importing outwalk, loading and validating the config, building
       the measure and walk config (walk workloads) or warming rose's class
       enumeration (exact_oracles), from the first line of this process.
rep    does that set-up untimed, then times one run of the workload: wall
       and CPU time of the process and its pool workers, and peak RSS.
trace  like rep, with every public outwalk call wrapped in a span; then
       replays each trial alone in this process, untraced, to time it.

Outputs go to DIR/out, spans to DIR/spans, and the result to DIR/result.json.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def _load_program(spec):
    import outwalk
    from outwalk import cli, config, freegroup, rose, tree, walk  # noqa: F401
    src = os.path.join(spec["root"], "src") + os.sep
    if not os.path.abspath(outwalk.__file__).startswith(src):
        sys.exit("outwalk was imported from %s, not from %s"
                 % (outwalk.__file__, src))


def _prepare(spec):
    _load_program(spec)
    if spec["workload"] == "exact_oracles":
        workloads.warm_oracle_caches()
    else:
        from outwalk import config
        cfg = config.load_config(spec["config"])
        config.build_measure(cfg)
        config.build_walk_config(cfg)


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    # this process's peak plus that of its largest reaped worker (Linux: KiB)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _run(spec, out_dir, seen):
    """Run the workload once; return (attempted, failed).

    seen receives the experiment's arguments and records (walk workloads).
    """
    if spec["workload"] == "exact_oracles":
        attempted, failed, summary = workloads.run_oracles(spec["seed"])
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "oracles_summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return attempted, failed

    from outwalk import cli, walk
    run = walk.run_experiment

    def observed(*args, **kwargs):
        seen["args"] = (args, kwargs)
        try:
            seen["records"] = run(*args, **kwargs)
        except walk.ExperimentError as exc:
            seen["failed_trials"] = len(exc.failures)
            raise
        return seen["records"]

    walk.run_experiment = observed
    try:
        rc = cli.main(spec["argv"] + ["--out", out_dir])
    finally:
        walk.run_experiment = run
    trials = spec["trials"]
    if rc == 0:
        return trials, 0
    # a nonzero exit without per-trial detail fails every trial
    return trials, seen.get("failed_trials", trials)


def _timed(spec, out_dir, seen):
    result = {}
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        result["attempted"], result["failed"] = _run(spec, out_dir, seen)
    except Exception as exc:        # reported, never averaged away
        result["attempted"] = spec.get("trials", 1)
        result["failed"] = result["attempted"]
        result["error"] = "%s: %s" % (type(exc).__name__, exc)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def _replay(tracer, seen):
    """Time every trial alone in this process with tracing removed."""
    from outwalk import walk
    tracer.uninstall()
    (mu, config, *rest), kwargs = seen["args"]
    workers = kwargs.get("workers", rest[0] if rest else 1)
    trial_ms = []
    for t in range(config.trials):
        t0 = time.perf_counter()
        walk.sample_path(mu, config, t)
        trial_ms.append((time.perf_counter() - t0) * 1e3)
    records = seen["records"]
    return {
        "trial_ms": trial_ms,
        "peak_letters": [r.peak_letters for r in records],
        "spot_checks": sum(len(r.spot_checked) for r in records),
        "steps": len(records) * config.horizon,
        "workers": max(1, workers),
    }


def main(argv):
    mode, spec_path, work = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    out_dir = os.path.join(work, "out")
    if mode == "setup":
        _prepare(spec)
        result = {"setup_s": time.perf_counter() - T0}
    elif mode == "rep":
        _prepare(spec)
        result = _timed(spec, out_dir, {})
    elif mode == "trace":
        from tracer import Tracer
        _prepare(spec)
        span_dir = os.path.join(work, "spans")
        os.makedirs(span_dir)
        tracer = Tracer(span_dir)
        tracer.install()
        seen = {}
        result = _timed(spec, out_dir, seen)
        tracer.flush()
        result["missing_targets"] = tracer.missing
        result["walk_info"] = _replay(tracer, seen) if "records" in seen \
            else None
    else:
        sys.exit("unknown mode %r" % mode)
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
