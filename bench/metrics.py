"""Metric names and units, and per-layer metrics derived from spans."""

from __future__ import annotations

import re
import statistics
from collections import namedtuple

import numpy as np

from tracer import self_times

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# bounds live in BENCHMARK.json
Metric = namedtuple("Metric", "name unit better span key")

END_TO_END = (
    Metric("wall_s", "s", "lower", None, None),
    Metric("cpu_s", "s", "lower", None, None),
    Metric("peak_rss_mb", "MB", "lower", None, None),
    Metric("setup_s", "s", "lower", None, None),
)

APPLY_BUCKETS = (("le64", 64), ("le4k", 4096), ("le1m", 1 << 20),
                 ("gt1m", None))


def _span(span, *suffixes, unit="s"):
    """Metrics read from the totals of one span name."""
    out = []
    for suffix in suffixes:
        u = "count" if suffix in ("calls", "letters_in", "letters_out") \
            else unit
        out.append(Metric("%s.%s" % (span, suffix), u, "lower", span,
                          "%s.%s" % (span, suffix)))
    return out


def _walk(name, unit, better="lower"):
    """Metrics read from the experiment's records and the trial replay."""
    return [Metric(name, unit, better, "walk.run_experiment", None)]


PER_LAYER = tuple(
    _span("config.load_config", "s") + _span("config.build", "s")
    + _span("freegroup.apply", "calls", "self_s", "letters_in", "letters_out")
    + _span("freegroup.apply", *("self_s." + b for b, _ in APPLY_BUCKETS))
    + _span("freegroup.reduce", "calls", "self_s", "letters_in")
    + _span("freegroup.compose", "calls", "self_s")
    + _span("freegroup.automorphism_init", "calls", "self_s")
    + _span("freegroup.cyclic_reduce", "calls", "self_s")
    + _span("freegroup.canonical_rotation", "calls", "self_s")
    + _span("freegroup.common_prefix_len", "calls", "self_s")
    + _span("rose.brute_force_max_stretch", "calls", "self_s")
    + [Metric("rose.classes_scanned", "count", "lower",
              "rose.brute_force_max_stretch", "rose.classes_scanned")]
    + _span("rose.max_stretch", "calls", "self_s")
    + _span("rose.sigma_ratio", "calls", "self_s")
    + _span("tree.gromov_product", "calls", "self_s")
    + _span("tree.busemann", "calls", "self_s")
    + _span("tree.boundary_action", "calls", "self_s")
    + _span("tree.boundary_letters", "calls", "self_s")
    + _span("tree.lemma_identities_check", "calls", "self_s")
    + _span("tree.four_point_slack", "calls", "self_s")
    + _span("tree.centering_check", "self_s")
    + _span("tree.psi_estimate", "self_s")
    + _span("tree.h2_tail_estimate", "self_s")
    + _span("walk.run_experiment", "s")
    + _walk("walk.trial_ms.p50", "ms") + _walk("walk.trial_ms.p99", "ms")
    + _walk("walk.steps", "count", "higher")
    + _walk("walk.peak_letters.p50", "letters")
    + _walk("walk.peak_letters.max", "letters")
    + _walk("walk.spot_checks", "count", "higher")
    + _walk("walk.pool_eff", "ratio", "higher")
    + _span("stats.drift_estimate", "s") + _span("stats.clt_report", "s")
    + _span("stats.ks_test", "calls", "s")
    + _span("stats.verify_sigma_domination", "s")
    + [Metric("cli.self_s", "s", "lower", "cli.main", "cli.main.self_s"),
       Metric("trace.overhead_s", "s", "lower", None, None)])

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def _bucket(letters):
    for label, top in APPLY_BUCKETS:
        if top is None or letters <= top:
            return label


def span_totals(tables):
    """Sum calls, self time, inclusive time and counts per span name.

    tables: [(names, rows)] per process, rows of (name id, start ns, end ns,
    parent, a, b).  Keys are "<span>.calls", "<span>.self_s", "<span>.s",
    plus the counts carried by apply, reduce and the brute-force oracle.
    """
    acc = {}

    def add(key, v):
        acc[key] = acc.get(key, 0) + v

    for names, rows in tables:
        if not len(rows):
            continue
        selfs = self_times(rows[:, 1], rows[:, 2], rows[:, 3])
        for (nid, t0, t1, _, a, b), own in zip(rows.tolist(), selfs):
            name = names[nid]
            add(name + ".calls", 1)
            add(name + ".self_s", own / 1e9)
            add(name + ".s", (t1 - t0) / 1e9)
            if name == "freegroup.apply":
                add(name + ".letters_in", a)
                add(name + ".letters_out", b)
                add(name + ".self_s." + _bucket(a), own / 1e9)
            elif name == "freegroup.reduce":
                add(name + ".letters_in", a)
            elif name == "rose.brute_force_max_stretch":
                add("rose.classes_scanned", a)
    return acc


def _walk_values(acc, info):
    run_s = acc.get("walk.run_experiment.s", 0)
    return {
        "walk.trial_ms.p50": statistics.median(info["trial_ms"]),
        "walk.trial_ms.p99": float(np.percentile(info["trial_ms"], 99)),
        "walk.steps": info["steps"],
        "walk.peak_letters.p50": statistics.median(info["peak_letters"]),
        "walk.peak_letters.max": max(info["peak_letters"]),
        "walk.spot_checks": info["spot_checks"],
        # trial time summed over all processes, over the pool's capacity
        "walk.pool_eff": (acc.get("walk.trial.s", 0) / (info["workers"] * run_s)
                          if run_s else 0),
    }


def layer_metrics(tables, walk_info, overhead_s):
    """Every PER_LAYER metric, and the names this run did not exercise.

    A layer this workload leaves idle reports 0 and is listed as missing.
    walk_info: None when no experiment ran, else the replayed one-process
    trial times (ms), per-trial peak letters, spot checks, steps and the
    worker count of the experiment.
    """
    acc = span_totals(tables)
    walk = _walk_values(acc, walk_info) if walk_info else {}
    values = {}
    missing = []
    for m in PER_LAYER:
        if m.name == "trace.overhead_s":
            values[m.name] = overhead_s
        elif m.key is None:
            values[m.name] = walk.get(m.name, 0)
            if not walk:
                missing.append(m.name)
        else:
            values[m.name] = acc.get(m.key, 0)
            if m.span + ".calls" not in acc:
                missing.append(m.name)
    return values, missing
