"""In-memory span tracer that wraps outwalk's public functions from outside.

Nothing under src/ is changed: `Tracer.install` replaces module and class
attributes with timing wrappers, so every call that goes through those
names (including calls between outwalk's own modules) records one span.
A span is (name, start_ns, end_ns, parent, a, b); `a` and `b` are counts
taken at the same boundary (letters in and out for `apply`, classes scanned
for the brute-force oracle).  Spans stay in memory and are written to one
`.npz` file per process when the run ends; forked pool workers write theirs
from a multiprocessing finalizer.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from multiprocessing import util as mp_util

import numpy as np


def _apply_counts(args, kwargs, out):
    return len(args[1]), len(out)


def _reduce_counts(args, kwargs, out):
    return len(args[0]), 0


def _classes_scanned(args, kwargs, out):
    rose = importlib.import_module("outwalk.rose")
    blocks = getattr(rose, "_necklace_blocks", None)
    if blocks is None:
        return 0, 0
    return sum(len(b) for b in blocks(args[0].rank, args[2])), 0


# (module, attribute path, span name, count function)
TARGETS = (
    ("outwalk.config", "load_config", "config.load_config", None),
    ("outwalk.config", "build_measure", "config.build", None),
    ("outwalk.config", "build_walk_config", "config.build", None),
    ("outwalk.freegroup", "Automorphism.apply", "freegroup.apply", _apply_counts),
    ("outwalk.freegroup", "Automorphism.apply_inverse", "freegroup.apply",
     _apply_counts),
    ("outwalk.freegroup", "reduce", "freegroup.reduce", _reduce_counts),
    ("outwalk.freegroup", "compose", "freegroup.compose", None),
    ("outwalk.freegroup", "Automorphism.__init__",
     "freegroup.automorphism_init", None),
    ("outwalk.freegroup", "cyclic_reduce", "freegroup.cyclic_reduce", None),
    ("outwalk.freegroup", "canonical_rotation", "freegroup.canonical_rotation",
     None),
    ("outwalk.freegroup", "common_prefix_len", "freegroup.common_prefix_len",
     None),
    ("outwalk.rose", "brute_force_max_stretch", "rose.brute_force_max_stretch",
     _classes_scanned),
    ("outwalk.rose", "max_stretch", "rose.max_stretch", None),
    ("outwalk.rose", "sigma_ratio", "rose.sigma_ratio", None),
    ("outwalk.tree", "gromov_product", "tree.gromov_product", None),
    ("outwalk.tree", "busemann", "tree.busemann", None),
    ("outwalk.tree", "boundary_action", "tree.boundary_action", None),
    ("outwalk.tree", "BoundaryPoint.letter", "tree.boundary_letters", None),
    ("outwalk.tree", "BoundaryPoint.letters", "tree.boundary_letters", None),
    ("outwalk.tree", "lemma_identities_check", "tree.lemma_identities_check",
     None),
    ("outwalk.tree", "four_point_slack", "tree.four_point_slack", None),
    ("outwalk.tree", "centering_check", "tree.centering_check", None),
    ("outwalk.tree", "psi_estimate", "tree.psi_estimate", None),
    ("outwalk.tree", "h2_tail_estimate", "tree.h2_tail_estimate", None),
    ("outwalk.walk", "run_experiment", "walk.run_experiment", None),
    ("outwalk.walk", "sample_path", "walk.trial", None),
    ("outwalk.stats", "drift_estimate", "stats.drift_estimate", None),
    ("outwalk.stats", "clt_report", "stats.clt_report", None),
    ("outwalk.stats", "ks_test", "stats.ks_test", None),
    ("outwalk.stats", "verify_sigma_domination",
     "stats.verify_sigma_domination", None),
    ("outwalk.cli", "main", "cli.main", None),
)


class Tracer:
    """Records nested spans of the wrapped calls made in this process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = []
        self.missing = []       # targets this version of outwalk lacks
        self._installed = []    # (owner, attribute, unwrapped function)
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self):
        # a forked pool worker starts with its parent's spans; drop them and
        # write the worker's own when multiprocessing shuts the worker down
        self.spans.clear()
        self._stack.clear()
        mp_util.Finalize(self, self.flush, exitpriority=10)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            a = b = 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                t1 = clock()
                if count is not None:
                    a, b = count(args, kwargs, out)
                return out
            except BaseException:
                t1 = clock()
                raise
            finally:
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, a, b)

        return traced

    def install(self, targets=TARGETS):
        for module_name, path, name, count in targets:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append("%s.%s" % (module_name, path))
                continue
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, count))

    def uninstall(self):
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def flush(self):
        """Write this process's spans to <out_dir>/spans-<pid>.npz."""
        done = [s for s in self.spans if s is not None]
        data = np.array(done, dtype=np.int64).reshape(-1, 6)
        np.savez(os.path.join(self.out_dir, "spans-%d.npz" % os.getpid()),
                 names=np.array(json.dumps(self.names)), spans=data)


def load_spans(out_dir):
    """Per-process span tables: list of (names, int64 array of rows)."""
    out = []
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith("spans-") and fname.endswith(".npz"):
            with np.load(os.path.join(out_dir, fname)) as z:
                out.append((json.loads(str(z["names"])), z["spans"]))
    return out


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another or stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    n = len(starts)
    kids = {}
    for i in range(n):
        p = int(parents[i])
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = [int(ends[i]) - int(starts[i]) for i in range(n)]
    for p, idx in kids.items():
        lo, hi = int(starts[p]), int(ends[p])
        ivs = sorted((max(int(starts[c]), lo), min(int(ends[c]), hi))
                     for c in idx)
        covered = 0
        cur_s = cur_e = None
        for s, e in ivs:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out
