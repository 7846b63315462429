"""Acceptance criteria, one test per criterion.

Each test prints one `[criterion N] PASS/FAIL` line with the measured
numbers (visible with pytest -s; the test verdicts themselves mirror the
lines).  Experiments are run once per session through the same config files
shipped in configs/ and shared across criteria.
"""

import glob
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from outwalk import config as cfgmod
from outwalk import freegroup as fg
from outwalk import invariants, rose, stats, tree
from outwalk.walk import run_experiment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")


def report(n, ok, detail):
    print("[criterion %d] %s: %s" % (n, "PASS" if ok else "FAIL", detail))
    return ok


def load(name):
    return cfgmod.load_config(os.path.join(CONFIGS, name))


def run_from_config(cfg):
    mu = cfgmod.build_measure(cfg)
    wc = cfgmod.build_walk_config(cfg)
    t0 = time.perf_counter()
    records = run_experiment(mu, wc, workers=1)
    return mu, records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def tree_experiment():
    return run_from_config(load("tree_srw_f2.json"))


@pytest.fixture(scope="module")
def outer_experiment():
    return run_from_config(load("outf2_clt.json"))


@pytest.fixture(scope="module")
def deviation_experiment():
    return run_from_config(load("outf2_deviation.json"))


@pytest.fixture(scope="module")
def lazy_outer_experiment():
    return run_from_config(load("outf2_gap.json"))


def test_criterion_1_exactness_suite():
    rng = np.random.default_rng(20260816)
    parts = []
    for name, check, count in (
            ("cocycle", invariants.sigma_cocycle_identity, 5000),  # ranks 2, 3
            ("Busemann", invariants.busemann_cocycle, 10000),
            ("residual", invariants.lemma_identity_residuals, 100000),
            ("four-point", invariants.four_point_condition, 100000)):
        t0 = time.perf_counter()
        check(rng, count)
        parts.append((name, time.perf_counter() - t0))

    elapsed = sum(seconds for _, seconds in parts)
    assert report(1, elapsed < 30.0,
                  "cocycle/Busemann/residual/four-point all exact, "
                  "%.1fs (budget 30s; %s)" % (elapsed, ", ".join(
                      "%s %.1fs" % part for part in parts)))


def test_criterion_2_white_formula_oracle():
    rng = np.random.default_rng(414)
    parts = []
    for rank, max_len, count in ((2, 12, 200), (3, 8, 50)):
        t0 = time.perf_counter()
        for _ in range(count):
            t = invariants.random_rose(rng, rank)
            u = invariants.random_rose(rng, rank)
            brute = rose.brute_force_max_stretch(t, u, max_len)
            cand = rose.max_stretch(t, u)
            assert isinstance(brute, Fraction) and isinstance(cand, Fraction)
            assert brute == cand, \
                "enumerated sup %s != candidate max %s" % (brute, cand)
        parts.append((rank, time.perf_counter() - t0))

    elapsed = sum(seconds for _, seconds in parts)
    assert report(2, elapsed < 120.0,
                  "200 rank-2 + 50 rank-3 pairs agree exactly, "
                  "%.1fs (budget 120s; %s)" % (elapsed, ", ".join(
                      "rank-%d %.1fs" % part for part in parts)))


def test_criterion_3_tree_calibration(tree_experiment):
    mu, records, run_time = tree_experiment
    est = stats.drift_estimate(records)
    rep = stats.clt_report(records, est.lambda_hat)
    stat, p = stats.ks_test(rep.standardized_samples, 0.75)

    ok_drift = 0.48 <= est.lambda_hat <= 0.52
    ok_var = 0.67 <= rep.variance_hat <= 0.83
    ok_ks = p > 0.01
    detail = ("drift %.4f in [0.48,0.52]; variance %.4f in [0.67,0.83]; "
              "KS vs Normal(0,0.75) p=%.3f > 0.01; run %.1fs (budget 300s)"
              % (est.lambda_hat, rep.variance_hat, p, run_time))
    assert report(3, ok_drift and ok_var and ok_ks and run_time < 300, detail)


def test_criterion_4_outer_clt(outer_experiment):
    mu, records, run_time = outer_experiment
    est = stats.drift_estimate(records)
    rep = stats.clt_report(records, est.lambda_hat)

    # the tracked list pins the five primitive classes: a, b, ab, ab^-1,
    # and the image of a under a fixed automorphism
    labels = set(stats.class_labels(records))
    assert labels == {"a", "b", "ab", "aB", "aba"}
    phi = fg.from_trace(2, ["R:1:2:+", "R:2:1:+"])
    assert fg.format_word(phi.apply(fg.parse_word("a"))) == "aba"

    ok_positive = est.lambda_hat > 5 * est.std_error
    ok_classes = est.max_class_spread <= 0.05
    ok_ks = rep.ks_p_value > 0.01
    stats.verify_sigma_domination(records)

    detail = ("lambda %.4f = %.0f SEs > 5; class spread %.2f%% <= 5%%; "
              "KS vs Normal(0,V) p=%.3f > 0.01; sigma <= kappa everywhere; "
              "run %.1fs (budget 900s)"
              % (est.lambda_hat, est.lambda_hat / est.std_error,
                 100 * est.max_class_spread, rep.ks_p_value, run_time))
    assert report(4, ok_positive and ok_classes and ok_ks and run_time < 900,
                  detail)


def test_criterion_5_deviation_principle(tree_experiment,
                                         deviation_experiment):
    """Exceedance of the epsilon n band around the drift must die out.

    The tree walk satisfies it comfortably.  The automorphism walk needs a
    long horizon: with lambda near 0.10 and variance near 0.11, the band
    epsilon = 0.2 lambda is slow to dominate the sqrt(n V) fluctuations.
    On the outf2_clt measure the exceedance is 0.592 at n = 60, where exact
    words under the 2^24-letter cap stop, and 0.097 at n = 750 and 0.051 at
    n = 1000.  The outer half therefore runs outf2_deviation.json: the same
    measure to n = 1500 on the exact GL(2,Z) backend, where it is 0.017.
    """
    curves = {}
    for name, (mu, records, _) in (("tree", tree_experiment),
                                   ("outer", deviation_experiment)):
        lam = stats.drift_estimate(records).lambda_hat
        grid = list(records[0].checkpoints)
        curve = stats.deviation_curve(records, lam, 0.2 * lam, grid)
        probs = [p for _, p in curve.points]
        tail = probs[len(probs) // 4:]
        curves[name] = (probs[-1], all(a >= b for a, b in zip(tail, tail[1:])))

    detail = ("tree final %.3f (gate 0.05), tail monotone %s; "
              "outer final %.3f (gate 0.05), tail monotone %s"
              % (curves["tree"][0], curves["tree"][1],
                 curves["outer"][0], curves["outer"][1]))
    ok = all(final <= 0.05 and mono for final, mono in curves.values())
    report(5, ok, detail)
    assert curves["tree"][0] <= 0.05 and curves["tree"][1]
    assert curves["outer"][0] <= 0.05 and curves["outer"][1], (
        "outer exceedance still %.3f at horizon %d (tail monotone: %s): on "
        "this measure it is 0.592 at n = 60, 0.097 at n = 750, 0.051 at "
        "n = 1000 and 0.017 at n = 1500 with seed 7" %
        (curves["outer"][0], deviation_experiment[1][0].checkpoints[-1],
         curves["outer"][1]))


def test_criterion_6_boundedness_diagnostic(tree_experiment,
                                            lazy_outer_experiment):
    mu_o, gap_records, _ = lazy_outer_experiment
    outer_rep = stats.kappa_sigma_gap(gap_records, "a")
    mu_t, tree_records, _ = tree_experiment
    tree_rep = stats.kappa_sigma_gap(tree_records, "per:a")

    ok_outer = abs(outer_rep.median_ratio - 1.0) <= 0.20
    ok_tree = abs(tree_rep.median_ratio - 1.0) <= 0.20
    detail = ("outer median sup-gap %.4f at H=%d vs %.4f at H/2 (ratio %.3f); "
              "tree %.4f vs %.4f (ratio %.3f); both within 20%%"
              % (outer_rep.quantiles[0.5][0], outer_rep.horizon,
                 outer_rep.quantiles[0.5][1], outer_rep.median_ratio,
                 tree_rep.quantiles[0.5][0], tree_rep.quantiles[0.5][1],
                 tree_rep.median_ratio))
    assert report(6, ok_outer and ok_tree, detail)
    assert outer_rep.horizon == 500
    assert tree_rep.horizon == 2000


def test_criterion_7_centering_check(tree_experiment):
    mu, records, _ = tree_experiment
    cfg = load("tree_srw_f2.json")
    x_points = [tree.parse_boundary(s)
                for s in cfg["tree_lab"]["x_points"]]
    assert len(x_points) == 5
    rep = tree.centering_check(mu, x_points, records)
    ok = rep.max_drift_discrepancy_se <= 3.0
    assert report(
        7, ok, "estimated E[beta0(.,x)] vs drift: worst of 5 points "
        "%.2f combined SEs <= 3" % rep.max_drift_discrepancy_se)


def test_criterion_8_h2_tail(tree_experiment):
    mu, records, _ = tree_experiment
    rep = tree.centering_check(mu, [], records, {
        "point": tree.parse_boundary("per:b"), "alpha": 1.0,
        "grid": list(range(1, 7))})
    rate = rep.h2.rate
    ok = rate is not None and rate < 0.9
    assert report(
        8, ok, "Gromov product tail vs b-ray decays geometrically at rate "
        "%s < 0.9 (%d samples)"
        % ("n/a" if rate is None else "%.3f" % rate, rep.n_samples))


def test_criterion_9_worker_determinism(tmp_path):
    from outwalk import cli

    tree_cfg = load("tree_srw_f2.json")
    tree_cfg = dict(tree_cfg, trials=120, horizon=400,
                    checkpoints={"every": 100})
    outer_cfg = load("outf2_clt.json")
    outer_cfg = dict(outer_cfg, trials=80, horizon=40,
                     checkpoints={"every": 10})

    all_equal = True
    for tag, cfg, cmd in (("tree", tree_cfg, "drift"),
                          ("outer", outer_cfg, "clt")):
        path = tmp_path / ("%s.json" % tag)
        path.write_text(json.dumps(cfg))
        outs = []
        for workers in ("1", "8"):
            out = str(tmp_path / ("%s_w%s" % (tag, workers)))
            code = cli.main([cmd, "--config", str(path), "--out", out,
                             "--threads", workers])
            assert code == 0
            outs.append(out)
        for name in sorted(os.listdir(outs[0])):
            if name.endswith(".csv"):
                a = open(os.path.join(outs[0], name), "rb").read()
                b = open(os.path.join(outs[1], name), "rb").read()
                all_equal = all_equal and a == b

    assert report(9, all_equal,
                  "tree and outer CSV outputs byte-identical at 1 and 8 workers")
