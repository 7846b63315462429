"""Command line entry point.

Subcommands: verify (invariant suites), drift, clt, deviation, gap,
distance, tree-lab.  Experiment commands read one JSON config, write CSV
and JSON artifacts plus a manifest into the output directory, and are
byte-reproducible for a fixed (config, seed, code version) whatever the
thread count.  Exit codes: 0 success, 1 computational failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import config as cfgmod
from . import freegroup as fg
from . import rose
from . import stats
from . import tree as treemod
from . import walk


# ---------------------------------------------------------------------------
# output helpers

def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, obj):
    # NaN and Infinity are not JSON; encoding first leaves no partial file
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_manifest(out_dir, command, cfg, seed, outputs):
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command,
        "config_hash": cfgmod.config_hash(cfg),
        "seed": int(seed),
        "versions": {
            "outwalk": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "outputs": sorted(outputs),
    })


def _prepare(args, expect_mode=None):
    cfg = cfgmod.load_config(args.config)
    if expect_mode and cfg["mode"] != expect_mode:
        raise cfgmod.ConfigError("%s: command needs mode %r, config has %r"
                                 % (args.config, expect_mode, cfg["mode"]))
    mu = cfgmod.build_measure(cfg)
    wcfg = cfgmod.build_walk_config(cfg, args.seed)
    os.makedirs(args.out, exist_ok=True)
    return cfg, mu, wcfg


def _run_records(mu, wcfg, threads):
    records = walk.run_experiment(mu, wcfg, workers=max(1, threads))
    stats.verify_sigma_domination(records)
    return records


# ---------------------------------------------------------------------------
# experiment commands

def cmd_drift(args):
    cfg, mu, wcfg = _prepare(args)
    records = _run_records(mu, wcfg, args.threads)
    de = stats.drift_estimate(records)
    rows = [("kappa", de.lambda_hat, de.std_error)]
    rows += [(lab, est, se) for lab, (est, se) in de.per_class.items()]
    _write_csv(os.path.join(args.out, "drift.csv"),
               ("class", "lambda_hat", "stderr"), rows)
    _write_json(os.path.join(args.out, "drift_summary.json"), {
        "observable": "kappa",
        "lambda_hat": de.lambda_hat,
        "std_error": de.std_error,
        "horizon": de.horizon,
        "trials": de.trials,
        "per_class": {lab: {"estimate": est, "std_error": se}
                      for lab, (est, se) in de.per_class.items()},
        "flagged_over_3_se": de.flagged,
        "max_class_spread": de.max_class_spread,
        "tolerances": cfgmod.tolerances(cfg),
    })
    _write_manifest(args.out, "drift", cfg, wcfg.master_seed,
                    ["drift.csv", "drift_summary.json"])
    print("drift: lambda_hat=%.6f +- %.6f over %d trials (horizon %d)"
          % (de.lambda_hat, de.std_error, de.trials, de.horizon))
    return 0


def _clt_json(rep):
    return {
        "observable": rep.observable,
        "horizon": rep.horizon,
        "variance_hat": rep.variance_hat,
        "ks_statistic": rep.ks_statistic,
        "ks_p_value": rep.ks_p_value,
        "degenerate": rep.degenerate,
    }


def cmd_clt(args):
    cfg, mu, wcfg = _prepare(args)
    records = _run_records(mu, wcfg, args.threads)
    de = stats.drift_estimate(records)
    main = stats.clt_report(records, de.lambda_hat,
                            min_trials=min(stats.MIN_CLT_TRIALS, wcfg.trials))
    per_class = {}
    for lab in stats.class_labels(records):
        key = ("loglen:" + lab) if records[0].lengths else ("sigma:" + lab)
        per_class[lab] = _clt_json(stats.clt_report(
            records, de.lambda_hat, observable=key,
            min_trials=min(stats.MIN_CLT_TRIALS, wcfg.trials)))
    _write_csv(os.path.join(args.out, "clt.csv"),
               ("trial", "standardized_value"),
               [(i, v) for i, v in enumerate(main.standardized_samples)])
    _write_json(os.path.join(args.out, "clt_summary.json"), {
        "lambda_hat": de.lambda_hat,
        "main": _clt_json(main),
        "per_class": per_class,
        "tolerances": cfgmod.tolerances(cfg),
    })
    _write_manifest(args.out, "clt", cfg, wcfg.master_seed,
                    ["clt.csv", "clt_summary.json"])
    if main.degenerate:
        print("clt: degenerate distribution (constant standardized values)")
    else:
        print("clt: variance_hat=%.4f ks_stat=%.4f ks_p=%.4f"
              % (main.variance_hat, main.ks_statistic, main.ks_p_value))
    return 0


def cmd_deviation(args):
    cfg, mu, wcfg = _prepare(args)
    records = _run_records(mu, wcfg, args.threads)
    de = stats.drift_estimate(records)
    section = cfg.get("deviation", {})
    if "epsilon" in section:
        epsilon = float(section["epsilon"])
    else:
        epsilon = float(section.get("epsilon_factor", 0.2)) * de.lambda_hat
    grid = section.get("grid", list(wcfg.checkpoints))
    curve = stats.deviation_curve(records, de.lambda_hat, epsilon, grid)
    _write_csv(os.path.join(args.out, "deviation.csv"),
               ("n", "epsilon", "probability"),
               [(n, epsilon, p) for n, p in curve.points])
    _write_json(os.path.join(args.out, "deviation_summary.json"), {
        "lambda_hat": de.lambda_hat,
        "epsilon": curve.epsilon,
        "points": [{"n": n, "probability": p} for n, p in curve.points],
        "decay_rate_fit": curve.decay_rate_fit,
        "summable": curve.summable,
        "tolerances": cfgmod.tolerances(cfg),
    })
    _write_manifest(args.out, "deviation", cfg, wcfg.master_seed,
                    ["deviation.csv", "deviation_summary.json"])
    print("deviation: epsilon=%.5f final probability=%.4f rate=%.4f"
          % (epsilon, curve.points[-1][1], curve.decay_rate_fit))
    return 0


def cmd_gap(args):
    cfg, mu, wcfg = _prepare(args)
    records = _run_records(mu, wcfg, args.threads)
    labels = stats.class_labels(records)
    if not labels:
        raise cfgmod.ConfigError("gap command needs at least one tracked class")
    label = cfg.get("gap", {}).get("class", labels[0])
    gr = stats.kappa_sigma_gap(records, label)
    _write_csv(os.path.join(args.out, "gap.csv"),
               ("trial", "sup_gap"),
               [(r.trial_index, g) for r, g in zip(records, gr.sup_gaps)])
    _write_json(os.path.join(args.out, "gap_summary.json"), {
        "class": label,
        "horizon": gr.horizon,
        "half_horizon": gr.half_horizon,
        "quantiles": {str(q): {"full": f, "half": h}
                      for q, (f, h) in gr.quantiles.items()},
        # infinite when only the half-horizon median is 0; JSON has no inf
        "median_ratio": (gr.median_ratio if math.isfinite(gr.median_ratio)
                         else None),
        "tolerances": cfgmod.tolerances(cfg),
    })
    _write_manifest(args.out, "gap", cfg, wcfg.master_seed,
                    ["gap.csv", "gap_summary.json"])
    print("gap(%s): median sup-gap %.4f at H=%d vs %.4f at H=%d"
          % (label, gr.quantiles[0.5][0], gr.horizon,
             gr.quantiles[0.5][1], gr.half_horizon))
    return 0


def cmd_distance(args):
    cfg = cfgmod.load_config(args.config)
    points = cfgmod.build_rose_points(cfg)
    os.makedirs(args.out, exist_ok=True)
    matrix = []
    for t in points:
        row = []
        for u in points:
            stretch = rose.max_stretch(t, u)
            row.append({"stretch": "%d/%d" % (stretch.numerator,
                                              stretch.denominator),
                        "log": math.log(stretch)})
        matrix.append(row)
    _write_json(os.path.join(args.out, "distance_summary.json"),
                {"matrix": matrix, "points": cfg["distance"]["points"]})
    _write_manifest(args.out, "distance", cfg, cfg["seed"],
                    ["distance_summary.json"])
    for i, row in enumerate(matrix):
        print("  ".join("d(%d,%d)=log(%s)=%.6f" % (i, j, c["stretch"], c["log"])
                        for j, c in enumerate(row) if i != j))
    return 0


def cmd_tree_lab(args):
    cfg, mu, wcfg = _prepare(args, expect_mode="tree")
    if wcfg.trials < 2:
        # one trial has no standard error: the summary would carry NaN
        raise cfgmod.ConfigError("%s: at $.trials: tree-lab needs at least 2 "
                                 "trials, got %d" % (args.config, wcfg.trials))
    records = _run_records(mu, wcfg, args.threads)
    section = cfg.get("tree_lab", {})
    x_points = [treemod.parse_boundary(s)
                for s in section.get("x_points", ["per:a"])]
    samples = [r.bnd for r in records if r.bnd is not None and r.bnd.depth > 0]
    n_psi = min(len(samples), section.get("psi_samples", len(samples)))
    psi = {treemod.format_boundary(x):
           treemod.psi_estimate(x, samples[:n_psi]) for x in x_points}
    cent = treemod.centering_check(mu, x_points, records)
    out = {
        "lambda_hat": cent.lambda_hat,
        "lambda_se": cent.lambda_se,
        "n_boundary_samples": len(samples),
        "psi": {lab: {"value": e.value, "std_error": e.std_error}
                for lab, e in psi.items()},
        "centering": {lab: {"estimate": est, "std_error": se}
                      for lab, (est, se) in cent.estimates.items()},
        "max_drift_discrepancy_se": cent.max_drift_discrepancy_se,
    }
    h2 = section.get("h2")
    if h2:
        x = treemod.parse_boundary(h2["x"])
        curve = treemod.h2_tail_estimate(
            x, samples, h2.get("alpha", 1.0),
            h2.get("grid", [1, 2, 3, 4, 5, 6]))
        out["h2"] = {
            "x": h2["x"],
            "alpha": curve.alpha,
            "points": [{"n": n, "probability": p} for n, p in curve.points],
            "decay_rate": curve.decay_rate,
            "summable": curve.summable,
        }
    _write_json(os.path.join(args.out, "tree_lab_summary.json"), out)
    _write_manifest(args.out, "tree-lab", cfg, wcfg.master_seed,
                    ["tree_lab_summary.json"])
    print("tree-lab: lambda_hat=%.4f, max centering discrepancy %.2f "
          "combined SEs over %d boundary points"
          % (cent.lambda_hat, cent.max_drift_discrepancy_se, len(x_points)))
    if h2:
        print("tree-lab: H2 tail rate %.4f (summable: %s)"
              % (out["h2"]["decay_rate"], out["h2"]["summable"]))
    return 0


# ---------------------------------------------------------------------------
# verify suites

def _check(checks, name, fn):
    try:
        fn()
        checks.append({"name": name, "passed": True, "detail": ""})
    except Exception as exc:
        checks.append({"name": name, "passed": False,
                       "detail": "%s: %s" % (type(exc).__name__, exc)})


def _suite_algebra(checks):
    rng = np.random.default_rng(2024)

    def reduction_laws():
        for _ in range(400):
            w = rng.integers(-3, 4, size=int(rng.integers(0, 60)))
            w = w[w != 0].astype(np.int8)
            r = fg.reduce(w)
            assert fg.is_reduced(r)
            assert np.array_equal(fg.reduce(r), r)
            assert len(fg.concat(r, fg.inverse(r))) == 0

    def cyclic_invariance():
        for _ in range(300):
            g = fg.random_reduced_word(rng, 3, int(rng.integers(1, 20)))
            h = fg.random_reduced_word(rng, 3, int(rng.integers(0, 8)))
            conj = fg.concat(h, g, fg.inverse(h))
            assert fg.word_key(fg.cyclic_word(conj)) == \
                fg.word_key(fg.cyclic_word(g))

    def canonical_rotation_minimal():
        def code_key(w):
            return tuple(fg.letter_code(int(v)) for v in w)
        for _ in range(200):
            core, _ = fg.cyclic_reduce(
                fg.random_reduced_word(rng, 2, int(rng.integers(1, 14))))
            if len(core) == 0:
                continue
            canon = fg.canonical_rotation(core)
            keys = [code_key(np.roll(core, -k)) for k in range(len(core))]
            assert code_key(canon) == min(keys)

    def automorphism_round_trip():
        for _ in range(150):
            phi = fg.random_automorphism(rng, 3, int(rng.integers(1, 12)))
            w = fg.random_reduced_word(rng, 3, int(rng.integers(0, 30)))
            assert np.array_equal(phi.apply_inverse(phi.apply(w)), w)
            assert np.array_equal(fg.compose(phi, phi.inverted()).forward[0],
                                  fg.Automorphism.identity(3).forward[0])

    def homomorphism_property():
        for _ in range(150):
            phi = fg.random_automorphism(rng, 2, int(rng.integers(1, 10)))
            u = fg.random_reduced_word(rng, 2, int(rng.integers(0, 15)))
            v = fg.random_reduced_word(rng, 2, int(rng.integers(0, 15)))
            assert np.array_equal(phi.apply(fg.concat(u, v)),
                                  fg.concat(phi.apply(u), phi.apply(v)))

    def sigma_cocycle_identity():
        for _ in range(2000):
            rank = 2 if rng.random() < 0.7 else 3
            phi = fg.random_automorphism(rng, rank, int(rng.integers(1, 8)))
            psi = fg.random_automorphism(rng, rank, int(rng.integers(1, 8)))
            g = fg.random_reduced_word(rng, rank, int(rng.integers(1, 10)))
            if fg.cyclic_length(g) == 0:
                continue
            lhs = fg.cyclic_length(fg.compose(phi, psi).apply(g))
            rhs = fg.cyclic_length(phi.apply(psi.apply(g)))
            # exact integer equality; the log cocycle identity follows
            assert lhs == rhs

    _check(checks, "algebra/reduction-laws", reduction_laws)
    _check(checks, "algebra/cyclic-conjugacy-invariance", cyclic_invariance)
    _check(checks, "algebra/canonical-rotation-minimal", canonical_rotation_minimal)
    _check(checks, "algebra/automorphism-round-trip", automorphism_round_trip)
    _check(checks, "algebra/homomorphism-property", homomorphism_property)
    _check(checks, "algebra/sigma-cocycle-identity", sigma_cocycle_identity)


def _suite_outer(checks):
    rng = np.random.default_rng(77)

    def frozen_asymmetry():
        t = rose.unit_rose(2)
        u = rose.rose_point(["9/10", "1/10"])
        from fractions import Fraction
        assert rose.max_stretch(t, u) == Fraction(9, 5)
        assert rose.max_stretch(u, t) == Fraction(5, 1)

    def frozen_translation_lengths():
        t = rose.unit_rose(2)
        assert rose.translation_length(fg.parse_word("ab"), t) == 1
        assert rose.translation_length(fg.parse_word("abA"), t) == \
            rose.translation_length(fg.parse_word("b"), t)
        psi = fg.from_trace(2, ["R:1:2:+"])   # a -> ab
        marked = rose.rose_point(["1/2", "1/2"], psi)
        assert rose.translation_length(fg.parse_word("a"), marked) == 1

    def frozen_kappa():
        assert rose.kappa(fg.Automorphism.identity(2)) == 0.0
        phi = fg.from_trace(2, ["R:1:2:+"])
        assert rose.kappa_stretch(phi) == 2

    def sigma_dominated_by_kappa():
        for _ in range(200):
            phi = fg.random_automorphism(rng, 2, int(rng.integers(1, 10)))
            g = fg.random_reduced_word(rng, 2, int(rng.integers(1, 12)))
            if fg.cyclic_length(g) == 0:
                continue
            assert rose.sigma_ratio(phi, g) <= rose.kappa_stretch(phi)

    def white_equality():
        cases = [(2, 8)] * 25 + [(3, 6)] * 5
        for rank, max_len in cases:
            t = _random_rose(rng, rank)
            u = _random_rose(rng, rank)
            brute = rose.brute_force_max_stretch(t, u, max_len)
            cand = rose.max_stretch(t, u)
            assert brute == cand, \
                "White equality failed: brute-force sup %s, candidate max %s" \
                % (brute, cand)

    def triangle_inequality():
        for _ in range(50):
            pts = [_random_rose(rng, 2) for _ in range(3)]
            d01 = rose.lipschitz_distance(pts[0], pts[1])
            d12 = rose.lipschitz_distance(pts[1], pts[2])
            d02 = rose.lipschitz_distance(pts[0], pts[2])
            assert d02 <= d01 + d12 + 1e-12

    _check(checks, "outer-space/frozen-asymmetry-example", frozen_asymmetry)
    _check(checks, "outer-space/frozen-translation-lengths",
           frozen_translation_lengths)
    _check(checks, "outer-space/frozen-kappa", frozen_kappa)
    _check(checks, "outer-space/sigma-dominated-by-kappa",
           sigma_dominated_by_kappa)
    _check(checks, "outer-space/white-equality", white_equality)
    _check(checks, "outer-space/triangle-inequality", triangle_inequality)


def _random_rose(rng, rank):
    raw = rng.integers(1, 12, size=rank)
    lengths = [int(v) for v in raw]
    total = sum(lengths)
    from fractions import Fraction
    fracs = [Fraction(v, total) for v in lengths]
    phi = fg.random_automorphism(rng, rank, int(rng.integers(0, 6)))
    return rose.rose_point(fracs, phi)


def _suite_tree(checks):
    rng = np.random.default_rng(55)
    pts = [treemod.parse_boundary(s) for s in
           ("per:a", "per:b", "per:ab", "pre:a per:ba", "per:aB",
            "pre:Ba per:abAB")]

    def frozen_busemann():
        assert treemod.busemann(fg.parse_word("A"),
                                treemod.parse_boundary("per:a")) == -1
        assert treemod.busemann(fg.parse_word("b"),
                                treemod.parse_boundary("per:a")) == 1
        rep = treemod.lemma_identities_check(
            fg.parse_word("a"), treemod.parse_boundary("per:b"))
        assert rep.exact

    def lemma_residuals():
        for _ in range(3000):
            g = fg.random_reduced_word(rng, 2, int(rng.integers(0, 10)))
            xi = pts[int(rng.integers(len(pts)))]
            rep = treemod.lemma_identities_check(g, xi)
            assert rep.exact, (fg.format_word(g), treemod.format_boundary(xi))

    def busemann_cocycle():
        for _ in range(2000):
            g = fg.random_reduced_word(rng, 3, int(rng.integers(0, 9)))
            h = fg.random_reduced_word(rng, 3, int(rng.integers(0, 9)))
            xi = pts[int(rng.integers(len(pts)))]
            lhs = treemod.busemann(fg.concat(g, h), xi)
            rhs = treemod.busemann(g, treemod.boundary_action(h, xi)) \
                + treemod.busemann(h, xi)
            assert lhs == rhs

    def four_point():
        for _ in range(2000):
            z = [pts[int(k)] for k in rng.integers(len(pts), size=3)]
            prods = [treemod.gromov_product(z[0], z[1]),
                     treemod.gromov_product(z[0], z[2]),
                     treemod.gromov_product(z[1], z[2])]
            if any(treemod.is_infinite(p) for p in prods):
                continue
            assert treemod.four_point_slack(*z) >= 0

    def action_associativity():
        for _ in range(1000):
            g = fg.random_reduced_word(rng, 2, int(rng.integers(0, 8)))
            h = fg.random_reduced_word(rng, 2, int(rng.integers(0, 8)))
            xi = pts[int(rng.integers(len(pts)))]
            one = treemod.boundary_action(fg.concat(g, h), xi)
            two = treemod.boundary_action(g, treemod.boundary_action(h, xi))
            assert treemod.is_infinite(treemod.gromov_product(one, two))

    def horofunction_product():
        for _ in range(300):
            x = pts[int(rng.integers(len(pts)))]
            y = pts[int(rng.integers(len(pts)))]
            p = treemod.gromov_product(x, y)
            if treemod.is_infinite(p):
                continue
            val, _ = treemod.gromov_product_via_horofunctions(x, y)
            assert val == p

    def corollary_witness():
        for x, y in ((pts[0], pts[1]), (pts[2], pts[4]), (pts[3], pts[5])):
            c = treemod.gromov_product(x, y)
            hit = False
            for L in range(int(c) + 1):
                g = fg.inverse(x.letters(L))
                slack = treemod.corollary_bound_slack(g, x, y)
                assert slack >= 0
                hit = hit or slack == 0
            assert hit, "no equality witness among ray prefixes"

    _check(checks, "tree/frozen-busemann-examples", frozen_busemann)
    _check(checks, "tree/lemma-identity-residuals", lemma_residuals)
    _check(checks, "tree/busemann-cocycle", busemann_cocycle)
    _check(checks, "tree/four-point-condition", four_point)
    _check(checks, "tree/action-associativity", action_associativity)
    _check(checks, "tree/horofunction-product-agreement", horofunction_product)
    _check(checks, "tree/corollary-bound-witness", corollary_witness)


def cmd_verify(args):
    real = rose.candidate_set
    if args.corrupt_candidates:
        # test fixture: cripple the candidate set so White equality must fail
        def corrupted(point):
            return real(point)[:1]
        rose.candidate_set = corrupted
    try:
        checks = []
        if args.suite in ("algebra", "all"):
            _suite_algebra(checks)
        if args.suite in ("outer-space", "all"):
            _suite_outer(checks)
        if args.suite in ("tree", "all"):
            _suite_tree(checks)
    finally:
        rose.candidate_set = real
    passed = all(c["passed"] for c in checks)
    report = {"suite": args.suite, "passed": passed, "checks": checks}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing

def _seed(text):
    """A --seed value: an integer in the config schema's range [0, 2^64)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if not 0 <= seed < 2 ** 64:
        raise argparse.ArgumentTypeError("must lie in [0, 2^64), got %d" % seed)
    return seed


def _add_run_flags(p):
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=_seed, default=None,
                   help="override the config seed, in [0, 2^64)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for trials")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="outwalk",
        description="Random walks on free-group automorphisms and trees: "
                    "drift, CLT, deviation, and exact-geometry verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run exact invariant suites")
    p.add_argument("--suite", default="all",
                   choices=["algebra", "outer-space", "tree", "all"])
    p.add_argument("--corrupt-candidates", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_verify)

    for name, fn, expect in (
            ("drift", cmd_drift, None),
            ("clt", cmd_clt, None),
            ("deviation", cmd_deviation, None),
            ("gap", cmd_gap, None),
            ("tree-lab", cmd_tree_lab, "tree")):
        p = sub.add_parser(name)
        _add_run_flags(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("distance", help="pairwise rose distances")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_distance)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except cfgmod.ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except walk.ExperimentError as exc:
        print("experiment failed: %s" % exc, file=sys.stderr)
        return 1
    except (AssertionError, ValueError, rose.ResourceLimitError,
            treemod.DepthError, fg.RankError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
