"""Command line entry point.

Subcommands: verify (invariant suites), distance, and the walk commands
drift, clt, deviation, gap and tree-lab.  A walk command is a settings
check from config, run before any trial, and an analysis of the walk.Run;
one runner writes each one's CSV and JSON artifacts plus a manifest into
the output directory, byte-reproducible for a fixed (config, seed, code
version) whatever the thread count.  Exit codes: 0 success, 1
computational failure, 2 usage or config error.
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
from . import invariants
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


# ---------------------------------------------------------------------------
# walk commands: each analysis takes what its settings returned as `setting`
# and gives the CSV as (header, rows) or None, the summary and stdout lines

def _drift(cfg, mu, run, setting):
    de = stats.drift_estimate(run)
    rows = [("kappa", de.lambda_hat, de.std_error)]
    rows += [(lab, est, se) for lab, (est, se) in de.per_class.items()]
    summary = {
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
    }
    return (("class", "lambda_hat", "stderr"), rows), summary, [
        "drift: lambda_hat=%.6f +- %.6f over %d trials (horizon %d)"
        % (de.lambda_hat, de.std_error, de.trials, de.horizon)]


def _clt_json(rep):
    return {key: getattr(rep, key) for key in (
        "observable", "horizon", "variance_hat", "ks_statistic", "ks_p_value",
        "degenerate")}


def _clt(cfg, mu, run, setting):
    de = stats.drift_estimate(run)
    main = stats.clt_report(run, de.lambda_hat)
    per_class = {lab: _clt_json(stats.clt_report(run, de.lambda_hat, lab))
                 for lab in run.sigma}
    summary = {
        "lambda_hat": de.lambda_hat,
        "main": _clt_json(main),
        "per_class": per_class,
        "tolerances": cfgmod.tolerances(cfg),
    }
    if main.degenerate:
        line = "clt: degenerate distribution (constant standardized values)"
    else:
        line = ("clt: variance_hat=%.4f ks_stat=%.4f ks_p=%.4f"
                % (main.variance_hat, main.ks_statistic, main.ks_p_value))
    return (("trial", "standardized_value"),
            enumerate(main.standardized_samples)), summary, [line]


def _fit(value, fmt):
    """A tail fit's rate or summability as printed: n/a without a fit."""
    return "n/a" if value is None else fmt % value


def _deviation(cfg, mu, run, grid):
    de = stats.drift_estimate(run)
    epsilon = (float(cfg.get("deviation", {}).get("epsilon_factor", 0.2))
               * de.lambda_hat)
    if epsilon <= 0:
        raise ValueError("deviation: lambda_hat is %r, so the band "
                         "$.deviation.epsilon_factor x lambda_hat is empty"
                         % de.lambda_hat)
    curve = stats.deviation_curve(run, de.lambda_hat, epsilon, grid)
    summary = {
        "lambda_hat": de.lambda_hat,
        "epsilon": curve.threshold,
        "points": [{"n": n, "probability": p} for n, p in curve.points],
        "decay_rate_fit": curve.rate,
        "summable": curve.summable,
        "tolerances": cfgmod.tolerances(cfg),
    }
    return (("n", "epsilon", "probability"),
            [(n, epsilon, p) for n, p in curve.points]), summary, [
        "deviation: epsilon=%.5f final probability=%.4f rate=%s"
        % (epsilon, curve.points[-1][1], _fit(curve.rate, "%.4f"))]


def _gap(cfg, mu, run, label):
    gr = stats.kappa_sigma_gap(run, label)
    summary = {
        "class": label,
        "horizon": gr.horizon,
        "half_horizon": gr.half_horizon,
        "quantiles": {str(q): {"full": f, "half": h}
                      for q, (f, h) in gr.quantiles.items()},
        # infinite when only the half-horizon median is 0; JSON has no inf
        "median_ratio": (gr.median_ratio if math.isfinite(gr.median_ratio)
                         else None),
        "tolerances": cfgmod.tolerances(cfg),
    }
    return (("trial", "sup_gap"),
            list(zip(run.trials.tolist(), gr.sup_gaps))), \
        summary, ["gap(%s): median sup-gap %.4f at H=%d vs %.4f at H=%d"
                  % (label, gr.quantiles[0.5][0], gr.horizon,
                     gr.quantiles[0.5][1], gr.half_horizon)]


def _tree_lab(cfg, mu, run, points):
    x_points, h2 = points
    rep = treemod.centering_check(mu, x_points, run, h2)
    summary = {
        "lambda_hat": rep.lambda_hat,
        "lambda_se": rep.lambda_se,
        "n_boundary_samples": rep.n_samples,
        "psi": {lab: {"value": value, "std_error": se}
                for lab, (value, se) in rep.psi.items()},
        "centering": {lab: {"estimate": est, "std_error": se}
                      for lab, (est, se) in rep.estimates.items()},
        "max_drift_discrepancy_se": rep.max_drift_discrepancy_se,
    }
    lines = ["tree-lab: lambda_hat=%.4f, max centering discrepancy %.2f "
             "combined SEs over %d boundary points"
             % (rep.lambda_hat, rep.max_drift_discrepancy_se, len(x_points))]
    curve = rep.h2
    if curve is not None:
        summary["h2"] = {
            "x": h2["x"],
            "alpha": curve.threshold,
            "points": [{"n": n, "probability": p} for n, p in curve.points],
            "decay_rate": curve.rate,
            "summable": curve.summable,
        }
        lines.append("tree-lab: H2 tail rate %s (summable: %s)"
                     % (_fit(curve.rate, "%.4f"), _fit(curve.summable, "%s")))
    return None, summary, lines


_WALK_COMMANDS = {
    "drift": (cfgmod.drift_trials, _drift),
    "clt": (cfgmod.drift_trials, _clt),
    "deviation": (cfgmod.deviation_grid, _deviation),
    "gap": (cfgmod.gap_class, _gap),
    "tree-lab": (cfgmod.tree_lab_points, _tree_lab),
}


def cmd_walk(args):
    settings, analyse = _WALK_COMMANDS[args.command]
    cfg = cfgmod.load_config(args.config)
    mu = cfgmod.build_measure(cfg)
    wcfg = cfgmod.build_walk_config(cfg, args.seed)
    setting = settings(cfg, wcfg)
    os.makedirs(args.out, exist_ok=True)
    # looked up at call time, so that a patched run_experiment is the one run
    run = walk.run_experiment(mu, wcfg, workers=args.threads)
    stats.verify_sigma_domination(run)
    csv, summary, lines = analyse(cfg, mu, run, setting)
    stem = args.command.replace("-", "_")
    outputs = [stem + "_summary.json"]
    if csv:
        outputs.insert(0, stem + ".csv")
        _write_csv(os.path.join(args.out, outputs[0]), *csv)
    _write_json(os.path.join(args.out, outputs[-1]), summary)
    _write_manifest(args.out, args.command, cfg, wcfg.master_seed, outputs)
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# distance and verify

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


def cmd_verify(args):
    suites = invariants.SUITES if args.suite == "all" else [args.suite]
    checks = [c for suite in suites for c in invariants.run(suite)]
    passed = all(c["passed"] for c in checks)
    report = {"suite": args.suite, "passed": passed, "checks": checks}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing

def _int_flag(low, high, bounds):
    """An argparse type for integers in [low, high), described by bounds."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("not an integer: %r" % text) \
                from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError("%s, got %d" % (bounds, value))
        return value
    return parse


_seed = _int_flag(0, 2 ** 64, "must lie in [0, 2^64)")
_threads = _int_flag(1, math.inf, "must be at least 1")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="outwalk",
        description="Random walks on free-group automorphisms and trees: "
                    "drift, CLT, deviation, and exact-geometry verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run exact invariant suites")
    p.add_argument("--suite", default="all",
                   choices=[*invariants.SUITES, "all"])
    p.set_defaults(fn=cmd_verify)

    for name in _WALK_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="experiment config (JSON)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the config seed, in [0, 2^64)")
        p.add_argument("--threads", type=_threads, default=1,
                       help="processes that run the trials, this one "
                            "included; capped at the CPUs and the blocks")
        p.set_defaults(fn=cmd_walk)

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
    except (AssertionError, ValueError, rose.ResourceLimitError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
