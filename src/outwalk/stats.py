"""Statistical verification layer over walk runs.

Everything here is pure aggregation: a walk.Run in, report dataclasses out.
Every estimator reads the run's (trials x checkpoints) float64 matrices.
The estimators are the plain Monte Carlo ones; the variance is estimated
from the standardized end-of-horizon values rather than from a boundary
integral, which has no closed form in these settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_DRIFT_TRIALS = 30
KS_SERIES_TERMS = 100


# ---------------------------------------------------------------------------
# observable extraction

def observable_matrix(run, observable):
    """The checkpoints, and the C-ordered float64 (trials x checkpoints)
    matrix of a named observable.

    Names: "kappa", "sigma:<label>", "loglen:<label>" (outer mode cyclic
    length of the tracked class, unnormalized, its logs taken once per
    run)."""
    if not len(run):
        raise ValueError("no records")
    if observable == "kappa":
        mat = run.kappa
    elif observable.startswith("sigma:"):
        lab = observable[len("sigma:"):]
        try:
            mat = run.sigma[lab]
        except KeyError:
            raise ValueError("class %r was not tracked" % lab) from None
    elif observable.startswith("loglen:"):
        lab = observable[len("loglen:"):]
        try:
            mat = run.log_lengths(lab)
        except KeyError:
            raise ValueError("class %r has no tracked lengths" % lab) from None
    else:
        raise ValueError("unknown observable %r" % observable)
    return np.asarray(run.checkpoints, dtype=np.int64), \
        np.asarray(mat, dtype=np.float64)


def class_labels(run):
    return tuple(run.sigma)


def class_observable(run, label):
    """The observable of one tracked class: its cyclic log length when the
    run carries lengths (outer mode), else its cocycle."""
    return ("loglen:" if run.lengths else "sigma:") + label


def verify_sigma_domination(run):
    """Hard invariant: sigma(Phi_n, g) <= kappa(Phi_n) at every checkpoint.
    A violation names the first failing trial, and in it the first label
    that fails."""
    if not len(run):
        return True
    labels = class_labels(run)
    kappa = observable_matrix(run, "kappa")[1]
    over = np.array([(observable_matrix(run, "sigma:" + lab)[1]
                      > kappa).any(axis=1) for lab in labels])
    if over.any():
        t = int(over.any(axis=0).argmax())
        raise AssertionError("sigma(%s) exceeds kappa in trial %d"
                             % (labels[over[:, t].argmax()], run.trials[t]))
    return True


# ---------------------------------------------------------------------------
# drift

@dataclass(frozen=True)
class DriftEstimate:
    lambda_hat: float
    std_error: float
    per_class: dict              # label -> (estimate, std_error)
    horizon: int
    trials: int
    flagged: bool                # some pair of classes > 3 combined SE apart
    max_class_spread: float      # (max - min) / |mean| over class estimates


def end_stats(cps, mat):
    n = int(cps[-1])
    ends = mat[:, -1]
    est = float(ends.mean()) / n
    se = float(ends.std(ddof=1)) / math.sqrt(len(ends)) / n if len(ends) > 1 else 0.0
    return est, se


def _slope_stats(cps, mat):
    # Increment between the checkpoint nearest n/2 and the horizon.  Each
    # class observable carries an O(1) additive constant (alignment of the
    # class with the walk); dividing the endpoint by n leaves a bias of
    # order 1/n, while the increment cancels the constant entirely.
    if len(cps) < 2:
        return end_stats(cps, mat)
    mid = int(np.argmin(np.abs(cps - cps[-1] / 2.0)))
    if mid == len(cps) - 1:
        mid = len(cps) - 2
    span = int(cps[-1] - cps[mid])
    incs = mat[:, -1] - mat[:, mid]
    est = float(incs.mean()) / span
    se = (float(incs.std(ddof=1)) / math.sqrt(len(incs)) / span
          if len(incs) > 1 else 0.0)
    return est, se


def drift_estimate(run):
    """lambda_hat = mean(value at horizon) / horizon, with a per-class table.

    Per-class estimates use the second-half increment of the unnormalized
    functional (log||Phi_n(g)|| in outer mode, the Busemann value in tree
    mode): the endpoint form converges to the same drift but keeps an O(1/n)
    bias that differs per class, which would drown the class comparison at
    practical horizons."""
    if len(run) < MIN_DRIFT_TRIALS:
        raise ValueError("drift needs >= %d trials, got %d"
                         % (MIN_DRIFT_TRIALS, len(run)))
    cps, mat = observable_matrix(run, "kappa")
    lam, se = end_stats(cps, mat)
    per_class = {}
    for lab in class_labels(run):
        ccps, cmat = observable_matrix(run, class_observable(run, lab))
        per_class[lab] = _slope_stats(ccps, cmat)
    flagged = False
    labs = list(per_class)
    for i in range(len(labs)):
        ei, si = per_class[labs[i]]
        for j in range(i + 1, len(labs)):
            ej, sj = per_class[labs[j]]
            comb = math.hypot(si, sj)
            if comb > 0 and abs(ei - ej) > 3 * comb:
                flagged = True
    spread = 0.0
    if per_class:
        vals = [e for e, _ in per_class.values()]
        mean = sum(vals) / len(vals)
        if mean != 0:
            spread = (max(vals) - min(vals)) / abs(mean)
    return DriftEstimate(lam, se, per_class, int(cps[-1]), len(run),
                         flagged, spread)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov

def _normal_cdf(x, variance):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * variance)))


def ks_test(samples, variance):
    """One-sample KS against Normal(0, variance).

    Returns (statistic, p_value); the p-value uses the asymptotic
    Kolmogorov series truncated at 100 terms."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    m = len(xs)
    if m == 0:
        raise ValueError("empty sample")
    if not variance > 0:
        raise ValueError("variance must be positive")
    cdf = np.array([_normal_cdf(x, variance) for x in xs])
    hi = np.arange(1, m + 1) / m - cdf
    lo = cdf - np.arange(0, m) / m
    stat = float(max(hi.max(), lo.max()))
    t = math.sqrt(m) * stat
    acc = 0.0
    for k in range(1, KS_SERIES_TERMS + 1):
        acc += (-1) ** (k - 1) * math.exp(-2.0 * (k * t) ** 2)
    p = min(1.0, max(0.0, 2.0 * acc))
    return stat, p


# ---------------------------------------------------------------------------
# CLT

@dataclass(frozen=True)
class CltReport:
    observable: str
    horizon: int
    standardized_samples: tuple
    variance_hat: float
    ks_statistic: object         # None when degenerate
    ks_p_value: object
    degenerate: bool


def clt_report(run, lambda_hat, observable="kappa"):
    """Standardize end-of-horizon values as (v - n*lambda)/sqrt(n), estimate
    the CLT variance by their sample variance, and KS-test normality."""
    if len(run) < MIN_DRIFT_TRIALS:
        raise ValueError("CLT report needs >= %d trials, got %d"
                         % (MIN_DRIFT_TRIALS, len(run)))
    cps, mat = observable_matrix(run, observable)
    n = int(cps[-1])
    std = (mat[:, -1] - n * lambda_hat) / math.sqrt(n)
    if np.all(std == std[0]):
        return CltReport(observable, n, tuple(std), 0.0, None, None, True)
    var = float(std.var(ddof=1))
    if var == 0.0:
        raise AssertionError("zero variance with non-constant samples")
    stat, p = ks_test(std, var)
    return CltReport(observable, n, tuple(std), var, stat, p, False)


# ---------------------------------------------------------------------------
# deviation curves

def geometric_rate(points, scale=1.0):
    """exp(slope / scale) of the least-squares line through (n, log p) over
    the points (n, p) with p > 0.  With no such point the tail is empty on
    the whole grid, and the rate is 0.0; with such points at only one n
    there is no slope to fit, and the rate is None."""
    xs = np.array([n for n, p in points if p > 0], dtype=np.float64)
    ys = np.array([math.log(p) for _, p in points if p > 0], dtype=np.float64)
    if len(xs) == 0:
        return 0.0
    if np.ptp(xs) == 0:
        return None
    return math.exp(float(np.polyfit(xs, ys, 1)[0]) / scale)


@dataclass(frozen=True)
class TailCurve:
    threshold: float             # the band or product threshold per unit n
    points: tuple                # ((n, empirical probability), ...)
    rate: object                 # fitted geometric rate, None without a fit
    summable: object             # rate < 1, None without a fit


def tail_curve(threshold, points, scale=1.0):
    """The tail points with their geometric_rate fit at the given scale."""
    rate = geometric_rate(points, scale)
    return TailCurve(float(threshold), tuple(points), rate,
                     None if rate is None else rate < 1.0)


def deviation_curve(run, lambda_hat, epsilon, n_grid):
    """Empirical P[|kappa_n - n*lambda| >= epsilon*n] on a sub-grid of the
    checkpoints, with a log-linear decay fit."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    cps, mat = observable_matrix(run, "kappa")
    pos = {int(c): i for i, c in enumerate(cps)}
    missing = [n for n in n_grid if int(n) not in pos]
    if missing:
        raise ValueError("grid points %r are not checkpoints" % missing)
    return tail_curve(epsilon, [(n, float(
        (np.abs(mat[:, pos[n]] - n * lambda_hat) >= epsilon * n).mean()))
        for n in map(int, n_grid)])


# ---------------------------------------------------------------------------
# kappa-sigma gap

@dataclass(frozen=True)
class GapReport:
    label: str
    horizon: int
    half_horizon: int
    sup_gaps: tuple              # per trial, over checkpoints <= horizon
    sup_gaps_half: tuple         # per trial, over checkpoints <= horizon/2
    quantiles: dict              # q -> (value at H, value at H/2)
    median_ratio: float          # median(H) / median(H/2); 1.0 when both 0

GAP_QUANTILES = (0.25, 0.5, 0.75, 0.9)


def kappa_sigma_gap(run, label):
    """Per-path sup over checkpoints of |kappa - sigma(., label)|, compared
    at the full and at the half horizon to diagnose boundedness."""
    if not len(run):
        raise ValueError("no records")
    if label not in run.sigma:
        raise ValueError("class %r was not tracked" % label)
    cps = np.asarray(run.checkpoints)
    H = int(cps[-1])
    half_mask = cps <= H // 2
    if not half_mask.any():
        raise ValueError("no checkpoints at or below half horizon")
    # gap[t, k]: trial t's |kappa - sigma| at checkpoint k
    gap = np.abs(observable_matrix(run, "kappa")[1]
                 - observable_matrix(run, "sigma:" + label)[1])
    sf = gap.max(axis=1)
    sh = gap[:, half_mask].max(axis=1)
    quants = {q: (float(np.quantile(sf, q)), float(np.quantile(sh, q)))
              for q in GAP_QUANTILES}
    mf, mh = quants[0.5]
    ratio = 1.0 if (mf == 0 and mh == 0) else (math.inf if mh == 0 else mf / mh)
    return GapReport(label, H, int(cps[half_mask][-1]), tuple(sf.tolist()),
                     tuple(sh.tolist()), quants, ratio)
