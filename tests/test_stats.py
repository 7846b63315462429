"""Estimators and the KS machinery, on synthetic records with known answers."""

import math

import numpy as np
import pytest

from outwalk import stats
from outwalk.walk import Run


def make_records(trials, cps, kappa_fn, sigma_fns=None, lengths_fns=None):
    """A synthetic walk.Run of `trials` (a count, or the trial indices);
    value functions take (trial, checkpoint).  Length tables, when given,
    are for the same labels as the cocycles."""
    ts = list(range(trials) if isinstance(trials, int) else trials)
    sigma_fns = sigma_fns or {}
    labels = list(sigma_fns)

    def table(fn, dtype=np.float64):
        return np.array([[fn(t, n) for n in cps] for t in ts],
                        dtype=dtype).reshape(len(ts), len(cps))

    lengths = None
    if lengths_fns:
        assert set(lengths_fns) == set(labels)
        lengths = [table(lengths_fns[lab], object) for lab in labels]
    return Run(cps, labels, ts, table(kappa_fn),
               [table(sigma_fns[lab]) for lab in labels],
               peak=np.zeros(len(ts), dtype=np.int64),
               spots=np.zeros((len(ts), len(cps)), dtype=bool),
               lengths=lengths)


# -- KS test

def test_ks_statistic_of_constant_zeros_is_one_half():
    stat, p = stats.ks_test(np.zeros(100), 1.0)
    assert stat == pytest.approx(0.5)
    assert p < 1e-20


def test_ks_permutation_invariant_and_bounded():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=400)
    s1, p1 = stats.ks_test(xs, 1.0)
    s2, p2 = stats.ks_test(xs[::-1].copy(), 1.0)
    assert (s1, p1) == (s2, p2)
    assert 0 <= s1 <= 1 and 0 <= p1 <= 1


def test_ks_agrees_with_scipy_asymptotic():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(42)
    for var in (1.0, 0.75, 2.5):
        xs = rng.normal(scale=math.sqrt(var), size=800)
        stat, p = stats.ks_test(xs, var)
        ref = scipy_stats.kstest(
            xs, lambda x: scipy_stats.norm.cdf(x, scale=math.sqrt(var)),
            method="asymp")
        assert stat == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-9)


def test_ks_calibration_against_true_normals():
    # correctly specified null: p > 0.01 should hold in almost every run
    rng = np.random.default_rng(2024)
    ok = sum(stats.ks_test(rng.normal(size=2000), 1.0)[1] > 0.01
             for _ in range(100))
    assert ok >= 98


def test_ks_input_validation():
    with pytest.raises(ValueError):
        stats.ks_test([], 1.0)
    with pytest.raises(ValueError):
        stats.ks_test([0.1], 0.0)


# -- drift

def test_drift_requires_enough_trials():
    recs = make_records(10, [5, 10], lambda t, n: 0.1 * n)
    with pytest.raises(ValueError):
        stats.drift_estimate(recs)


def test_drift_exact_on_deterministic_linear_growth():
    recs = make_records(40, [10, 20, 40], lambda t, n: 0.25 * n)
    est = stats.drift_estimate(recs)
    assert est.lambda_hat == pytest.approx(0.25)
    assert est.std_error == 0.0
    assert est.horizon == 40 and est.trials == 40


def test_per_class_estimate_cancels_additive_offsets():
    # each class grows with the same slope but its own intercept; the
    # endpoint estimator would disagree across classes, the reported
    # per-class estimator must not
    sig = {"x": lambda t, n: 0.2 * n + 3.0, "y": lambda t, n: 0.2 * n - 1.0}
    recs = make_records(40, [10, 20, 30, 40], lambda t, n: 0.2 * n,
                        sigma_fns=sig)
    est = stats.drift_estimate(recs)
    assert est.per_class["x"][0] == pytest.approx(0.2)
    assert est.per_class["y"][0] == pytest.approx(0.2)
    assert est.max_class_spread == pytest.approx(0.0, abs=1e-12)
    assert not est.flagged


def test_per_class_disagreement_sets_the_flag():
    rng = np.random.default_rng(1)
    noise = {(t, n): rng.normal(scale=0.01)
             for t in range(60) for n in (10, 20)}
    sig = {"x": lambda t, n: 0.2 * n + noise[(t, n)],
           "y": lambda t, n: 0.4 * n + noise[(t, n)]}
    recs = make_records(60, [10, 20], lambda t, n: 0.4 * n, sigma_fns=sig)
    est = stats.drift_estimate(recs)
    assert est.flagged
    assert est.max_class_spread > 0.5


def test_outer_records_use_length_tables_for_classes():
    # when cyclic length tables exist the per-class estimate works on
    # log lengths, not on the sigma ratios
    lens = {"a": lambda t, n: 2 ** n}
    sig = {"a": lambda t, n: 0.0}
    recs = make_records(40, [4, 8], lambda t, n: n * math.log(2.0),
                        sigma_fns=sig, lengths_fns=lens)
    est = stats.drift_estimate(recs)
    assert est.per_class["a"][0] == pytest.approx(math.log(2.0))


def test_point_mass_records_give_zero_drift():
    recs = make_records(35, [5, 10], lambda t, n: 0.0)
    assert stats.drift_estimate(recs).lambda_hat == 0.0


# -- CLT report

def test_clt_standardizes_and_tests_against_fitted_normal():
    rng = np.random.default_rng(3)
    horizon = 100
    ends = {t: rng.normal(loc=0.5 * horizon, scale=math.sqrt(0.75 * horizon))
            for t in range(2000)}
    recs = make_records(2000, [50, 100], lambda t, n: ends[t] * n / horizon)
    rep = stats.clt_report(recs, lambda_hat=0.5)
    assert rep.horizon == 100
    assert not rep.degenerate
    assert rep.variance_hat == pytest.approx(0.75, rel=0.1)
    assert rep.ks_p_value > 0.01
    expected = (ends[0] - 0.5 * horizon) / math.sqrt(horizon)
    assert rep.standardized_samples[0] == pytest.approx(expected)


def test_clt_degenerate_on_constant_samples():
    recs = make_records(600, [10, 20], lambda t, n: 0.3 * n)
    rep = stats.clt_report(recs, lambda_hat=0.3)
    assert rep.degenerate
    assert rep.variance_hat == 0.0
    assert rep.ks_p_value is None


def test_clt_requires_enough_trials():
    # the minimum of drift_estimate, which every clt run calls first
    with pytest.raises(ValueError):
        stats.clt_report(make_records(29, [10], lambda t, n: 0.1 * n), 0.1)
    recs = make_records(stats.MIN_DRIFT_TRIALS, [10], lambda t, n: 0.1 * n)
    assert len(stats.clt_report(recs, lambda_hat=0.1).standardized_samples) \
        == 30


# -- deviation curve

def test_deviation_grid_must_be_checkpoints():
    recs = make_records(40, [10, 20], lambda t, n: 0.1 * n)
    with pytest.raises(ValueError):
        stats.deviation_curve(recs, 0.1, 0.02, [10, 15])


def test_deviation_exceedance_counts_by_hand():
    # half the trials run at slope 0.2, half at exactly the drift 0.1;
    # with epsilon 0.05 the fast half exceeds at every n
    recs = make_records(40, [10, 20], lambda t, n: (0.2 if t % 2 else 0.1) * n)
    curve = stats.deviation_curve(recs, 0.1, 0.05, [10, 20])
    assert [p for _, p in curve.points] == [0.5, 0.5]


def test_deviation_rate_fit_on_exact_geometric_decay():
    # exceedance probabilities 1/2, 1/4, 1/8, 1/16 across the grid
    trials = 64
    cps = [1, 2, 3, 4]

    def value(t, n):
        # trial t exceeds the band through checkpoint k(t) = trailing count
        k = 0
        while (t >> k) & 1:
            k += 1
        return n * 1.0 if k >= n else 0.0

    # epsilon*n threshold: |value - 0| with lambda 0; exceed iff value >= 0.5n
    recs = make_records(trials, cps, value)
    curve = stats.deviation_curve(recs, 0.0, 0.5, cps)
    probs = [p for _, p in curve.points]
    assert probs == pytest.approx([1 / 2, 1 / 4, 1 / 8, 1 / 16])
    assert curve.rate == pytest.approx(0.5, rel=1e-6)
    assert curve.summable


def test_geometric_rate_needs_two_distinct_positive_points():
    assert stats.geometric_rate([(1, 0.5), (2, 0.25), (3, 0.125)]) == \
        pytest.approx(0.5)
    # the slope is per unit of n / scale
    assert stats.geometric_rate([(2, 0.5), (4, 0.25)], scale=2.0) == \
        pytest.approx(0.5 ** 0.25)
    # positive points at only one n: no fit
    assert stats.geometric_rate([(1, 0.5), (2, 0.0)]) is None
    assert stats.geometric_rate([(3, 0.5), (3, 0.25)]) is None
    # no positive point: the tail is empty on the grid
    assert stats.geometric_rate([(1, 0.0), (2, 0.0)]) == 0.0


def test_deviation_one_positive_grid_point_has_no_fit():
    # the fast half exceeds the band at n = 10 and is back on the drift at 20
    recs = make_records(40, [10, 20],
                        lambda t, n: 2.0 if t % 2 and n == 10 else 0.1 * n)
    curve = stats.deviation_curve(recs, 0.1, 0.05, [10, 20])
    assert [p for _, p in curve.points] == [0.5, 0.0]
    assert curve.rate is None
    assert curve.summable is None


def test_deviation_all_inside_band():
    recs = make_records(40, [10, 20], lambda t, n: 0.1 * n)
    curve = stats.deviation_curve(recs, 0.1, 0.05, [10, 20])
    assert [p for _, p in curve.points] == [0.0, 0.0]
    assert curve.rate == 0.0
    assert curve.summable


# -- gap report

def test_gap_quantiles_and_ratio_by_hand():
    # kappa minus sigma is 0.3 up to n=50 and 0.6 afterwards for odd trials,
    # identically zero for even ones
    sig = {"a": lambda t, n:
           (0.1 * n) - ((0.3 if n <= 50 else 0.6) if t % 2 else 0.0)}
    recs = make_records(40, [25, 50, 75, 100], lambda t, n: 0.1 * n,
                        sigma_fns=sig)
    rep = stats.kappa_sigma_gap(recs, "a")
    full_90, half_90 = rep.quantiles[0.9]
    assert rep.horizon == 100 and rep.half_horizon == 50
    assert full_90 == pytest.approx(0.6)
    assert half_90 == pytest.approx(0.3)
    assert rep.quantiles[0.25][0] == 0.0
    med_full, med_half = rep.quantiles[0.5]
    assert rep.median_ratio == pytest.approx(
        med_full / med_half if med_half else 1.0)


def test_gap_ratio_one_when_both_halves_zero():
    sig = {"a": lambda t, n: 0.1 * n}
    recs = make_records(40, [50, 100], lambda t, n: 0.1 * n, sigma_fns=sig)
    rep = stats.kappa_sigma_gap(recs, "a")
    assert rep.quantiles[0.5] == (0.0, 0.0)
    assert rep.median_ratio == 1.0


def test_gap_unknown_class_raises():
    recs = make_records(40, [10], lambda t, n: 0.1 * n,
                        sigma_fns={"a": lambda t, n: 0.0})
    with pytest.raises(ValueError):
        stats.kappa_sigma_gap(recs, "b")


# -- shared plumbing

def test_observable_matrix_names():
    recs = make_records(5, [10, 20], lambda t, n: float(n),
                        sigma_fns={"g": lambda t, n: -1.0},
                        lengths_fns={"g": lambda t, n: 4})
    cps, mat = stats.observable_matrix(recs, "kappa")
    assert cps.tolist() == [10, 20]
    assert mat.shape == (5, 2)
    _, lg = stats.observable_matrix(recs, "loglen:g")
    assert lg[0][0] == pytest.approx(math.log(4))
    with pytest.raises(ValueError):
        stats.observable_matrix(recs, "sigma:missing")
    with pytest.raises(ValueError):
        stats.observable_matrix(recs, "nonsense")


def test_sigma_domination_check_names_label_and_trial():
    recs = make_records(3, [10], lambda t, n: 1.0,
                        sigma_fns={"bad": lambda t, n: 2.0 if t == 2 else 0.5})
    with pytest.raises(AssertionError) as err:
        stats.verify_sigma_domination(recs)
    assert "bad" in str(err.value) and "trial 2" in str(err.value)


def reference_domination(records):
    """The first (trial, label) that fails, trial by trial."""
    for r in records:
        for lab, vals in r.sigma.items():
            if any(v > k for v, k in zip(vals, r.kappa)):
                return r.trial_index, lab
    return None


@pytest.mark.parametrize("late,early", [(("y", 4), ("x", 2)),
                                        (("x", 4), ("y", 2)),
                                        (("x", 2), ("y", 2))])
def test_sigma_domination_names_the_first_failing_record_then_label(late,
                                                                    early):
    # labels x, y, z; two of them pass kappa in one trial each: the message
    # names the first such trial, and in it the first label in order
    bad = dict([late, early])

    def sigma(lab):
        return lambda t, n: 1.5 if (t == bad.get(lab) and n == 20) else 0.25

    recs = make_records(6, [10, 20, 30], lambda t, n: 1.0,
                        sigma_fns={lab: sigma(lab) for lab in "xyz"})
    trial, lab = reference_domination(recs)
    assert trial == min(early[1], late[1])
    with pytest.raises(AssertionError) as err:
        stats.verify_sigma_domination(recs)
    assert str(err.value) == "sigma(%s) exceeds kappa in trial %d" % (lab,
                                                                       trial)
    assert stats.verify_sigma_domination(make_records(
        [t for t in range(6) if t not in bad.values()], [10, 20, 30],
        lambda t, n: 1.0, sigma_fns={lab: sigma(lab) for lab in "xyz"}))


def test_class_labels_preserve_tracking_order():
    recs = make_records(2, [10], lambda t, n: 0.0,
                        sigma_fns={"b": lambda t, n: 0.0,
                                   "a": lambda t, n: 0.0})
    assert stats.class_labels(recs) == ("b", "a")
