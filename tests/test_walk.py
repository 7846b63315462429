"""The walk engine: exact point-mass paths, determinism, resource caps,
and the from-scratch spot checks."""

import math
import multiprocessing
import os
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.random import Philox

from outwalk import freegroup as fg
from outwalk import stats, tree, walk
from outwalk.config import build_measure, build_walk_config, load_config
from outwalk.walk import (ExperimentError, MeasureSpec, WalkConfig,
                          WordCapExceeded, run_experiment)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tree_point_mass(word):
    return MeasureSpec([fg.parse_word(word)], [1.0])


def outer_point_mass(trace):
    return MeasureSpec([fg.from_trace(2, trace)], [1.0])


# -- measure validation

def test_measure_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        MeasureSpec([fg.parse_word("a")], [0.5])
    with pytest.raises(ValueError):
        MeasureSpec([fg.parse_word("a"), fg.parse_word("b")], [0.5, 0.6])
    with pytest.raises(ValueError):
        MeasureSpec([fg.parse_word("a")], [])
    with pytest.raises(ValueError, match="sum to 1"):
        MeasureSpec([fg.parse_word("a"), fg.parse_word("b")],
                    [float("nan"), 0.5])


def test_measure_rejects_nonpositive_weights_and_mixed_atoms():
    with pytest.raises(ValueError):
        MeasureSpec([fg.parse_word("a"), fg.parse_word("b")], [1.0, 0.0])
    with pytest.raises(ValueError):
        MeasureSpec([fg.from_trace(2, []), fg.parse_word("a")], [0.5, 0.5])


def test_measure_mode_inference_and_rank():
    mu = MeasureSpec([fg.parse_word("ab"), fg.parse_word("c")], [0.5, 0.5])
    assert mu.mode == "tree"
    nu = MeasureSpec([fg.from_trace(2, ["R:1:2:+"])], [1.0])
    assert nu.mode == "outer"
    assert nu.atoms[0].rank == 2


# -- step draws against the float search

def float_indices(mu, raw):
    """Atom indices of raw 64-bit draws by the float search: u = m / 2^53
    from the top 53 bits m of each, and the first atom whose cumulative
    weight exceeds u."""
    cum = np.cumsum(np.asarray(mu.weights, dtype=np.float64))
    cum[-1] = 1.0  # guards searchsorted against float summation slack
    u = (raw >> np.uint64(11)) * 2.0 ** -53
    return np.searchsorted(cum, u, side="right")


def float_draw(mu, master_seed, trial, n):
    """Atom indices of steps 1..n of a trial by the float search."""
    return float_indices(
        mu, Philox(key=(master_seed << 64) + trial).random_raw(n))


def drawn(mu, master_seed, trials, n):
    """Every row mu.draw_indices yields, in order, as one array."""
    rows = []
    for j, idx in mu.draw_indices(master_seed, trials, n):
        assert j == len(rows) and idx.dtype == walk._step_dtype(mu)
        assert idx.shape[1] == n
        rows.extend(idx)
    return np.array(rows, dtype=np.intp).reshape(len(rows), n)


def assert_draws_match_the_float_search(mu, master_seed, trials, n):
    got = drawn(mu, master_seed, trials, n)
    want = [float_draw(mu, master_seed, t, n) for t in trials]
    assert np.array_equal(got, np.array(want).reshape(len(trials), n))


def test_draw_indices_deterministic_and_in_range():
    mu = MeasureSpec([fg.parse_word(w) for w in "aAbB"], [0.25] * 4)
    one, other = drawn(mu, 1234, [0, 1], 500)
    two, = drawn(mu, 1234, [0], 500)
    assert np.array_equal(one, two)
    assert not np.array_equal(one, other)
    assert one.min() >= 0 and one.max() <= 3
    # every atom appears at plausible frequency
    counts = np.bincount(one, minlength=4)
    assert counts.min() > 60


def test_draw_indices_skewed_weights():
    mu = MeasureSpec([fg.parse_word("a"), fg.parse_word("b")], [0.99, 0.01])
    idx, = drawn(mu, 5, [0], 2000)
    assert np.bincount(idx, minlength=2)[1] < 80


def test_draw_indices_cut_long_rows_into_chunks_of_a_few_trials():
    # 20000 steps a trial: a chunk holds one trial, so rows are yielded one
    # at a time, at their own offsets
    mu = srw_measure()
    chunks = [(j, idx.shape)
              for j, idx in mu.draw_indices(3, [7, 2, 9], 20000)]
    assert chunks == [(0, (1, 20000)), (1, (1, 20000)), (2, (1, 20000))]
    assert_draws_match_the_float_search(mu, 3, range(40), 5000)
    assert_draws_match_the_float_search(mu, 3, [], 10)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=1,
                max_size=70),
       st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 40))
def test_integer_draws_equal_the_float_search(weights, seed, trial):
    total = math.fsum(weights)
    assume(total > 0)
    weights = [w / total for w in weights]
    assume(all(w > 0 for w in weights))
    mu = MeasureSpec([fg.parse_word("a")] * len(weights), weights)
    assert_draws_match_the_float_search(mu, seed, [trial, trial + 1], 300)


@pytest.mark.parametrize("name", ["outf2_clt", "outf2_deviation", "outf2_gap",
                                  "point_mass_tree", "rose_asymmetry",
                                  "tree_srw_f2"])
def test_integer_draws_equal_the_float_search_on_the_shipped_measures(name):
    cfg = load_config(os.path.join(ROOT, "configs", name + ".json"))
    mu = build_measure(cfg)
    assert_draws_match_the_float_search(mu, cfg["seed"], range(12),
                                        cfg["horizon"])


@pytest.mark.parametrize("weights", [
    [0.99, 0.01], [0.01, 0.99], [1 - 1e-12, 1e-12], [1e-12, 1 - 1e-12],
    [0.1, 0.2, 0.7],           # 0.1 + 0.2 rounds up to 0.30000000000000004
    [0.7, 0.2, 0.1], [1 / 3] * 3, [0.1] * 10,
], ids=["0.99", "0.01", "1-1e-12", "1e-12", "0.1-0.2-0.7", "0.7-0.2-0.1",
        "thirds", "tenths"])
def test_integer_draws_equal_the_float_search_on_awkward_weights(weights):
    mu = MeasureSpec([fg.parse_word("a")] * len(weights), weights)
    assert_draws_match_the_float_search(mu, 11, range(30), 2000)


def test_a_weight_below_float_resolution_gives_two_equal_thresholds():
    # 0.5 + 1e-17 rounds to 0.5: the middle atom is never drawn
    mu = MeasureSpec([fg.parse_word(w) for w in "abc"], [0.5, 1e-17, 0.5])
    assert mu._thresholds.tolist() == [2 ** 52, 2 ** 52]
    idx = drawn(mu, 2, range(10), 1000)
    assert set(np.unique(idx).tolist()) == {0, 2}
    assert_draws_match_the_float_search(mu, 2, range(10), 1000)


def test_a_point_mass_has_no_thresholds():
    mu = tree_point_mass("ab")
    assert mu._thresholds.size == 0
    assert drawn(mu, 9, range(5), 100).tolist() == [[0] * 100] * 5
    assert_draws_match_the_float_search(mu, 9, range(5), 100)


def test_a_draw_on_a_threshold_counts_it(monkeypatch):
    # raw draws whose top 53 bits sit just below and on each threshold, with
    # the low 11 bits all 0 or all 1
    mu = MeasureSpec([fg.parse_word("a")] * 4, [0.1, 0.2, 0.3, 0.4])
    ms = [0, 1, 2 ** 53 - 1]
    for t in mu._thresholds.tolist():
        ms += [t - 1, t, t + 1]
    raw = np.array([m << 11 | low for m in ms for low in (0, 0x7FF)],
                   dtype=np.uint64)

    class Fixed:
        # draw_indices rekeys one generator through its state
        state = {"state": {"key": np.zeros(2, dtype=np.uint64)}}

        def __init__(self, key):
            pass

        def random_raw(self, n):
            return raw[:n].copy()

    monkeypatch.setattr(walk, "Philox", Fixed)
    got, = drawn(mu, 0, [0], len(raw))
    assert got.tolist() == float_indices(mu, raw).tolist()
    # m = threshold - 1 is below atom i + 1, m = threshold on it
    at = got[6::6].tolist(), got[8::6].tolist()
    assert at == ([0, 1, 2], [1, 2, 3])


def test_a_measure_of_300_atoms_draws_indices_past_255():
    mu = MeasureSpec([fg.parse_word("a")] * 300, [1 / 300] * 300)
    assert walk._step_dtype(mu) == np.uint16
    idx = drawn(mu, 4, range(3), 2000)
    assert idx.max() > 255
    assert_draws_match_the_float_search(mu, 4, range(3), 2000)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_one_generator_per_call_draws_each_trials_own_philox_stream(
        seed, monkeypatch):
    # the rows are those of a fresh Philox per trial, whatever the trials
    # before it in the call, also at the largest keys
    made, raws = [], []

    class Recording(Philox):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def random_raw(self, n):
            raw = super().random_raw(n)
            raws.append(raw.copy())
            return raw

    monkeypatch.setattr(walk, "Philox", Recording)
    mu = MeasureSpec([fg.parse_word("a")] * 300, [1 / 300] * 300)
    trials = [5, 0, 2 ** 40 + 3, 2 ** 63, 2 ** 64 - 1, 5]
    got = drawn(mu, seed, trials, 70)
    assert len(made) == 1 and len(raws) == len(trials)
    for raw, row, t in zip(raws, got, trials):
        want = Philox(key=(seed << 64) + t).random_raw(70)
        assert np.array_equal(raw, want)
        m = want >> np.uint64(11)
        assert row.tolist() == \
            (m[:, None] >= mu._thresholds).sum(axis=1).tolist()


# -- config validation

def test_walk_config_validates_checkpoints():
    with pytest.raises(ValueError):
        WalkConfig(horizon=10, trials=1, master_seed=0, checkpoints=())
    with pytest.raises(ValueError):
        WalkConfig(horizon=10, trials=1, master_seed=0, checkpoints=(5, 5))
    with pytest.raises(ValueError):
        WalkConfig(horizon=10, trials=1, master_seed=0, checkpoints=(5, 12))
    with pytest.raises(ValueError):
        WalkConfig(horizon=0, trials=1, master_seed=0, checkpoints=(1,))
    cfg = WalkConfig(horizon=10, trials=2, master_seed=0, checkpoints=[2, 10])
    assert cfg.checkpoints == (2, 10)


@pytest.mark.parametrize("cap", [0, -5, True, 2.0, 1e9, "64", None])
def test_walk_config_refuses_a_cap_that_is_not_a_positive_int(cap):
    with pytest.raises(ValueError, match="max_word_letters"):
        WalkConfig(horizon=10, trials=1, master_seed=0, checkpoints=(10,),
                   max_word_letters=cap)


@pytest.mark.parametrize("rate", [-0.01, 1.5, float("nan"), "0.1", None,
                                  1j, True])
def test_walk_config_refuses_a_spot_check_rate_outside_0_1(rate):
    with pytest.raises(ValueError, match="spot_check_rate"):
        WalkConfig(horizon=10, trials=1, master_seed=0, checkpoints=(10,),
                   spot_check_rate=rate)


@pytest.mark.parametrize("field,value,bad", [
    ("horizon", 60.0, 60.0), ("horizon", True, True), ("horizon", "60", "60"),
    ("trials", 2.0, 2.0), ("trials", True, True),
    ("checkpoints", (30.7,), 30.7), ("checkpoints", (True,), True),
    ("checkpoints", (10, 60.0), 60.0)])
def test_walk_config_refuses_a_horizon_trials_or_checkpoint_not_an_int(
        field, value, bad):
    # a float would crash the walk, or be truncated, and a bool taken as 1
    kwargs = dict(horizon=60, trials=2, master_seed=0, checkpoints=(60,))
    kwargs[field] = value
    with pytest.raises(ValueError, match=r"%s must be .*got %s" %
                       (field, re.escape(repr(bad)))):
        WalkConfig(**kwargs)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70, True, 7.0, "7", None])
def test_walk_config_refuses_a_master_seed_outside_0_2_64(seed):
    with pytest.raises(ValueError, match=r"master_seed .*got %s" %
                       re.escape(repr(seed))):
        WalkConfig(horizon=10, trials=1, master_seed=seed, checkpoints=(10,))


def test_walk_config_takes_the_largest_master_seed():
    cfg = WalkConfig(horizon=10, trials=2, master_seed=2 ** 64 - 1,
                     checkpoints=(10,), spot_check_rate=1.0)
    for mu in (srw_measure(), nielsen_measure()):
        assert [r.spot_checked for r in run_experiment(mu, cfg)] == [(10,)] * 2


def test_walk_config_takes_the_edges_of_its_ranges():
    for cap, rate in ((1, 0), (10 ** 100, 1.0), (64, 0.5)):
        cfg = WalkConfig(horizon=10, trials=1, master_seed=0,
                         checkpoints=(10,), max_word_letters=cap,
                         spot_check_rate=rate)
        assert (cfg.max_word_letters, cfg.spot_check_rate) == (cap, rate)


# -- exact point-mass paths

def test_tree_point_mass_walks_straight_away_from_the_tracked_ray():
    # the walk location is g_n^-1 = A^n, so the cocycle against per:a grows
    # one per step and the limit point is the A ray
    cfg = WalkConfig(horizon=20, trials=1, master_seed=3,
                     checkpoints=tuple(range(1, 21)),
                     tracked_classes=(tree.parse_boundary("per:a"),))
    rec = run_experiment(tree_point_mass("a"), cfg)[0]
    assert rec.kappa == tuple(range(1, 21))
    assert rec.sigma["per:a"] == tuple(range(1, 21))
    assert not rec.lengths     # cyclic length tables are an outer-mode field
    assert rec.bnd.letters(rec.bnd.depth).tolist() == [-1] * rec.bnd.depth


def test_tree_point_mass_toward_the_tracked_ray():
    cfg = WalkConfig(horizon=20, trials=1, master_seed=3,
                     checkpoints=(5, 10, 15, 20),
                     tracked_classes=(tree.parse_boundary("per:a"),))
    rec = run_experiment(tree_point_mass("A"), cfg)[0]
    assert rec.kappa == (5, 10, 15, 20)
    assert rec.sigma["per:a"] == (-5, -10, -15, -20)


def test_walk_at_the_identity_has_no_limit_point():
    # every stack is empty at the tail checkpoints, so is the anchor
    cfg = WalkConfig(horizon=6, trials=2, master_seed=0, checkpoints=(2, 4, 6))
    recs = run_experiment(tree_point_mass("aA"), cfg)
    assert [(r.kappa, r.bnd) for r in recs] == [((0, 0, 0), None)] * 2


def test_outer_point_mass_single_positive_move():
    # (a>ab)^n sends a to a b^n, so the best stretch grows linearly
    cfg = WalkConfig(horizon=15, trials=1, master_seed=0,
                     checkpoints=tuple(range(1, 16)),
                     tracked_classes=(fg.parse_word("a"), fg.parse_word("b")))
    rec = run_experiment(outer_point_mass(["R:1:2:+"]), cfg)[0]
    for ckpt, kap, sa, sb in zip(rec.checkpoints, rec.kappa,
                                 rec.sigma["a"], rec.sigma["b"]):
        assert kap == pytest.approx(math.log(ckpt + 1))
        assert sa == pytest.approx(math.log(ckpt + 1))
        assert sb == 0.0
    assert rec.lengths["a"] == tuple(n + 1 for n in rec.checkpoints)
    assert rec.lengths["b"] == (1,) * 15


def test_outer_point_mass_identity_is_flat():
    cfg = WalkConfig(horizon=10, trials=2, master_seed=1,
                     checkpoints=(1, 5, 10), tracked_classes=(fg.parse_word("ab"),))
    for rec in run_experiment(outer_point_mass([]), cfg):
        assert rec.kappa == (0.0, 0.0, 0.0)
        assert rec.sigma["ab"] == (0.0, 0.0, 0.0)


def test_tracked_class_label_uses_the_input_spelling():
    cfg = WalkConfig(horizon=4, trials=1, master_seed=0, checkpoints=(4,),
                     tracked_classes=(fg.parse_word("ab"), fg.parse_word("BA")))
    rec = run_experiment(outer_point_mass([]), cfg)[0]
    assert set(rec.sigma) == {"ab", "BA"}


# -- determinism

def srw_measure():
    return MeasureSpec([fg.parse_word(w) for w in "aAbB"], [0.25] * 4)


def nielsen_measure():
    traces = (["R:1:2:+"], ["R:1:2:-"], ["R:2:1:+"], ["R:2:1:-"])
    return MeasureSpec([fg.from_trace(2, t) for t in traces], [0.25] * 4)


def records_equal(a, b):
    if (a.trial_index, a.checkpoints, a.kappa) != \
            (b.trial_index, b.checkpoints, b.kappa):
        return False
    if a.sigma != b.sigma or a.spot_checked != b.spot_checked:
        return False
    if (a.bnd is None) != (b.bnd is None):
        return False
    if a.bnd is not None and not np.array_equal(
            a.bnd.letters(a.bnd.depth), b.bnd.letters(b.bnd.depth)):
        return False
    return a.lengths == b.lengths


def test_rerun_reproduces_every_record_exactly():
    cfg = WalkConfig(horizon=300, trials=8, master_seed=42,
                     checkpoints=(50, 100, 200, 300),
                     tracked_classes=tuple(tree.parse_boundary(s) for s in ("per:a", "per:ab")))
    mu = srw_measure()
    first = run_experiment(mu, cfg)
    second = run_experiment(mu, cfg)
    assert all(records_equal(x, y) for x, y in zip(first, second))


def test_worker_count_does_not_change_results():
    cfg = WalkConfig(horizon=200, trials=10, master_seed=9,
                     checkpoints=(40, 120, 200), tracked_classes=(tree.parse_boundary("per:b"),))
    mu = srw_measure()
    inline = run_experiment(mu, cfg, workers=1)
    pooled = run_experiment(mu, cfg, workers=3)
    assert all(records_equal(x, y) for x, y in zip(inline, pooled))
    assert [r.trial_index for r in pooled] == list(range(10))


def test_outer_worker_count_does_not_change_results():
    cfg = WalkConfig(horizon=30, trials=6, master_seed=11,
                     checkpoints=(10, 20, 30), tracked_classes=(fg.parse_word("a"),))
    mu = nielsen_measure()
    inline = run_experiment(mu, cfg, workers=1)
    pooled = run_experiment(mu, cfg, workers=2)
    assert all(records_equal(x, y) for x, y in zip(inline, pooled))


@pytest.mark.parametrize("cpus,trials,pool", [(3, 12, 3), (3, 2, 2),
                                               (1, 12, None)])
def test_the_pool_is_capped_by_the_cpus_and_the_blocks(cpus, trials, pool,
                                                       monkeypatch):
    # the blocks run on min(workers, CPUs, blocks) processes, the caller and
    # forked workers, however many workers are asked for; one process
    # starts none
    started = []

    class CountedProcess(walk._FORK.Process):
        def start(self):
            started.append(self)
            super().start()

    assert 1 <= walk._cpus() <= os.cpu_count()
    cfg = WalkConfig(horizon=50, trials=trials, master_seed=4,
                     checkpoints=(25, 50),
                     tracked_classes=(tree.parse_boundary("per:b"),))
    want = run_experiment(srw_measure(), cfg)
    monkeypatch.setattr(walk._FORK, "Process", CountedProcess)
    monkeypatch.setattr(walk, "_cpus", lambda: cpus)
    got = run_experiment(srw_measure(), cfg, workers=10 ** 6)
    assert len(started) == (0 if pool is None else pool - 1)
    assert len(got) == trials
    assert all(records_equal(x, y) for x, y in zip(want, got))


def plant_in_tree_blocks(monkeypatch, fault, in_worker):
    """Blocks of 3 rows of a 6-trial tree walk on two processes, whose
    blocks call fault() as they advance: a worker's if in_worker, else the
    caller's.  The other process's blocks wait until fault() has run, so
    the process with the fault takes at least one block."""
    caller = os.getpid()
    planted = walk._FORK.Event()
    advance = walk._TreeBlock.advance

    def faulty(self, start, stop):
        if (os.getpid() != caller) == in_worker:
            planted.set()
            fault()
        else:
            planted.wait(30)
        advance(self, start, stop)

    monkeypatch.setattr(walk._TreeBlock, "advance", faulty)
    monkeypatch.setattr(walk, "_cpus", lambda: 2)
    monkeypatch.setattr(walk, "_BLOCK_BYTES", 3 * 2 * 20)
    cfg = WalkConfig(horizon=20, trials=6, master_seed=5,
                     checkpoints=(10, 20),
                     tracked_classes=(tree.parse_boundary("per:b"),))
    return lambda: run_experiment(srw_measure(), cfg, workers=2)


def raise_planted():
    raise RuntimeError("planted")


@pytest.mark.parametrize("in_worker", [True, False])
def test_an_exception_in_any_process_reaches_the_caller(in_worker,
                                                        monkeypatch):
    run = plant_in_tree_blocks(monkeypatch, raise_planted, in_worker)
    with pytest.raises(RuntimeError, match="^planted$") as err:
        run()
    if in_worker:       # with the worker's traceback as its cause
        assert "in raise_planted" in str(err.value.__cause__)
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_without_sending_is_named(monkeypatch):
    # no hang: the worker's pipe closes, and the caller names it
    def die():
        os._exit(3)

    run = plant_in_tree_blocks(monkeypatch, die, True)
    with pytest.raises(RuntimeError, match="walk worker .* exited with "
                                           "code 3"):
        run()
    assert multiprocessing.active_children() == []


def test_every_block_runs_once_on_more_processes_than_cpus(monkeypatch,
                                                          tmp_path):
    # 40 one-row blocks dealt to the caller and three workers through the
    # shared counter: a lost update would run a block twice or skip one
    cfg = WalkConfig(horizon=20, trials=40, master_seed=3,
                     checkpoints=(10, 20),
                     tracked_classes=(tree.parse_boundary("per:ab"),))
    want = run_experiment(srw_measure(), cfg)
    log = tmp_path / "blocks"
    run_trials = walk._run_trials

    def logged(cls, mu, config, lo, hi, classes=None):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, b"%d\n" % lo)
        finally:
            os.close(fd)
        return run_trials(cls, mu, config, lo, hi, classes)

    monkeypatch.setattr(walk, "_run_trials", logged)
    monkeypatch.setattr(walk, "_cpus", lambda: 4)
    monkeypatch.setattr(walk, "_BLOCK_BYTES", 2 * 20)
    got = run_experiment(srw_measure(), cfg, workers=4)
    assert sorted(map(int, log.read_text().split())) == list(range(40))
    assert [r.trial_index for r in got] == list(range(40))
    assert all(records_equal(x, y) for x, y in zip(want, got))
    assert multiprocessing.active_children() == []


# -- spot checks

def test_forced_spot_check_on_first_trial_last_checkpoint():
    cfg = WalkConfig(horizon=50, trials=3, master_seed=2,
                     checkpoints=(25, 50), spot_check_rate=0.0)
    recs = run_experiment(srw_measure(), cfg)
    assert 50 in recs[0].spot_checked
    assert all(r.spot_checked == () for r in list(recs)[1:])


def test_full_rate_spot_checks_every_checkpoint_both_modes():
    cfg = WalkConfig(horizon=40, trials=2, master_seed=8,
                     checkpoints=(10, 20, 30, 40), spot_check_rate=1.0,
                     tracked_classes=(tree.parse_boundary("per:a"),))
    for rec in run_experiment(srw_measure(), cfg):
        assert rec.spot_checked == (10, 20, 30, 40)
    cfg2 = WalkConfig(horizon=24, trials=2, master_seed=8,
                      checkpoints=(8, 16, 24), spot_check_rate=1.0,
                      tracked_classes=(fg.parse_word("a"), fg.parse_word("ab")))
    for rec in run_experiment(nielsen_measure(), cfg2):
        assert rec.spot_checked == (8, 16, 24)


def spot_selected(master_seed, trial, ckpt, rate):
    """The scalar spot-selection hash, in unbounded ints: the reference for
    walk._spot_mask."""
    h = (trial * 1000003 + ckpt) * 2654435761 + (master_seed & 0xFFFFFFFF)
    h ^= h >> 16
    return (h * 0x9E3779B1) % (1 << 32) < int(rate * (1 << 32))


def test_spot_selection_is_worker_independent_hash():
    hits = [(t, c) for t in range(200) for c in (10, 20)
            if spot_selected(7, t, c, 0.05)]
    # any cut of the trials into blocks selects the same pairs
    for cut in (200, 7, 1):
        again = [(lo + r, c) for lo in range(0, 200, cut) for c in (10, 20)
                 for r in np.flatnonzero(walk._spot_mask(
                     7, lo, min(cut, 200 - lo), c, 0.05)).tolist()]
        assert sorted(again) == sorted(hits)
    assert 0 < len(hits) < 80


@pytest.mark.parametrize("rate", [0, 0.01, 0.3, 1])
@pytest.mark.parametrize("seed", [7, 2 ** 32 + 7, 2 ** 64 - 1])
@pytest.mark.parametrize("lo", [0, 2 ** 32 - 1000, 2 ** 40 - 1000])
def test_spot_mask_matches_the_scalar_hash(lo, seed, rate):
    # offsets and seeds past 32 bits wrap the uint64 hash; only its low 48
    # bits decide, so the mask stays exact
    for ckpt in (1, 100, 2000, 10 ** 6):
        mask = walk._spot_mask(seed, lo, 2000, ckpt, rate)
        expect = [spot_selected(seed, lo + r, ckpt, rate)
                  for r in range(2000)]
        assert mask.tolist() == expect
        assert mask.any() == (rate > 0) and mask.all() == (rate == 1)


@pytest.mark.parametrize("lo", [0, 2 ** 32 - 2, 2 ** 40 - 2])
@pytest.mark.parametrize("seed", [3, 2 ** 32 + 3])
@pytest.mark.parametrize("rate", [0, 0.01, 0.3, 1])
def test_a_block_spot_checks_the_selected_and_the_forced_pairs(lo, seed,
                                                               rate):
    cfg = WalkConfig(horizon=40, trials=1, master_seed=seed,
                     checkpoints=(10, 20, 30, 40), spot_check_rate=rate,
                     tracked_classes=(tree.parse_boundary("per:a"),))
    records, failures = block_run(walk._TreeBlock(srw_measure(), cfg, lo,
                                                  lo + 5))
    assert failures == []
    for rec in records:
        t = rec.trial_index
        assert rec.spot_checked == tuple(
            c for c in cfg.checkpoints if spot_selected(seed, t, c, rate)
            or (t == 0 and c == 40))
    # the forced pair: trial 0 at the last checkpoint, whatever the rate
    if lo == 0:
        assert 40 in records[0].spot_checked


# -- resource caps

def word_engine_point_mass(trials):
    """(a>ab)^n at the cap of 64 letters, tracking the non-primitive class
    abAB, which puts the walk on the word engine."""
    mu = outer_point_mass(["R:1:2:+"])
    cfg = WalkConfig(horizon=100, trials=trials, master_seed=0,
                     checkpoints=(100,), max_word_letters=64,
                     tracked_classes=(fg.parse_word("abAB"),))
    assert walk.outer_backend(mu, cfg) == "words"
    return mu, cfg


def test_word_cap_exceeded_names_trial_and_step():
    mu, cfg = word_engine_point_mass(1)
    with pytest.raises(ExperimentError) as err:
        run_experiment(mu, cfg)
    msg = str(err.value)
    assert "trial 0" in msg and "step" in msg


def test_word_cap_exception_survives_pickling():
    exc = WordCapExceeded(3, 17, 70000, 65536)
    back = pickle.loads(pickle.dumps(exc))
    assert isinstance(back, WordCapExceeded)
    assert (back.trial, back.step, back.length, back.cap) == (3, 17, 70000, 65536)


def test_cap_failures_surface_through_the_worker_pool():
    mu, cfg = word_engine_point_mass(4)
    with pytest.raises(ExperimentError) as err:
        run_experiment(mu, cfg, workers=2)
    assert "trial" in str(err.value)


def test_tree_mode_ignores_the_letter_cap_gracefully():
    # a tree stack grows at most one atom per step, as the block's steps
    # do, so the cap bounds nothing there: a stack of 60 letters passes a
    # cap of 32 and the trial finishes
    cfg = WalkConfig(horizon=60, trials=1, master_seed=1, checkpoints=(60,),
                     max_word_letters=32)
    rec = run_experiment(tree_point_mass("a"), cfg)[0]
    assert rec.kappa == (60,) and rec.peak_letters == 60


def test_peak_letters_reported():
    cfg = WalkConfig(horizon=10, trials=1, master_seed=0, checkpoints=(10,))
    rec = run_experiment(outer_point_mass(["R:1:2:+"]), cfg)[0]
    # longest maintained word is the image a b^10
    assert rec.peak_letters >= 11


# -- the GL(2,Z) backend against the word engine

def block_run(block):
    """block.run() with its columns as a walk.Run."""
    columns, failures = block.run()
    return walk._join(block.config, block.classes, [columns]), failures


def one_block(mu, cfg):
    """Every trial as one block of the backend the walk chooses."""
    cls, classes = walk._backend(mu, cfg)
    return block_run(cls(mu, cfg, 0, cfg.trials, classes))


def same_record(a, b):
    # peak_letters counts what each backend holds: reduced words against
    # cyclic lengths, so it is the one field allowed to differ
    return (a.trial_index, a.checkpoints, a.kappa, a.sigma, a.lengths,
            a.spot_checked) == (b.trial_index, b.checkpoints, b.kappa,
                                b.sigma, b.lengths, b.spot_checked)


def random_rank2_measure(rng, atoms=4):
    autos = [fg.random_automorphism(rng, 2, int(rng.integers(1, 3)))
             for _ in range(atoms)]
    raw = rng.integers(1, 5, size=atoms)
    return MeasureSpec(autos, [float(v) / float(raw.sum()) for v in raw])


def word_engine_path(mu, cfg, trial):
    records, failures = block_run(walk._WordBlock(mu, cfg, trial, trial + 1))
    assert not failures
    return records[0]


def both_backends(mu, cfg):
    assert walk.outer_backend(mu, cfg) == "gl2z"
    for trial in range(cfg.trials):
        yield walk.sample_path(mu, cfg, trial), word_engine_path(mu, cfg, trial)


@pytest.mark.parametrize("seed", [0, 1, 7, 2026])
def test_gl2z_backend_matches_word_engine_on_nielsen_walks(seed):
    cfg = WalkConfig(horizon=40, trials=12, master_seed=seed,
                     checkpoints=(5, 10, 20, 30, 40), spot_check_rate=0.2,
                     tracked_classes=tuple(fg.parse_word(w) for w in
                                           ("a", "b", "ab", "aB", "aba",
                                            "aabab", "BAbbb")))
    for fast, slow in both_backends(nielsen_measure(), cfg):
        assert same_record(fast, slow)
        assert fast.peak_letters <= slow.peak_letters


@pytest.mark.parametrize("seed", [3, 11, 19, 42, 99])
def test_gl2z_backend_matches_word_engine_on_random_rank2_measures(seed):
    rng = np.random.default_rng(seed)
    mu = random_rank2_measure(rng)
    cfg = WalkConfig(horizon=16, trials=10, master_seed=seed,
                     checkpoints=(4, 8, 12, 16), spot_check_rate=0.3,
                     tracked_classes=(fg.parse_word("aba"),
                                      fg.parse_word("abb")))
    for fast, slow in both_backends(mu, cfg):
        assert same_record(fast, slow)


@pytest.mark.parametrize("word", ["a", "B", "ab", "aB", "aba", "aabab",
                                  "abbabbb", "BAbbb"])
def test_primitive_classes_are_recognized(word):
    assert fg.is_primitive_f2(fg.parse_word(word))


@pytest.mark.parametrize("word", ["", "aa", "abAB", "aabb", "abab", "aBAb"])
def test_non_primitive_classes_are_recognized(word):
    assert not fg.is_primitive_f2(fg.parse_word(word))


def test_primitivity_is_an_automorphism_invariant():
    rng = np.random.default_rng(5)
    for _ in range(30):
        phi = fg.random_automorphism(rng, 2, int(rng.integers(1, 8)))
        assert fg.is_primitive_f2(phi.apply(fg.parse_word("ab")))
        assert not fg.is_primitive_f2(phi.apply(fg.parse_word("abAB")))
        assert not fg.is_primitive_f2(phi.apply(fg.parse_word("aabb")))


def test_non_primitive_tracked_class_uses_the_word_engine():
    mu = nielsen_measure()
    cfg = WalkConfig(horizon=12, trials=3, master_seed=4,
                     checkpoints=(6, 12),
                     tracked_classes=(fg.parse_word("a"),
                                      fg.parse_word("abAB")))
    assert walk.outer_backend(mu, cfg) == "words"
    for trial in range(cfg.trials):
        assert same_record(walk.sample_path(mu, cfg, trial),
                           word_engine_path(mu, cfg, trial))


def rank3_measure():
    return MeasureSpec([fg.from_trace(3, ["R:1:2:+"]),
                        fg.from_trace(3, ["L:3:1:-"])], [0.5, 0.5])


def test_rank3_walks_use_the_word_engine():
    mu = rank3_measure()
    cfg = WalkConfig(horizon=6, trials=1, master_seed=0, checkpoints=(6,))
    assert walk.outer_backend(mu, cfg) == "words"


def test_a_word_block_holds_one_trial_at_the_default_cap():
    # a row counts every start word at the cap's letters: at the default
    # cap one row passes the block budget, so a block is a single trial
    cfg = WalkConfig(horizon=6, trials=4, master_seed=0, checkpoints=(6,))
    assert cfg.max_word_letters == walk.DEFAULT_WORD_CAP
    assert walk._WordBlock.row_bytes(rank3_measure(), cfg) > \
        walk._BLOCK_BYTES
    assert walk._block_size(cfg.trials, 2, 1) == 1


def test_the_block_budget_gives_each_of_two_workers_one_tree_block():
    # tree_srw_f2 as shipped: 2000 stack and 2000 step bytes a row, so two
    # workers get one block of 500 trials each
    cfg = load_config(os.path.join(ROOT, "configs", "tree_srw_f2.json"))
    mu, wcfg = build_measure(cfg), build_walk_config(cfg)
    assert walk._backend(mu, wcfg) == (walk._TreeBlock, None)
    row = walk._TreeBlock.row_bytes(mu, wcfg)
    assert row == 4000
    size = walk._block_size(wcfg.trials, 2, walk._BLOCK_BYTES // row)
    assert (size, -(-wcfg.trials // size)) == (500, 2)


def test_word_engine_program_faults_propagate(monkeypatch):
    # only cap, domination and spot-check failures are a trial's own; any
    # other exception is a fault of the program and is raised once
    def broken(self, w):
        raise TypeError("broken apply")

    cfg = WalkConfig(horizon=6, trials=5, master_seed=0, checkpoints=(3, 6))
    monkeypatch.setattr(fg.Automorphism, "apply", broken)
    with pytest.raises(TypeError, match="broken apply"):
        run_experiment(rank3_measure(), cfg)


def run_with_fault(block, step, fault):
    """Run block with fault(block) applied as its walk reaches step, before
    that checkpoint's spot checks."""
    advance = block.advance

    def faulty(start, stop):
        advance(start, stop)
        if start < step <= stop:
            fault(block)

    block.advance = faulty
    return block_run(block)


def test_gl2z_spot_check_catches_a_corrupted_vector():
    mu = nielsen_measure()
    cfg = WalkConfig(horizon=30, trials=1, master_seed=1, checkpoints=(30,))
    records, failures = block_run(walk._GL2ZBlock(mu, cfg, 0, 1))
    assert not failures and records[0].spot_checked == (30,)

    def corrupt(block):
        block.p[0, 0] += 1

    _, [(trial, exc)] = run_with_fault(walk._GL2ZBlock(mu, cfg, 0, 1), 30,
                                       corrupt)
    assert trial == 0 and isinstance(exc, AssertionError)
    assert "incremental vector" in str(exc)


def test_word_spot_check_catches_a_corrupted_word():
    mu = rank3_measure()
    cfg = WalkConfig(horizon=12, trials=1, master_seed=1, checkpoints=(12,))
    records, failures = block_run(walk._WordBlock(mu, cfg, 0, 1))
    assert not failures and records[0].spot_checked == (12,)

    def corrupt(block):
        word = block.words[0][0].copy()
        word[0] = -word[0]
        block.words[0][0] = word

    _, [(trial, exc)] = run_with_fault(walk._WordBlock(mu, cfg, 0, 1), 12,
                                       corrupt)
    assert trial == 0 and isinstance(exc, AssertionError)
    assert "incremental image" in str(exc)


def lazy_measure(rank, traces, lazy=0.6):
    # the identity at weight `lazy`, as in outf2_gap (0.9 there), and the
    # other atoms uniform
    atoms = [fg.Automorphism.identity(rank)] + \
        [fg.from_trace(rank, t) for t in traces]
    return MeasureSpec(atoms, [lazy] + [(1 - lazy) / len(traces)] * len(traces))


def lazy_nielsen_measure():
    return lazy_measure(2, (["R:1:2:+"], ["R:1:2:-"], ["R:2:1:+"],
                            ["R:2:1:-"]))


def recomposed_images(mu, cfg, trial, step, storage):
    """The start words under Phi_step, recomposed from the trial's redrawn
    atoms and applied once."""
    phi = fg.Automorphism.identity(mu.atoms[0].rank)
    for i in float_draw(mu, cfg.master_seed, trial, step).tolist():
        phi = fg.compose(mu.atoms[i], phi)
    return [phi.apply(w) for w in storage]


@pytest.mark.parametrize("mu,idle,tracked,backend", [
    (rank3_measure(), (), ("a", "abc", "aB"), "words"),
    (lazy_measure(3, (["R:1:2:+"], ["L:3:1:-"], ["R:2:3:-"])), (0,),
     ("a", "abc"), "words"),
    (lazy_nielsen_measure(), (0,), ("a", "abAB"), "words"),
    (lazy_nielsen_measure(), (0,), ("a", "aba"), "gl2z"),
], ids=["rank3", "lazy-rank3", "lazy-rank2-words", "lazy-rank2-gl2z"])
def test_the_replay_matches_the_recomposed_automorphism(mu, idle, tracked,
                                                        backend):
    # every checkpoint of every trial: the replay moves at exactly the
    # steps of atoms other than the identity, and ends on the recomposed
    # images
    cfg = WalkConfig(horizon=16, trials=6, master_seed=1,
                     checkpoints=(1, 2, 5, 16),
                     tracked_classes=tuple(fg.parse_word(w) for w in tracked))
    assert walk.outer_backend(mu, cfg) == backend
    block = walk._backend(mu, cfg)[0](mu, cfg, 0, cfg.trials)
    block.plan(np.ones((len(cfg.checkpoints), cfg.trials), dtype=bool))
    replay = block.replay
    storage = block.classes.storage
    firsts = []
    for r in range(cfg.trials):
        firsts.append(float_draw(mu, cfg.master_seed, r, 1)[0] in idle)
    for k, step in enumerate(cfg.checkpoints):
        replay.advance(k, {})
        for r in range(cfg.trials):
            steps = float_draw(mu, cfg.master_seed, r, step).tolist()
            moved = replay.steps[:replay.counts[k, r], r].tolist()
            assert moved == [k for k, i in enumerate(steps, 1)
                             if i not in idle]
            want = recomposed_images(mu, cfg, r, step, storage)
            assert [w.tolist() for w in replay.words(r)] == \
                [w.tolist() for w in want]
    assert not replay.mismatch
    # lazy measures: some trials start on the identity and some do not
    assert any(firsts) == bool(idle) and not all(firsts)


def test_gl2z_spot_check_catches_a_wrong_step_matrix():
    # the walk keeps its int64 matrices; the check's product of the atom
    # matrices then disagrees with the replayed words' cyclic lengths
    mu = nielsen_measure()
    cfg = WalkConfig(horizon=30, trials=1, master_seed=1, checkpoints=(30,))
    records, failures = block_run(walk._GL2ZBlock(mu, cfg, 0, 1))
    assert not failures and records[0].spot_checked == (30,)
    block = walk._GL2ZBlock(mu, cfg, 0, 1)
    a, b, c, d = block.atom_mats[0]
    block.atom_mats[0] = (a + 1, b, c, d)
    _, [(trial, exc)] = block.run()
    assert trial == 0 and isinstance(exc, AssertionError)
    assert "differs from its cyclic word length" in str(exc)


@pytest.mark.parametrize("trial", [0, 1], ids=["moving-first",
                                               "identity-first"])
def test_gl2z_spot_check_compares_the_start_vectors_at_step_0(trial):
    mu = lazy_nielsen_measure()
    cfg = WalkConfig(horizon=12, trials=2, master_seed=1, checkpoints=(12,),
                     spot_check_rate=1.0)
    assert [float_draw(mu, 1, t, 1)[0] == 0 for t in (0, 1)] == \
        [False, True]
    records, failures = block_run(walk._GL2ZBlock(mu, cfg, trial, trial + 1))
    assert not failures and records[0].spot_checked == (12,)
    block = walk._GL2ZBlock(mu, cfg, trial, trial + 1)
    assert block.start_vecs[0] == (1, 0)            # the class of a
    block.start_vecs[0] = (2, 0)
    _, [(got, exc)] = block.run()
    assert got == trial and isinstance(exc, AssertionError)
    assert str(exc).startswith("trial %d step 0: |p|+|q|" % trial)


# -- outer spot checks against the per-row reference

def per_row_replay(block, r, step, limit=math.inf):
    """(0, None, start words), then (k, i, words) after each of row r's
    redrawn steps k <= step whose atom i moves: the start words redone from
    scratch, [] from the first word over `limit` letters on."""
    mu = block.mu
    moves = [any(w.tolist() != [x] for x, w in enumerate(phi.forward, 1))
             for phi in mu.atoms]
    words = block.classes.storage
    yield 0, None, words
    for k, i in enumerate(float_draw(
            mu, block.config.master_seed, block.lo + r, step).tolist(), 1):
        if moves[i]:
            if words:
                words = [mu.atoms[i].apply(w) for w in words]
                if max(len(w) for w in words) > limit:
                    words = []
            yield k, i, words


def per_row_spot_check(block, r, step):
    """Row r of an outer block against its own replay, alone."""
    storage = block.classes.storage
    if isinstance(block, walk._WordBlock):
        for _, _, words in per_row_replay(block, r, step):
            pass
        for w0, w1, w in zip(storage, words, block.words[r]):
            if not np.array_equal(w1, w):
                raise AssertionError(
                    "trial %d step %d: incremental image of %r diverged from "
                    "its from-scratch replay"
                    % (block.lo + r, step, fg.format_word(w0)))
        return
    a, b, c, d = 1, 0, 0, 1
    for k, i, words in per_row_replay(block, r, step, block.REPLAY_LETTERS):
        if k:
            e, f, g, h = block.atom_mats[i]
            a, b, c, d = (e * a + f * c, e * b + f * d,
                          g * a + h * c, g * b + h * d)
        for w, w0, (p, q) in zip(words, storage, block.start_vecs):
            if fg.cyclic_length(w) != abs(a * p + b * q) + abs(c * p + d * q):
                raise AssertionError(
                    "trial %d step %d: |p|+|q| of the image of %r "
                    "differs from its cyclic word length"
                    % (block.lo + r, k, fg.format_word(w0)))
    for i, (w0, (p, q)) in enumerate(zip(storage, block.start_vecs)):
        if (a * p + b * q, c * p + d * q) != (block.p[r, i], block.q[r, i]):
            raise AssertionError(
                "trial %d step %d: incremental vector of %r diverged "
                "from the product of the step matrices"
                % (block.lo + r, step, fg.format_word(w0)))


def per_row_block_run(block):
    """block.run() with each due pair checked alone by per_row_spot_check."""
    cfg = block.config
    done = 0
    for k, step in enumerate(cfg.checkpoints):
        block.advance(done, step)
        block.read(k, step)
        for r in range(block.rows):
            t = block.lo + r
            due = spot_selected(cfg.master_seed, t, step,
                                cfg.spot_check_rate) or \
                (t == 0 and step == cfg.checkpoints[-1])
            if not due or r in block.failures:
                continue
            try:
                per_row_spot_check(block, r, step)
            except AssertionError as exc:
                block.fail(r, exc)
            else:
                block.spots[k, r] = True
        done = step
    block.advance(done, cfg.horizon)
    columns, failures = block.columns()
    return walk._join(cfg, block.classes, [columns]), failures


def rank3_lazy_measure():
    return lazy_measure(3, (["R:1:2:+"], ["L:3:1:-"], ["R:2:3:-"]))


# case -> (measure, tracked, horizon); the Nielsen moves have column sum
# 2 and the longest class, aba, 3 letters: 2^61 x 3 < 2^63 < 2^62 x 3, so
# the block holds int64 vectors at horizon 61 and Python ints at 62
OUTER_CASES = {
    "gl2z": (nielsen_measure, ("a", "b", "ab", "aB", "aba"), 40),
    "gl2z-lazy": (lambda: lazy_measure(2, (["R:1:2:+"], ["R:1:2:-"],
                                           ["R:2:1:+"], ["R:2:1:-"])),
                  ("a", "b", "ab", "aB", "aba"), 40),
    "gl2z-int64": (nielsen_measure, ("a", "b", "ab", "aB", "aba"), 61),
    "gl2z-object": (nielsen_measure, ("a", "b", "ab", "aB", "aba"), 62),
    "words": (rank3_measure, ("a", "abc", "aB"), 40),
    "words-lazy": (rank3_lazy_measure, ("a", "abc", "aB"), 40),
}


def gl2z_fault(monkeypatch, mu):
    # the walk and the replay's product both negate q at atom 1: that step
    # keeps |p|+|q|, but later steps can part it from the replayed words
    # (pool workers unpickle their own atoms: the matrix names the atom)
    right = walk._abelian_matrix
    target = right(mu.atoms[1])

    def wrong(phi):
        a, b, c, d = right(phi)
        return (a, b, -c, -d) if (a, b, c, d) == target else (a, b, c, d)

    monkeypatch.setattr(walk, "_abelian_matrix", wrong)


def words_fault(monkeypatch, mu):
    # the walk flips the first letter of the first word of odd trials
    # once it reaches step 20
    advance = walk._WordBlock.advance

    def flipped(self, start, stop):
        advance(self, start, stop)
        if start < 20 <= stop:
            for r, words in enumerate(self.words):
                if (self.lo + r) % 2 and words:
                    word = words[0].copy()
                    word[0] = -word[0]
                    words[0] = word

    monkeypatch.setattr(walk._WordBlock, "advance", flipped)


@pytest.mark.parametrize("case", list(OUTER_CASES))
@pytest.mark.parametrize("fault", [False, True], ids=["clean", "fault"])
@pytest.mark.parametrize("workers", [1, 2])
def test_outer_spot_checks_match_the_per_row_reference(case, fault, workers,
                                                       monkeypatch):
    # blocks of 4 rows, so at two workers the blocks run on the pool
    measure, tracked, horizon = OUTER_CASES[case]
    mu = measure()
    cfg = WalkConfig(horizon=horizon, trials=12, master_seed=5,
                     checkpoints=(5, 10, 20, 30, 40), spot_check_rate=0.4,
                     max_word_letters=10 ** 5,
                     tracked_classes=tuple(fg.parse_word(w) for w in tracked))
    cls = walk._backend(mu, cfg)[0]
    assert walk.outer_backend(mu, cfg) == case.split("-")[0]
    if horizon > 40:
        dtype = cls(mu, cfg, 0, 1).p.dtype
        assert dtype == (np.int64 if case == "gl2z-int64" else object)
    monkeypatch.setattr(walk, "_BLOCK_BYTES", 4 * cls.row_bytes(mu, cfg))
    if fault:
        (gl2z_fault if cls is walk._GL2ZBlock else words_fault)(monkeypatch,
                                                                mu)
    want, want_failures = per_row_block_run(cls(mu, cfg, 0, cfg.trials))
    assert want and bool(want_failures) == fault
    assert all(isinstance(e, AssertionError) for _, e in want_failures)
    if not fault:
        assert sum(len(r.spot_checked) for r in want) > cfg.trials
    if want_failures:
        with pytest.raises(ExperimentError) as err:
            run_experiment(mu, cfg, workers=workers)
        assert failure_key(err.value.failures) == failure_key(want_failures)
        got, failures = one_block(mu, cfg)
        assert failure_key(failures) == failure_key(want_failures)
    else:
        got = run_experiment(mu, cfg, workers=workers)
    assert_same_outer_records(got, want)


def near_limit_fault(monkeypatch, limit):
    # both cyclic-length kernels read 2 letters long for words of more than
    # limit - 100 letters: the fault shows where the replay compares such a
    # word, within 100 letters below the limit or on it, and would show past
    # the limit, where the replay must not compare
    cyclic_length, cyclic_lengths = fg.cyclic_length, fg.cyclic_lengths

    def length(w):
        return cyclic_length(w) + 2 * (len(w) > limit - 100)

    def lengths(w, lens):
        return cyclic_lengths(w, lens) + 2 * (lens > limit - 100)

    monkeypatch.setattr(fg, "cyclic_length", length)
    monkeypatch.setattr(fg, "cyclic_lengths", lengths)


def landing_length(block, r, step):
    """The first longest-word length of row r's replay past 600 letters,
    reached from at least 100 letters below it."""
    before = 0
    for _, _, words in per_row_replay(block, r, step, 2000):
        top = max(map(len, words), default=0)
        if top > 600:
            return top if top - before >= 100 else None
        before = top
    return None


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "fault"])
@pytest.mark.parametrize("workers", [1, 2])
def test_replay_limit_steps_match_the_per_row_reference(fault, workers,
                                                        monkeypatch):
    # positive moves: every class passes the replay's limit within the
    # horizon, a step of about x1.6 at a time, so the carried words meet
    # the limit at steps of their own in most rows.  The limit is set to a
    # length that trial 0's longest word lands on from 100 letters below,
    # so that under the fault trial 0 fails on the limit itself.  A row
    # fails where a word first lands within 100 letters below the limit or
    # on it, and passes where its words jump past it
    mu = MeasureSpec([fg.from_trace(2, t) for t in (["R:1:2:+"],
                                                     ["R:2:1:+"],
                                                     ["L:1:2:+"],
                                                     ["L:2:1:+"])],
                     [0.25] * 4)
    cfg = WalkConfig(horizon=30, trials=24, master_seed=9,
                     checkpoints=(10, 20, 30), spot_check_rate=1.0,
                     tracked_classes=OUTER_TRACKED)
    cls = walk._backend(mu, cfg)[0]
    assert cls is walk._GL2ZBlock
    limit = landing_length(cls(mu, cfg, 0, 1), 0, cfg.horizon)
    assert limit is not None
    monkeypatch.setattr(cls, "REPLAY_LETTERS", limit)
    monkeypatch.setattr(walk, "_BLOCK_BYTES", 8 * cls.row_bytes(mu, cfg))
    if fault:
        near_limit_fault(monkeypatch, limit)
    want, want_failures = per_row_block_run(cls(mu, cfg, 0, cfg.trials))
    assert all("differs from its cyclic word length" in str(e)
               for _, e in want_failures)
    if fault:
        # rows that fail near the limit and rows whose words skip the
        # window, so that a replay comparing past the limit fails them too
        assert 0 < len(want_failures) < cfg.trials
        assert want_failures[0][0] == 0
        got, failures = one_block(mu, cfg)
        assert failure_key(failures) == failure_key(want_failures)
        with pytest.raises(ExperimentError) as err:
            run_experiment(mu, cfg, workers=workers)
        assert failure_key(err.value.failures) == failure_key(want_failures)
    else:
        assert not want_failures
        got = run_experiment(mu, cfg, workers=workers)
    assert_same_outer_records(got, want)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_start_class_past_the_limit_matches_the_per_row_reference(
        workers, monkeypatch):
    # the class a b^1101 starts past the replay's limit: a held row stops
    # carrying its words at the first step of its replay, whether it moves
    # there or not (nine steps in ten are the identity), and its product
    # goes on from the moving steps it has taken
    mu = lazy_measure(2, (["R:1:2:+"], ["R:1:2:-"], ["R:2:1:+"],
                          ["R:2:1:-"]), lazy=0.9)
    cfg = WalkConfig(horizon=40, trials=12, master_seed=5,
                     checkpoints=(5, 10, 20, 30, 40), spot_check_rate=0.4,
                     tracked_classes=(fg.parse_word("a"),
                                      fg.parse_word("a" + "b" * 1101)))
    cls = walk._backend(mu, cfg)[0]
    assert cls is walk._GL2ZBlock
    monkeypatch.setattr(walk, "_BLOCK_BYTES", 4 * cls.row_bytes(mu, cfg))
    block = cls(mu, cfg, 0, cfg.trials)
    want, want_failures = per_row_block_run(block)
    assert not want_failures
    # some held row takes no moving step before its first due checkpoint
    steps = [float_draw(mu, 5, t, 5).tolist() for t in range(cfg.trials)]
    assert any(not any(d) and spot_selected(5, t, 5, 0.4)
               for t, d in enumerate(steps))
    assert_same_outer_records(run_experiment(mu, cfg, workers=workers), want)


def test_a_corrupted_idle_row_fails_at_its_own_next_moving_step(monkeypatch):
    # nine steps in ten are the identity, so held rows take their first
    # moving steps at different steps; one row's word aba becomes Aba, of
    # cyclic length 1, after the step-0 comparison, and its mismatch is
    # reported at its own first moving step, where the replay next compares
    # it, not at an earlier step of the other rows
    mu = lazy_measure(2, (["R:1:2:+"], ["R:1:2:-"], ["R:2:1:+"],
                          ["R:2:1:-"]), lazy=0.9)
    cfg = WalkConfig(horizon=40, trials=8, master_seed=3,
                     checkpoints=(20, 40), spot_check_rate=1.0,
                     tracked_classes=(fg.parse_word("a"),
                                      fg.parse_word("aba")))
    assert walk.outer_backend(mu, cfg) == "gl2z"
    firsts = [float_draw(mu, 3, t, 40).tolist() for t in range(8)]
    firsts = [next(s for s, i in enumerate(d, 1) if i) for d in firsts]
    victim = max(range(8), key=firsts.__getitem__)
    assert firsts[victim] > min(firsts)
    init = walk._Replay.__init__

    def corrupted(self, block, due, *args):
        init(self, block, due, *args)
        assert fg.format_word(block.classes.storage[4]) == "aba"
        start = int((self.lens[:victim * self.width + 4] + 1).sum())
        flat = self.flat.copy()
        flat[start] = -flat[start]
        self.flat = flat

    monkeypatch.setattr(walk._Replay, "__init__", corrupted)
    _, [(trial, exc)] = one_block(mu, cfg)
    assert trial == victim
    assert str(exc).startswith("trial %d step %d: |p|+|q| of the image of "
                               "'aba'" % (victim, firsts[victim]))


@pytest.mark.parametrize("backend,tracked", [("gl2z", "aba"),
                                             ("words", "abAB")])
def test_a_corrupted_row_of_the_lock_step_fails_alone(backend, tracked,
                                                      monkeypatch):
    # every row is due at every checkpoint; one held row's third word, ab,
    # becomes aB in the shared array before the first advance
    mu = nielsen_measure()
    cfg = WalkConfig(horizon=30, trials=8, master_seed=3,
                     checkpoints=(10, 20, 30), spot_check_rate=1.0,
                     max_word_letters=10 ** 5,
                     tracked_classes=(fg.parse_word("a"),
                                      fg.parse_word(tracked)))
    assert walk.outer_backend(mu, cfg) == backend
    clean, failures = one_block(mu, cfg)
    assert not failures
    storage = walk._Classes(mu, cfg).storage
    assert fg.format_word(storage[2]) == "ab"
    victim = 5
    init = walk._Replay.__init__

    def corrupted(self, block, due, *args):
        init(self, block, due, *args)
        width = self.width
        start = int((self.lens[:victim * width + 2] + 1).sum())
        flat = self.flat.copy()
        flat[start + 1] = -flat[start + 1]
        self.flat = flat

    monkeypatch.setattr(walk._Replay, "__init__", corrupted)
    got, failures = one_block(mu, cfg)
    [(trial, exc)] = failures
    assert trial == victim and isinstance(exc, AssertionError)
    assert str(exc).startswith("trial 5 step ")
    assert ("differs from its cyclic word length" if backend == "gl2z"
            else "incremental image of 'ab'") in str(exc)
    assert_same_outer_records(got, [r for r in clean if r.trial_index != 5])


def test_gl2z_cap_counts_exact_cyclic_length():
    # (a>ab)^n sends the class ab to a b^(n+1), whose cyclic length passes
    # the cap of 64 letters at step 63; a GL(2,Z) block holds no words, so
    # the cap does not stop it, and the walk reaches the horizon with the
    # exact cyclic length 102
    cfg = WalkConfig(horizon=100, trials=1, master_seed=0,
                     checkpoints=(100,), max_word_letters=64)
    mu = outer_point_mass(["R:1:2:+"])
    assert walk.outer_backend(mu, cfg) == "gl2z"
    rec = walk.sample_path(mu, cfg, 0)
    assert rec.peak_letters == 102
    assert_same_outer_records([rec], [per_step_gl2z_trial(mu, cfg, 0)])


def first_cap_breach(mu, cfg, trial, storage):
    """(step, length) of the first image word over the cap, replayed on
    words; None when none passes it."""
    words = list(storage)
    steps = float_draw(mu, cfg.master_seed, trial, cfg.horizon).tolist()
    for step, i in enumerate(steps, 1):
        words = [mu.atoms[i].apply(w) for w in words]
        over = [len(w) for w in words if len(w) > cfg.max_word_letters]
        if over:
            return step, over[0]
    return None


@pytest.mark.parametrize("backend,tracked", [("words", "abAB")])
@pytest.mark.parametrize("workers", [1, 2])
def test_outer_failures_are_attributed_to_their_own_trials(workers, backend,
                                                           tracked):
    # 48 trials at seed 2, some under the cap and some over it; two workers
    # get two blocks of 24
    mu = nielsen_measure()
    cfg = WalkConfig(horizon=30, trials=48, master_seed=2,
                     checkpoints=(10, 20, 30), max_word_letters=64,
                     spot_check_rate=0.5,
                     tracked_classes=(fg.parse_word("a"),
                                      fg.parse_word(tracked)))
    assert walk.outer_backend(mu, cfg) == backend
    storage = walk._Classes(mu, cfg).storage
    breach = {t: first_cap_breach(mu, cfg, t, storage)
              for t in range(cfg.trials)}
    failing = [t for t in range(cfg.trials) if breach[t]]
    passing = [t for t in range(cfg.trials) if not breach[t]]
    assert failing and passing
    with pytest.raises(ExperimentError) as err:
        run_experiment(mu, cfg, workers=workers)
    assert [(t, type(e), (e.step, e.length)) for t, e in err.value.failures] \
        == [(t, WordCapExceeded, breach[t]) for t in failing]
    got, failures = one_block(mu, cfg)
    assert [t for t, _ in failures] == failing
    assert [r.trial_index for r in got] == passing
    for rec in got:
        assert walk.sample_path(mu, cfg, rec.trial_index) == rec


# -- GL(2,Z) blocks against the per-step reference

def per_step_gl2z_trial(mu, config, trial):
    """One GL(2,Z) trial a step at a time in Python ints, read in Fractions."""
    classes = walk._Classes(mu, config)
    mats = [walk._abelian_matrix(phi) for phi in mu.atoms]
    start = classes.start_lens
    cands = classes.cands
    vecs = [fg.exponent_sums(w, 2) for w in classes.storage]
    steps = float_draw(mu, config.master_seed, trial, config.horizon)
    peak = max(start)
    kappa, spots = [], []
    sigma = {lab: [] for lab, _ in classes.tracked}
    lengths = {lab: [] for lab, _ in classes.tracked}
    for step in range(1, config.horizon + 1):
        a, b, c, d = mats[steps[step - 1]]
        vecs = [(a * p + b * q, c * p + d * q) for p, q in vecs]
        cyc = [abs(p) + abs(q) for p, q in vecs]
        if step in config.checkpoints or step == config.horizon:
            peak = max(peak, max(cyc))
        if step not in config.checkpoints:
            continue
        top = max(Fraction(cyc[i], start[i]) for i in cands)
        kappa.append(math.log(top))
        for lab, slot in classes.tracked:
            r = Fraction(cyc[slot], start[slot])
            if r > top:
                raise AssertionError("trial %d step %d: sigma(%s) exceeded "
                                     "kappa" % (trial, step, lab))
            sigma[lab].append(math.log(r))
            lengths[lab].append(cyc[slot])
        if spot_selected(config.master_seed, trial, step,
                         config.spot_check_rate) or \
                (trial == 0 and step == config.checkpoints[-1]):
            spots.append(step)
    return walk.PathRecord(
        trial_index=trial, checkpoints=config.checkpoints, kappa=tuple(kappa),
        sigma={k: tuple(v) for k, v in sigma.items()},
        lengths={k: tuple(v) for k, v in lengths.items()},
        peak_letters=peak, spot_checked=tuple(spots))


def per_step_gl2z_run(mu, config):
    return [per_step_gl2z_trial(mu, config, t) for t in range(config.trials)]


def assert_same_outer_records(got, want):
    assert [r.trial_index for r in got] == [r.trial_index for r in want]
    for g, w in zip(got, want):
        assert (g.trial_index, g.checkpoints, g.kappa, g.sigma, g.lengths,
                g.peak_letters, g.spot_checked, g.bnd) == \
            (w.trial_index, w.checkpoints, w.kappa, w.sigma, w.lengths,
             w.peak_letters, w.spot_checked, w.bnd)
        # the results are written as JSON: plain ints, not numpy scalars
        assert all(type(v) is int for v in
                   [g.peak_letters, *(v for n in g.lengths.values()
                                      for v in n)])


def lazy_nielsen_measure():
    # mostly the identity, as in configs/outf2_gap.json
    traces = ([], ["R:1:2:+"], ["R:1:2:-"], ["R:2:1:+"], ["R:2:1:-"])
    return MeasureSpec([fg.from_trace(2, t) for t in traces],
                       [0.6, 0.1, 0.1, 0.1, 0.1])


OUTER_TRACKED = tuple(fg.parse_word(w) for w in ("a", "b", "ab", "aB", "aba"))


@pytest.mark.parametrize("measure", ["nielsen", "lazy", "random"])
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_gl2z_blocks_match_the_per_step_reference(measure, rows, workers,
                                                  monkeypatch):
    # 150 steps between checkpoints 10 and 160: more than one segment, so
    # segments are cut inside an interval; blocks of `rows` trials, so
    # block edges split every worker's trial range
    mu = {"nielsen": nielsen_measure, "lazy": lazy_nielsen_measure,
          "random": lambda: random_rank2_measure(
              np.random.default_rng(5))}[measure]()
    cfg = WalkConfig(horizon=180, trials=7, master_seed=13,
                     checkpoints=(5, 10, 160), spot_check_rate=0.3,
                     max_word_letters=10 ** 100,
                     tracked_classes=OUTER_TRACKED)
    classes = walk._Classes(mu, cfg)
    assert classes.gl2z
    seg = walk._segment_steps([walk._abelian_matrix(phi) for phi in mu.atoms],
                              cfg.horizon)
    assert seg < 150
    monkeypatch.setattr(walk, "_BLOCK_BYTES",
                        rows * walk._GL2ZBlock.row_bytes(mu, cfg))
    want = per_step_gl2z_run(mu, cfg)
    assert_same_outer_records(run_experiment(mu, cfg, workers=workers), want)


def test_an_exact_ratio_past_the_float_range_reads_as_a_difference_of_logs():
    # the Anosov point mass a>aba, b>ba stretches by rho = (3+sqrt5)/2 a
    # step, so at step 800 kappa's ratio is about e^770, past the largest
    # float (about e^709.8): the ratio is read as log(top) - log(den), where
    # one int division used to raise OverflowError
    mu = outer_point_mass(["R:1:2:+", "R:2:1:+"])
    cfg = WalkConfig(horizon=800, trials=2, master_seed=0,
                     checkpoints=(400, 800), tracked_classes=OUTER_TRACKED)
    assert walk.outer_backend(mu, cfg) == "gl2z"
    block = walk._GL2ZBlock(mu, cfg, 0, 1)
    assert block.p.dtype == object
    records = run_experiment(mu, cfg)
    log_rho = math.log((3 + 5 ** 0.5) / 2)
    for rec in records:
        assert rec.kappa == records[0].kappa
        for n, kappa in zip(rec.checkpoints, rec.kappa):
            assert abs(kappa / n - log_rho) < 1e-3
        lengths = rec.lengths["aba"]
        assert lengths[1] > 3 * 2 ** 1024 > lengths[0]
        assert rec.sigma["aba"] == (math.log(lengths[0] / 3),
                                    math.log(lengths[1]) - math.log(3))
    block.run()
    top = max(block.lens[0, i] * m for i, m in zip(block.classes.cands,
                                                    block.classes.mults))
    assert records[0].kappa[1] == math.log(top) - math.log(block.classes.den)


def test_gl2z_rows_hold_vectors_beyond_int64():
    # at the default cap: GL(2,Z) blocks hold no words
    mu = nielsen_measure()
    cfg = WalkConfig(horizon=400, trials=4, master_seed=3,
                     checkpoints=(100, 400), tracked_classes=OUTER_TRACKED)
    want = per_step_gl2z_run(mu, cfg)
    assert max(r.peak_letters for r in want) > 2 ** 64
    assert_same_outer_records(run_experiment(mu, cfg), want)


@pytest.mark.parametrize("cap", [64, 5000])
@pytest.mark.parametrize("workers", [1, 2])
def test_gl2z_cap_failures_match_the_per_step_reference(cap, workers):
    # the cap bounds held words and a GL(2,Z) block holds none: trials
    # whose |p|+|q| passes the cap run to the horizon, as in the reference
    mu = nielsen_measure()
    cfg = WalkConfig(horizon=90, trials=40, master_seed=7,
                     checkpoints=(4, 8, 60, 90), max_word_letters=cap,
                     spot_check_rate=0.2, tracked_classes=OUTER_TRACKED)
    want = per_step_gl2z_run(mu, cfg)
    assert max(r.peak_letters for r in want) > cap
    assert_same_outer_records(run_experiment(mu, cfg, workers=workers), want)
    got, failures = one_block(mu, cfg)
    assert not failures
    assert_same_outer_records(got, want)


def shipped_walk(name, **over):
    cfg = load_config(os.path.join(ROOT, "configs", name + ".json"))
    cfg.update(over)
    return build_measure(cfg), build_walk_config(cfg)


@pytest.mark.parametrize("seed,trial", [(3, 324), (5, 1090), (10, 1682),
                                        (11, 1002), (17, 1901)])
def test_outf2_clt_trials_past_the_default_cap_finish(seed, trial):
    # at these master seeds one trial's |p|+|q| passes 2^24 at step 58-60,
    # which once aborted the whole run; the record keeps the largest at a
    # checkpoint, which may be below the cap again
    mu, cfg = shipped_walk("outf2_clt", seed=seed)
    assert cfg.max_word_letters == walk.DEFAULT_WORD_CAP
    assert walk.outer_backend(mu, cfg) == "gl2z"
    mats = [walk._abelian_matrix(phi) for phi in mu.atoms]
    vecs = [fg.exponent_sums(w, 2) for w in walk._Classes(mu, cfg).storage]
    top = 0
    for i in float_draw(mu, cfg.master_seed, trial, cfg.horizon).tolist():
        a, b, c, d = mats[i]
        vecs = [(a * p + b * q, c * p + d * q) for p, q in vecs]
        top = max(top, *(abs(p) + abs(q) for p, q in vecs))
    assert top > 2 ** 24
    assert_same_outer_records([walk.sample_path(mu, cfg, trial)],
                              [per_step_gl2z_trial(mu, cfg, trial)])


@pytest.mark.parametrize("name,row", [("outf2_clt", 500),
                                      ("outf2_deviation", 3860)])
def test_gl2z_rows_are_sized_by_the_horizon_not_the_cap(name, row):
    # steps, plus 2 x 5 vector entries of a pointer and an int as large as
    # 2^horizon times the longest start class (aba)
    for cap in ({}, {"max_word_letters": 64}):
        mu, cfg = shipped_walk(name, **cap)
        assert walk._GL2ZBlock.row_bytes(mu, cfg) == row


# -- the block read against the per-row reference

def per_row_read(block, k, step):
    """Checkpoint k's values read a row at a time, the way blocks once read
    them: kappa, sigma and lengths of each live row, compared in integers
    over the candidates' common denominator, and one int division and one
    math.log per value; a row whose tracked class passes kappa fails."""
    classes = block.classes
    for r in range(block.rows):
        if r in block.failures:
            continue
        lens = block.cyclic_lengths([r])[0].tolist()
        block.lengths[k, r] = [lens[i] for i in classes.slots]
        top = max(lens[i] * m for i, m in zip(classes.cands, classes.mults))
        sigma = []
        for lab, slot in classes.tracked:
            if lens[slot] * classes.den > top * classes.start_lens[slot]:
                block.fail(r, AssertionError(
                    "trial %d step %d: sigma(%s) exceeded kappa"
                    % (block.lo + r, step, lab)))
                break
            sigma.append(math.log(lens[slot] / classes.start_lens[slot]))
        else:
            block.kappa[k, r] = math.log(top / classes.den)
            block.sigma[k, r] = sigma


def assert_reads_match_the_per_row_reference(mu, cfg):
    """Two blocks of every trial, advanced alike: one read by the block,
    one by per_row_read, field by field at every checkpoint.  Returns the
    block's failures."""
    cls = walk._backend(mu, cfg)[0]
    got, want = cls(mu, cfg, 0, cfg.trials), cls(mu, cfg, 0, cfg.trials)
    done = 0
    for k, step in enumerate(cfg.checkpoints):
        for block in (got, want):
            block.advance(done, step)
        got.read(k, step)
        per_row_read(want, k, step)
        assert {r: str(e) for r, e in got.failures.items()} == \
            {r: str(e) for r, e in want.failures.items()}
        assert {r: type(e) for r, e in got.failures.items()} == \
            {r: type(e) for r, e in want.failures.items()}
        live = [r for r in range(cfg.trials) if r not in got.failures]
        # floats bit for bit; lengths as the same Python ints
        assert got.kappa[k, live].tobytes() == want.kappa[k, live].tobytes()
        assert got.sigma[k, live].tobytes() == want.sigma[k, live].tobytes()
        assert got.lengths[k, live].tolist() == want.lengths[k, live].tolist()
        assert all(type(v) is int for v in got.lengths[k, live].ravel())
        done = step
    return got.failures


@pytest.mark.parametrize("backend,measure,tracked", [
    ("gl2z", nielsen_measure, ("a", "b", "ab", "aB", "aba", "aabab")),
    ("gl2z", lazy_nielsen_measure, ("a", "b", "ab", "aB", "aba")),
    ("words", nielsen_measure, ("a", "abAB", "aba")),
    ("words", rank3_measure, ("a", "abc", "aB"))])
def test_block_reads_match_the_per_row_reference(backend, measure, tracked):
    mu = measure()
    cfg = WalkConfig(horizon=40, trials=9, master_seed=4,
                     checkpoints=(1, 5, 20, 40), max_word_letters=10 ** 5,
                     tracked_classes=tuple(fg.parse_word(w) for w in tracked))
    assert walk.outer_backend(mu, cfg) == backend
    assert not assert_reads_match_the_per_row_reference(mu, cfg)


def test_the_block_read_skips_word_rows_failed_at_the_cap():
    # trials that pass the cap of 64 letters between checkpoints hold no
    # words from then on; the others are read as before
    mu = nielsen_measure()
    cfg = WalkConfig(horizon=30, trials=48, master_seed=2,
                     checkpoints=(10, 20, 30), max_word_letters=64,
                     tracked_classes=(fg.parse_word("a"),
                                      fg.parse_word("abAB")))
    assert walk.outer_backend(mu, cfg) == "words"
    failures = assert_reads_match_the_per_row_reference(mu, cfg)
    assert 0 < len(failures) < cfg.trials
    assert all(isinstance(e, WordCapExceeded) for e in failures.values())
    assert {e.step for e in failures.values()} - {10, 20, 30}


@pytest.mark.parametrize("backend", ["gl2z", "words"])
def test_a_planted_domination_failure_fails_its_row_alone(backend,
                                                          monkeypatch):
    # trial 3's lengths of aba and aabab, which are not rose candidates,
    # are read a million times too long: both pass kappa at the first
    # checkpoint, and the first in tracking order is named
    mu = nielsen_measure() if backend == "gl2z" else rank3_measure()
    tracked = ("a", "aba", "ab", "aabab")
    cfg = WalkConfig(horizon=30, trials=6, master_seed=9,
                     checkpoints=(5, 10, 20, 30), max_word_letters=10 ** 5,
                     spot_check_rate=0.0,
                     tracked_classes=tuple(fg.parse_word(w) for w in tracked))
    cls = walk._backend(mu, cfg)[0]
    assert walk.outer_backend(mu, cfg) == backend
    classes = walk._Classes(mu, cfg)
    bumped = [slot for lab, slot in classes.tracked if lab in ("aba", "aabab")]
    assert len(bumped) == 2
    assert not set(bumped) & set(classes.cands)
    clean = [walk.sample_path(mu, cfg, t) for t in range(cfg.trials)]
    true_lengths = cls.cyclic_lengths

    def planted(self, rows):
        lens = true_lengths(self, rows)
        for j, r in enumerate(rows):
            if self.lo + r == 3:
                lens[j, bumped] *= 10 ** 6
        return lens

    monkeypatch.setattr(cls, "cyclic_lengths", planted)
    failures = assert_reads_match_the_per_row_reference(mu, cfg)
    assert list(failures) == [3]
    assert str(failures[3]) == "trial 3 step 5: sigma(aba) exceeded kappa"
    records, [(trial, exc)] = one_block(mu, cfg)
    assert trial == 3 and str(exc) == str(failures[3])
    assert_same_outer_records(records,
                              [r for r in clean if r.trial_index != 3])


# -- tree blocks against the per-letter reference

def _reference_limit_prefix(snap_words):
    tail = max(2, (len(snap_words) + 9) // 10)
    window = snap_words[-tail:] if len(snap_words) >= 2 else snap_words
    depth = min(len(w) for w in window)
    for w in window[1:]:
        depth = min(depth, fg.common_prefix_len(window[0][:depth], w[:depth]))
    return tree.BoundaryPoint.truncated(window[0][:depth], depth) \
        if depth > 0 else None


def _reference_prefixes(u, tracked):
    """Each point's common prefix with u from scratch; DepthError where a
    truncated point's certified letters leave it undecided."""
    cps = []
    for xi in tracked:
        k = len(u) if xi.is_periodic else min(len(u), xi.depth)
        cps.append(fg.common_prefix_len(np.array(u[:k], dtype=np.int8),
                                        xi.letters(k)))
        if cps[-1] == k < len(u):
            xi.letter(k)                            # DepthError
    return cps


def _reference_spot_check(mu, idx, step, u):
    flat = [int(v) for k in range(step) for v in fg.inverse(mu.atoms[idx[k]])]
    assert fg.reduce(flat).tolist() == u


def per_letter_trial(mu, config, trial):
    """One tree trial pushed a letter at a time onto a Python list."""
    inv_atoms = [[int(v) for v in fg.inverse(a)] for a in mu.atoms]
    tracked = list(config.tracked_classes)
    idx = float_draw(mu, config.master_seed, trial, config.horizon)
    u = []                          # walk position g_n^{-1}
    kappa, snap_words, spots, peak = [], [], [], 0
    sigma = {tree.format_boundary(xi): [] for xi in tracked}
    for step in range(1, config.horizon + 1):
        for v in inv_atoms[idx[step - 1]]:
            if u and u[-1] == -v:
                u.pop()
            else:
                u.append(v)
        peak = max(peak, len(u))
        if step in config.checkpoints:
            cps = _reference_prefixes(u, tracked)
            kappa.append(len(u))
            for i, xi in enumerate(tracked):
                sigma[tree.format_boundary(xi)].append(len(u) - 2 * cps[i])
            snap_words.append(np.array(u, dtype=fg.LETTER_DTYPE))
            if spot_selected(config.master_seed, trial, step,
                             config.spot_check_rate) or \
                    (trial == 0 and step == config.checkpoints[-1]):
                _reference_spot_check(mu, idx, step, u)
                spots.append(step)
    return walk.PathRecord(
        trial_index=trial, checkpoints=config.checkpoints, kappa=tuple(kappa),
        sigma={k: tuple(v) for k, v in sigma.items()}, lengths={},
        peak_letters=peak, spot_checked=tuple(spots),
        bnd=_reference_limit_prefix(snap_words))


def reference_run(mu, config):
    records, failures = [], []
    for trial in range(config.trials):
        try:
            records.append(per_letter_trial(mu, config, trial))
        except tree.DepthError as exc:
            failures.append((trial, exc))
    return records, failures


def assert_same_tree_record(got, want):
    assert (got.trial_index, got.checkpoints, got.kappa, got.sigma,
            got.lengths, got.peak_letters, got.spot_checked) == \
        (want.trial_index, want.checkpoints, want.kappa, want.sigma,
         want.lengths, want.peak_letters, want.spot_checked)
    if want.bnd is None:
        assert got.bnd is None
    else:
        assert got.bnd.depth == want.bnd.depth
        assert got.bnd.prefix.tolist() == want.bnd.prefix.tolist()
    # the results are written as JSON: plain ints, not numpy scalars
    values = [got.peak_letters, *got.kappa, *(v for s in got.sigma.values()
                                              for v in s)]
    assert all(type(v) is int for v in values)


def failure_key(failures):
    return [(t, type(e), str(e), getattr(e, "step", None),
             getattr(e, "length", None)) for t, e in failures]


MULTI_LETTER_ATOMS = {2: ("aB", "bbA", "Ab", "a", "B", "BA"),
                      3: ("aB", "bbA", "Ab", "c", "Ca", "bC", "A", "")}
TREE_POINTS = {2: ("per:a", "pre:Ba per:abAB", "per:b", "pre:ab per:aB"),
               3: ("pre:Ba per:abAB", "per:c", "pre:C per:ab", "per:bca")}


def random_tree_measure(rng, rank):
    atoms = MULTI_LETTER_ATOMS[rank]
    raw = rng.integers(1, 6, size=len(atoms))
    return MeasureSpec([fg.parse_word(w) for w in atoms],
                       [float(v) / float(raw.sum()) for v in raw])


@pytest.mark.parametrize("rank,seed", [(2, 0), (2, 17), (3, 4), (3, 29)])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tree_blocks_match_the_per_letter_reference(rank, seed, workers,
                                                    monkeypatch):
    # blocks of two trials (390 stack and 390 step bytes each), so every
    # worker runs several blocks and block edges split the trial range
    monkeypatch.setattr(walk, "_BLOCK_BYTES", 2 * (130 * 3 + 130 * 3))
    rng = np.random.default_rng(seed)
    mu = random_tree_measure(rng, rank)
    cfg = WalkConfig(horizon=130, trials=7, master_seed=seed,
                     checkpoints=tuple(range(5, 121, 5)), spot_check_rate=0.3,
                     tracked_classes=tuple(tree.parse_boundary(s)
                                           for s in TREE_POINTS[rank]))
    want, failures = reference_run(mu, cfg)
    assert not failures
    got = run_experiment(mu, cfg, workers=workers)
    assert len(got) == len(want) == 7
    for g, w in zip(got, want):
        assert_same_tree_record(g, w)


@pytest.mark.parametrize("workers", [1, 2])
def test_tree_failures_are_attributed_to_their_own_trials(workers):
    # 40 trials at seed 5: 8 run off the certified depth, and 12 of the 32
    # others pass the cap of 42 letters, which tree mode does not read
    mu = MeasureSpec([fg.parse_word(w) for w in
                      ("BA", "Ab", "bbA", "a", "B", "aB", "A", "b")], [1 / 8] * 8)
    cfg = WalkConfig(horizon=40, trials=40, master_seed=5,
                     checkpoints=(10, 30, 40), max_word_letters=42,
                     spot_check_rate=0.5,
                     tracked_classes=(tree.parse_boundary("per:a"),
                                      tree.parse_boundary("prefix:ab depth:2")))
    want, want_failures = reference_run(mu, cfg)
    assert len(want_failures) == 8 and len(want) == 32
    assert sum(r.peak_letters > cfg.max_word_letters for r in want) == 12
    with pytest.raises(ExperimentError) as err:
        run_experiment(mu, cfg, workers=workers)
    assert failure_key(err.value.failures) == failure_key(want_failures)
    got, failures = one_block(mu, cfg)
    assert failure_key(failures) == failure_key(want_failures)
    assert [r.trial_index for r in got] == [r.trial_index for r in want]
    for g, w in zip(got, want):
        assert_same_tree_record(g, w)


def test_tree_stacks_pass_the_cap_in_an_unpadded_block():
    # one-letter atoms, so no letter is the no-op 0: stacks of up to 23
    # letters pass the cap of 8, which tree mode does not read, without
    # writing past their rows, and every trial finishes as in the reference
    mu = MeasureSpec([fg.parse_word("a"), fg.parse_word("A")], [0.5, 0.5])
    cfg = WalkConfig(horizon=60, trials=30, master_seed=6,
                     checkpoints=(20, 60), max_word_letters=8,
                     tracked_classes=(tree.parse_boundary("per:a"),))
    want, want_failures = reference_run(mu, cfg)
    assert not want_failures and len(want) == cfg.trials
    assert max(r.peak_letters for r in want) > cfg.max_word_letters
    got, failures = one_block(mu, cfg)
    assert not failures and len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_tree_record(g, w)


@pytest.mark.parametrize("checkpoints", [(20, 40, 60), (60,)])
def test_sample_path_is_a_block_of_one(checkpoints):
    mu = random_tree_measure(np.random.default_rng(3), 2)
    cfg = WalkConfig(horizon=60, trials=4, master_seed=3,
                     checkpoints=checkpoints,
                     tracked_classes=(tree.parse_boundary("pre:Ba per:abAB"),))
    for trial in range(cfg.trials):
        assert_same_tree_record(walk.sample_path(mu, cfg, trial),
                                per_letter_trial(mu, cfg, trial))


def test_limit_prefix_stops_at_a_shorter_later_word():
    # a word that shrinks after the anchor keeps its popped letter above
    # its top, where it still equals the anchor's
    mu = MeasureSpec([fg.parse_word("a"), fg.parse_word("A")], [0.5, 0.5])
    cfg = WalkConfig(horizon=10, trials=20, master_seed=1, checkpoints=(8, 10))
    got = run_experiment(mu, cfg)
    assert any(0 < r.kappa[1] < r.kappa[0] for r in got)
    for rec in got:
        assert_same_tree_record(rec, per_letter_trial(mu, cfg, rec.trial_index))


@pytest.mark.parametrize("workers", [1, 2])
def test_checkpoint_prefixes_match_the_per_letter_reference_at_every_step(
        workers, monkeypatch):
    # a checkpoint after every step, toward a periodic, a pre-periodic and
    # a truncated point: 12 of 16 trials pass, 4 run off the certified depth
    monkeypatch.setattr(walk, "_BLOCK_BYTES", 3 * (60 * 3 + 60 * 3))
    mu = random_tree_measure(np.random.default_rng(2), 2)
    cfg = WalkConfig(horizon=60, trials=16, master_seed=2,
                     checkpoints=tuple(range(1, 61)), spot_check_rate=0.2,
                     tracked_classes=tuple(tree.parse_boundary(s) for s in (
                         "per:a", "pre:Ba per:abAB", "prefix:ab depth:2")))
    want, want_failures = reference_run(mu, cfg)
    assert len(want) == 12
    assert {type(e) for _, e in want_failures} == {tree.DepthError}
    with pytest.raises(ExperimentError) as err:
        run_experiment(mu, cfg, workers=workers)
    assert failure_key(err.value.failures) == failure_key(want_failures)
    got, failures = one_block(mu, cfg)
    assert failure_key(failures) == failure_key(want_failures)
    assert [r.trial_index for r in got] == [r.trial_index for r in want]
    for g, w in zip(got, want):
        assert_same_tree_record(g, w)


def test_a_depth_event_between_checkpoints_fails_its_trial():
    # the stack is ab at step 1 and abab at step 2, below and at the
    # certified depth 4; step 3 pushes past it, between checkpoints 1 and 5
    mu = tree_point_mass("BA")
    cfg = WalkConfig(horizon=5, trials=1, master_seed=0, checkpoints=(1, 5),
                     tracked_classes=(tree.parse_boundary("prefix:abab depth:4"),))
    with pytest.raises(tree.DepthError) as want:
        per_letter_trial(mu, cfg, 0)
    with pytest.raises(ExperimentError) as err:
        run_experiment(mu, cfg)
    [(trial, exc)] = err.value.failures
    assert (trial, type(exc), str(exc)) == (0, tree.DepthError, str(want.value))
    assert str(exc) == "letter 4 beyond certified depth 4"


def test_a_truncated_point_fails_only_undecidable_checkpoint_values():
    # trials 9 and 11 pass the certified letter A between checkpoints but
    # end the walk back within it, so the one value they record is decided
    mu = MeasureSpec([fg.parse_word("a"), fg.parse_word("A")], [0.5, 0.5])
    cfg = WalkConfig(horizon=10, trials=20, master_seed=1, checkpoints=(10,),
                     tracked_classes=(tree.parse_boundary("prefix:A depth:1"),))
    want, want_failures = reference_run(mu, cfg)
    assert [t for t, _ in want_failures] == [3, 6, 19]
    with pytest.raises(ExperimentError) as err:
        run_experiment(mu, cfg)
    assert failure_key(err.value.failures) == failure_key(want_failures)
    got, _ = one_block(mu, cfg)
    assert [r.trial_index for r in got] == [r.trial_index for r in want]
    for g, w in zip(got, want):
        assert_same_tree_record(g, w)


def test_busemann_values_ignore_letters_above_the_top():
    # a one-letter step that pops leaves the popped letter above the top,
    # where it still equals the tracked point's next letter
    mu = MeasureSpec([fg.parse_word("a"), fg.parse_word("A")], [0.5, 0.5])
    cfg = WalkConfig(horizon=10, trials=20, master_seed=1,
                     checkpoints=tuple(range(1, 11)),
                     tracked_classes=(tree.parse_boundary("per:a"),
                                      tree.parse_boundary("per:A")))
    got = run_experiment(mu, cfg)
    assert any(b < a for r in got for a, b in zip(r.kappa, r.kappa[1:]))
    for rec in got:
        assert_same_tree_record(rec, per_letter_trial(mu, cfg, rec.trial_index))


def test_sample_path_raises_the_trial_failure():
    cfg = WalkConfig(horizon=10, trials=1, master_seed=0, checkpoints=(10,),
                     tracked_classes=(tree.parse_boundary("prefix:AA depth:2"),))
    with pytest.raises(tree.DepthError, match="letter 2 beyond certified "
                                              "depth 2"):
        walk.sample_path(tree_point_mass("a"), cfg, 0)


def test_tree_spot_check_catches_a_corrupted_stack_entry():
    mu = srw_measure()
    cfg = WalkConfig(horizon=30, trials=1, master_seed=1, checkpoints=(30,),
                     tracked_classes=(tree.parse_boundary("per:a"),))
    block = walk._TreeBlock(mu, cfg, 0, 1)
    block.plan(np.ones((1, 1), dtype=bool))
    block.advance(0, 30)
    block.read(0, 30)
    assert block.spot_check(0, 30, [0]) == {}
    assert block.top[0] - block.base[0] > 3
    at = block.base[0] + 3
    block.stack[at] = block.stack[at] % 2 + 1     # another letter, a or b
    exc = block.spot_check(0, 30, [0])[0]
    assert isinstance(exc, AssertionError)
    assert "position stack diverged" in str(exc)


def test_tree_spot_check_catches_a_corrupted_common_prefix():
    mu = srw_measure()
    cfg = WalkConfig(horizon=30, trials=1, master_seed=1, checkpoints=(30,),
                     tracked_classes=(tree.parse_boundary("per:a"),))
    block = walk._TreeBlock(mu, cfg, 0, 1)
    block.plan(np.ones((1, 1), dtype=bool))
    block.advance(0, 30)
    block.read(0, 30)
    assert block.spot_check(0, 30, [0]) == {}
    block.cp[0, 0] += 1
    exc = block.spot_check(0, 30, [0])[0]
    assert isinstance(exc, AssertionError) and "common prefix" in str(exc)


def test_the_move_table_pops_pushes_and_idles():
    # every stack byte (a letter or the floor) against every letter's
    # inverse, and against the byte that stands for the no-op letter 0
    letters = [v for v in range(-fg.MAX_RANK, fg.MAX_RANK + 1) if v]
    for b in letters + [fg.SEPARATOR]:
        for w in letters:
            assert walk._MOVES[(b - w) % 256] == (-1 if b == w else 1)
        assert walk._MOVES[(b - walk._IDLE) % 256] == 0


def long_ray_measure():
    # the stack is A^n or a^n, mostly A^n: its common prefix with A^inf
    # passes the 64 columns read compares first
    return MeasureSpec([fg.parse_word("a"), fg.parse_word("A")], [0.95, 0.05])


def test_read_past_the_head_matches_the_per_letter_reference():
    cfg = WalkConfig(horizon=100, trials=1, master_seed=0,
                     checkpoints=(30, 64, 65, 100),
                     tracked_classes=(tree.parse_boundary("per:A"),))
    [rec] = run_experiment(tree_point_mass("a"), cfg)
    assert rec.kappa == (30, 64, 65, 100)
    assert rec.sigma == {"per:A": (-30, -64, -65, -100)}
    assert_same_tree_record(rec, per_letter_trial(tree_point_mass("a"), cfg, 0))
    cfg = WalkConfig(horizon=100, trials=12, master_seed=3,
                     checkpoints=(40, 70, 100), spot_check_rate=0.5,
                     tracked_classes=(tree.parse_boundary("per:a"),
                                      tree.parse_boundary("per:A")))
    got, failures = one_block(long_ray_measure(), cfg)
    assert not failures and max(r.kappa[-1] for r in got) > 64
    for rec in got:
        assert_same_tree_record(rec, per_letter_trial(
            long_ray_measure(), cfg, rec.trial_index))


def test_a_truncated_point_past_the_head_fails_as_the_reference():
    # A^80 certified to depth 80: a stack A^n with 64 < n <= 80 reads a
    # decided value past the head, and one with n > 80 fails
    point = tree.parse_boundary("prefix:%s depth:80" % ("A" * 80))
    cfg = WalkConfig(horizon=90, trials=30, master_seed=1,
                     checkpoints=(60, 75, 90), spot_check_rate=0.3,
                     tracked_classes=(tree.parse_boundary("per:a"), point))
    want, want_failures = reference_run(long_ray_measure(), cfg)
    assert want_failures and want
    assert {str(e) for _, e in want_failures} == {
        "letter 80 beyond certified depth 80"}
    assert any(64 < r.kappa[-1] for r in want)
    got, failures = one_block(long_ray_measure(), cfg)
    assert failure_key(failures) == failure_key(want_failures)
    assert [r.trial_index for r in got] == [r.trial_index for r in want]
    for g, w in zip(got, want):
        assert_same_tree_record(g, w)


@pytest.mark.parametrize("rate", [0.3, 1.0])
def test_the_plan_redraws_each_due_row_once(rate, monkeypatch):
    mu = random_tree_measure(np.random.default_rng(8), 2)
    cfg = WalkConfig(horizon=50, trials=12, master_seed=8,
                     checkpoints=(10, 20, 30, 40), spot_check_rate=rate,
                     tracked_classes=(tree.parse_boundary("per:a"),))
    block = walk._TreeBlock(mu, cfg, 0, cfg.trials)
    draws = []
    draw_indices = MeasureSpec.draw_indices

    def counting(self, master_seed, trials, n):
        draws.extend((int(t), n) for t in trials)
        return draw_indices(self, master_seed, trials, n)

    monkeypatch.setattr(MeasureSpec, "draw_indices", counting)
    records, failures = block_run(block)
    assert not failures
    # each row with a checked checkpoint, through its last one
    want = sorted((r.trial_index, r.spot_checked[-1]) for r in records
                  if r.spot_checked)
    assert sorted(draws) == want
    if rate == 1.0:
        assert want == [(t, 40) for t in range(cfg.trials)]
    for rec in records:
        assert_same_tree_record(rec, per_letter_trial(mu, cfg,
                                                      rec.trial_index))


def test_the_plan_cuts_its_letters_at_its_budget(monkeypatch):
    mu = random_tree_measure(np.random.default_rng(9), 2)
    cfg = WalkConfig(horizon=60, trials=6, master_seed=9,
                     checkpoints=(20, 40, 60), spot_check_rate=1.0,
                     tracked_classes=(tree.parse_boundary("per:a"),))
    budget = 400
    monkeypatch.setattr(walk, "_PLAN_LETTERS", budget)
    calls = []
    reduce = fg.reduce

    def recording(letters):
        if isinstance(letters, np.ndarray) and \
                (letters == fg.SEPARATOR).any():
            calls.append([len(w) + 1 for w in fg.split(letters)])
        return reduce(letters)

    monkeypatch.setattr(fg, "reduce", recording)
    records, failures = block_run(walk._TreeBlock(mu, cfg, 0, cfg.trials))
    assert not failures
    # 18 pairs in several calls, each within the budget, and no call's
    # first pair would have fit in the call before it
    assert sum(map(len, calls)) == 18 and len(calls) > 1
    assert all(sum(c) <= budget for c in calls)
    assert all(sum(a) + b[0] > budget for a, b in zip(calls, calls[1:]))
    for rec in records:
        assert_same_tree_record(rec, per_letter_trial(mu, cfg,
                                                      rec.trial_index))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_planted_stack_fault_fails_alike_at_every_worker_count(
        workers, monkeypatch):
    # blocks of three rows of a padded measure, so every worker plans
    # several blocks; trial 7's top letter is flipped once step 20 is
    # reached, and only trial 7 fails, at checkpoint 20
    mu = random_tree_measure(np.random.default_rng(5), 2)
    cfg = WalkConfig(horizon=60, trials=12, master_seed=5,
                     checkpoints=(10, 20, 40, 60), spot_check_rate=1.0,
                     tracked_classes=tuple(tree.parse_boundary(s)
                                           for s in TREE_POINTS[2]))
    assert not walk._inverse_atom_table(mu).all()      # padded
    monkeypatch.setattr(walk, "_BLOCK_BYTES",
                        3 * walk._TreeBlock.row_bytes(mu, cfg))
    clean = run_experiment(mu, cfg, workers=workers)
    assert len(clean) == cfg.trials
    for rec in clean:
        assert_same_tree_record(rec, per_letter_trial(mu, cfg,
                                                      rec.trial_index))
    advance = walk._TreeBlock.advance

    def faulty(self, start, stop):
        advance(self, start, stop)
        r = 7 - self.lo
        if 0 <= r < self.rows and start < 20 <= stop:
            self.stack[self.top[r]] = -self.stack[self.top[r]]

    monkeypatch.setattr(walk._TreeBlock, "advance", faulty)
    with pytest.raises(ExperimentError) as err:
        run_experiment(mu, cfg, workers=workers)
    [(trial, exc)] = err.value.failures
    assert (trial, type(exc), str(exc)) == (
        7, AssertionError, "trial 7 step 20: position stack diverged from "
        "from-scratch reduction")


def test_a_corrupted_row_of_tree_letters_fails_alone():
    # the spot check redraws its rows from Philox, not from the block's
    # letters: row 5's step 7 turned into its inverse fails trial 5 at its
    # first due checkpoint after step 7, and no other trial
    mu = srw_measure()
    cfg = WalkConfig(horizon=40, trials=8, master_seed=4,
                     checkpoints=(5, 20, 40), spot_check_rate=1.0,
                     tracked_classes=(tree.parse_boundary("per:a"),))
    clean, failures = one_block(mu, cfg)
    assert not failures
    block = walk._TreeBlock(mu, cfg, 0, cfg.trials)
    block.letters[6, 0, 5] = -block.letters[6, 0, 5]
    got, [(trial, exc)] = block_run(block)
    assert trial == 5 and isinstance(exc, AssertionError)
    assert str(exc) == "trial 5 step 20: position stack diverged from " \
        "from-scratch reduction"
    want = [r for r in clean if r.trial_index != 5]
    assert len(got) == len(want)
    assert all(records_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("backend,tracked", [("gl2z", "aba"),
                                             ("words", "abAB")])
def test_a_corrupted_row_of_outer_steps_fails_alone(backend, tracked):
    # row 5's step 7 turned into another atom: the replay, redrawn from
    # Philox, fails trial 5 at checkpoint 20, and no other trial
    mu = nielsen_measure()
    cfg = WalkConfig(horizon=30, trials=8, master_seed=3,
                     checkpoints=(5, 20, 30), spot_check_rate=1.0,
                     max_word_letters=10 ** 5,
                     tracked_classes=(fg.parse_word("a"),
                                      fg.parse_word(tracked)))
    assert walk.outer_backend(mu, cfg) == backend
    clean, failures = one_block(mu, cfg)
    assert not failures
    block = walk._backend(mu, cfg)[0](mu, cfg, 0, cfg.trials)
    block.steps[6, 5] = (block.steps[6, 5] + 1) % len(mu.atoms)
    got, [(trial, exc)] = block_run(block)
    assert trial == 5 and isinstance(exc, AssertionError)
    assert str(exc).startswith("trial 5 step 20: incremental ")
    assert_same_outer_records(got, [r for r in clean if r.trial_index != 5])


@pytest.mark.parametrize("measure", [
    srw_measure, lambda: random_tree_measure(np.random.default_rng(3), 2)],
    ids=["unpadded", "padded"])
def test_a_failed_tree_row_walks_on_alone(measure):
    # fail() keeps a row's first failure and touches nothing else: the row
    # walks on, and every stack, its own included, ends as in a block
    # without the failure
    mu = measure()
    cfg = WalkConfig(horizon=30, trials=4, master_seed=1, checkpoints=(30,))
    block = walk._TreeBlock(mu, cfg, 0, cfg.trials)
    clean = walk._TreeBlock(mu, cfg, 0, cfg.trials)
    block.advance(0, 10)
    clean.advance(0, 10)
    first = AssertionError("stopped")
    block.fail(2, first)
    block.fail(2, AssertionError("stopped again"))
    assert block.failures == {2: first}
    block.advance(10, 30)
    clean.advance(10, 30)
    for r in range(cfg.trials):
        n = clean.top[r] - clean.base[r]
        assert n > 0 and block.top[r] - block.base[r] == n
        assert np.array_equal(block.words[r, :n], clean.words[r, :n])


def test_a_failed_tree_row_keeps_its_first_failure():
    # row 5's first letter, corrupted at step 5, fails its spot check
    # there; the row walks on and by checkpoint 40 holds all of the
    # certified ab and more, an undecidable value, but its trial reports
    # the spot check
    mu = srw_measure()
    cfg = WalkConfig(horizon=40, trials=12, master_seed=4,
                     checkpoints=(5, 20, 40), spot_check_rate=1.0,
                     tracked_classes=(tree.parse_boundary("prefix:ab depth:2"),))
    clean, failures = one_block(mu, cfg)
    assert not failures

    def corrupt(block):
        at = block.base[5] + 1
        block.stack[at] = block.stack[at] % 2 + 1     # another letter, a or b

    block = walk._TreeBlock(mu, cfg, 0, cfg.trials)
    got, [(trial, exc)] = run_with_fault(block, 5, corrupt)
    assert trial == 5 and isinstance(exc, AssertionError)
    assert str(exc) == "trial 5 step 5: position stack diverged from " \
        "from-scratch reduction"
    assert block.cp[0, 5] == 2 < block.kappa[-1, 5]
    want = [r for r in clean if r.trial_index != 5]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_tree_record(g, w)


def test_tracked_kinds_are_checked_before_any_trial_runs():
    words = WalkConfig(horizon=5, trials=3, master_seed=0, checkpoints=(5,),
                       tracked_classes=(fg.parse_word("ab"),))
    with pytest.raises(ValueError, match="tree mode tracks boundary points"):
        run_experiment(srw_measure(), words)
    with pytest.raises(ValueError, match="tree mode tracks boundary points"):
        walk.sample_path(srw_measure(), words, 0)
    points = WalkConfig(horizon=5, trials=3, master_seed=0, checkpoints=(5,),
                        tracked_classes=(tree.parse_boundary("per:a"),))
    with pytest.raises(ValueError, match="outer mode tracks words"):
        run_experiment(nielsen_measure(), points, workers=2)


# -- the Run: blocks hand back columns, and a Run gives each trial

def run_case(case):
    """(mu, cfg) of a walk on each backend, with spot checks."""
    if case == "tree":
        mu = random_tree_measure(np.random.default_rng(4), 2)
        tracked = tuple(tree.parse_boundary(s) for s in TREE_POINTS[2])
        horizon = 60
    else:
        mu = nielsen_measure() if case == "gl2z" else rank3_measure()
        tracked = tuple(fg.parse_word(w) for w in
                        (("a", "ab", "aba") if case == "gl2z"
                         else ("a", "abc", "aB")))
        horizon = 30
    cfg = WalkConfig(horizon=horizon, trials=10, master_seed=6,
                     checkpoints=(10, 20, 30), spot_check_rate=0.3,
                     max_word_letters=10 ** 5, tracked_classes=tracked)
    assert (case == "tree") == (mu.mode == "tree")
    assert case == "tree" or walk.outer_backend(mu, cfg) == case
    return mu, cfg


def assert_plain(value):
    """value holds no per-trial object: an ndarray of numbers (of Python
    ints where it is an object array), bytes or an int."""
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            assert all(type(v) is int for v in value.ravel())
        else:
            assert value.dtype.kind in "biuf"
    else:
        assert type(value) in (bytes, int)


@pytest.mark.parametrize("case", ["tree", "gl2z", "words"])
def test_a_block_hands_back_only_arrays_bytes_and_ints(case):
    mu, cfg = run_case(case)
    cls, classes = walk._backend(mu, cfg)
    assert not hasattr(cls, "record")
    columns, failures = walk._run_trials(cls, mu, cfg, 2, 7, classes)
    assert failures == []
    keys = {"trials", "kappa", "sigma", "peak", "spots"}
    keys |= {"limits", "limit_lens"} if case == "tree" else {"lengths"}
    assert set(columns) == keys
    for value in columns.values():
        assert_plain(value)
    assert columns["trials"].tolist() == [2, 3, 4, 5, 6]
    assert columns["kappa"].shape == columns["spots"].shape == (5, 3)
    assert columns["sigma"].shape == (len(cfg.tracked_classes), 5, 3)


def per_row_records(mu, cfg):
    """Every trial as one block of the outer backend read a row at a time
    by per_row_read, each trial's PathRecord built field by field from the
    block's arrays, its spot checks from the scalar hash."""
    cls, classes = walk._backend(mu, cfg)
    block = cls(mu, cfg, 0, cfg.trials, classes)
    done = 0
    for k, step in enumerate(cfg.checkpoints):
        block.advance(done, step)
        per_row_read(block, k, step)
        done = step
    block.advance(done, cfg.horizon)
    labels = [lab for lab, _ in classes.tracked]
    return [walk.PathRecord(
        trial_index=r, checkpoints=cfg.checkpoints,
        kappa=tuple(block.kappa[:, r].tolist()),
        sigma={lab: tuple(block.sigma[:, r, i].tolist())
               for i, lab in enumerate(labels)},
        lengths={lab: tuple(block.lengths[:, r, i].tolist())
                 for i, lab in enumerate(labels)},
        peak_letters=int(block.peak[r]),
        spot_checked=tuple(c for c in cfg.checkpoints if spot_selected(
            cfg.master_seed, r, c, cfg.spot_check_rate)
            or (r == 0 and c == cfg.checkpoints[-1])))
        for r in range(cfg.trials)]


@pytest.mark.parametrize("case", ["tree", "gl2z", "words"])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_gives_each_trial_as_the_per_row_reference(case, workers,
                                                         monkeypatch):
    # blocks of three rows, so block edges cut the trials, and at two
    # workers the blocks run on the pool
    mu, cfg = run_case(case)
    cls, classes = walk._backend(mu, cfg)
    monkeypatch.setattr(walk, "_BLOCK_BYTES",
                        3 * cls.row_bytes(mu, cfg, classes))
    run = run_experiment(mu, cfg, workers=workers)
    assert isinstance(run, walk.Run)
    if case == "tree":
        want = [per_letter_trial(mu, cfg, t) for t in range(cfg.trials)]

        def same(got, want):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same_tree_record(g, w)
    else:
        want = per_row_records(mu, cfg)
        same = assert_same_outer_records
    assert len(run) == cfg.trials
    same(list(run), want)
    same([run[t] for t in range(len(run))], want)
    same([run[-1]], want[-1:])
    with pytest.raises(IndexError):
        run[len(run)]
    # what the bench's trace replay reads, against the arrays
    assert [r.peak_letters for r in run] == run.peak.tolist()
    assert [r.spot_checked for r in run] == [
        tuple(c for c, s in zip(cfg.checkpoints, row) if s)
        for row in run.spots.tolist()]
    assert sum(len(r.spot_checked) for r in run) == run.spots.sum() > 0


@pytest.mark.parametrize("case", ["tree", "gl2z", "words"])
def test_observable_matrices_equal_those_built_from_the_trials(case):
    # the matrices the estimators read: float64, trials x checkpoints, C
    # order, bit for bit those built from per-trial tuples
    mu, cfg = run_case(case)
    run = run_experiment(mu, cfg)
    names = ["kappa"] + ["sigma:" + lab for lab in stats.class_labels(run)]
    rows = {"kappa": [r.kappa for r in run]}
    rows.update({"sigma:" + lab: [r.sigma[lab] for r in run]
                 for lab in stats.class_labels(run)})
    if case != "tree":
        names += ["loglen:" + lab for lab in stats.class_labels(run)]
        rows.update({"loglen:" + lab: [list(map(math.log, r.lengths[lab]))
                                       for r in run]
                     for lab in stats.class_labels(run)})
        # the logs are taken once per run
        lab = stats.class_labels(run)[0]
        assert run.log_lengths(lab) is run.log_lengths(lab)
    for name in names:
        cps, mat = stats.observable_matrix(run, name)
        want = np.asarray(rows[name], dtype=np.float64)
        assert cps.tolist() == list(cfg.checkpoints)
        assert mat.dtype == np.float64 and mat.flags.c_contiguous
        assert mat.shape == (cfg.trials, len(cfg.checkpoints))
        assert mat.tobytes() == want.tobytes()
