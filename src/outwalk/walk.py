"""Deterministic Monte Carlo driver for left random walks.

Outer mode walks on the automorphism group, composing increments on the
left (Phi_n = s_n . Phi_{n-1}), and reads kappa and sigma from the exact
cyclic lengths of the images of the rose candidates and tracked classes,
with one division and one log per value.  Tree mode walks on the free
group and reads Busemann values toward tracked boundary points off the
walk position in the Cayley tree.

Every walk runs in blocks of trials under one protocol, _Block: advance
all rows to a checkpoint, read them there, spot-check the rows that are
due from scratch, and fail a row alone.  The due pairs are known before
the first step, and a block redraws its due rows once (_Block.redraw):
an outer block replays them in one lock-step _Replay, and a tree block
reduces every due pair's letters before its first step.  Three backends
supply the rows: _TreeBlock (position stacks, each step a few numpy
operations over all rows), _GL2ZBlock (rank 2 with every class
primitive: abelianized vectors moved by int64 products of step matrices)
and _WordBlock (exact reduced image words, a row at a time).  Each sizes
a row by row_bytes, so run_experiment cuts blocks the same way for any
worker count, and a lone trial (sample_path) is a block of one.  The
calling process runs blocks itself, beside any forked workers, and the
blocks are dealt round-robin, with no shared state (_deal).

A block hands back its values as arrays, a row per finished trial, and
run_experiment joins the blocks' arrays into one Run, which the analyses
read as (trials x checkpoints) matrices.  A Run gives one trial as a
PathRecord on indexing and iteration.

Reproducibility contract: increments for trial t are drawn from a Philox
counter-based stream keyed by (master_seed, t), so every trial is an
independent pure function of (measure, config, trial index), whichever
block it runs in.  Runs are therefore identical whatever the worker
count, block size or execution order, and a failing trial fails alone.
A block draws its rows' steps once, at construction, and its due rows'
once more for their spot checks, both through one function,
MeasureSpec.draw_indices, in integers, a chunk of trials at a time.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from . import freegroup as fg
from . import rose
from . import tree as treemod

DEFAULT_WORD_CAP = 2 ** 24
SPOT_CHECK_RATE = 0.01
# bytes of per-trial state (stacks, vectors or words, and steps) per block of
# trials advanced together: about one core's L2 cache, which holds each
# worker's share of tree_srw_f2 as one block at two workers
_BLOCK_BYTES = 1 << 21


class WordCapExceeded(RuntimeError):
    """An image word of the outer word engine outgrew the letter cap, the
    only words a walk holds that can grow faster than its steps."""

    def __init__(self, trial, step, length, cap):
        super().__init__(
            "trial %d step %d: tracked word reached %d letters (cap %d); "
            "lower the horizon or raise max_word_letters" %
            (trial, step, length, cap))
        self.trial = trial
        self.step = step
        self.length = length
        self.cap = cap

    def __reduce__(self):
        # keeps the structured fields across process boundaries
        return (WordCapExceeded, (self.trial, self.step, self.length, self.cap))


class ExperimentError(RuntimeError):
    """One or more trials failed; carries (trial_index, error) pairs."""

    def __init__(self, failures):
        lines = ", ".join("trial %d: %s" % (t, e) for t, e in failures[:5])
        more = "" if len(failures) <= 5 else " (+%d more)" % (len(failures) - 5)
        super().__init__("%d trial(s) failed: %s%s" % (len(failures), lines, more))
        self.failures = failures


class MeasureSpec:
    """A finitely supported step distribution.

    Atoms are Automorphisms (outer mode) or reduced words (tree mode);
    weights are positive and sum to 1 within 1e-12.  Whether the generated
    subgroup is nonelementary is the caller's responsibility.

    A step takes the top 53 bits m of a 64-bit Philox draw and the first
    atom whose cumulative weight exceeds u = m / 2^53, the last cumulative
    weight taken as 1.  u and every cumulative weight times 2^53 are exact
    floats, so cum_i <= u exactly when ceil(cum_i 2^53) <= m: the atom
    index is the count of the integer thresholds ceil(cum_i 2^53), one per
    atom but the last, that are at most m.  A weight too small to move a
    cumulative sum gives two equal thresholds, and a point mass has none.
    """

    __slots__ = ("atoms", "weights", "mode", "_thresholds")

    def __init__(self, atoms, weights):
        atoms = list(atoms)
        weights = [float(w) for w in weights]
        if not atoms or len(atoms) != len(weights):
            raise ValueError("need matching nonempty atoms and weights")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if not abs(math.fsum(weights) - 1.0) <= 1e-12:    # also NaN
            raise ValueError("weights must sum to 1 within 1e-12")
        if isinstance(atoms[0], fg.Automorphism):
            if not all(isinstance(a, fg.Automorphism) for a in atoms):
                raise ValueError("mixed atom kinds")
            ranks = {a.rank for a in atoms}
            if len(ranks) != 1:
                raise ValueError("atoms of mixed rank")
            self.mode = "outer"
            self.atoms = tuple(atoms)
        else:
            words = [fg.reduce(a) for a in atoms]
            self.mode = "tree"
            self.atoms = tuple(words)
        self.weights = tuple(weights)
        cum = np.cumsum(np.asarray(self.weights[:-1], dtype=np.float64))
        self._thresholds = np.ceil(cum * 2.0 ** 53).astype(np.uint64)

    def draw_indices(self, master_seed, trials, n):
        """Atom indices of steps 1..n of each of `trials`, a chunk of trials
        at a time: yields (j, idx), idx[i, s] the atom of step s+1 of trial
        trials[j + i].  Each row is a pure function of (master_seed, trial,
        n): trial t draws from Philox keyed by (master_seed, t), one
        generator per call rekeyed for each trial.  A chunk's draws take at
        most _BLOCK_BYTES / 8 bytes (at least one trial's)."""
        trials = [int(t) for t in trials]
        chunk = max(1, _BLOCK_BYTES // (64 * n))
        buf = np.empty((min(chunk, len(trials)), n), dtype=np.uint64)
        # a fresh Philox's state with the key (master_seed, t) in its two
        # words: setting it restarts the stream at counter 0
        gen = Philox(key=0)
        state = gen.state
        key = state["state"]["key"]
        key[1] = master_seed
        for j in range(0, len(trials), chunk):
            # m[i, s]: the top 53 bits of draw s of trial trials[j + i]
            m = buf[:len(trials[j:j + chunk])]
            for row, t in zip(m, trials[j:j + chunk]):
                key[0] = t
                gen.state = state
                np.right_shift(gen.random_raw(n), np.uint64(11), out=row)
            idx = np.zeros(m.shape, dtype=_step_dtype(self))
            for bound in self._thresholds:
                idx += m >= bound
            yield j, idx


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class WalkConfig:
    horizon: int
    trials: int
    master_seed: int
    checkpoints: tuple
    tracked_classes: tuple = ()
    max_word_letters: int = DEFAULT_WORD_CAP
    spot_check_rate: float = SPOT_CHECK_RATE

    def __post_init__(self):
        for name in ("horizon", "trials"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError("%s must be an int >= 1, got %r"
                                 % (name, value))
        cps = tuple(self.checkpoints)
        if not cps:
            raise ValueError("checkpoints must be nonempty")
        for c in cps:
            if not _is_int(c):
                raise ValueError("checkpoints must be ints, got %r" % (c,))
        if list(cps) != sorted(set(cps)) or cps[0] < 1 or cps[-1] > self.horizon:
            raise ValueError("checkpoints must be strictly increasing in [1, horizon]")
        object.__setattr__(self, "checkpoints", cps)
        seed = self.master_seed
        if not _is_int(seed) or not 0 <= seed < 1 << 64:
            raise ValueError("master_seed must be an int in [0, 2^64), got %r"
                             % (seed,))
        cap = self.max_word_letters
        if not _is_int(cap) or cap < 1:
            raise ValueError("max_word_letters must be an int >= 1, got %r"
                             % (cap,))
        rate = self.spot_check_rate
        if not isinstance(rate, numbers.Real) or isinstance(rate, bool) or \
                not 0 <= rate <= 1:
            raise ValueError("spot_check_rate must be a real in [0, 1], "
                             "got %r" % (rate,))
        object.__setattr__(self, "tracked_classes", tuple(self.tracked_classes))


@dataclass(frozen=True)
class PathRecord:
    """One trial's values at its checkpoints, as a Run gives them.

    peak_letters is the most letters the trial held: the longest position
    stack in tree mode, the longest reduced image word on the outer word
    engine.  The GL(2,Z) backend holds no words: there it is the longest
    cyclic length |p|+|q| at the start, a checkpoint or the horizon, not at
    every step.
    """

    trial_index: int
    checkpoints: tuple
    kappa: tuple                 # displacement at each checkpoint
    sigma: dict                  # label -> per-checkpoint cocycle values
    lengths: dict                # outer mode: label -> cyclic word lengths
    peak_letters: int
    spot_checked: tuple          # checkpoints verified from scratch
    bnd: object = None           # tree mode: truncated limit point


def tracked_labels(config):
    """The record label of each tracked class or point, in order."""
    return [treemod.format_boundary(x) if isinstance(x, treemod.BoundaryPoint)
            else fg.format_word(fg.as_word(x)) for x in config.tracked_classes]


class Run:
    """A walk's finished trials in trial order, as columns: row t of every
    array is the t-th of them.

    trials[t] is its trial index; kappa[t, k] and sigma[label][t, k] its
    values at checkpoint k, C-ordered (trials x checkpoints) arrays, float64
    in outer mode and int64 in tree mode; lengths[label][t, k] the cyclic
    length of a tracked class as a Python int (outer mode, else no labels);
    peak[t] the most letters it held; spots[t, k] whether checkpoint k was
    spot-checked.  In tree mode limits holds every trial's certified limit
    prefix, limit_lens[t] letters, end to end as int8 bytes.  Indexing and
    iteration give each trial as a PathRecord.  The matrices the estimators
    read (kappa, sigma and the log lengths) are read-only, as every caller
    gets the same arrays.
    """

    def __init__(self, checkpoints, labels, trials, kappa, sigma, peak, spots,
                 lengths=None, limits=b"", limit_lens=None):
        self.checkpoints = tuple(checkpoints)
        self.trials = np.asarray(trials, dtype=np.int64)
        self.kappa = _frozen(kappa)
        self.sigma = dict(zip(labels, map(_frozen, sigma)))
        self.lengths = {} if lengths is None else dict(zip(labels, lengths))
        self.peak = np.asarray(peak)
        self.spots = np.asarray(spots, dtype=bool)
        self.limits = limits
        self.limit_lens = None if limit_lens is None else \
            np.asarray(limit_lens, dtype=np.int64)
        self._ends = None if limit_lens is None else np.cumsum(self.limit_lens)
        self._logs = {}

    def log_lengths(self, label):
        """math.log of each cyclic length of class label, as a float64
        (trials x checkpoints) array, taken once per Run."""
        if label not in self._logs:
            self._logs[label] = _frozen(_log(self.lengths[label]).astype(
                np.float64))
        return self._logs[label]

    def limit(self, t):
        """Trial t's certified limit prefix as a truncated BoundaryPoint;
        None without a certified letter, and in outer mode."""
        if self.limit_lens is None or not self.limit_lens[t]:
            return None
        end = int(self._ends[t])
        # a stack prefix is reduced: the trusted constructor takes it
        return treemod.BoundaryPoint(
            self.limits[end - int(self.limit_lens[t]):end])

    def __len__(self):
        return len(self.trials)

    def __getitem__(self, t):
        t = range(len(self))[t]
        return PathRecord(
            trial_index=int(self.trials[t]), checkpoints=self.checkpoints,
            kappa=tuple(self.kappa[t].tolist()),
            sigma={lab: tuple(m[t].tolist()) for lab, m in self.sigma.items()},
            lengths={lab: tuple(m[t].tolist())
                     for lab, m in self.lengths.items()},
            peak_letters=int(self.peak[t]),
            spot_checked=tuple(c for c, s in zip(self.checkpoints,
                                                 self.spots[t].tolist()) if s),
            bnd=self.limit(t))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _frozen(a):
    """a as a read-only C-ordered array."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _spot_mask(master_seed, lo, rows, ckpt, rate):
    """Which of trials lo .. lo+rows-1 are due a spot check at checkpoint
    ckpt: a deterministic, worker-independent hash selects about `rate` of
    all pairs.  Its result depends on the low 48 bits of the hash only, so
    uint64 arithmetic, which wraps mod 2^64, is exact."""
    u64 = np.uint64
    trial = np.arange(rows, dtype=u64) + u64(lo % (1 << 64))
    h = (trial * u64(1000003) + u64(ckpt)) * u64(2654435761) + \
        u64(master_seed & 0xFFFFFFFF)
    h ^= h >> u64(16)
    return (h * u64(0x9E3779B1)) & u64(0xFFFFFFFF) < int(rate * (1 << 32))


class _Block:
    """Trials lo .. hi-1 advanced together; row r is trial lo + r.

    A backend supplies advance(start, stop), applying steps start+1 .. stop
    to every row; read(k, step), checkpoint k's values; spot_check(k, step,
    rows), mapping each of `rows` that disagrees with its steps redone from
    scratch to an AssertionError; values(live), the live rows' arrays as Run
    takes them; plan(due), called before the first advance when any pair is
    due, due[k, r] true where row r is checked at checkpoint k unless it has
    failed by then, to prepare the checks from redraw(due); and the
    classmethod row_bytes(mu, config, classes).  A failed row walks on with
    its block, and nothing reads it again.  classes is the run's _Classes in
    outer mode, built once per run, and None in tree mode.
    """

    def __init__(self, mu, config, lo, hi, classes=None):
        self.mu = mu
        self.config = config
        self.lo = lo
        self.rows = hi - lo
        self.classes = classes
        # spots[k, r]: row r was spot-checked at checkpoint k
        self.spots = np.zeros((len(config.checkpoints), self.rows), dtype=bool)
        self.failures = {}

    def fail(self, r, exc):
        """Trial lo + r fails with exc, unless it has failed already: a row
        keeps its first failure."""
        self.failures.setdefault(r, exc)

    def redraw(self, due):
        """(held, last, idx): the rows with a due pair, the index of each
        one's last due checkpoint, and idx[h, s], held row h's atom at step
        s+1, drawn anew in one pass through the block's last due checkpoint:
        a Philox stream's first draws do not depend on how many follow."""
        cps = self.config.checkpoints
        held = np.flatnonzero(due.any(axis=0))
        last = len(cps) - 1 - due[::-1, held].argmax(axis=0)
        return held, last, np.concatenate([idx for _, idx in (
            self.mu.draw_indices(self.config.master_seed, self.lo + held,
                                 cps[last.max()]))])

    def run(self):
        """Walk every step; then columns()."""
        config = self.config
        # the selected pairs, and trial 0 at the last checkpoint
        due = np.array([_spot_mask(config.master_seed, self.lo, self.rows,
                                   step, config.spot_check_rate)
                        for step in config.checkpoints])
        due[-1, 0] |= self.lo == 0
        if due.any():
            self.plan(due)
        done = 0
        for k, step in enumerate(config.checkpoints):
            self.advance(done, step)
            self.read(k, step)
            rows = [r for r in np.flatnonzero(due[k]).tolist()
                    if r not in self.failures]
            if rows:
                bad = self.spot_check(k, step, rows)
                for r in rows:
                    if r in bad:
                        self.fail(r, bad[r])
                    else:
                        self.spots[k, r] = True
            done = step
        self.advance(done, config.horizon)
        return self.columns()

    def columns(self):
        """(columns, [(trial, exc)]), both in trial order: the arrays of the
        rows that did not fail, the keyword arguments of Run but its
        checkpoints and labels, and the failures of the others."""
        live = np.ones(self.rows, dtype=bool)
        live[list(self.failures)] = False
        trials = np.arange(self.lo, self.lo + self.rows, dtype=np.int64)
        columns = dict(trials=trials[live], spots=self.spots.T[live],
                       **self.values(live))
        failures = [(self.lo + r, self.failures[r])
                    for r in sorted(self.failures)]
        return columns, failures


# ---------------------------------------------------------------------------
# outer mode

class _Classes:
    """The classes an outer walk follows, held once each as cyclically
    reduced start words: the rose candidates and the tracked classes.
    Their start lengths are kept as Python ints for _OuterBlock.read: each
    candidate's multiplier onto one common denominator, den, and each
    tracked class's start length."""

    def __init__(self, mu, config):
        self.storage = []       # start words, cyclically reduced
        keys = {}

        def slot_for(word, label):
            core, _ = fg.cyclic_reduce(fg.reduce(word))
            if len(core) == 0:
                raise ValueError("tracked class %r is trivial" % label)
            k = fg.word_key(fg.canonical_rotation(core))
            if k not in keys:
                keys[k] = len(self.storage)
                self.storage.append(core)
            return keys[k]

        cands = [slot_for(w, "cand:" + fg.format_word(w))
                 for w in rose.base_candidates(mu.atoms[0].rank)]
        # one (label, slot) per tracked class, a repeat too, as Run pairs
        # the sigma columns with tracked_labels(config)
        self.tracked = [(label, slot_for(fg.as_word(g), label)) for g, label
                        in zip(config.tracked_classes, tracked_labels(config))]
        self.slots = [slot for _, slot in self.tracked]
        self.start_lens = [len(w) for w in self.storage]
        self.den = math.lcm(*(self.start_lens[i] for i in cands))
        self.cands = cands
        self.mults = np.array([self.den // self.start_lens[i] for i in cands],
                              dtype=object)
        self.starts = np.array([self.start_lens[i] for i in self.slots],
                               dtype=object)
        # a primitive class of F2 is fixed by its abelianization
        self.gl2z = mu.atoms[0].rank == 2 and \
            all(fg.is_primitive_f2(w) for w in self.storage)


# math.log of each entry of an object array: a float from libm, as the
# scalar path, where np.log need not round the same way
_log = np.frompyfunc(math.log, 1, 1)


def _log_quotient(a, b):
    try:
        return math.log(a / b)
    except OverflowError:       # math.log takes an int of any size
        return math.log(a) - math.log(b)


def _log_ratio(a, b):
    """_log of a / b, two object arrays of positive ints: each quotient one
    correctly rounded int division.  Where a quotient is past the float
    range, and only there, its log is the difference of the two logs."""
    try:
        return _log(a / b)
    except OverflowError:
        return np.frompyfunc(_log_quotient, 2, 1)(a, b)


def _step_dtype(mu):
    return np.min_scalar_type(len(mu.atoms) - 1)


class _OuterBlock(_Block):
    """Outer trials: the rows' values are read from the cyclic lengths of
    their classes' images (read), and their spot checks from one lock-step
    _Replay of the block's due rows (plan)."""

    def __init__(self, mu, config, lo, hi, classes=None):
        super().__init__(mu, config, lo, hi,
                         _Classes(mu, config) if classes is None else classes)
        # steps[s, r]: row r's atom at step s+1, one contiguous row per step
        self.steps = np.empty((config.horizon, self.rows),
                              dtype=_step_dtype(mu))
        for j, idx in mu.draw_indices(config.master_seed, range(lo, hi),
                                      config.horizon):
            self.steps[:, j:j + len(idx)] = idx.T
        # kappa[k, r], sigma[k, r, i], lengths[k, r, i]: checkpoint k's
        # values of row r and tracked class i
        shape = (len(config.checkpoints), self.rows, len(self.classes.tracked))
        self.kappa = np.zeros(shape[:2])
        self.sigma = np.zeros(shape)
        self.lengths = np.zeros(shape, dtype=object)

    def read(self, k, step):
        """Checkpoint k's kappa, sigma and lengths of every live row, in one
        pass over the block's cyclic lengths (a backend's cyclic_lengths(
        rows), Python ints).  kappa is the top candidate ratio of cyclic
        length to start length and sigma each tracked class's ratio.  Both
        are compared in integers, over the candidates' common denominator,
        and each becomes a float by one division of ints, which is correctly
        rounded: the logs equal those of the exact ratios (_log_ratio; past
        the float range, a difference of two logs)."""
        c = self.classes
        rows = [r for r in range(self.rows) if r not in self.failures]
        lens = self.cyclic_lengths(rows)
        top = (lens[:, c.cands] * c.mults).max(axis=1)
        tracked = lens[:, c.slots]
        # White's formula: the candidate max dominates every class
        over = tracked * c.den > top[:, None] * c.starts
        for j in np.flatnonzero(over.any(axis=1)).tolist():
            self.fail(rows[j], AssertionError(
                "trial %d step %d: sigma(%s) exceeded kappa"
                % (self.lo + rows[j], step, c.tracked[over[j].argmax()][0])))
        self.lengths[k, rows] = tracked
        self.kappa[k, rows] = _log_ratio(top, c.den)
        self.sigma[k, rows] = _log_ratio(tracked, c.starts)

    def values(self, live):
        return dict(kappa=self.kappa.T[live],
                    sigma=self.sigma.transpose(2, 1, 0)[:, live],
                    lengths=self.lengths.transpose(2, 1, 0)[:, live],
                    peak=np.asarray(self.peak)[live])


class _WordBlock(_OuterBlock):
    """Outer trials on the exact reduced image word of each class.  A row
    counts every start word at the cap's letters: at the default cap a block
    holds one trial's words."""

    @classmethod
    def row_bytes(cls, mu, config, classes=None):
        classes = _Classes(mu, config) if classes is None else classes
        return config.horizon * _step_dtype(mu).itemsize + \
            len(classes.storage) * config.max_word_letters

    def __init__(self, mu, config, lo, hi, classes=None):
        super().__init__(mu, config, lo, hi, classes)
        self.words = [list(self.classes.storage) for _ in range(self.rows)]
        self.peak = [max(self.classes.start_lens)] * self.rows

    def fail(self, r, exc):
        """Trial lo + r fails with exc; its words are dropped, so that words
        past the cap stop growing."""
        super().fail(r, exc)
        self.words[r] = []

    def advance(self, start, stop):
        """Apply the atoms of steps start+1 .. stop to each row in turn; a
        row fails at the first image word past the cap."""
        cap = self.config.max_word_letters
        for r, words in enumerate(self.words):
            try:
                for step, i in enumerate(self.steps[start:stop, r].tolist(),
                                         start + 1):
                    for j, w in enumerate(words):
                        words[j] = w = self.mu.atoms[i].apply(w)
                        if len(w) > cap:
                            raise WordCapExceeded(self.lo + r, step, len(w),
                                                  cap)
                        self.peak[r] = max(self.peak[r], len(w))
            except WordCapExceeded as exc:
                self.fail(r, exc)

    def cyclic_lengths(self, rows):
        return np.array([[fg.cyclic_length(w) for w in self.words[r]]
                         for r in rows], dtype=object).reshape(
            len(rows), len(self.classes.storage))

    def plan(self, due):
        self.replay = _Replay(self, self.redraw(due))

    def spot_check(self, k, step, rows):
        """Each row against its start words replayed from scratch."""
        self.replay.advance(k, self.failures)
        bad = {}
        for r in rows:
            for w0, w1, w in zip(self.classes.storage, self.replay.words(r),
                                 self.words[r]):
                if not np.array_equal(w1, w):
                    bad[r] = AssertionError(
                        "trial %d step %d: incremental image of %r diverged "
                        "from its from-scratch replay"
                        % (self.lo + r, step, fg.format_word(w0)))
                    break
        return bad


def _abelian_matrix(phi):
    # (a, b, c, d) with [[a, b], [c, d]] acting on column vectors (p, q)
    (a, c), (b, d) = (fg.exponent_sums(w, 2) for w in phi.forward)
    return a, b, c, d


def _column_sum(mats):
    """The largest absolute column sum r of any step matrix: the l1 operator
    norm, which is submultiplicative, so a product of k step matrices has
    norm at most r^k and moves a vector v to one of l1 norm at most
    r^k |v|_1.  An atom's column sum is at most the letters of its images,
    so r < 2^63."""
    return max(max(abs(a) + abs(c), abs(b) + abs(d)) for a, b, c, d in mats)


def _segment_steps(mats, horizon):
    """Most steps whose product of step matrices int64 holds exactly: every
    partial sum in a product of k step matrices is at most r^k
    (_column_sum), and a segment has at least one step."""
    r = _column_sum(mats)
    if r == 1:      # signed permutations: products never grow
        return horizon
    steps = 1
    while steps < horizon and r ** (steps + 1) < 2 ** 63:
        steps += 1
    return steps


class _GL2ZBlock(_OuterBlock):
    """Rank-2 outer trials advanced a segment at a time.

    Used when every class is primitive.  A primitive class of F2 is fixed by
    its abelianization (p, q) (Osborne-Zieschang), and its cyclic word uses
    each letter with one sign only (Cohen-Metzler-Zimmermann), so its
    cyclic length is |p| + |q|.  Automorphisms keep classes primitive, so a
    step multiplies each vector by the step's 2x2 integer matrix.

    Row r's vectors are row r of two arrays, p and q, one column per class:
    int64 when r^horizon (_column_sum) times the longest start class is
    below 2^63, which bounds every |p|+|q| of the walk and every partial
    sum of its products, and Python ints in object arrays otherwise.
    Between checkpoints the rows' step matrices are multiplied in int64, in
    segments of at most `seg` steps (_segment_steps), and each segment's
    product moves the vectors once.  The read takes the cyclic lengths as
    Python ints either way.  No words are held, so the letter cap does not
    apply: a row's peak is its largest |p|+|q| at the start, a checkpoint or
    the horizon.  A due row's vectors are checked against the lock-step
    _Replay's, moved from the start vectors by the row's redrawn step
    matrices and bounded the same way for the replay's own matrices.
    """

    # the spot check compares cyclic lengths while its words stay this short
    REPLAY_LETTERS = 1 << 10

    @classmethod
    def row_bytes(cls, mu, config, classes=None):
        """Steps, and the vectors, a vector entry counted as a pointer to an
        int as large as r^horizon (_column_sum) times the longest start
        class, a bound on every |p|+|q| of the walk."""
        classes = _Classes(mu, config) if classes is None else classes
        r = _column_sum([_abelian_matrix(phi) for phi in mu.atoms])
        entry = 8 + sys.getsizeof(r ** config.horizon *
                                  max(classes.start_lens))
        return config.horizon * _step_dtype(mu).itemsize + \
            2 * len(classes.storage) * entry

    def __init__(self, mu, config, lo, hi, classes=None):
        super().__init__(mu, config, lo, hi, classes)
        self.atom_mats = [_abelian_matrix(phi) for phi in mu.atoms]
        self.mats = np.array(self.atom_mats, dtype=np.int64).reshape(-1, 2, 2)
        self.seg = _segment_steps(self.atom_mats, config.horizon)
        self.start_vecs = [fg.exponent_sums(w, 2)
                           for w in self.classes.storage]
        longest = max(self.classes.start_lens)
        bound = _column_sum(self.atom_mats) ** config.horizon * longest
        dtype = np.int64 if bound < 2 ** 63 else object
        p, q = zip(*self.start_vecs)
        self.p = np.array([p] * self.rows, dtype=dtype)
        self.q = np.array([q] * self.rows, dtype=dtype)
        self.peak = np.full(self.rows, longest, dtype=dtype)

    def advance(self, start, stop):
        """Steps start+1 .. stop a segment at a time, then each row's
        cyclic lengths and peak."""
        for s in range(start, stop, self.seg):
            self.segment(s, min(s + self.seg, stop))
        self.lens = abs(self.p) + abs(self.q)
        np.maximum(self.peak, self.lens.max(axis=1), out=self.peak)

    def segment(self, start, stop):
        """Steps start+1 .. stop as one product per row."""
        mat = self.mats[self.steps[start]]
        for s in range(start + 1, stop):
            mat = self.mats[self.steps[s]] @ mat
        a, b, c, d = mat.reshape(-1, 4).T.astype(self.p.dtype)[:, :, None]
        self.p, self.q = a * self.p + b * self.q, c * self.p + d * self.q

    def cyclic_lengths(self, rows):
        return self.lens[rows].astype(object)

    def plan(self, due):
        self.replay = _Replay(self, self.redraw(due), self.REPLAY_LETTERS,
                              self.atom_mats, self.start_vecs)

    def spot_check(self, k, step, rows):
        """Each row's vectors against the replay's, in one comparison, after
        the replay's first mismatch of |p|+|q| with its words' cyclic
        lengths, if any; a row names its first class that differs."""
        replay = self.replay
        replay.advance(k, self.failures)
        storage = self.classes.storage
        bad = {}
        for r in rows:
            # off[i]: row r's vector of class i differs from the replay's
            off = (replay.vecs[replay.held.searchsorted(r)] !=
                   (self.p[r], self.q[r])).any(axis=0)
            if r in replay.mismatch:        # at a step up to this one
                at, i = replay.mismatch[r]
                bad[r] = AssertionError(
                    "trial %d step %d: |p|+|q| of the image of %r differs "
                    "from its cyclic word length"
                    % (self.lo + r, at, fg.format_word(storage[i])))
            elif off.any():
                bad[r] = AssertionError(
                    "trial %d step %d: incremental vector of %r diverged "
                    "from the product of the step matrices"
                    % (self.lo + r, step,
                       fg.format_word(storage[off.argmax()])))
        return bad


class _Replay:
    """The due rows of an outer block redone from scratch, in lock-step.

    A row due a spot check is held until its last due checkpoint or its
    failure.  The replay takes the held rows' steps from the block's one
    redraw (_Block.redraw), through the block's last due checkpoint, and
    keeps only their moving steps: an atom whose images are the basis fixes
    every word and matrix.  The held rows' start words sit in one separated
    array (fg.join), a row's classes in storage order, and advancing to a
    checkpoint applies the m-th moving step of every held row at once, one
    fg.apply_segments call per m, a row without an m-th taking the
    identity.  Words never cancel across rows, so a row fails alone.

    With a letter limit (GL(2,Z) blocks), each held row also moves the start
    vectors by its step matrices (mats): vecs[h, :, i] is held row h's image
    of start vector i, int64 when r^(the block's last due checkpoint)
    (_column_sum) times the longest start |p|+|q| is below 2^63, which
    bounds every |p|+|q| and partial sum of the replay, as in _GL2ZBlock,
    and Python ints otherwise.  While it carries its words, a row steps its
    vectors a step at a time and compares their |p|+|q| with its words'
    cyclic lengths, at step 0 and after each moving step; those steps run in
    int64 when r times the larger of the limit and the longest start is
    below 2^63, since a carried row's |p|+|q| matched its words.  It keeps its
    first mismatch, (step, class), and stops carrying its words after a
    mismatch or once one passes the limit; one mask a step decides both.
    The moving steps of a row that no longer carries words, up to each due
    checkpoint, are one pairwise product (multiply).
    """

    def __init__(self, block, redrawn, limit=None, mats=None, vecs=None):
        mu, config = block.mu, block.config
        self.width = len(block.classes.storage)     # words a row
        self.limit = limit
        identity = fg.Automorphism.identity(mu.atoms[0].rank)
        self.table = fg.segment_table(mu.atoms + (identity,))
        moves = np.array([any(w.tolist() != [x] for x, w in
                              enumerate(phi.forward, 1)) for phi in mu.atoms])
        cps = np.array(config.checkpoints)
        # the held rows, their last due checkpoints and steps (_Block.redraw):
        # a row is dropped at its own last, before its later steps apply
        self.held, self.last, drawn = redrawn
        rows = len(self.held)
        at = [np.flatnonzero(moves[idx]) for idx in drawn]
        n = max(map(len, at), default=0)
        # atoms[m, h], steps[m, h]: held row h's m-th moving atom and its
        # step; past its last, the identity (appended to the atoms)
        self.atoms = np.full((n + 1, rows), len(mu.atoms), dtype=np.intp)
        self.steps = np.zeros((n + 1, rows), dtype=np.intp)
        # counts[k, h]: held row h's moving steps up to checkpoint k
        self.counts = np.zeros((len(cps), rows), dtype=np.intp)
        for h, (idx, s) in enumerate(zip(drawn, at)):
            self.atoms[:len(s), h] = idx[s]
            self.steps[:len(s), h] = s + 1
            self.counts[:, h] = np.searchsorted(s + 1, cps, side="right")
        self.done = np.zeros(rows, dtype=np.intp)  # moving steps applied
        self.flat = fg.join(block.classes.storage * rows)
        self.lens = fg.segment_lengths(self.flat)
        self.carried = np.ones(rows, dtype=bool)   # the rows in flat
        self.mismatch = {}                          # row -> (step, class)
        if limit is not None:
            r = _column_sum(mats)
            longest = max(abs(p) + abs(q) for p, q in vecs)
            dtype = np.int64 if r ** drawn.shape[1] * longest < 2 ** 63 \
                else object
            # before a step a carried row's |p|+|q| matched words of at most
            # limit letters, or is a start's: its steps stay in int64 while
            # r x max(limit, longest) does
            self.carry = np.int64 if r * max(limit, longest) < 2 ** 63 \
                else dtype
            # 2x2 matrices, the identity last
            self.mats = np.array(list(mats) + [(1, 0, 0, 1)],
                                 dtype=dtype).reshape(-1, 2, 2)
            self.vecs = np.repeat(np.array(vecs, dtype=dtype).T[None], rows,
                                  axis=0)
            self.compare(self.vecs, np.ones(rows, dtype=bool),
                         np.zeros(rows, dtype=int), math.inf)

    def advance(self, k, failures):
        """Every held row through its moving steps up to checkpoint k; the
        rows failed or with no due checkpoint from k on are dropped first.
        The rows that carry words take their steps together, a step at a
        time; then the others' vectors are moved on (multiply)."""
        self.drop((self.last >= k) & np.array(
            [r not in failures for r in self.held.tolist()], dtype=bool))
        counts = self.counts[k]
        held = self.carried.nonzero()[0]
        done = self.done[held]
        todo = counts[held] - done
        n = int(todo.max(initial=0))
        # live[j, c]: carried row c takes a moving step at the advance's
        # j-th, atoms[j, c] at steps[j, c]; else the identity
        t = np.arange(n)[:, None]
        live = t < todo
        m = np.where(live, done + t, -1)
        atoms, steps = self.atoms[m, held], self.steps[m, held]
        if self.limit is not None:
            mats = self.mats.astype(self.carry)
            vecs = self.vecs[held].astype(self.carry)
        for j in range(n):
            self.flat = fg.apply_segments(self.table, self.flat, self.lens,
                                          atoms[j].repeat(self.width))
            self.lens = fg.segment_lengths(self.flat)
            if self.limit is None:
                continue
            vecs = mats[atoms[j]] @ vecs
            stop = self.compare(vecs, live[j], steps[j], self.limit)
            if stop is not None:
                # the stopped rows go on from the moving steps they took
                self.done[held[stop]] = done[stop] + np.minimum(todo[stop],
                                                                j + 1)
                self.vecs[held[stop]] = vecs[stop]
                on = ~stop
                held, done, todo, vecs = held[on], done[on], todo[on], \
                    vecs[on]
                atoms, steps, live = atoms[:, on], steps[:, on], live[:, on]
                if not live[j + 1:].any():
                    break
        self.done[held] = counts[held]
        if self.limit is not None:
            self.vecs[held] = vecs
            self.multiply(counts)
        self.done = counts

    def multiply(self, counts):
        """Each held row's vectors moved through its moving steps up to
        counts: the steps it has yet to take stacked step-major, padded with
        the identity, and multiplied in pairs, a later step on the left,
        about log2(steps) matmuls in all, then applied to the vectors; the
        first level multiplies each distinct pair of consecutive steps
        once."""
        todo = counts - self.done
        rows = np.flatnonzero(todo)
        if not len(rows):
            return
        n = len(self.mats)
        s = np.arange(-(-int(todo.max()) // 2) * 2)[:, None]    # even
        m = np.minimum(self.done[rows] + s, len(self.atoms) - 1)
        idx = np.where(s < todo[rows], self.atoms[m, rows], n - 1)
        pairs, which = np.unique(idx[1::2] * n + idx[::2],
                                 return_inverse=True)
        stack = (self.mats[pairs // n] @ self.mats[pairs % n])[
            which.reshape(len(s) // 2, -1)]
        pad = self.mats[np.full((1, len(rows)), n - 1)]
        while len(stack) > 1:
            if len(stack) % 2:
                stack = np.concatenate((stack, pad))
            stack = stack[1::2] @ stack[::2]
        self.vecs[rows] = stack[0] @ self.vecs[rows]

    def compare(self, vecs, live, steps, limit):
        """The |p|+|q| of each carried row's vectors vecs against its words'
        cyclic lengths, in one mask: a row with a word past `limit` letters
        stops carrying its words uncompared; a live row that differs keeps
        its first mismatch, (its step steps[c], class), and stops carrying
        them too.  The mask of the rows that stopped, or None."""
        off = np.abs(vecs).sum(axis=1) != \
            fg.cyclic_lengths(self.flat, self.lens).reshape(-1, self.width)
        off &= live[:, None]
        over = self.lens.reshape(-1, self.width) > limit
        if not (off | over).any():
            return None
        over = over.any(axis=1)
        bad = off.any(axis=1) & ~over
        held = self.held[self.carried.nonzero()[0][bad]].tolist()
        for r, step, i in zip(held, steps[bad].tolist(),
                              off[bad].argmax(axis=1).tolist()):
            self.mismatch[r] = (step, i)
        stop = over | bad
        self.drop_words(stop)
        return stop

    def drop_words(self, off):
        """Stop carrying the words of the carried rows where off holds."""
        if not off.any():
            return
        seg = (~off).repeat(self.width)
        self.flat = self.flat[seg.repeat(self.lens + 1)]
        self.lens = self.lens[seg]
        self.carried[self.carried.nonzero()[0][off]] = False

    def drop(self, keep):
        """Stop holding the rows where keep fails."""
        if keep.all():
            return
        self.drop_words(~keep[self.carried])
        self.held, self.last = self.held[keep], self.last[keep]
        self.done, self.carried = self.done[keep], self.carried[keep]
        self.atoms, self.steps, self.counts = \
            self.atoms[:, keep], self.steps[:, keep], self.counts[:, keep]
        if self.limit is not None:
            self.vecs = self.vecs[keep]

    def words(self, r):
        """Row r's replayed words, while they are carried."""
        h = np.count_nonzero(self.carried[:np.searchsorted(self.held, r)])
        return fg.split(self.flat)[h * self.width:(h + 1) * self.width]


# ---------------------------------------------------------------------------
# tree mode

def _inverse_atom_table(mu):
    """Inverse atoms as the rows of one int8 table, padded with the no-op
    letter 0."""
    inv = [fg.inverse(a) for a in mu.atoms]
    table = np.zeros((len(inv), max(1, max(len(w) for w in inv))),
                     dtype=fg.LETTER_DTYPE)
    for row, w in zip(table, inv):
        row[:len(w)] = w
    return table


# what advance subtracts from the top bytes for the no-op letter 0: a stack
# byte (a letter or fg.SEPARATOR) less _IDLE is never a stack byte less a
# letter, mod 256, so _MOVES tells the two apart
_IDLE = 64


def _move_table():
    """How far a stack top moves on a letter, by the uint8 difference of the
    top byte and the letter's inverse: 0 pops (-1), a difference with _IDLE
    stays (0), any other pushes (+1)."""
    tops = [v for v in range(-fg.MAX_RANK, fg.MAX_RANK + 1) if v]
    moves = np.ones(256, dtype=np.intp)
    moves[[(b - _IDLE) % 256 for b in tops + [fg.SEPARATOR]]] = 0
    moves[0] = -1
    return moves


_MOVES = _move_table()
# columns read compares before the rows that agree through all of them
_HEAD = 64
# letters one fg.reduce call of plan takes at most: a call allocates about
# ten bytes a letter, and one call of a whole tree_srw_f2 block's 133k
# letters raised each worker's peak RSS by about 1 MB
_PLAN_LETTERS = 1 << 15


class _TreeBlock(_Block):
    """Tree-mode trials advanced one step at a time.

    Row r's walk position g_n^{-1} is a letter stack in row r of one flat
    int8 array above a floor column of fg.SEPARATOR, never a letter's
    inverse; top[r] is the index of its top letter (its floor when empty),
    and its length is top[r] - base[r], taken only where a length is read:
    at checkpoints and the end.  A step pushes at most one atom, so a
    stack never outgrows the horizon x atom letters of its row's steps, and
    the letter cap, which bounds the outer word engine's words, is not read
    here.  Each letter of a step is five numpy calls over all rows (take,
    subtract, take, scatter, add), padded atoms included, and nothing about
    the tracked points.  A failed row walks on with the others.  At the
    default budget a worker's share of tree_srw_f2 is one block, so a step
    pays its calls once per worker.

    The stacks are read at checkpoints only, by one kernel, fg.row_prefix:
    cp[i] is each row's common prefix with tracked point i's letters.  A
    row that holds all of a truncated point's certified letters and more
    has an undecidable value there and fails.  The certified limit prefix
    is the common prefix of the checkpoint words from checkpoint `first`
    on, the trailing tenth (at least two): the stacks copied there are the
    anchor, and `limit`, each row's common prefix with it so far, is cut
    again at every later checkpoint.

    The steps are drawn once, at construction, a chunk of trials at a time
    (MeasureSpec.draw_indices), into letters.  plan takes the rows due a
    spot check from the block's one redraw (_Block.redraw) and never reads
    letters or the stacks, so the checks stay independent of the copy they
    check.
    """

    @classmethod
    def row_bytes(cls, mu, config, classes=None):
        """Stack and steps, horizon x atom letters each."""
        return 2 * config.horizon * _inverse_atom_table(mu).shape[1]

    def __init__(self, mu, config, lo, hi, classes=None):
        super().__init__(mu, config, lo, hi)
        self.table = table = _inverse_atom_table(mu)
        self.padded = not table.all()
        rows = self.rows
        width = config.horizon * table.shape[1]
        self.stride = width + 2         # floor, letters, one write past the top
        self.stack = np.empty(rows * self.stride, dtype=fg.LETTER_DTYPE)
        self.words = self.stack.reshape(rows, self.stride)[:, 1:]
        self.base = np.arange(rows, dtype=np.intp) * self.stride
        self.stack[self.base] = fg.SEPARATOR
        self.top = self.base.copy()
        self.peak = self.base.copy()
        count = len(config.checkpoints)
        self.first = max(0, count - max(2, (count + 9) // 10))
        # letters[s, k, r]: letter k of the inverse atom of row r's step s+1
        self.letters = np.empty((config.horizon, table.shape[1], rows),
                                dtype=fg.LETTER_DTYPE)
        for j, idx in mu.draw_indices(config.master_seed, range(lo, hi),
                                      config.horizon):
            idx = idx.T.copy()      # step-major, as letters
            for k, column in enumerate(table.T):
                self.letters[:, k, j:j + idx.shape[1]] = column.take(idx)

        self.tracked = config.tracked_classes
        self.labels = tracked_labels(config)
        # past a truncated point's certified letters, a letter no stack holds
        self.streams = np.full((len(self.tracked), width + 1), fg.SEPARATOR,
                               dtype=fg.LETTER_DTYPE)
        for row, xi in zip(self.streams, self.tracked):
            k = width + 1 if xi.depth is None else min(width + 1, xi.depth)
            row[:k] = xi.letters(k)
        self.truncated = [(i, xi.depth) for i, xi in enumerate(self.tracked)
                          if xi.depth is not None]

        # kappa[k, r], sigma[k, i, r]: checkpoint k's values of row r toward
        # tracked point i
        self.kappa = np.zeros((count, rows), dtype=np.intp)
        self.sigma = np.zeros((count, len(self.tracked), rows), dtype=np.intp)

    def advance(self, start, stop):
        """Steps start+1 .. stop.  Each letter v pops the rows whose top is
        its inverse w and pushes it on the others: v is written above every
        top, which moves by _MOVES at the byte difference of top and w."""
        stack, top, peak = self.stack, self.top, self.peak
        above, bytes_ = stack[1:], stack.view(np.uint8)
        letters = self.letters[start:stop]
        inverse = (-letters).view(np.uint8)
        if self.padded:         # the no-op letter 0 pads short atoms
            inverse[letters == 0] = _IDLE
        for vs, ws in zip(letters, inverse):
            for v, w in zip(vs, ws):
                above[top] = v
                top += _MOVES.take(bytes_.take(top) - w)
            np.maximum(peak, top, out=peak)

    def read(self, k, step):
        """Checkpoint k's values and limit prefix."""
        n, words = self.top - self.base, self.words
        # letters above a row's length never count, so the rows are
        # compared whole, to one column past the longest word: on the first
        # _HEAD columns, then in full for the rows that agree with a point
        # through all of them
        cols = int(n.max()) + 1
        head = min(cols, _HEAD)
        cp = fg.row_prefix(words[:, :head], self.streams[:, None, :head], n)
        deep = np.flatnonzero((cp == head).any(axis=0))
        if len(deep):
            cp[:, deep] = fg.row_prefix(words[deep],
                                        self.streams[:, None, :cols], n[deep])
        self.cp = cp
        for i, depth in self.truncated:     # the letter past depth is unknown
            blind = (cp[i] == depth) & (n > depth)
            for r in np.flatnonzero(blind).tolist():
                self.fail(r, treemod.DepthError(
                    "letter %d beyond certified depth %d" % (depth, depth)))
        self.kappa[k] = n
        self.sigma[k] = n - 2 * cp
        if k == self.first:
            self.anchor = words[:, :cols].copy()
            self.limit = n.copy()
        elif k > self.first:
            self.limit = np.minimum(self.limit,
                                    fg.row_prefix(words, self.anchor, n))

    def plan(self, due):
        """Each due (checkpoint, row) pair's word and common prefixes with
        the tracked points, from scratch: the letters of the block's redraw
        (_Block.redraw), a row's through its last due checkpoint, each
        pair's reduced anew, as many pairs a fg.reduce call as fit in
        _PLAN_LETTERS letters."""
        cps, width = self.config.checkpoints, self.table.shape[1]
        held, last, idx = self.redraw(due)
        pairs, pieces = [], []
        for r, k, steps in zip(held.tolist(), last.tolist(), idx):
            flat = self.table[steps[:cps[k]]].ravel()
            for c in np.flatnonzero(due[:, r]).tolist():
                prefix = flat[:cps[c] * width]
                pairs.append((c, r))
                pieces.append(prefix[prefix != 0])
        words, chunk, size = [], [], 0
        for piece in pieces:
            if chunk and size + len(piece) + 1 > _PLAN_LETTERS:
                words += fg.split(fg.reduce(fg.join(chunk)))
                chunk, size = [], 0
            chunk.append(piece)
            size += len(piece) + 1
        words += fg.split(fg.reduce(fg.join(chunk)))
        self.expected = {}      # (checkpoint, row) -> (word bytes, prefixes)
        for pair, w in zip(pairs, words):
            prefixes = []
            for xi in self.tracked:
                n = len(w) if xi.is_periodic else min(len(w), xi.depth)
                prefixes.append(fg.common_prefix_len(w[:n], xi.letters(n)))
            self.expected[pair] = (w.tobytes(), prefixes)

    def spot_check(self, k, step, rows):
        """Each row and its prefixes against the word planned for it."""
        bad = {}
        for r in rows:
            trial = self.lo + r
            word, prefixes = self.expected[k, r]
            if self.words[r, :self.top[r] - self.base[r]].tobytes() != word:
                bad[r] = AssertionError("trial %d step %d: position stack "
                                        "diverged from from-scratch "
                                        "reduction" % (trial, step))
                continue
            for i, c in enumerate(prefixes):
                if self.cp[i, r] != c:
                    bad[r] = AssertionError(
                        "trial %d step %d: common prefix with %s diverged "
                        "from the point's letters" % (trial, step,
                                                      self.labels[i]))
                    break
        return bad

    def values(self, live):
        """The live rows' values, and their limit prefixes end to end."""
        limit = self.limit.tolist()
        limits = b"".join([self.anchor[r, :limit[r]].tobytes()
                           for r in np.flatnonzero(live).tolist()])
        return dict(kappa=self.kappa.T[live],
                    sigma=self.sigma.transpose(1, 2, 0)[:, live],
                    peak=(self.peak - self.base)[live],
                    limits=limits, limit_lens=self.limit[live])


# ---------------------------------------------------------------------------
# driver

try:
    # the fork start method, with the modules its workers and pipes use,
    # imported once with this one and not on the first run with workers
    from multiprocessing import connection, popen_fork  # noqa
    _FORK = multiprocessing.get_context("fork")
except (ImportError, ValueError):       # no fork start method here
    _FORK = None


def _backend(mu, config):
    """(block class, classes): tree blocks in tree mode; in outer mode
    GL(2,Z) blocks when the rank is 2 and every rose candidate and tracked
    class is primitive, else word blocks, with the run's _Classes, built
    once for all its blocks (None in tree mode).  Tree mode tracks boundary
    points, outer mode classes."""
    tree_mode = mu.mode == "tree"
    for x in config.tracked_classes:
        if isinstance(x, treemod.BoundaryPoint) != tree_mode:
            raise ValueError("tree mode tracks boundary points" if tree_mode
                             else "outer mode tracks words, not boundary "
                                  "points")
    if tree_mode:
        return _TreeBlock, None
    classes = _Classes(mu, config)
    return (_GL2ZBlock if classes.gl2z else _WordBlock), classes


def _block_size(trials, parts, rows):
    """Run size that cuts `trials` into near-equal runs of at most `rows`,
    about a multiple of `parts` of them."""
    runs = parts * -(-trials // (parts * rows))
    return -(-trials // runs)


def _join(config, parts):
    """One Run of the blocks' columns `parts`, in trial order."""
    def join(values):
        if isinstance(values[0], bytes):
            return b"".join(values)
        return np.concatenate(values, axis=1 if values[0].ndim == 3 else 0)

    return Run(config.checkpoints, tracked_labels(config),
               **{key: join([p[key] for p in parts]) for key in parts[0]})


def sample_path(mu, config, trial):
    """One trial as a block of one; a pure function of (mu, config, trial)."""
    if not 0 <= trial < config.trials:
        raise ValueError("trial index out of range")
    cls, classes = _backend(mu, config)
    columns, failures = _run_trials(cls, mu, config, trial, trial + 1,
                                    classes)
    if failures:
        raise failures[0][1]
    return _join(config, [columns])[0]


def _run_trials(cls, mu, config, lo, hi, classes=None):
    """Trials lo .. hi-1 as one block of cls: (columns, [(trial, exc)])."""
    return cls(mu, config, lo, hi, classes).run()


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a walk worker, as text: the
    cause of that exception where the caller raises it again."""

    def __str__(self):
        return "\n" + self.args[0]


def _deal(run, blocks, procs):
    """[run(lo, hi) for (lo, hi) in blocks], run round-robin by this process
    and procs - 1 forked workers: process i of procs runs blocks i, i +
    procs, and so on, this one being process 0.

    A worker sends its list of results, or the exception that stopped it
    with its traceback, once through a Pipe.  This process reads the pipes
    in worker order after running its own blocks, so a worker's exception
    is raised only once this process's blocks, and every earlier worker's,
    are done.  On any exception this process terminates the workers, which
    hold no lock; every worker is joined before this returns or raises."""
    pipes, workers = [], []     # this process's receiving ends; (proc, end)

    def work(i, send):
        for end in pipes:       # so that only this process reads them
            end.close()
        try:
            out = [run(lo, hi) for lo, hi in blocks[i::procs]]
        except BaseException as exc:
            import traceback
            out = exc, traceback.format_exc()
        try:
            send.send(out)
        except BrokenPipeError:     # the caller is raising already
            pass

    results = [None] * len(blocks)
    try:
        for i in range(1, procs):
            end, send = _FORK.Pipe(duplex=False)
            pipes.append(end)
            proc = _FORK.Process(target=work, args=(i, send))
            proc.start()
            send.close()
            workers.append((proc, end))
        results[::procs] = [run(lo, hi) for lo, hi in blocks[::procs]]
        for i, (proc, end) in enumerate(workers, 1):
            try:
                got = end.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    "walk worker %s (pid %d) exited with code %s without "
                    "sending its blocks" % (proc.name, proc.pid,
                                            proc.exitcode)) from None
            if isinstance(got, tuple):      # the exception that stopped it
                exc, trace = got
                raise exc from _WorkerTraceback(trace)
            results[i::procs] = got
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for end in pipes:
            end.close()
        for proc, _ in workers:
            proc.join()
    return results


def run_experiment(mu, config, workers=1):
    """All trials as one Run, ordered by trial index; identical for any
    worker count.

    The trials are cut into blocks of near-equal size, each holding at most
    _BLOCK_BYTES by its backend's row_bytes (at least one row), about a
    multiple of `workers` of them, `workers` capped at the CPUs this process
    may use.  The blocks run on min(workers, blocks) processes, this one
    and forked workers, dealt round-robin (_deal); in process alone where
    the platform cannot fork."""
    trials = config.trials
    cls, classes = _backend(mu, config)
    rows = _BLOCK_BYTES // cls.row_bytes(mu, config, classes)
    parts = min(workers, _cpus())
    size = _block_size(trials, parts, max(1, rows))
    blocks = [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]

    def run(lo, hi):
        return _run_trials(cls, mu, config, lo, hi, classes)

    procs = min(parts, len(blocks)) if _FORK is not None else 1
    runs = _deal(run, blocks, procs)
    failures = [fail for _, fails in runs for fail in fails]
    if failures:
        raise ExperimentError(failures)
    return _join(config, [columns for columns, _ in runs])
