"""Deterministic Monte Carlo driver for left random walks.

Two modes share one engine.  Outer mode walks on the automorphism group,
composing increments on the left (Phi_n = s_n . Phi_{n-1}) and tracking
the exact cyclic lengths of the images of the candidate loops and of
user-chosen conjugacy classes: as reduced words in general, or as
abelianized vectors in exact ints when the rank is 2 and every class is
primitive.  Tree mode walks on the free group itself and tracks the walk
position in the Cayley tree together with Busemann values toward tracked
boundary points.  Tree trials run in lock-step blocks: the positions of a
block of trials are rows of one int8 stack array, and each step is a few
numpy operations over all rows; Busemann values and the limit prefix are
read off the stacks at checkpoints only, so a truncated tracked point
fails a trial only where a value it records is undecidable.  Outer trials
on abelianized vectors run in lock-step blocks as well: the rows' step
matrices are multiplied in int64, in segments short enough that no product
overflows, and each segment's product moves a row's exact vectors once;
the word cap is checked by a bound, and a row is replayed step by step
only where the bound passes the cap.  Outer trials on reduced words run
one at a time.  Either outer backend reads kappa and sigma from exact
integer lengths, with one division and one log per value.
run_experiment cuts the spans the same way for any worker count, and a
lone trial (sample_path) is a span of one in either mode.

Reproducibility contract: increments for trial t are drawn from a Philox
counter-based stream keyed by (master_seed, t), so every trial is an
independent pure function of (measure, config, trial index), whichever
block it runs in.  Records are therefore identical whatever the worker
count, block size or execution order, and a failing trial fails alone.
"""

from __future__ import annotations

import math
import numbers
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.random import Philox

from . import freegroup as fg
from . import rose
from . import tree as treemod

DEFAULT_WORD_CAP = 2 ** 24
SPOT_CHECK_RATE = 0.01
# bytes of per-trial state (stacks or vectors, and steps) per block of trials
# advanced together
_BLOCK_BYTES = 1 << 19


class WordCapExceeded(RuntimeError):
    """A tracked word outgrew the configured letter cap."""

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
    """

    __slots__ = ("atoms", "weights", "mode", "_cumulative")

    def __init__(self, atoms, weights):
        atoms = list(atoms)
        weights = [float(w) for w in weights]
        if not atoms or len(atoms) != len(weights):
            raise ValueError("need matching nonempty atoms and weights")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
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
        cum = np.cumsum(np.asarray(self.weights, dtype=np.float64))
        cum[-1] = 1.0  # guards searchsorted against float summation slack
        self._cumulative = cum

    def draw_indices(self, master_seed, trial, n):
        """Atom indices for steps 1..n of the given trial; pure function."""
        key = (int(master_seed) << 64) + int(trial)
        raw = Philox(key=key).random_raw(n)
        u = (raw >> np.uint64(11)) * 2.0 ** -53
        return np.searchsorted(self._cumulative, u, side="right")


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
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        cps = tuple(int(c) for c in self.checkpoints)
        if not cps:
            raise ValueError("checkpoints must be nonempty")
        if list(cps) != sorted(set(cps)) or cps[0] < 1 or cps[-1] > self.horizon:
            raise ValueError("checkpoints must be strictly increasing in [1, horizon]")
        object.__setattr__(self, "checkpoints", cps)
        cap = self.max_word_letters
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
            raise ValueError("max_word_letters must be an int >= 1, got %r"
                             % (cap,))
        rate = self.spot_check_rate
        if not isinstance(rate, numbers.Real) or not 0 <= rate <= 1:
            raise ValueError("spot_check_rate must be a real in [0, 1], "
                             "got %r" % (rate,))
        object.__setattr__(self, "tracked_classes", tuple(self.tracked_classes))


@dataclass(frozen=True)
class PathRecord:
    """One trial's values at its checkpoints.

    peak_letters is the most letters the trial held: the longest position
    stack in tree mode, the longest reduced image word on the outer word
    engine.  On the GL(2,Z) backend it is the longest cyclic length |p|+|q|
    at a segment end (each checkpoint, the horizon, and the cuts that
    _segment_steps puts between them), not at every step.
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


def _spot_selected(master_seed, trial, ckpt, rate):
    # deterministic, worker-independent selection of ~rate of all pairs
    h = (trial * 1000003 + ckpt) * 2654435761 + (master_seed & 0xFFFFFFFF)
    h ^= h >> 16
    return (h * 0x9E3779B1) % (1 << 32) < int(rate * (1 << 32))


def _spot_due(config, trial, step):
    """Whether the trial is spot-checked at checkpoint `step`: the selected
    pairs, and trial 0 at the last checkpoint."""
    return _spot_selected(config.master_seed, trial, step,
                          config.spot_check_rate) or \
        (trial == 0 and step == config.checkpoints[-1])


# ---------------------------------------------------------------------------
# outer mode

class _Classes:
    """The classes an outer walk follows, and the reader of their lengths.

    The rose candidates and the tracked classes are held once each, as
    cyclically reduced start words.  At a checkpoint, kappa is the top
    candidate ratio of cyclic length to start length and sigma each tracked
    class's ratio.  Both are compared in integers, over one common
    denominator of the candidates' start lengths, and each becomes a float
    by one division of ints, which is correctly rounded: the logs equal
    those of the exact ratios.
    """

    def __init__(self, mu, config):
        self.storage = []       # start words, cyclically reduced
        keys = {}
        labels = {}             # label -> storage slot

        def slot_for(word, label):
            core, _ = fg.cyclic_reduce(fg.reduce(word))
            if len(core) == 0:
                raise ValueError("tracked class %r is trivial" % label)
            k = fg.word_key(fg.canonical_rotation(core))
            if k not in keys:
                keys[k] = len(self.storage)
                self.storage.append(core)
            labels[label] = keys[k]

        cands = []
        for w in rose.base_candidates(mu.atoms[0].rank):
            slot_for(w, "cand:" + fg.format_word(w))
            cands.append(labels["cand:" + fg.format_word(w)])
        for g, label in zip(config.tracked_classes, tracked_labels(config)):
            slot_for(fg.as_word(g), label)
        self.tracked = [(lab, slot) for lab, slot in labels.items()
                        if not lab.startswith("cand:")]
        self.slots = [slot for _, slot in self.tracked]
        self.start_lens = [len(w) for w in self.storage]
        self.den = math.lcm(*(self.start_lens[i] for i in cands))
        self.scale = [(i, self.den // self.start_lens[i]) for i in cands]
        # a primitive class of F2 is fixed by its abelianization
        self.gl2z = mu.atoms[0].rank == 2 and \
            all(fg.is_primitive_f2(w) for w in self.storage)

    def read(self, trial, step, lens):
        """kappa and the tracked classes' sigmas from one row of cyclic
        lengths."""
        top = max(lens[i] * m for i, m in self.scale)
        sigma = []
        for lab, slot in self.tracked:
            # White's formula: the candidate max dominates every class
            if lens[slot] * self.den > top * self.start_lens[slot]:
                raise AssertionError("trial %d step %d: sigma(%s) exceeded "
                                     "kappa" % (trial, step, lab))
            sigma.append(math.log(lens[slot] / self.start_lens[slot]))
        return math.log(top / self.den), sigma


def _outer_record(trial, config, classes, kappa, sigma, lengths, spots,
                  peak):
    """A trial's record; sigma and lengths hold one list per checkpoint, of
    one value per tracked class."""
    labels = [lab for lab, _ in classes.tracked]
    return PathRecord(
        trial_index=trial, checkpoints=config.checkpoints, kappa=tuple(kappa),
        sigma=dict(zip(labels, zip(*sigma))),
        lengths=dict(zip(labels, zip(*lengths))),
        peak_letters=peak, spot_checked=tuple(spots))


class _WordEngine:
    """Outer-mode backend: the exact reduced image word of each start word."""

    def __init__(self, mu, storage, cap):
        self.atoms = mu.atoms
        self.storage = storage
        self.cap = cap

    def reset(self, trial):
        """Start `trial` from the start words."""
        self.trial = trial
        self.words = list(self.storage)
        self.peak = max(len(w) for w in self.storage)

    def advance(self, steps, start, stop):
        """Apply the atoms of steps start+1 .. stop."""
        for step in range(start + 1, stop + 1):
            s = self.atoms[steps[step - 1]]
            for i, w in enumerate(self.words):
                w2 = s.apply(w)
                if len(w2) > self.cap:
                    raise WordCapExceeded(self.trial, step, len(w2), self.cap)
                self.words[i] = w2
                if len(w2) > self.peak:
                    self.peak = len(w2)

    def cyclic_lengths(self):
        return [fg.cyclic_length(w) for w in self.words]

    def spot_check(self, steps, step):
        # recompose Phi_step from the increment stream and reapply from
        # scratch; catches drift between incremental image maintenance and
        # composition
        phi = self.atoms[steps[0]]
        for k in range(1, step):
            phi = fg.compose(self.atoms[steps[k]], phi)
        for w0, w in zip(self.storage, self.words):
            if not np.array_equal(phi.apply(w0), w):
                raise AssertionError(
                    "trial %d step %d: incremental image of %r diverged from "
                    "recomposed automorphism"
                    % (self.trial, step, fg.format_word(w0)))


def _word_trials(mu, config, lo, hi, classes):
    """Trials lo .. hi-1 on exact reduced words, one trial at a time."""
    engine = _WordEngine(mu, classes.storage, config.max_word_letters)

    def record(trial):
        engine.reset(trial)
        steps = mu.draw_indices(config.master_seed, trial,
                                config.horizon).tolist()
        kappa, sigma, lengths, spots = [], [], [], []
        done = 0
        for step in config.checkpoints:
            engine.advance(steps, done, step)
            done = step
            cyc = engine.cyclic_lengths()
            k, s = classes.read(trial, step, cyc)
            kappa.append(k)
            sigma.append(s)
            lengths.append([cyc[i] for i in classes.slots])
            if _spot_due(config, trial, step):
                engine.spot_check(steps, step)
                spots.append(step)
        engine.advance(steps, done, config.horizon)
        return _outer_record(trial, config, classes, kappa, sigma, lengths,
                             spots, engine.peak)

    records, failures = [], []
    for trial in range(lo, hi):
        try:
            records.append(record(trial))
        except Exception as exc:    # aggregated with the trial index
            failures.append((trial, exc))
    return records, failures


def _abelian_matrix(phi):
    # (a, b, c, d) with [[a, b], [c, d]] acting on column vectors (p, q)
    (a, c), (b, d) = (fg.exponent_sums(w, 2) for w in phi.forward)
    return a, b, c, d


def _segment_steps(mats, horizon):
    """Most steps whose product of step matrices int64 holds exactly.

    Every partial sum in a product of k step matrices is at most r^k, r the
    largest absolute column sum of any step matrix: that sum is the l1
    operator norm, which is submultiplicative.  An atom's column sum is at
    most the letters of its images, so r < 2^63 and a segment has at least
    one step."""
    r = max(max(abs(a) + abs(c), abs(b) + abs(d)) for a, b, c, d in mats)
    if r == 1:      # signed permutations: products never grow
        return horizon
    steps = 1
    while steps < horizon and r ** (steps + 1) < 2 ** 63:
        steps += 1
    return steps


class _GL2ZBlock:
    """Rank-2 outer trials lo .. hi-1 advanced together, a segment at a time.

    Used when every class is primitive.  A primitive class of F2 is fixed by
    its abelianization (p, q) (Osborne-Zieschang), and its cyclic word uses
    each letter with one sign only (Cohen-Metzler-Zimmermann), so its
    cyclic length is |p| + |q|.  Automorphisms keep classes primitive, so a
    step multiplies each vector by the step's 2x2 integer matrix.

    Row r is trial lo + r; its vectors are Python ints in row r of two
    object arrays, p and q, one column per class.  Between checkpoints the
    rows' step matrices are multiplied in int64, in segments of at most
    `seg` steps (_segment_steps), and each segment's product moves the
    vectors once.  The cap is checked by bound: every prefix product Q of a
    segment has |Q v|_1 <= ||Q||_1 |v|_1, so only a row whose largest prefix
    norm times its longest vector passes the cap is replayed step by step,
    and it fails at the step and length a per-step walk gives.  A row that
    fails (cap, domination, spot check) has its vectors zeroed: it stops
    growing and fails only its own trial.
    """

    # the spot check replays the word engine while its words stay this short
    REPLAY_LETTERS = 1 << 10

    def __init__(self, mu, config, lo, hi, classes):
        self.mu = mu
        self.config = config
        self.lo = lo
        self.classes = classes
        self.atom_mats = [_abelian_matrix(phi) for phi in mu.atoms]
        self.mats = np.array(self.atom_mats, dtype=np.int64).T.copy()
        self.seg = _segment_steps(self.atom_mats, config.horizon)
        rows = hi - lo
        # steps[s, r]: row r's atom at step s+1, one contiguous row per step
        self.steps = np.empty((config.horizon, rows), dtype=_step_dtype(mu))
        for r in range(rows):
            self.steps[:, r] = mu.draw_indices(config.master_seed, lo + r,
                                               config.horizon)
        self.start_vecs = [fg.exponent_sums(w, 2) for w in classes.storage]
        p, q = zip(*self.start_vecs)
        self.p = np.array([p] * rows, dtype=object)
        self.q = np.array([q] * rows, dtype=object)
        self.top = np.full(rows, max(classes.start_lens), dtype=object)
        self.peak = self.top.copy()
        # kappa[k, r], sigma[k, r, i], lengths[k][r, i]: checkpoint k's
        # values of row r and tracked class i
        count = len(config.checkpoints)
        self.kappa = np.zeros((count, rows))
        self.sigma = np.zeros((count, rows, len(classes.tracked)))
        self.lengths = []
        self.spots = [[] for _ in range(rows)]
        self.failures = {}

    def fail(self, r, exc):
        """Trial lo + r fails with exc; its row stops growing."""
        self.failures[r] = exc
        self.p[r] = self.q[r] = 0

    def advance(self, start, stop):
        """Apply the matrices of steps start+1 .. stop to every row."""
        for s in range(start, stop, self.seg):
            self.segment(s, min(s + self.seg, stop))

    def segment(self, start, stop):
        """Steps start+1 .. stop as one product per row, within the cap."""
        prod = np.zeros((4, self.p.shape[0]), dtype=np.int64)
        prod[0] = prod[3] = 1
        norm = np.ones(self.p.shape[0], dtype=np.int64)
        for s in range(start, stop):
            e, f, g, h = self.mats[:, self.steps[s]]
            prod = np.concatenate((e * prod[:2] + f * prod[2:],
                                   g * prod[:2] + h * prod[2:]))
            col = np.abs(prod)
            col = col[:2] + col[2:]
            np.maximum(norm, np.maximum(col[0], col[1]), out=norm)
        cap = self.config.max_word_letters
        over = norm > cap // np.maximum(self.top, 1)
        a, b, c, d = prod.astype(object)[:, :, None]
        p, q = self.p, self.q
        self.p, self.q = a * p + b * q, c * p + d * q
        for r in np.flatnonzero(over).tolist():
            if r not in self.failures:
                self.replay(r, start, stop, p[r].tolist(), q[r].tolist())
        self.lens = abs(self.p) + abs(self.q)
        self.top = self.lens.max(axis=1)
        np.maximum(self.peak, self.top, out=self.peak)

    def replay(self, r, start, stop, p, q):
        """Row r's steps start+1 .. stop one at a time from vectors p, q;
        the row fails at the first step where a class passes the cap."""
        cap = self.config.max_word_letters
        for s in range(start, stop):
            a, b, c, d = self.atom_mats[self.steps[s, r]]
            p, q = ([a * x + b * y for x, y in zip(p, q)],
                    [c * x + d * y for x, y in zip(p, q)])
            top = max(abs(x) + abs(y) for x, y in zip(p, q))
            if top > cap:
                self.fail(r, WordCapExceeded(self.lo + r, s + 1, top, cap))
                return

    def checkpoint(self, k, step):
        """Read checkpoint k's kappa, sigma and lengths of every row after
        `step`, and run the row's spot check where one is due."""
        self.lengths.append(self.lens[:, self.classes.slots])
        for r, lens in enumerate(self.lens.tolist()):
            trial = self.lo + r
            if r in self.failures:
                continue
            try:
                self.kappa[k, r], self.sigma[k, r] = \
                    self.classes.read(trial, step, lens)
                if _spot_due(self.config, trial, step):
                    self.spot_check(r, step)
                    self.spots[r].append(step)
            except AssertionError as exc:
                self.fail(r, exc)

    def spot_check(self, r, step):
        """Row r against the product of its redrawn step matrices from
        scratch and, while its words stay within REPLAY_LETTERS, against the
        cyclic lengths of a word-engine replay of the same steps."""
        trial = self.lo + r
        storage = self.classes.storage
        steps = self.mu.draw_indices(self.config.master_seed, trial,
                                     step).tolist()
        a, b, c, d = 1, 0, 0, 1
        words = storage
        for k in range(step):
            e, f, g, h = self.atom_mats[steps[k]]
            a, b, c, d = (e * a + f * c, e * b + f * d,
                          g * a + h * c, g * b + h * d)
            if words is None:
                continue
            words = [self.mu.atoms[steps[k]].apply(w) for w in words]
            if max(len(w) for w in words) > self.REPLAY_LETTERS:
                words = None
                continue
            for w, w0, (p, q) in zip(words, storage, self.start_vecs):
                if fg.cyclic_length(w) != \
                        abs(a * p + b * q) + abs(c * p + d * q):
                    raise AssertionError(
                        "trial %d step %d: |p|+|q| of the image of %r "
                        "differs from its cyclic word length"
                        % (trial, k + 1, fg.format_word(w0)))
        for i, (w0, (p, q)) in enumerate(zip(storage, self.start_vecs)):
            if (a * p + b * q, c * p + d * q) != (self.p[r, i], self.q[r, i]):
                raise AssertionError(
                    "trial %d step %d: incremental vector of %r diverged "
                    "from the product of the step matrices"
                    % (trial, step, fg.format_word(w0)))

    def run(self):
        """Walk every step; (records, [(trial, exc)]) of the block."""
        done = 0
        for k, step in enumerate(self.config.checkpoints):
            self.advance(done, step)
            self.checkpoint(k, step)
            done = step
        self.advance(done, self.config.horizon)
        lengths = np.array(self.lengths)
        peak = self.peak.tolist()
        records = [_outer_record(self.lo + r, self.config, self.classes,
                                 self.kappa[:, r].tolist(),
                                 self.sigma[:, r].tolist(),
                                 lengths[:, r].tolist(), self.spots[r],
                                 peak[r])
                   for r in range(len(peak)) if r not in self.failures]
        failures = [(self.lo + r, self.failures[r])
                    for r in sorted(self.failures)]
        return records, failures


def outer_backend(mu, config):
    """Name of the backend an outer walk uses: "gl2z" (lock-step blocks of
    abelianized vectors) when the rank is 2 and every rose candidate and
    tracked class is primitive, else "words" (exact reduced words, one trial
    at a time)."""
    return "gl2z" if _Classes(mu, config).gl2z else "words"


def _step_dtype(mu):
    return np.min_scalar_type(len(mu.atoms) - 1)


def _outer_rows(mu, config, classes):
    """Trials per block: as many as _BLOCK_BYTES of steps and vectors hold,
    a vector entry counted as a pointer to an int as large as the cap."""
    entry = 8 + sys.getsizeof(config.max_word_letters)
    row_bytes = config.horizon * _step_dtype(mu).itemsize + \
        2 * len(classes.storage) * entry
    return max(1, _BLOCK_BYTES // row_bytes)


def _outer_trials(mu, config, lo, hi):
    """Trials lo .. hi-1 on one backend, set up once for all of them: one
    GL(2,Z) block, or the word engine trial by trial.

    Both backends give the same records apart from peak_letters: the longest
    reduced word on the word engine, the longest cyclic length at a segment
    end on GL(2,Z)."""
    classes = _Classes(mu, config)
    if classes.gl2z:
        return _GL2ZBlock(mu, config, lo, hi, classes).run()
    return _word_trials(mu, config, lo, hi, classes)


# ---------------------------------------------------------------------------
# tree mode

# never the inverse of a letter: the floor under every stack, and the
# stream value past a truncated point's certified letters
_NO_LETTER = 127


def _inverse_atom_table(mu):
    """Inverse atoms as the rows of one int8 table, padded with the no-op
    letter 0."""
    inv = [fg.inverse(a) for a in mu.atoms]
    table = np.zeros((len(inv), max(1, max(len(w) for w in inv))),
                     dtype=fg.LETTER_DTYPE)
    for row, w in zip(table, inv):
        row[:len(w)] = w
    return table


def _tree_width(config, table):
    # a stack grows at most one atom per step, and a row over the cap at
    # the end of a step stops there
    atom = table.shape[1]
    return min(config.horizon * atom, config.max_word_letters + atom)


class _TreeBlock:
    """Tree-mode trials lo .. hi-1 advanced together, one step at a time.

    Row r is trial lo + r.  Its walk position g_n^{-1} is a letter stack in
    row r of one int8 array above a floor column, with its length in n.
    Each letter of a step is a few numpy operations over all rows, and
    nothing about the tracked points.  A row that fails (word cap,
    truncated point, spot check) stops moving and fails only its own trial.

    The stacks are read at checkpoints only, by one kernel, fg.row_prefix:
    cp[i] is each row's common prefix with tracked point i's letters.  A
    row that holds all of a truncated point's certified letters and more
    has an undecidable value there and fails.  The certified limit prefix
    is the common prefix of the checkpoint words from checkpoint `first`
    on, the trailing tenth (at least two): the stacks copied there are the
    anchor, and `limit`, each row's common prefix with it so far, is cut
    again at every later checkpoint.
    """

    def __init__(self, mu, config, lo, hi, table):
        self.mu = mu
        self.config = config
        self.lo = lo
        self.table = table
        self.padded = not table.all()
        rows = hi - lo
        width = _tree_width(config, table)
        self.stride = width + 2         # floor, letters, one write past the top
        self.stack = np.empty(rows * self.stride, dtype=fg.LETTER_DTYPE)
        self.words = self.stack.reshape(rows, self.stride)[:, 1:]
        self.base = np.arange(rows, dtype=np.intp) * self.stride
        self.stack[self.base] = _NO_LETTER
        self.n = np.zeros(rows, dtype=np.intp)
        self.peak = np.zeros(rows, dtype=np.intp)
        count = len(config.checkpoints)
        self.first = max(0, count - max(2, (count + 9) // 10))
        # letters[s, k, r]: letter k of the inverse atom of row r's step s+1
        self.letters = np.empty((config.horizon, table.shape[1], rows),
                                dtype=fg.LETTER_DTYPE)
        for r in range(rows):
            self.letters[:, :, r] = table[mu.draw_indices(
                config.master_seed, lo + r, config.horizon)]

        self.tracked = config.tracked_classes
        self.labels = tracked_labels(config)
        self.streams = np.full((len(self.tracked), width + 1), _NO_LETTER,
                               dtype=fg.LETTER_DTYPE)
        for row, xi in zip(self.streams, self.tracked):
            k = width + 1 if xi.depth is None else min(width + 1, xi.depth)
            row[:k] = xi.letters(k)
        self.truncated = [(i, xi.depth) for i, xi in enumerate(self.tracked)
                          if xi.depth is not None]

        self.kappa = []
        self.sigma = []
        self.spots = [[] for _ in range(rows)]
        self.failures = {}

    def fail(self, r, exc):
        """Trial lo + r fails with exc; its row stops moving."""
        self.failures[r] = exc
        self.letters[:, :, r] = 0
        self.n[r] = 0

    def advance(self, start, stop):
        """Apply the inverse atoms of steps start+1 .. stop to every row."""
        stack, base, n, peak = self.stack, self.base, self.n, self.peak
        cap = self.config.max_word_letters
        atom = self.letters.shape[1]
        for s in range(start, stop):
            for v in self.letters[s]:
                pos = base + n
                pop = stack.take(pos) == -v
                # every letter moves its row unless some are the no-op 0
                push = (v != 0) ^ pop if self.padded or self.failures \
                    else ~pop
                pos += 1
                stack[pos] = v          # above the top: harmless unless pushed
                n += push
                n -= pop
            np.maximum(peak, n, out=peak)
            if (s + 1) * atom > cap:
                for r in np.flatnonzero(n > cap).tolist():
                    self.fail(r, WordCapExceeded(self.lo + r, s + 1,
                                                 int(n[r]), cap))

    def checkpoint(self, k, step):
        """Record checkpoint k's values, limit prefix and spot checks after
        `step`."""
        n, words = self.n, self.words
        # letters above a row's length never count, so the rows are
        # compared whole, to one column past the longest word
        top = int(n.max()) + 1
        self.cp = fg.row_prefix(words, self.streams[:, None, :top], n)
        for i, depth in self.truncated:     # the letter past depth is unknown
            blind = (self.cp[i] == depth) & (n > depth)
            for r in np.flatnonzero(blind).tolist():
                try:
                    self.tracked[i].letter(depth)
                except treemod.DepthError as exc:
                    self.fail(r, exc)
        self.kappa.append(n.copy())
        self.sigma.append(n - 2 * self.cp)
        if k == self.first:
            self.anchor = words[:, :top].copy()
            self.limit = n.copy()
        elif k > self.first:
            self.limit = np.minimum(self.limit,
                                    fg.row_prefix(words, self.anchor, n))
        for r in range(len(n)):
            trial = self.lo + r
            if r in self.failures or not _spot_due(self.config, trial, step):
                continue
            try:
                self.spot_check(r, step)
            except AssertionError as exc:
                self.fail(r, exc)
            else:
                self.spots[r].append(step)

    def spot_check(self, r, step):
        """Row r and its prefixes against its redrawn steps, reduced anew."""
        trial = self.lo + r
        u = self.words[r, :self.n[r]]
        idx = self.mu.draw_indices(self.config.master_seed, trial, step)
        flat = self.table[idx].ravel()
        if not np.array_equal(fg.reduce(flat[flat != 0]), u):
            raise AssertionError("trial %d step %d: position stack diverged "
                                 "from from-scratch reduction" % (trial, step))
        for i, xi in enumerate(self.tracked):
            k = len(u) if xi.is_periodic else min(len(u), xi.depth)
            if fg.common_prefix_len(u[:k], xi.letters(k)) != self.cp[i, r]:
                raise AssertionError(
                    "trial %d step %d: common prefix with %s diverged from "
                    "the point's letters" % (trial, step, self.labels[i]))

    def run(self):
        """Walk every step; (records, [(trial, exc)]) of the block."""
        done = 0
        for k, step in enumerate(self.config.checkpoints):
            self.advance(done, step)
            self.checkpoint(k, step)
            done = step
        self.advance(done, self.config.horizon)
        return self.results()

    def results(self):
        """(records, [(trial, exc)]) of the block, in trial order."""
        self.letters = self.stack = self.words = None    # the walk is over
        kappa = np.array(self.kappa).T.tolist()
        # sigma[r][i]: row r's values toward tracked point i
        sigma = np.array(self.sigma).transpose(2, 1, 0).tolist()
        limit = self.limit.tolist()
        peak = self.peak.tolist()
        records = []
        for r in range(len(kappa)):
            if r in self.failures:
                continue
            # a stack prefix is reduced: the trusted constructor takes it
            bnd = treemod.BoundaryPoint(self.anchor[r, :limit[r]].tobytes()) \
                if limit[r] > 0 else None
            records.append(PathRecord(
                trial_index=self.lo + r, checkpoints=self.config.checkpoints,
                kappa=tuple(kappa[r]),
                sigma={lab: tuple(v) for lab, v in zip(self.labels, sigma[r])},
                lengths={}, peak_letters=peak[r],
                spot_checked=tuple(self.spots[r]), bnd=bnd))
        failures = [(self.lo + r, self.failures[r])
                    for r in sorted(self.failures)]
        return records, failures


def _block_size(trials, parts, rows):
    """Run size that cuts `trials` into near-equal runs of at most `rows`,
    about a multiple of `parts` of them."""
    runs = parts * -(-trials // (parts * rows))
    return -(-trials // runs)


def _tree_rows(config, table):
    """Trials per block: as many as _BLOCK_BYTES of stack and steps hold."""
    row_bytes = _tree_width(config, table) + config.horizon * table.shape[1]
    return max(1, _BLOCK_BYTES // row_bytes)


def _tree_trials(mu, config, lo, hi):
    """Trials lo .. hi-1 as one block."""
    return _TreeBlock(mu, config, lo, hi, _inverse_atom_table(mu)).run()


# ---------------------------------------------------------------------------
# driver

def _check_tracked(mu, config):
    # tree mode tracks boundary points, outer mode conjugacy classes
    tree_mode = mu.mode == "tree"
    for x in config.tracked_classes:
        if isinstance(x, treemod.BoundaryPoint) != tree_mode:
            raise ValueError("tree mode tracks boundary points" if tree_mode
                             else "outer mode tracks words, not boundary "
                                  "points")


def sample_path(mu, config, trial):
    """One trial as a span of one; a pure function of (mu, config, trial)."""
    if not 0 <= trial < config.trials:
        raise ValueError("trial index out of range")
    _check_tracked(mu, config)
    records, failures = _run_trials(mu, config, trial, trial + 1)
    if failures:
        raise failures[0][1]
    return records[0]


def _run_trials(mu, config, lo, hi):
    """Trials lo .. hi-1: (records, [(trial, exc)]), both in trial order."""
    trials = _tree_trials if mu.mode == "tree" else _outer_trials
    return trials(mu, config, lo, hi)


def run_experiment(mu, config, workers=1):
    """All trials, ordered by trial index; identical for any worker count.

    Tree and GL(2,Z) spans are blocks of near-equal size within
    _BLOCK_BYTES; word-engine spans are all trials for one worker, else a
    few trials each, as their costs vary widely.  One worker runs the spans
    in process, more on a pool."""
    _check_tracked(mu, config)
    trials = config.trials
    if mu.mode == "tree":
        size = _block_size(trials, workers,
                           _tree_rows(config, _inverse_atom_table(mu)))
    elif (classes := _Classes(mu, config)).gl2z:
        size = _block_size(trials, workers, _outer_rows(mu, config, classes))
    else:
        size = trials if workers <= 1 else max(1, trials // (8 * workers))
    los = range(0, trials, size)
    his = [min(lo + size, trials) for lo in los]
    run = partial(_run_trials, mu, config)
    if workers <= 1:
        runs = list(map(run, los, his))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(run, los, his))
    records = [rec for recs, _ in runs for rec in recs]
    failures = [fail for _, fails in runs for fail in fails]
    if failures:
        raise ExperimentError(failures)
    return records
