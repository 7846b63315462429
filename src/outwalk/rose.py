"""Marked metric roses and the asymmetric Lipschitz metric on them.

A point is a rose (wedge of N circles) with positive edge lengths summing
to one, together with a marking automorphism.  Distances come from White's
formula: d(T,U) = log max ‖c‖_U / ‖c‖_T over the finite candidate set of
T, where ‖.‖ is translation length.  Candidates on a rose are the loops
crossing each edge at most twice: single petals and two-petal figure
eights (barbells need two vertices, so they do not occur here).

Edge lengths are exact rationals end to end; the single floating-point
step in any distance is the final log of an exact ratio maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import freegroup as fg
from .freegroup import Automorphism, RankError

ENUMERATION_BOUND = 20_000_000


class ResourceLimitError(RuntimeError):
    """An operation would exceed its configured resource budget."""


@dataclass(frozen=True)
class RosePoint:
    """A marked rose: edge lengths (exact rationals, summing to 1) plus a
    marking automorphism."""

    lengths: tuple
    marking: Automorphism

    def __post_init__(self):
        if len(self.lengths) != self.marking.rank:
            raise RankError("need one edge length per generator")
        if any(l <= 0 for l in self.lengths):
            raise ValueError("edge lengths must be positive")
        total = sum(self.lengths, Fraction(0))
        if total != 1:
            raise ValueError("edge lengths must sum to 1, got %s" % total)

    @property
    def rank(self):
        return self.marking.rank


def rose_point(lengths, marking=None):
    """Build a RosePoint, coercing lengths to exact rationals.

    Float inputs are taken at their exact binary value (pass strings such
    as "9/10" for exact decimals); if the exact sum differs from 1 by at
    most 1e-12 the lengths are renormalized exactly, otherwise the input is
    rejected.
    """
    fracs = [Fraction(x) for x in lengths]
    if marking is None:
        marking = Automorphism.identity(len(fracs))
    total = sum(fracs, Fraction(0))
    if total != 1:
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError("edge lengths must sum to 1 (got %s)" % float(total))
        fracs = [x / total for x in fracs]
    return RosePoint(tuple(fracs), marking)


def unit_rose(rank):
    """The basepoint o: all edges 1/N, identity marking."""
    return RosePoint(tuple(Fraction(1, rank) for _ in range(rank)),
                     Automorphism.identity(rank))


@lru_cache(maxsize=None)
def base_candidates(rank):
    """Petals a_i and figure eights a_i a_j^{±1} (i<j), as cyclic words."""
    out = [fg.as_word([i]) for i in range(1, rank + 1)]
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            out.append(fg.as_word([i, j]))
            out.append(fg.as_word([i, -j]))
    return tuple(out)


def candidate_set(point):
    """Candidates of a marked rose: the marking's image of the base list."""
    return tuple(fg.cyclic_word(point.marking.apply(c))
                 for c in base_candidates(point.rank))


def translation_length(g, point):
    """Exact translation length of the conjugacy class of g on the rose."""
    w = fg.reduce(g)
    fg.check_rank(w, point.rank)
    core, _ = fg.cyclic_reduce(point.marking.apply_inverse(w))
    counts = fg.occurrence_counts(core, point.rank)
    return sum((point.lengths[i] * int(counts[i]) for i in range(point.rank)),
               Fraction(0))


def max_stretch(t, u):
    """Exact max of ‖c‖_U / ‖c‖_T over candidates of T (White's formula)."""
    if t.rank != u.rank:
        raise RankError("points live in different ranks")
    best = None
    for c in candidate_set(t):
        num = translation_length(c, u)
        den = translation_length(c, t)
        r = num / den
        if best is None or r > best:
            best = r
    return best


def lipschitz_distance(t, u):
    """Asymmetric distance d(T,U) = log max_stretch(T,U); exact ratio, one log."""
    return math.log(max_stretch(t, u))


def act(phi, point):
    """Group action Phi.T := T.Phi^{-1} (marking precomposed with Phi^{-1})."""
    return RosePoint(point.lengths, fg.compose(phi, point.marking))


def kappa_stretch(phi):
    """Exact displacement ratio: max over base candidates of ‖Φ(w)‖/‖w‖."""
    best = None
    for w in base_candidates(phi.rank):
        num = fg.cyclic_length(phi.apply(w))
        den = len(w)  # base candidates are already cyclically reduced
        r = Fraction(num, den)
        if best is None or r > best:
            best = r
    return best


def kappa(phi):
    """Displacement of the basepoint: d(Phi.o, o) = log kappa_stretch(Phi)."""
    return math.log(kappa_stretch(phi))


def sigma_ratio(phi, g):
    """Exact length ratio ‖Φ(g)‖ / ‖g‖ for a nontrivial conjugacy class."""
    w = fg.reduce(g)
    den = fg.cyclic_length(w)
    if den == 0:
        raise ValueError("the trivial class has no length cocycle")
    num = fg.cyclic_length(phi.apply(w))
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# brute-force oracle: enumerate every conjugacy class up to a length bound
# and take the true supremum of the stretch ratio.  Kept deliberately
# independent of the candidate shortcut so the two can cross-check.
#
# The conjugates of a cyclically reduced word are its rotations, so each
# class is named by its least rotation under the letter order a < A < b <
# B < ..., a necklace.  Necklaces are generated directly, one letter at a
# time, as packed integers (Ruskey-Savage-Wang, J. Algorithms 13, 1992).
# Images of a whole block of classes are freely reduced together by
# freegroup's cancel pass, rows kept apart by a separator letter, and then
# cyclically reduced by peeling inverse letters off both ends of every row.

_SEPARATOR = 64     # a letter value that never cancels: no letter is -64


def _enumeration_count(rank, max_len):
    total = 0
    for L in range(1, max_len + 1):
        total += 2 * rank * (2 * rank - 1) ** (L - 1)
    return total


def _unpack(vals, length, bits):
    """Packed letter codes (first letter most significant) -> int8 rows."""
    shifts = bits * np.arange(length - 1, -1, -1, dtype=np.int64)
    codes = (vals[:, None] >> shifts) & ((1 << bits) - 1)
    return (((codes >> 1) + 1) * (1 - 2 * (codes & 1))).astype(np.int8)


@lru_cache(maxsize=8)
def _necklace_blocks(rank, max_len):
    """Cyclically reduced conjugacy-class representatives, grouped by length.

    Returns a tuple of 2-D int8 arrays, one per word length 1..max_len; each
    row is the least rotation of one class under the letter order a < A <
    b < B < ..., and rows ascend in that order.
    """
    if _enumeration_count(rank, max_len) > ENUMERATION_BOUND:
        raise ResourceLimitError(
            "enumerating %d words exceeds the %d bound"
            % (_enumeration_count(rank, max_len), ENUMERATION_BOUND))
    # letter codes a=0, A=1, b=2, B=3, ...: the inverse of code c is c ^ 1
    bits = (2 * rank - 1).bit_length()
    mask = (1 << bits) - 1
    if max_len * bits > 63:
        raise ResourceLimitError(
            "words of %d letters at rank %d do not pack into 63 bits"
            % (max_len, rank))
    codes = np.arange(2 * rank, dtype=np.int64)
    # Every word kept is a reduced prenecklace (a prefix of a necklace) and
    # carries p, the length of its longest Lyndon prefix.  Appending c keeps
    # a prenecklace iff c >= the letter p places back; p becomes the new
    # length iff c is larger; a prenecklace of length n is a necklace iff
    # p divides n.  Extending a sorted array row by row keeps it sorted.
    vals = codes
    lyn = np.ones(2 * rank, dtype=np.int64)
    blocks = [_unpack(vals, 1, bits)]
    for n in range(2, max_len + 1):
        ref = (vals >> ((lyn - 1) * bits)) & mask
        ok = (codes >= ref[:, None]) & (codes != ((vals & mask) ^ 1)[:, None])
        rows, c = np.nonzero(ok)
        vals = (vals[rows] << bits) | c
        lyn = np.where(c > ref[rows], n, lyn[rows])
        first = vals >> ((n - 1) * bits)
        keep = (n % lyn == 0) & (first != (c ^ 1))
        blocks.append(_unpack(vals[keep], n, bits))
    return tuple(blocks)


def _batch_weighted_cyclic(theta_inv, block, weights_num):
    """For each row w of block: weighted cyclic length of theta_inv(w).

    weights_num: integer numerators of the edge lengths over a common
    denominator.  Exact: returns an int64 vector of weighted cyclic lengths
    (times the common denominator).
    """
    flat_img, starts, lens = theta_inv._image_arrays(+1)
    # one separator after each row's image, so one reduction serves them all:
    # code 2N is a one-letter image holding the separator
    sep = len(lens)
    flat_img = np.append(flat_img, np.int8(_SEPARATOR))
    starts = np.append(starts, len(flat_img) - 1)
    lens = np.append(lens, 1)
    codes = ((np.abs(block).astype(np.intp) - 1) << 1) | (block < 0)
    codes = np.pad(codes, ((0, 0), (0, 1)), constant_values=sep).ravel()
    lens_pp = lens[codes]
    ends = np.cumsum(lens_pp)
    # ragged gather: letter k of the image of code c sits at starts[c] + k
    pos = np.arange(int(ends[-1]), dtype=np.int64)
    pos += np.repeat(starts[codes] - (ends - lens_pp), lens_pp)
    letters = flat_img[pos]
    changed = True
    while changed:
        letters, changed = fg._cancel_pass(letters)

    stop = np.flatnonzero(letters == _SEPARATOR)       # one per row, in order
    begin = np.concatenate(([0], stop[:-1] + 1))
    wtab = np.zeros(_SEPARATOR + 1, dtype=np.int64)
    wtab[1:len(weights_num) + 1] = weights_num
    cum = np.concatenate(([0], np.cumsum(wtab[np.abs(letters)])))
    # a reduced row is s c s^-1 with c cyclically reduced: peel s and s^-1
    lo, hi = begin.copy(), stop - 1
    rows = np.flatnonzero(hi > lo)
    while rows.size:
        rows = rows[letters[lo[rows]] == -letters[hi[rows]]]
        lo[rows] += 1
        hi[rows] -= 1
    return cum[stop] - cum[begin] - 2 * (cum[lo] - cum[begin])


def brute_force_max_stretch(t, u, max_len):
    """Exact sup of ‖g‖_U/‖g‖_T over nontrivial classes with ‖g‖_T-core
    length ≤ max_len, by full enumeration (no candidate shortcut)."""
    if t.rank != u.rank:
        raise RankError("points live in different ranks")
    blocks = _necklace_blocks(t.rank, max_len)
    # translate to T having identity marking (the action is by isometries)
    theta = fg.compose(t.marking.inverted(), u.marking)
    theta_inv = theta.inverted()

    den_t = math.lcm(*(l.denominator for l in t.lengths))
    num_t = np.array([int(l * den_t) for l in t.lengths], dtype=np.int64)
    den_u = math.lcm(*(l.denominator for l in u.lengths))
    num_u = np.array([int(l * den_u) for l in u.lengths], dtype=np.int64)

    best = None
    for block in blocks:
        t_len = num_t[np.abs(block).astype(np.intp) - 1].sum(axis=1)  # times den_t
        u_len = _batch_weighted_cyclic(theta_inv, block, num_u)      # times den_u
        ratios = (u_len.astype(np.float64) * den_t) / (t_len.astype(np.float64) * den_u)
        top = float(ratios.max())
        near = np.flatnonzero(ratios >= top * (1.0 - 1e-9))
        for i in near:
            r = Fraction(int(u_len[i]) * den_t, int(t_len[i]) * den_u)
            if best is None or r > best:
                best = r
    return best
