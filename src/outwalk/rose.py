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
# B < ..., a necklace.  Necklaces are the cyclically reduced words kept
# from the tree of prenecklaces (prefixes of necklaces), which is grown
# one letter at a time as packed integers (Ruskey-Savage-Wang, J.
# Algorithms 13, 1992).  The oracle walks the same tree.  Each node holds
# the reduced image of its word as one row of an int8 stack; a child's row
# is its parent's row followed by the image of the appended letter, and
# as both pieces are reduced, letters cancel only at the seam between
# them.  A necklace's row is then cyclically reduced by peeling inverse
# letters off both of its ends.
#
# Nodes are processed in chunks, each within one working-set budget: a
# node's int8 row plus the int64 vectors that the kernel holds for it at
# its peak (parent index, letter code, lengths, seam offsets, the child's
# lengths and the temporaries between them).  A chunk whose children
# exceed the budget is halved until they fit or it has one parent; grow
# and peel are functions so that their temporaries go when they return.
# At 2 MB, rank 2 and length 12, one oracle call peaks at about 2 MB
# traced; smaller budgets cost time in per-chunk overhead.

_CHUNK_BYTES = 1 << 21   # working set of one chunk of nodes
_NODE_VECTORS = 20       # int64 vectors held per node of a chunk


def _enumeration_count(rank, max_len):
    total = 0
    for L in range(1, max_len + 1):
        total += 2 * rank * (2 * rank - 1) ** (L - 1)
    return total


def _prenecklace_levels(rank, max_len):
    """Yield (vals, parent, code, keep) for prenecklace lengths 1..max_len.

    vals packs the reduced prenecklaces of one length, ascending; parent
    indexes each word's prefix one length shorter, code is its last
    letter's code, and keep marks the words that are necklaces.
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
    # A level is built into arrays of its final size, in chunks of parents
    # whose temporaries (about 64 bytes a child) fit the chunk budget;
    # ENUMERATION_BOUND keeps every index below 2^31, so parent is int32.
    vals = codes
    lyn = np.ones(2 * rank, dtype=np.int64)
    yield vals, np.zeros(2 * rank, dtype=np.int32), codes.astype(np.int8), \
        lyn == 1
    step = max(1, _CHUNK_BYTES // (64 * 2 * rank))
    for n in range(2, max_len + 1):
        ref = (vals >> ((lyn - 1) * bits)) & mask
        inv = (vals & mask) ^ 1
        # a parent keeps the codes c >= ref other than inv
        size = int((2 * rank - ref).sum()) - np.count_nonzero(inv >= ref)
        out_vals = np.empty(size, dtype=np.int64)
        out_lyn = np.empty(size, dtype=np.int64)
        parent = np.empty(size, dtype=np.int32)
        code = np.empty(size, dtype=np.int8)
        keep = np.empty(size, dtype=bool)
        at = 0
        for lo in range(0, len(vals), step):
            r = ref[lo:lo + step]
            rows, c = np.nonzero((codes >= r[:, None])
                                 & (codes != inv[lo:lo + step, None]))
            end = at + len(rows)
            v = (vals[lo:lo + step][rows] << bits) | c
            out_vals[at:end] = v
            out_lyn[at:end] = np.where(c > r[rows], n, lyn[lo:lo + step][rows])
            parent[at:end] = rows + lo
            code[at:end] = c
            keep[at:end] = ((n % out_lyn[at:end] == 0)
                            & ((v >> ((n - 1) * bits)) != (c ^ 1)))
            at = end
        vals, lyn = out_vals, out_lyn
        yield vals, parent, code, keep


@lru_cache(maxsize=8)
def _prenecklace_tree(rank, max_len):
    """(parent, code, keep) of _prenecklace_levels, one triple per length:
    int32, int8 and bool, 6 bytes a node."""
    return tuple(level[1:] for level in _prenecklace_levels(rank, max_len))


def _necklace_lengths(rank, max_len, theta_inv, num_t, num_u):
    """Weighted lengths of every necklace of length 1..max_len.

    num_t, num_u: integer edge weights.  Yields (n, nodes, t, u) chunk by
    chunk: the necklaces' length n, their indices among the prenecklaces
    of that length, and as int64 vectors the weighted length of each
    necklace and the weighted cyclic length of its image under theta_inv.
    Raises ResourceLimitError before the first chunk if a weighted length
    could pass int64.
    """
    tree = _prenecklace_tree(rank, max_len)
    # letter code c < 2 rank has image flat[starts[c]:starts[c] + lens[c]];
    # every image has a letter, so the separator's does not raise k_max
    flat, starts, lens = fg.image_table([theta_inv])
    k_max = int(lens.max())
    width = max_len * k_max      # the longest image a word can have
    # a word weighs at most max_len x its largest T weight, and its image,
    # before and after cancelling, at most width x the largest U weight
    top = max(width * int(max(num_u)), max_len * int(max(num_t)))
    if top >= 1 << 63:
        raise ResourceLimitError(
            "weighted lengths up to %d do not fit in the 2^63 bound of "
            "int64" % top)
    # imgs[c, :lens[c]] is the image of letter code c, zero-padded to twice
    # the longest image so that k_max letters read from any cancelled
    # offset stay in its row; pre_u[c, i] weighs its first i letters in U,
    # and letter_t weighs the letter itself in T
    imgs = np.zeros((2 * rank, 2 * k_max), dtype=np.int8)
    for c in range(2 * rank):
        imgs[c, :lens[c]] = flat[starts[c]:starts[c] + lens[c]]
    w_u = np.array([0, *num_u], dtype=np.int64)
    pre_u = np.zeros((2 * rank, 2 * k_max + 1), dtype=np.int64)
    np.cumsum(w_u[np.abs(imgs)], axis=1, out=pre_u[:, 1:])
    img_flat, neg_flat, pre_flat = imgs.ravel(), -imgs.ravel(), pre_u.ravel()
    whole_u = pre_u[:, -1]
    letter_t = np.repeat(np.asarray(num_t, dtype=np.int64), 2)

    def grow(stack, m, u, t, p, c):
        """Rows, row lengths and weighted lengths of the words p c: p
        indexes the parents' rows, c is the appended letter's code."""
        mp, k = m[p], lens[c]
        child = stack.take(p, axis=0)
        flat_child = child.reshape(-1)
        # seam: the image of c cancels against the reversed, inverted tail
        # of the parent's row up to their first mismatch
        last_letter = np.arange(0, len(p) * width, width) + mp - 1
        src = c * (2 * k_max)
        lim = np.minimum(mp, k)
        j = np.zeros(len(p), dtype=np.int64)
        live = np.flatnonzero((flat_child[last_letter] == neg_flat[src])
                              & (lim > 0))
        while live.size:
            j[live] += 1
            live = live[j[live] < lim[live]]
            jl = j[live]
            live = live[flat_child[last_letter[live] - jl]
                        == neg_flat[src[live] + jl]]
        # the rest of the image overwrites the cancelled tail; the padding
        # lands past the new row's end
        end = last_letter + 1 - j
        src += j
        for col in range(k_max):
            flat_child[end + col] = img_flat[src + col]
        return (child, mp + k - 2 * j,
                u[p] + whole_u[c] - 2 * pre_flat[c * pre_u.shape[1] + j],
                t[p] + letter_t[c])

    def peel(stack, m, u, rows):
        """Weighted cyclic lengths of the given reduced rows: a reduced row
        is s x s^-1 with x cyclically reduced, so peel s and s^-1."""
        flat = stack.reshape(-1)
        u_core = u[rows]
        head = rows * width
        tail = head + m[rows] - 1
        live = np.flatnonzero(flat[head] == -flat[tail])
        while live.size:
            u_core[live] -= 2 * w_u[np.abs(flat[head[live]])]
            head[live] += 1
            tail[live] -= 1
            live = live[tail[live] > head[live]]
            live = live[flat[head[live]] == -flat[tail[live]]]
        return u_core

    # a chunk: the rows of prenecklaces lo..hi-1 of length n, the empty
    # word at n = 0, with their row lengths and weighted lengths
    zero = np.zeros(1, dtype=np.int64)
    pending = [(0, 0, 1, np.zeros((1, width), dtype=np.int8), zero, zero,
                zero)]
    while pending:
        n, lo, hi, stack, m, u, t = pending.pop()
        parent, code, keep = tree[n]
        first, last = np.searchsorted(parent, (lo, hi))
        if ((last - first) * (width + 8 * _NODE_VECTORS) > _CHUNK_BYTES
                and hi - lo > 1):
            mid = (hi - lo) // 2
            pending.append((n, lo + mid, hi, stack[mid:], m[mid:], u[mid:],
                            t[mid:]))
            pending.append((n, lo, lo + mid, stack[:mid], m[:mid], u[:mid],
                            t[:mid]))
            continue
        # the longest words have no children: only their necklaces count
        nodes = np.arange(first, last)
        if n + 1 == max_len:
            nodes = nodes[keep[first:last]]
        child, m_child, u_child, t_child = grow(
            stack, m, u, t, parent[nodes] - lo, code[nodes].astype(np.int64))
        rows = np.flatnonzero(keep[nodes])
        yield (n + 1, nodes[rows], t_child[rows],
               peel(child, m_child, u_child, rows))
        if n + 1 < max_len:
            pending.append((n + 1, first, last, child, m_child, u_child,
                            t_child))
        # free this chunk's arrays before the next chunk builds its own
        del nodes, rows, child, m_child, u_child, t_child


def brute_force_max_stretch(t, u, max_len):
    """Exact sup of ‖g‖_U/‖g‖_T over nontrivial classes with ‖g‖_T-core
    length ≤ max_len, by full enumeration (no candidate shortcut)."""
    if t.rank != u.rank:
        raise RankError("points live in different ranks")
    if max_len < 1:
        raise ValueError("max_len must be at least 1, got %d" % max_len)
    # translate to T having identity marking (the action is by isometries)
    theta = fg.compose(t.marking.inverted(), u.marking)

    den_t = math.lcm(*(l.denominator for l in t.lengths))
    num_t = [int(l * den_t) for l in t.lengths]
    den_u = math.lcm(*(l.denominator for l in u.lengths))
    num_u = [int(l * den_u) for l in u.lengths]

    # of the classes of one weighted T-length, only the longest in U can
    # hold the maximum: keep that one per T-length, then compare exactly
    best = {}
    for _, _, t_len, u_len in _necklace_lengths(
            t.rank, max_len, theta.inverted(), num_t, num_u):
        order = np.argsort(t_len)
        t_len = t_len[order]
        starts = np.flatnonzero(np.concatenate(([True],
                                                t_len[1:] != t_len[:-1])))
        top = np.maximum.reduceat(u_len[order], starts)
        for t_key, u_top in zip(t_len[starts].tolist(), top.tolist()):
            best[t_key] = max(best.get(t_key, 0), u_top)
    return max(Fraction(u_len * den_t, t_len * den_u)
               for t_len, u_len in best.items())
