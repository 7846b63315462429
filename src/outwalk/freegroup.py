"""Exact algebra in the free group F_N.

Words are 1-D numpy arrays of signed letters: +i encodes the i-th basis
letter, -i its inverse, with 1 <= i <= rank <= 16 (so a letter always fits
in one signed byte).  The string form uses "a".."p" for positive letters
and "A".."P" for their inverses, e.g. "abA" is a * b * a^-1.

Every function that returns a word returns it freely reduced and marked
read-only; words are values, never mutated in place.

Many words can sit in one separated array, each followed by SEPARATOR
(join).  SEPARATOR is never a letter's inverse, so reduce never cancels
across it and reduces each word on its own; apply_segments and
cyclic_lengths act on every word of such an array at once.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

MAX_RANK = 16
LETTER_DTYPE = np.int8

_EMPTY = np.zeros(0, dtype=LETTER_DTYPE)
_EMPTY.flags.writeable = False

# below this size the plain-Python paths beat numpy call overhead
_SMALL = 64

# pairs cyclic_lengths peels a round at a time before it scans the words
# still peeling whole
_PEEL_ROUNDS = 8

# ends each word of a separated array: no letter's inverse, nor its own
SEPARATOR = 127
_SEPARATOR = np.array([SEPARATOR], dtype=LETTER_DTYPE)


class RankError(ValueError):
    """A letter falls outside the stated rank, or operand ranks disagree."""


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def as_word(letters):
    """Coerce to a letter array without reducing; validates letter values."""
    w = np.asarray(letters, dtype=LETTER_DTYPE)
    if w.ndim != 1:
        raise ValueError("a word must be one-dimensional")
    if len(w) <= _SMALL:
        lst = w.tolist()
        zero = 0 in lst
        wide = bool(lst) and max(max(lst), -min(lst)) > MAX_RANK
    else:
        zero = not w.all()
        wide = int(np.abs(w).max()) > MAX_RANK
    if zero:
        raise ValueError("letter 0 is not a generator")
    if wide:
        raise RankError("letters beyond rank %d are not supported" % MAX_RANK)
    if w.flags.writeable:
        w = w.copy()
    return _freeze(w)


def check_rank(w, rank):
    if not 2 <= rank <= MAX_RANK:
        raise RankError("rank must lie in [2, %d], got %r" % (MAX_RANK, rank))
    if len(w) and int(np.abs(w).max()) > rank:
        raise RankError("word uses letters beyond rank %d" % rank)


def parse_word(text):
    """Parse a word literal like "abA" into a reduced letter array."""
    out = []
    for ch in text:
        if "a" <= ch <= "p":
            out.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "P":
            out.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError("bad letter %r in word literal %r" % (ch, text))
    return reduce(out)


def format_word(w):
    """Inverse of parse_word; the empty word renders as ""."""
    chars = []
    for v in np.asarray(w):
        v = int(v)
        if v > 0:
            chars.append(chr(ord("a") + v - 1))
        else:
            chars.append(chr(ord("A") - v - 1))
    return "".join(chars)


def _reduce_list(letters):
    # classic stack reduction, linear time
    stack = []
    for v in letters:
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return stack


def _cancel_pass(w):
    # one vectorized round: drop a maximal non-overlapping set of adjacent
    # inverse pairs; repeating to a fixed point yields the reduced word
    # (free reduction is confluent, so the order of cancellations is free).
    m = w[:-1] == -w[1:]
    idx = m.nonzero()[0]
    if idx.size == 0:
        return w, False
    is_start = np.empty(idx.size, dtype=bool)
    is_start[0] = True
    np.greater(idx[1:], idx[:-1] + 1, out=is_start[1:])
    anchor = np.where(is_start, idx, 0)
    np.maximum.accumulate(anchor, out=anchor)
    sel = idx[((idx - anchor) & 1) == 0]
    keep = np.ones(len(w), dtype=bool)
    keep[sel] = False
    keep[sel + 1] = False
    return w[keep], True


def reduce(letters):
    """Freely reduce a letter sequence; on a separated int8 array, each of
    its words."""
    if isinstance(letters, np.ndarray) and letters.dtype == LETTER_DTYPE:
        w = letters
    else:
        w = as_word(letters)
    if len(w) < 2:
        return _freeze(w.copy()) if w.flags.writeable else w
    if len(w) <= _SMALL:
        return _freeze(np.array(_reduce_list(w.tolist()), dtype=LETTER_DTYPE))
    changed = True
    while changed and len(w) >= 2:
        w, changed = _cancel_pass(w)
    return _freeze(w) if w.flags.writeable else _freeze(w.copy())


def is_reduced(w):
    w = np.asarray(w)
    if len(w) <= _SMALL:
        lst = w.tolist()
        return all(x != -y for x, y in zip(lst, lst[1:]))
    return not (w[:-1] == -w[1:]).any()


def inverse(w):
    return _freeze((-np.asarray(w, dtype=LETTER_DTYPE))[::-1].copy())


def concat(*words):
    """Reduced product of already-reduced words."""
    parts = [np.asarray(w, dtype=LETTER_DTYPE) for w in words if len(w)]
    if not parts:
        return _EMPTY
    return reduce(np.concatenate(parts))


def join(words):
    """Words end to end, each followed by SEPARATOR."""
    parts = []
    for w in words:
        parts += [np.asarray(w, dtype=LETTER_DTYPE), _SEPARATOR]
    return np.concatenate(parts) if parts else _EMPTY


def segment_lengths(w):
    """The length of each word of separated w."""
    ends = (w == SEPARATOR).nonzero()[0]
    lens = ends.copy()
    lens[1:] -= ends[:-1] + 1
    return lens


def split(w):
    """The words of separated w."""
    ends = np.flatnonzero(w == SEPARATOR).tolist()
    return [w[a + 1:b] for a, b in zip([-1] + ends, ends)]


def common_prefix_len(u, v):
    """Length of the common prefix of two words, each a letter array or
    int8 bytes."""
    if not (isinstance(u, bytes) and isinstance(v, bytes)):
        u = np.asarray(u)
        v = np.asarray(v)
        n = min(len(u), len(v))
        if n > _SMALL:
            hit = np.flatnonzero(u[:n] != v[:n])
            return int(hit[0]) if hit.size else n
        u = u[:n].astype(LETTER_DTYPE, copy=False).tobytes()
        v = v[:n].astype(LETTER_DTYPE, copy=False).tobytes()
    if len(u) > len(v):
        u, v = v, u
    # the first differing byte is the top nonzero byte of the xor
    x = int.from_bytes(u, "big") ^ int.from_bytes(v[:len(u)], "big")
    return len(u) - (x.bit_length() + 7) // 8


def row_prefix(rows, ref, n):
    """common_prefix_len of each row with ref (broadcast along the last
    axis) over their common width, at least 1, capped at the row's n."""
    width = min(rows.shape[-1], ref.shape[-1])
    off = rows[..., :width] != ref[..., :width]
    first = off.argmax(axis=-1)
    # argmax is 0 both where column 0 differs and where no column does
    return np.minimum(n, np.where((first == 0) & ~off[..., 0], width, first))


def _peel(w):
    """w as a letter array and k, the pairs peeled from its ends: reduced w
    is s * c * s^-1 with |s| = k and c cyclically reduced."""
    w = np.asarray(w, dtype=LETTER_DTYPE)
    n = len(w)
    half = n // 2
    k = 0
    if n <= _SMALL:
        lst = w.tolist()
        while k < half and lst[k] == -lst[n - 1 - k]:
            k += 1
    elif half:
        eq = w[:half] == -w[::-1][:half]
        bad = np.flatnonzero(~eq)
        k = int(bad[0]) if bad.size else half
    # a reduced word cannot cancel across its own midpoint
    if half and 2 * k == n:
        raise ValueError("input word is not freely reduced")
    return w, k


def cyclic_reduce(w):
    """Split reduced w as (cyclic part, conjugator): w = s * c * s^-1."""
    w, k = _peel(w)
    return _freeze(w[k:len(w) - k].copy()), _freeze(w[:k].copy())


def cyclic_length(w):
    """Length of the cyclic reduction; conjugation-invariant."""
    w, k = _peel(w)
    return len(w) - 2 * k


def cyclic_lengths(w, lens):
    """cyclic_length of each word of separated, reduced w; lens are their
    lengths.

    Most words peel no letter, and those that do peel few: each word's end
    letters are tested first, then those of the words whose ends cancelled,
    a pair a round, for at most _PEEL_ROUNDS rounds.  The words still
    peeling after that are scanned from both ends to their middles at once,
    where a reduced word stops peeling.  An empty word's ends are the
    separators around it, which never cancel."""
    ends = (lens + 1).cumsum() - 1
    i, j = ends - lens, ends - 1    # each word's first and last letter
    out = lens.copy()
    act = np.arange(len(lens))
    for _ in range(_PEEL_ROUNDS):
        more = (w[i] == -w[j]).nonzero()[0]
        if not len(more):
            return out
        act, i, j = act[more], i[more] + 1, j[more] - 1
        out[act] -= 2
    # the middle letter of i..j, or its middle pair, stops the scan
    size = (j - i + 2) >> 1
    first = size.cumsum() - size
    pos = (i - first).repeat(size)
    pos += np.arange(len(pos))
    mirror = (i + j).repeat(size) - pos
    stop = (w[pos] != -w[mirror]).nonzero()[0]
    out[act] -= 2 * (stop[stop.searchsorted(first)] - first)
    return out


def letter_code(v):
    # total order a1 < a1^-1 < a2 < a2^-1 < ... used for canonical rotations
    return ((abs(v) - 1) << 1) | (v < 0)


def _least_rotation(codes):
    # Booth's algorithm; returns the start index of the least rotation
    s = codes + codes
    n2 = len(s)
    f = [-1] * n2
    k = 0
    for j in range(1, n2):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def canonical_rotation(w):
    """Lexicographically least rotation of a cyclically reduced word."""
    w = np.asarray(w, dtype=LETTER_DTYPE)
    if len(w) < 2:
        return _freeze(w.copy())
    if len(w) and w[0] == -w[-1]:
        raise ValueError("word is not cyclically reduced")
    r = _least_rotation([letter_code(int(v)) for v in w])
    return _freeze(np.concatenate((w[r:], w[:r])))


def cyclic_word(w):
    """Canonical representative of the conjugacy class of w."""
    core, _ = cyclic_reduce(reduce(w))
    return canonical_rotation(core)


def word_key(w):
    """Hashable identity for a word (bytes of its letters)."""
    return np.asarray(w, dtype=LETTER_DTYPE).tobytes()


def occurrence_counts(w, rank):
    """Counts of a_i^{+1} plus a_i^{-1} occurrences, indexed 0..rank-1."""
    w = np.asarray(w)
    return np.bincount(np.abs(w).astype(np.intp), minlength=rank + 1)[1:rank + 1]


def exponent_sums(w, rank):
    """Abelianization of w: signed count of each basis letter, 1..rank."""
    w = np.asarray(w)
    return tuple(int(np.count_nonzero(w == i)) - int(np.count_nonzero(w == -i))
                 for i in range(1, rank + 1))


def random_reduced_word(rng, rank, length):
    """Uniform reduced word of exactly the given length.

    Letters are drawn by index in the order a1, a1^-1, a2, a2^-1, ...: the
    first among all 2 rank letters, each later one among the 2 rank - 1
    that are not the inverse of the letter before it."""
    if length == 0:
        return _EMPTY
    gens = np.array([g for i in range(1, rank + 1) for g in (i, -i)],
                    dtype=LETTER_DTYPE)
    codes = [int(rng.integers(2 * rank))]
    for j in rng.integers(2 * rank - 1, size=length - 1).tolist():
        # skip the code of the previous letter's inverse (its code ^ 1)
        codes.append(j + (j >= (codes[-1] ^ 1)))
    return _freeze(gens[codes])


# ---------------------------------------------------------------------------
# automorphisms

_TRACE_RE = re.compile(r"^(R|L):(\d+):(\d+):([+-])$|^(I):(\d+)$|^(T):(\d+):(\d+)$")


class Automorphism:
    """An automorphism of F_N assembled from elementary moves.

    Instances always carry both directions (forward and inverse images of
    the basis), so inversion is free and never requires a decision
    procedure.
    """

    __slots__ = ("rank", "forward", "inverse", "_lists", "_arrays",
                 "_inverted", "_inverse_lists")

    def __init__(self, rank, forward, inverse):
        if not 2 <= rank <= MAX_RANK:
            raise RankError("rank must lie in [2, %d]" % MAX_RANK)
        if len(forward) != rank or len(inverse) != rank:
            raise ValueError("need one image per basis letter")
        forward = tuple(as_word(w) for w in forward)
        inverse = tuple(as_word(w) for w in inverse)
        for w in forward + inverse:
            check_rank(w, rank)
        self._setup(rank, forward, inverse)
        if __debug__:
            self._verify_round_trip()

    @classmethod
    def _trusted(cls, rank, forward, inverse):
        """Build from images this module produced itself: read-only reduced
        letter arrays within the rank, so only the round trip is checked."""
        self = object.__new__(cls)
        self._setup(rank, tuple(forward), tuple(inverse))
        if __debug__:
            self._verify_round_trip()
        return self

    def _setup(self, rank, forward, inverse):
        self.rank = rank
        self.forward = forward
        self.inverse = inverse
        # image tables are built on first use: the Python lists serve words
        # of up to _SMALL letters, the numpy gather arrays longer ones
        self._lists = None
        self._arrays = None
        self._inverted = None
        # the round trip's table of inverse images: the twin's _lists
        self._inverse_lists = None

    # The round trip gathers an inverse image for every letter of every
    # forward image, so its cost is quadratic in image size.  Composites of
    # long random walks reach millions of letters per image; past this work
    # budget the check is skipped and correctness rests on the constructors.
    _VERIFY_BUDGET = 1 << 22

    def _verify_round_trip(self):
        total = sum(len(w) for w in self.forward)
        widest = max(len(w) for w in self.inverse)
        if total * max(widest, 1) > self._VERIFY_BUDGET:
            return
        table = _letter_images([w.tolist() for w in self.inverse])
        for i, w in enumerate(self.forward, 1):
            if _image_list(table, w.tolist()) != [i]:
                raise ValueError("forward and inverse images do not invert "
                                 "each other at a_%d" % i)
        self._inverse_lists = table

    # -- identity / elementary constructors

    @classmethod
    def identity(cls, rank):
        basis = [np.array([i], dtype=LETTER_DTYPE) for i in range(1, rank + 1)]
        return cls(rank, basis, list(basis))

    def __repr__(self):
        imgs = "; ".join("%s>%s" % (format_word([i + 1]), format_word(w))
                         for i, w in enumerate(self.forward))
        return "<Automorphism %s>" % imgs

    # -- application

    def _image_lists(self):
        """Letter -> image as a list, for every letter and its inverse."""
        if self._lists is None:
            self._lists = _letter_images([w.tolist() for w in self.forward])
        return self._lists

    def _image_arrays(self):
        """Concatenated images, ordered by letter code, with starts and lengths."""
        if self._arrays is None:
            rows = []
            for img in self.forward:
                rows.append(img)
                rows.append(-img[::-1])
            lens = np.array([len(r) for r in rows], dtype=np.int64)
            flat = (np.concatenate(rows) if lens.sum()
                    else np.zeros(0, dtype=LETTER_DTYPE))
            starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
            self._arrays = (flat, starts, lens)
        return self._arrays

    def apply(self, w):
        """Image of the word under the automorphism (reduced)."""
        w = np.asarray(w, dtype=LETTER_DTYPE)
        if len(w) == 0:
            return _EMPTY
        if len(w) <= _SMALL:
            try:
                out = _image_list(self._image_lists(), w.tolist())
            except KeyError:
                raise RankError("word uses letters beyond rank %d"
                                % self.rank) from None
            return _freeze(np.array(out, dtype=LETTER_DTYPE))
        if int(np.abs(w).max()) > self.rank:
            raise RankError("word uses letters beyond rank %d" % self.rank)
        codes = ((np.abs(w).astype(np.intp) - 1) << 1) | (w < 0)
        return reduce(_gather(self._image_arrays(), codes))

    def apply_inverse(self, w):
        return self.inverted().apply(w)

    def inverted(self):
        """The inverse automorphism; built unchecked, as the round trip
        that checked this one proves both (F_N is Hopfian)."""
        if self._inverted is None:
            inv = object.__new__(Automorphism)
            inv._setup(self.rank, self.inverse, self.forward)
            inv._lists, self._inverse_lists = self._inverse_lists, None
            inv._inverted = self
            self._inverted = inv
        return self._inverted


def _letter_images(images):
    """Letter -> image as a list, from the basis letters' images as lists."""
    table = {}
    for i, img in enumerate(images, 1):
        table[i] = img
        table[-i] = [-v for v in reversed(img)]
    return table


def _image_list(table, letters):
    """The reduced image of a letter list under a letter -> image table."""
    out = []
    for v in letters:
        out.extend(table[v])
    return _reduce_list(out)


def _gather(images, codes):
    """Ragged gather: the images of codes end to end, from images = (flat,
    starts, lens), image c being flat[starts[c]:starts[c] + lens[c]]."""
    flat, starts, lens = images
    lens_pp = lens[codes]
    ends = np.cumsum(lens_pp)
    # out[k] = flat[starts[code of its source letter] + offset]: k less
    # the output start of that letter's image
    pos = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
    pos += np.repeat(starts[codes] - ends + lens_pp, lens_pp)
    return flat[pos]


# the codes of one automorphism in an image table: a letter's letter_code,
# and the separator last
_TABLE_WIDTH = 2 * MAX_RANK + 1
_CODES = np.zeros(256, dtype=np.intp)       # by the letter's byte
for _v in range(1, MAX_RANK + 1):
    _CODES[_v], _CODES[256 - _v] = letter_code(_v), letter_code(-_v)
_CODES[SEPARATOR] = _TABLE_WIDTH - 1

# the longest images segment_table pads: a padded row of this many int8
# letters takes no more bytes than the int64 position a ragged gather
# keeps for each letter it writes
_PADDED = 8


def image_table(autos):
    """The images of every letter under each automorphism, ragged, by code:
    (flat, starts, lens), the image of code c = atom * _TABLE_WIDTH + the
    letter's letter_code being flat[starts[c]:starts[c] + lens[c]]; the
    separator, code _TABLE_WIDTH - 1 of each atom, is its own image."""
    lens = np.zeros((len(autos), _TABLE_WIDTH), dtype=np.int64)
    flats = []
    for row, phi in zip(lens, autos):
        flat, _, row[:2 * phi.rank] = phi._image_arrays()
        flats += [flat, _SEPARATOR]
        row[-1] = 1
    lens = lens.ravel()
    return np.concatenate(flats), np.cumsum(lens) - lens, lens


def segment_table(autos):
    """The table apply_segments reads.  When no image is longer than
    _PADDED letters, the images padded with 0, which is no letter, into
    the rows of one int8 array, row (atom << 8) + the letter's byte;
    otherwise image_table(autos)."""
    flat, starts, lens = table = image_table(autos)
    width = int(lens.max())
    if width > _PADDED:
        return table
    col = np.arange(width)
    inside = col < lens[:, None]
    by_code = np.zeros((len(lens), width), dtype=LETTER_DTYPE)
    by_code[inside] = flat[(starts[:, None] + col)[inside]]
    atoms = np.arange(len(autos))[:, None] * _TABLE_WIDTH
    return by_code[(atoms + _CODES).ravel()]


def apply_segments(table, w, lens, atoms):
    """Each word s of separated w, of lens[s] letters, under automorphism
    atoms[s] of table = segment_table(autos) (or image_table(autos));
    reduced and separated."""
    atoms = np.asarray(atoms, dtype=np.intp)
    if isinstance(table, np.ndarray):       # padded: a row per letter
        rows = (atoms << 8).repeat(lens + 1)
        rows |= w.view(np.uint8)
        out = table.take(rows, axis=0).ravel()
        # compress, unlike a boolean index, costs the same whatever the
        # pattern of the padding
        return reduce(out.compress(out != 0))
    codes = (atoms * _TABLE_WIDTH).repeat(lens + 1)
    codes += _CODES[w.view(np.uint8)]
    return reduce(_gather(table, codes))


@lru_cache(maxsize=None)
def elementary(move, rank):
    """The elementary automorphism of F_rank with the given move id.

    Move ids:
      "R:i:j:+"  a_i -> a_i a_j        "R:i:j:-"  a_i -> a_i a_j^-1
      "L:i:j:+"  a_i -> a_j a_i        "L:i:j:-"  a_i -> a_j^-1 a_i
      "I:i"      a_i -> a_i^-1
      "T:i:j"    swap a_i and a_j
    Indices are 1-based and i != j is required for the multiply kinds.
    Automorphisms are immutable, so each (move, rank) is built once.
    """
    m = _TRACE_RE.match(move)
    if not m:
        raise ValueError("bad elementary move id %r" % move)
    basis = [np.array([i], dtype=LETTER_DTYPE) for i in range(1, rank + 1)]
    fwd = list(basis)
    inv = list(basis)

    def _check(i, j=None):
        if not 1 <= i <= rank or (j is not None and not 1 <= j <= rank):
            raise RankError("move %r does not fit rank %d" % (move, rank))

    if m.group(1):  # R or L
        kind, i, j = m.group(1), int(m.group(2)), int(m.group(3))
        sign = 1 if m.group(4) == "+" else -1
        _check(i, j)
        if i == j:
            raise ValueError("multiply moves need i != j, got %r" % move)
        if kind == "R":
            fwd[i - 1] = as_word([i, sign * j])
            inv[i - 1] = as_word([i, -sign * j])
        else:
            fwd[i - 1] = as_word([sign * j, i])
            inv[i - 1] = as_word([-sign * j, i])
    elif m.group(5):  # I
        i = int(m.group(6))
        _check(i)
        fwd[i - 1] = as_word([-i])
        inv[i - 1] = as_word([-i])
    else:  # T
        i, j = int(m.group(8)), int(m.group(9))
        _check(i, j)
        fwd[i - 1], fwd[j - 1] = basis[j - 1], basis[i - 1]
        inv[i - 1], inv[j - 1] = basis[j - 1], basis[i - 1]
    return Automorphism(rank, fwd, inv)


def compose(phi, psi):
    """The composite phi after psi: (compose(phi, psi))(w) = phi(psi(w))."""
    if phi.rank != psi.rank:
        raise RankError("cannot compose automorphisms of different rank")
    fwd = [phi.apply(w) for w in psi.forward]
    inv = [psi.apply_inverse(w) for w in phi.inverse]
    return Automorphism._trusted(phi.rank, fwd, inv)


def from_trace(rank, moves):
    """Compose elementary moves left to right: the last move acts last.

    The images are composed as letter lists, and the result is checked
    once.  phi = m_k o ... o m_1 is built from the right (m_k, then
    m_k o m_k-1, ...) and phi^-1 = m_1^-1 o ... o m_k^-1 from the left, so
    each step precomposes with one move and rewrites only the images of
    the letters that move does not fix."""
    if len(moves) < 2:
        return (elementary(moves[0], rank) if moves
                else Automorphism.identity(rank))
    inv = [[i] for i in range(1, rank + 1)]
    for mv in moves:
        _precompose(inv, _moved(mv, rank)[1])
    fwd = [[i] for i in range(1, rank + 1)]
    for mv in reversed(moves):
        _precompose(fwd, _moved(mv, rank)[0])
    phi = Automorphism._trusted(
        rank, [_freeze(np.array(w, dtype=LETTER_DTYPE)) for w in fwd],
        [_freeze(np.array(w, dtype=LETTER_DTYPE)) for w in inv])
    phi._lists = _letter_images(fwd)
    return phi


@lru_cache(maxsize=None)
def _moved(move, rank):
    """The letters an elementary move does not fix, each with its image as
    a tuple: (i, m(a_i)) pairs for m, then for m^-1."""
    m = elementary(move, rank)
    return tuple(tuple((i, tuple(w.tolist())) for i, w in enumerate(side, 1)
                       if w.tolist() != [i])
                 for side in (m.forward, m.inverse))


def _precompose(images, moved):
    """images, the basis letters' images as lists, become those of the map
    precomposed with a move m, given m's moved letters (i, m(a_i))."""
    new = []
    for i, w in moved:
        out = []
        for v in w:
            out.extend(images[v - 1] if v > 0
                       else [-u for u in reversed(images[-v - 1])])
        new.append((i, _reduce_list(out)))
    for i, img in new:
        images[i - 1] = img


def random_automorphism(rng, rank, n_moves):
    """Random composition of elementary moves (for tests and probes)."""
    moves = []
    kinds = ("R", "L", "I", "T")
    for _ in range(n_moves):
        kind = kinds[rng.integers(4)]
        i = int(rng.integers(1, rank + 1))
        if kind in ("R", "L"):
            j = int(rng.integers(1, rank))
            if j >= i:
                j += 1
            sign = "+" if rng.integers(2) else "-"
            moves.append("%s:%d:%d:%s" % (kind, i, j, sign))
        elif kind == "I":
            moves.append("I:%d" % i)
        else:
            j = int(rng.integers(1, rank))
            if j >= i:
                j += 1
            moves.append("T:%d:%d" % (i, j))
    return from_trace(rank, moves)


# ---------------------------------------------------------------------------
# primitive elements of F2

@lru_cache(maxsize=None)
def _whitehead_f2():
    # the Whitehead automorphisms of F2 that can change cyclic length: x is
    # fixed and the other generator y goes to yx, x^-1 y or x^-1 y x
    autos = []
    for x in (1, -1, 2, -2):
        y = 3 - abs(x)
        for img, back in (([y, x], [y, -x]), ([-x, y], [x, y]),
                          ([-x, y, x], [x, y, -x])):
            fwd = [[1], [2]]
            inv = [[1], [2]]
            fwd[y - 1] = img
            inv[y - 1] = back
            autos.append(Automorphism(2, fwd, inv))
    return tuple(autos)


@lru_cache(maxsize=4096)
def _primitive_f2(key):
    core, _ = cyclic_reduce(np.frombuffer(key, dtype=LETTER_DTYPE))
    # peak reduction: a cyclic word that is not shortest in its Aut(F2)
    # orbit is shortened by some Whitehead automorphism, and the orbit of
    # a primitive class contains a single letter
    while len(core) > 1:
        for phi in _whitehead_f2():
            img, _ = cyclic_reduce(phi.apply(core))
            if len(img) < len(core):
                core = img
                break
        else:
            return False
    return len(core) == 1


def is_primitive_f2(w):
    """Whether w lies in some basis of F2 (Whitehead's algorithm)."""
    w = reduce(w)
    check_rank(w, 2)
    return _primitive_f2(word_key(w))
