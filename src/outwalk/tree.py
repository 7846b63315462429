"""The Cayley tree of F_N as an exactly-computable hyperbolic model.

Vertices are reduced words, the boundary is the space of infinite reduced
words, and delta = 0: Gromov products are common-prefix lengths, so every
coarse inequality of hyperbolic geometry here is an exact integer identity.
Boundary points come in two flavors: eventually periodic (exact, supports
the group action) and truncated (a certified finite prefix of an otherwise
unknown point, as produced by sampled random walks).
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass

import numpy as np

from . import freegroup as fg
from . import stats


class DepthError(ValueError):
    """A truncated boundary point is too shallow to decide the query."""


class _InfiniteProduct:
    """Tagged infinity returned by gromov_product on equal boundary points."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "InfiniteProduct"

    def __bool__(self):
        return True


INFINITE = _InfiniteProduct()


def is_infinite(x):
    return x is INFINITE


class BoundaryPoint:
    """A point of the tree boundary: an infinite reduced letter stream.

    Either eventually periodic (preperiod u then period p repeated forever,
    exact; depth None) or truncated (only the first `depth` letters are
    known).
    The letters are held once, as int8 bytes: the preperiod, the period and
    a stream prefix grown on demand (periodic), or the certified prefix
    (truncated).  The array attributes are read-only views of those bytes.
    """

    __slots__ = ("_pre", "_per", "_stream", "depth")

    def __init__(self, stream, period=None):
        """Trusted constructor on reduced int8 bytes: the truncated point
        certified through all of stream or, given a period, the periodic
        point with preperiod stream, both seams reduced."""
        self._pre = stream
        self._per = period
        self._stream = stream   # periodic: longest stream prefix built
        self.depth = None if period is not None else len(stream)

    def __reduce__(self):
        # the bytes only: the grown stream is rebuilt on demand
        return (BoundaryPoint, (self._pre, self._per))

    # -- constructors

    @classmethod
    def periodic(cls, preperiod, period):
        pre = fg.as_word(preperiod)
        per = fg.as_word(period)
        if len(per) == 0:
            raise ValueError("period must be nonempty")
        if not fg.is_reduced(pre) or not fg.is_reduced(per):
            raise ValueError("preperiod and period must be reduced")
        if per[0] == -per[-1]:
            raise ValueError("period must be cyclically reduced")
        if len(pre) and pre[-1] == -per[0]:
            raise ValueError("preperiod does not join the period reducedly")
        return cls(pre.tobytes(), per.tobytes())

    @classmethod
    def truncated(cls, prefix, depth=None):
        pre = fg.as_word(prefix)
        if not fg.is_reduced(pre):
            raise ValueError("prefix must be reduced")
        if depth is None:
            depth = len(pre)
        if not 0 <= depth <= len(pre):
            raise ValueError("certified depth must lie in [0, len(prefix)]")
        # only the certified letters are kept; the rest are unreliable
        return cls(pre[:depth].tobytes())

    @property
    def is_periodic(self):
        return self._per is not None

    @property
    def preperiod(self):
        return None if self._per is None else _view(self._pre)

    @property
    def period(self):
        return None if self._per is None else _view(self._per)

    @property
    def prefix(self):
        return _view(self._stream) if self._per is None else None

    def _head(self, n):
        """Bytes holding the first n letters or more (periodic), or all the
        certified letters (truncated)."""
        s = self._stream
        if n > len(s) and self._per is not None:
            # grow geometrically so that repeated queries stay cheap
            want = max(n, 2 * len(s))
            s = self._pre + self._per * ((want - len(self._pre))
                                         // len(self._per) + 1)
            self._stream = s
        return s

    def letter(self, k):
        """The k-th letter (0-based) of the stream."""
        if self._per is not None:
            pre, per = self._pre, self._per
            v = pre[k] if k < len(pre) else per[(k - len(pre)) % len(per)]
        elif k >= self.depth:
            raise DepthError("letter %d beyond certified depth %d" % (k, self.depth))
        else:
            v = self._stream[k]
        return (v ^ 0x80) - 0x80   # the byte as a signed letter

    def letters(self, n):
        """First n letters as a read-only array (n within certified depth)."""
        if self._per is None and n > self.depth:
            raise DepthError("need %d letters, certified only %d" % (n, self.depth))
        return _view(self._head(n))[:n]

    def __repr__(self):
        if self.is_periodic:
            return "<Boundary %s(%s)^inf>" % (fg.format_word(self.preperiod),
                                              fg.format_word(self.period))
        return "<Boundary %s... depth %d>" % (fg.format_word(self.prefix), self.depth)


def _view(b):
    return np.frombuffer(b, dtype=fg.LETTER_DTYPE)


_BD_PERIODIC = re.compile(r"^\s*(?:pre:(\S*)\s+)?per:(\S+)\s*$")
_BD_TRUNC = re.compile(r"^\s*prefix:(\S*)(?:\s+depth:(\d+))?\s*$")


def parse_boundary(text):
    """Parse "per:ab", "pre:a per:ba", or "prefix:abab depth:4".

    The prefix may be empty ("prefix: depth:0"), as format_boundary writes
    a truncated point of depth 0."""
    m = _BD_PERIODIC.match(text)
    if m:
        pre = fg.parse_word(m.group(1) or "")
        return BoundaryPoint.periodic(pre, fg.parse_word(m.group(2)))
    m = _BD_TRUNC.match(text)
    if m:
        depth = int(m.group(2)) if m.group(2) else None
        return BoundaryPoint.truncated(fg.parse_word(m.group(1)), depth)
    raise ValueError("bad boundary literal %r" % text)


def format_boundary(xi):
    if xi.is_periodic:
        if len(xi.preperiod):
            return "pre:%s per:%s" % (fg.format_word(xi.preperiod),
                                      fg.format_word(xi.period))
        return "per:%s" % fg.format_word(xi.period)
    return "prefix:%s depth:%d" % (fg.format_word(xi.prefix), xi.depth)


# ---------------------------------------------------------------------------
# metric structure
#
# The calculus runs on int8 bytes: a word is reduced once into bytes (a
# bytes argument is taken to be such a reduced word already), its inverse
# is a byte translation reversed, and every product is a common prefix of
# bytes.

_NEG = bytes(-b & 0xFF for b in range(256))   # byte of v -> byte of -v


def _word_bytes(w):
    """The reduced word w as int8 bytes."""
    if isinstance(w, bytes):
        return w
    if (isinstance(w, np.ndarray) and w.dtype == fg.LETTER_DTYPE
            and len(w) <= fg._SMALL):
        return array("b", fg._reduce_list(w.tolist())).tobytes()
    return fg.reduce(w).tobytes()


def _inverse(b):
    return b.translate(_NEG)[::-1]


def _stream_prefix_with_word(w, xi):
    """Common prefix length of a finite word (bytes) with a boundary stream.

    Raises DepthError when xi is truncated and agrees with w up to its whole
    certified depth with w still unfinished."""
    c = fg.common_prefix_len(w, xi._head(len(w)))
    if c == xi.depth and c < len(w):
        raise DepthError("match reaches certified depth %d of a truncated "
                         "boundary point" % xi.depth)
    return c


def _stream_prefix_pair(x, y):
    """Common prefix of two boundary streams; INFINITE if equal."""
    if x._per is not None and y._per is not None:
        # Fine and Wilf: two streams that are periodic beyond m with periods
        # p, q and agree on m + p + q letters agree everywhere.
        bound = max(len(x._pre), len(y._pre)) + len(x._per) + len(y._per)
        c = fg.common_prefix_len(x._head(bound), y._head(bound))
        return INFINITE if c >= bound else c
    # a truncated stream holds exactly its certified letters, so the
    # comparison stops at the smaller certified depth
    bound = min(d for d in (x.depth, y.depth) if d is not None)
    c = fg.common_prefix_len(x._head(bound), y._head(bound))
    if c == bound:
        raise DepthError("boundary points agree through certified depth %d; "
                         "product undecidable" % bound)
    return c


def gromov_product(x, y):
    """(x|y)_o: common-prefix length; accepts words and boundary points.

    Equal boundary points give the tagged INFINITE, never a number."""
    bx = isinstance(x, BoundaryPoint)
    by = isinstance(y, BoundaryPoint)
    if bx and by:
        return _stream_prefix_pair(x, y)
    if bx:
        return _stream_prefix_with_word(_word_bytes(y), x)
    if by:
        return _stream_prefix_with_word(_word_bytes(x), y)
    return fg.common_prefix_len(_word_bytes(x), _word_bytes(y))


def _half_int(n):
    # products and residuals in a tree are integers; keep them that way
    if n % 2:
        raise AssertionError("odd doubled quantity in a tree identity")
    return n // 2


def horofunction_value(xi, z):
    """h_xi(z) = |z| - 2 (z|xi): the Busemann horofunction at xi."""
    z = _word_bytes(z)
    return len(z) - 2 * gromov_product(z, xi)


def busemann(g, xi):
    """β(g, xi) = h_xi(g^{-1} o) = |g| - 2 (g^{-1}|xi); exact integer."""
    g = _word_bytes(g)
    return len(g) - 2 * _stream_prefix_with_word(_inverse(g), xi)


def gromov_product_via_horofunctions(x, y):
    """(x|y)_o as -½ inf_z (h_x(z) + h_y(z)).

    The infimum over the whole tree is attained on the geodesic joining x
    and y; we scan z along that geodesic and return both the value and the
    minimizing z."""
    c = gromov_product(x, y)
    if is_infinite(c):
        raise ValueError("equal boundary points have no finite product")
    xw = x.letters(c) if isinstance(x, BoundaryPoint) else fg.reduce(x)[:c]
    best = None
    best_z = None
    candidates = [xw[:k] for k in range(c + 1)]
    # continue past the branch point toward each end a little
    for side in (x, y):
        try:
            ext = side.letters(c + 2) if isinstance(side, BoundaryPoint) \
                else fg.reduce(side)[:c + 2]
        except DepthError:
            continue
        for k in range(c + 1, len(ext) + 1):
            candidates.append(ext[:k])
    for z in candidates:
        val = horofunction_value(x, z) + horofunction_value(y, z)
        if best is None or val < best:
            best = val
            best_z = z
    return _half_int(-best), best_z


def boundary_action(g, xi):
    """g . xi: prepend g to the stream and reduce the seam exactly."""
    g = _word_bytes(g)
    # cancellation depth, <= |g|; raises DepthError when undecidable
    k = _stream_prefix_with_word(_inverse(g), xi)
    head = g[:len(g) - k]
    # the seam is reduced by the choice of k, so the result needs no checks
    if not xi.is_periodic:
        return BoundaryPoint(head + xi._stream[k:])
    pre, per = xi._pre, xi._per
    if k <= len(pre):
        return BoundaryPoint(head + pre[k:], per)
    j = (k - len(pre)) % len(per)
    return BoundaryPoint(head, per[j:] + per[:j])


# ---------------------------------------------------------------------------
# exact identity checks

@dataclass(frozen=True)
class IdentityReport:
    residual_image: int   # (go|g.xi) - ½(kappa(g) + beta(g, xi))
    residual_base: int    # (go|xi)   - ½(kappa(g) - beta(g^{-1}, xi))

    @property
    def exact(self):
        return self.residual_image == 0 and self.residual_base == 0


def lemma_identities_check(g, xi):
    """Residuals of the two basic horofunction identities; both must be 0
    in a tree (delta = 0).  g is reduced once, and every term is computed
    from its bytes."""
    g = _word_bytes(g)
    kappa = len(g)  # d(g o, o) in the tree
    b_fwd = busemann(g, xi)
    b_bwd = busemann(_inverse(g), xi)
    gx = boundary_action(g, xi)
    p_image = _stream_prefix_with_word(g, gx)
    p_base = _stream_prefix_with_word(g, xi)
    r1 = 2 * p_image - (kappa + b_fwd)
    r2 = 2 * p_base - (kappa - b_bwd)
    return IdentityReport(_half_int(r1), _half_int(r2))


def corollary_bound_slack(g, x, y):
    """Slack of max(β(g,x), β(g,y)) ≥ κ(g) - 2 (x|y): nonnegative, and zero
    for some |g| ≤ (x|y) (a prefix of the common part is a witness)."""
    c = gromov_product(x, y)
    if is_infinite(c):
        raise ValueError("x and y must be distinct boundary points")
    g = _word_bytes(g)
    m = max(busemann(g, x), busemann(g, y))
    return m - (len(g) - 2 * c)


def four_point_slack(x, y, z):
    """(x|y) - min((x|z), (y|z)); nonnegative in a tree (delta = 0)."""
    pxy = gromov_product(x, y)
    pxz = gromov_product(x, z)
    pyz = gromov_product(y, z)
    if any(is_infinite(p) for p in (pxy, pxz, pyz)):
        raise ValueError("degenerate triple with coinciding boundary points")
    return pxy - min(pxz, pyz)


# ---------------------------------------------------------------------------
# statistical estimators on the boundary

# The estimators need (x|y) for one point x against every boundary sample y.
# The products of sampled walk limits with a fixed point have geometric
# tails, so the first _HEAD letters decide nearly all of them.
_HEAD = 64


def _known_head(p):
    """Up to _HEAD letters of p known for certain, as int8 bytes padded with
    0 to _HEAD, and how many; none for a finite word, which therefore always
    takes the scalar path."""
    head = p._head(_HEAD)[:_HEAD] if isinstance(p, BoundaryPoint) else b""
    return head.ljust(_HEAD, b"\0"), len(head)


class _HeadScreen:
    """Gromov products of one point against the limit points of a tree-mode
    walk.Run at once.

    The samples are the run's limits with at least one certified letter.
    The first _HEAD letters of every sample are stacked once, from the
    run's limit bytes, as int8 rows padded with 0.  For a query x,
    fg.row_prefix with x's head finds each row's first mismatch; a mismatch
    of two known letters is the product.  A row without one (a product of
    _HEAD or more, a certified depth reached) gets fallback(x, y), y the
    sample as a BoundaryPoint (Run.limit), which sees exactly what the
    scalar definition would, in sample order."""

    def __init__(self, run):
        self.run = run
        lens = run.limit_lens
        self.trials = np.flatnonzero(lens)
        starts = (np.cumsum(lens) - lens)[self.trials]
        self.known = np.minimum(lens[self.trials], _HEAD)
        cols = np.arange(_HEAD)
        held = cols < self.known[:, None]
        self.rows = np.zeros((len(self.trials), _HEAD), dtype=fg.LETTER_DTYPE)
        self.rows[held] = _view(run.limits)[(starts[:, None] + cols)[held]]

    def __len__(self):
        return len(self.trials)

    def products(self, x, fallback):
        """(x|y) for every sample y as a float array."""
        head, n = _known_head(x)
        known = np.minimum(self.known, n)
        first = fg.row_prefix(self.rows, _view(head), known)
        out = first.astype(np.float64)
        for i in np.flatnonzero(first == known):
            out[i] = fallback(x, self.run.limit(self.trials[i]))
        return out


def _product_lower_value(x, y):
    # tail counting needs a number; an undecidable pair still certifies "at
    # least this deep", which is what a tail query consumes
    try:
        return gromov_product(x, y)
    except DepthError:
        dx = x.depth if isinstance(x, BoundaryPoint) else None
        return min(d for d in (dx, y.depth) if d is not None)


@dataclass(frozen=True)
class CenteringReport:
    lambda_hat: float
    lambda_se: float
    n_samples: int           # usable boundary samples
    psi: dict                # label -> (estimate, std_error)
    estimates: dict          # label -> (estimate, std_error)
    max_drift_discrepancy_se: float  # max |estimate - lambda_hat| / combined SE
    h2: object               # stats.TailCurve, or None without an h2 section


def centering_check(mu, x_points, run, h2=None):
    """Estimate ψ(x) = -2 E[(x|y)] and E_mu[β₀(·, x)] = E_mu[β(·,x) + ψ(g.x)
    - ψ(x)] at each x, and with an h2 section (point, alpha, grid) the tail
    P[(x|y) >= alpha * n] at its point with a fitted geometric rate.

    The samples y are the limit points of a tree-mode walk.Run, which also
    gives the drift; for a centerable cocycle every centering estimate
    matches it.  One _HeadScreen of the run's limit prefixes serves every
    product, and (x|y) is taken once for both ψ(x) and the centering term.
    A sample the screen cannot decide gets the scalar gromov_product, so an
    undecidable pair fails as that function does; the tail gets
    _product_lower_value instead."""
    if len(mu.atoms) and not isinstance(mu.atoms[0], np.ndarray):
        raise ValueError("centering_check needs a tree-mode (word) measure")
    screen = _HeadScreen(run)
    if len(screen) < 2:
        raise ValueError("need at least 2 usable boundary samples, got %d "
                         "(walks too short?)" % len(screen))
    lambda_hat, lambda_se = stats.end_stats(
        *stats.observable_matrix(run, "kappa"))
    size = len(screen)
    psi = {}
    results = {}
    max_drift_disc = 0.0
    for x in x_points:
        label = format_boundary(x)
        own = screen.products(x, gromov_product)
        psi[label] = (-2.0 * float(own.mean()),
                      2.0 * own.std(ddof=1) / math.sqrt(size))
        const = 0.0
        per_sample = np.zeros(size)
        for atom, weight in zip(mu.atoms, mu.weights):
            const += weight * busemann(atom, x)
            sx = boundary_action(atom, x)
            per_sample += weight * (-2.0) * screen.products(sx, gromov_product)
        per_sample += 2.0 * own
        est = const + float(per_sample.mean())
        se = float(per_sample.std(ddof=1)) / math.sqrt(size)
        results[label] = (est, se)
        comb = math.sqrt(se ** 2 + lambda_se ** 2)
        if comb > 0:
            max_drift_disc = max(max_drift_disc, abs(est - lambda_hat) / comb)
    tail = None
    if h2:
        prods = screen.products(h2["point"], _product_lower_value)
        alpha = h2["alpha"]
        tail = stats.tail_curve(
            alpha, [(int(n), float((prods >= alpha * n).mean()))
                    for n in h2["grid"]], alpha)
    return CenteringReport(lambda_hat, lambda_se, size, psi, results,
                           max_drift_disc, tail)
