"""Boundary points of the Cayley tree, Gromov products, Busemann values,
and the identities used by the experiment harness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from outwalk import freegroup as fg
from outwalk import invariants, tree
from outwalk.walk import MeasureSpec, Run


def bp(text):
    return tree.parse_boundary(text)


# -- parsing and formatting

def test_parse_and_format_periodic_points():
    xi = bp("per:ab")
    assert xi.letters(6).tolist() == [1, 2, 1, 2, 1, 2]
    assert tree.format_boundary(xi) == "per:ab"
    eta = bp("pre:a per:ba")
    assert eta.letters(5).tolist() == [1, 2, 1, 2, 1]
    assert tree.format_boundary(eta) == "pre:a per:ba"


def test_parse_truncated_points():
    xi = bp("prefix:abab depth:4")
    assert xi.depth == 4
    assert xi.letters(4).tolist() == [1, 2, 1, 2]
    assert tree.format_boundary(xi) == "prefix:abab depth:4"


def test_parse_rejects_malformed_input():
    for text in ("", "per:", "per:aA", "pre:a", "per:a!", "depth:3"):
        with pytest.raises(ValueError):
            bp(text)


def test_parse_clips_prefix_to_certified_depth():
    xi = bp("prefix:ab depth:1")
    assert xi.depth == 1
    assert tree.format_boundary(xi) == "prefix:a depth:1"


def test_every_boundary_point_round_trips_through_its_literal():
    rng = np.random.default_rng(31)
    points = [bp("per:ab"), bp("per:B"), bp("pre:a per:ba"),
              bp("pre:Ba per:abAB")]
    for depth in (0, 1, 5, 80):
        word = fg.random_reduced_word(rng, 3, 80)
        points.append(tree.BoundaryPoint.truncated(word, depth))
    for xi in points:
        text = tree.format_boundary(xi)
        back = bp(text)
        assert tree.format_boundary(back) == text
        assert (back.is_periodic, back.depth) == (xi.is_periodic, xi.depth)
        n = 40 if xi.is_periodic else xi.depth
        assert back.letters(n).tolist() == xi.letters(n).tolist()
    assert tree.format_boundary(points[4]) == "prefix: depth:0"


def test_periodic_point_must_be_cyclically_reduced():
    with pytest.raises(ValueError):
        bp("per:abA")     # infinite word ab Aab A... would cancel
    with pytest.raises(ValueError):
        bp("pre:a per:Ab")  # seam a.A cancels


def test_truncated_point_keeps_only_certified_letters():
    xi = tree.BoundaryPoint.truncated(fg.parse_word("abab"), 3)
    assert xi.depth == 3
    assert xi.letters(3).tolist() == [1, 2, 1]
    with pytest.raises(tree.DepthError):
        xi.letter(3)


# -- products and distances

def test_gromov_product_small_cases():
    assert tree.gromov_product(bp("per:a"), bp("per:b")) == 0
    assert tree.gromov_product(bp("per:ab"), bp("pre:a per:b")) == 2
    assert tree.gromov_product(bp("per:ab"), bp("per:aB")) == 1
    # a word against a ray measures their common prefix
    assert tree.gromov_product(fg.parse_word("ab"), bp("per:a")) == 1


def test_gromov_product_of_identical_rays_is_infinite():
    p = tree.gromov_product(bp("per:ab"), bp("pre:ab per:ab"))
    assert tree.is_infinite(p)
    assert not tree.is_infinite(0)


def test_gromov_product_certified_depth_exhaustion():
    with pytest.raises(tree.DepthError):
        tree.gromov_product(bp("prefix:abab depth:4"), bp("per:ab"))
    # a decidable disagreement inside the window is fine
    assert tree.gromov_product(bp("prefix:abab depth:4"), bp("per:aB")) == 1


def test_periodic_pair_decided_within_fine_wilf_window():
    # distinct periodic rays written with different period lengths must be
    # separated without streaming past the combined-period bound
    assert tree.gromov_product(bp("per:ab"), bp("per:abaB")) == 3
    assert tree.is_infinite(tree.gromov_product(bp("per:ab"), bp("per:abab")))


# -- Busemann values

def test_busemann_frozen_values():
    # the value is the horofunction at the point g^-1, so moving the walk
    # toward the ray means feeding it inverse letters
    assert tree.busemann(fg.parse_word("A"), bp("per:a")) == -1
    assert tree.busemann(fg.parse_word("b"), bp("per:a")) == 1
    assert tree.busemann(fg.parse_word("AA"), bp("per:a")) == -2
    assert tree.busemann(fg.parse_word("aa"), bp("per:a")) == 2
    assert tree.busemann(fg.parse_word(""), bp("per:ab")) == 0


def test_horofunction_value_matches_busemann_on_inverses():
    for s, x in (("ab", "per:a"), ("BAb", "per:ba"), ("", "per:b")):
        g = fg.parse_word(s)
        assert tree.horofunction_value(bp(x), g) == \
            tree.busemann(fg.inverse(g), bp(x))


# g and h in F2, or in F3 acting on the same rank-2 rays
@settings(max_examples=120)
@given(st.sampled_from(["abAB", "abcABC"]).flatmap(
           lambda letters: st.tuples(st.text(alphabet=letters, max_size=12),
                                     st.text(alphabet=letters, max_size=12))),
       st.sampled_from(["per:a", "per:b", "per:ab", "pre:a per:ba", "per:aB"]))
def test_busemann_cocycle_identity(words, sx):
    g, h, xi = fg.parse_word(words[0]), fg.parse_word(words[1]), bp(sx)
    lhs = tree.busemann(fg.concat(g, h), xi)
    rhs = tree.busemann(g, tree.boundary_action(h, xi)) + tree.busemann(h, xi)
    assert lhs == rhs


def test_busemann_values_are_integers_of_word_parity():
    rng = np.random.default_rng(2)
    xi = bp("per:ab")
    for _ in range(200):
        g = fg.random_reduced_word(rng, 2, int(rng.integers(0, 12)))
        b = tree.busemann(g, xi)
        assert isinstance(b, int)
        assert (b - len(g)) % 2 == 0


# -- boundary action

def test_boundary_action_frozen_cases():
    assert tree.format_boundary(
        tree.boundary_action(fg.parse_word("a"), bp("per:b"))) == "pre:a per:b"
    assert tree.format_boundary(
        tree.boundary_action(fg.parse_word("A"), bp("per:a"))) == "per:a"


def test_boundary_action_on_truncated_point_tracks_depth():
    xi = tree.BoundaryPoint.truncated(fg.parse_word("bbbb"), 4)
    moved = tree.boundary_action(fg.parse_word("a"), xi)
    assert moved.depth == 5
    assert moved.letters(5).tolist() == [1, 2, 2, 2, 2]
    eaten = tree.boundary_action(fg.parse_word("B"), xi)
    assert eaten.depth == 3
    assert eaten.letters(3).tolist() == [2, 2, 2]


@settings(max_examples=60)
@given(st.text(alphabet="abAB", min_size=0, max_size=10),
       st.text(alphabet="abAB", min_size=0, max_size=10),
       st.sampled_from(["per:a", "per:ab", "pre:Ba per:abAB"]))
def test_boundary_action_is_associative(sg, sh, sx):
    g, h, xi = fg.parse_word(sg), fg.parse_word(sh), bp(sx)
    one = tree.boundary_action(fg.concat(g, h), xi)
    two = tree.boundary_action(g, tree.boundary_action(h, xi))
    assert tree.is_infinite(tree.gromov_product(one, two))


# -- identities behind the experiment checks

@settings(max_examples=120)
@given(st.text(alphabet="abAB", min_size=0, max_size=18),
       st.sampled_from(["per:a", "per:b", "per:ab", "pre:a per:ba",
                        "per:aB", "pre:Ba per:abAB"]))
def test_lemma_identities_have_zero_residual(sg, sx):
    rep = tree.lemma_identities_check(fg.parse_word(sg), bp(sx))
    assert rep.exact
    assert rep.residual_image == 0 and rep.residual_base == 0


def test_four_point_slack_nonnegative_on_boundary_triples():
    # the catalogue's check again, on a seed of its own
    invariants.four_point_condition(np.random.default_rng(8), 400)


def test_corollary_bound_has_an_equality_witness_on_the_ray():
    x, y = bp("per:ab"), bp("pre:a per:b")
    c = tree.gromov_product(x, y)
    slacks = []
    for L in range(int(c) + 1):
        g = fg.inverse(x.letters(L))
        slack = tree.corollary_bound_slack(g, x, y)
        assert slack >= 0
        slacks.append(slack)
    assert 0 in slacks


def test_product_via_horofunctions_agrees_with_streaming():
    pairs = (("per:a", "per:b"), ("per:ab", "pre:a per:b"),
             ("per:aB", "pre:Ba per:abAB"))
    for sx, sy in pairs:
        x, y = bp(sx), bp(sy)
        val, witness = tree.gromov_product_via_horofunctions(x, y)
        assert val == tree.gromov_product(x, y)
        assert len(witness) <= val + 2


# -- estimators on boundary samples: ψ, centering and the H2 tail

POINT_MASS_A = MeasureSpec([fg.parse_word("a")], [1.0])


def records_of(samples, kappas=None):
    """A tree-mode walk.Run at one checkpoint whose limit prefixes are the
    samples, truncated points as a walk's limits are."""
    assert all(y.depth is not None for y in samples)
    n = len(samples)
    kappas = (kappas or [5.0] * n)[:n]
    return Run((10,), [], range(n), np.reshape(kappas, (n, 1)),
               np.zeros((0, n, 1)), peak=np.zeros(n, dtype=np.int64),
               spots=np.zeros((n, 1), dtype=bool),
               limits=b"".join(y.letters(y.depth).tobytes() for y in samples),
               limit_lens=[y.depth for y in samples])


def as_limit(y, depth):
    """y's first `depth` letters as a truncated point, a walk's limit."""
    return tree.BoundaryPoint.truncated(y.letters(depth))


def h2_section(x, grid):
    return {"point": x, "alpha": 1.0, "grid": grid}


def test_psi_estimate_hand_arithmetic():
    x = bp("per:b")
    samples = [bp("prefix:aaaa depth:4"),
               bp("prefix:baaa depth:4")]       # products 0 and 1
    rep = tree.centering_check(POINT_MASS_A, [x], records_of(samples))
    value, se = rep.psi["per:b"]
    assert value == -1.0
    assert se == pytest.approx(1.0)
    assert rep.n_samples == 2


def test_psi_estimate_needs_samples():
    with pytest.raises(ValueError, match="at least 2 usable boundary "
                                         "samples, got 0"):
        tree.centering_check(POINT_MASS_A, [bp("per:a")], records_of([]))


def test_psi_estimate_rejects_a_sample_equal_to_the_query_point():
    # a walk's limit equal to x through all its certified letters
    x = bp("per:ab")
    with pytest.raises(tree.DepthError, match="agree through certified "
                                              "depth 4; product undecidable"):
        tree.centering_check(POINT_MASS_A, [x], records_of(
            [bp("prefix:aaaa depth:4"), bp("prefix:abab depth:4")]))


def test_h2_tail_estimate_geometric_hand_case():
    x = bp("per:b")
    samples = ([bp("prefix:aaaaaa depth:6")] * 4
               + [bp("prefix:baaaaa depth:6")] * 2
               + [bp("prefix:bbaaaa depth:6"), bp("prefix:bbbaaa depth:6")])
    curve = tree.centering_check(POINT_MASS_A, [], records_of(samples),
                                 h2_section(x, [1, 2, 3])).h2
    assert [p for _, p in curve.points] == [0.5, 0.25, 0.125]
    assert curve.rate == pytest.approx(0.5)
    assert curve.summable


def test_h2_tail_estimate_counts_an_undecidable_product_at_its_depth():
    # a limit equal to x through its 4 certified letters is at least 4 deep
    x = bp("per:b")
    curve = tree.centering_check(POINT_MASS_A, [], records_of(
        [bp("prefix:bbbb depth:4"), bp("prefix:aaaa depth:4")]),
        h2_section(x, [1, 2, 4, 5])).h2
    assert [p for _, p in curve.points] == [0.5, 0.5, 0.5, 0.0]


def test_centering_check_hand_arithmetic():
    # point mass on the letter a;  beta(a, b^inf) = 1;  the correction terms
    # use the two truncated sample rays below
    y1 = tree.BoundaryPoint.truncated(fg.parse_word("aaaa"), 4)
    y2 = tree.BoundaryPoint.truncated(fg.parse_word("ababab"), 6)
    rep = tree.centering_check(POINT_MASS_A, [bp("per:b")], records_of([y1, y2]))
    assert rep.lambda_hat == pytest.approx(0.5)
    est, se = rep.estimates["per:b"]
    assert est == pytest.approx(-2.0)
    assert se == pytest.approx(1.0)
    assert rep.max_drift_discrepancy_se == pytest.approx(2.5)
    assert rep.h2 is None


def test_centering_check_rejects_a_sample_equal_to_a_query_point():
    # the second limit equals x through all its certified letters
    x = bp("per:b")
    with pytest.raises(tree.DepthError, match="agree through certified "
                                              "depth 4; product undecidable"):
        tree.centering_check(POINT_MASS_A, [x], records_of(
            [bp("prefix:aaaa depth:4"), bp("prefix:bbbb depth:4")]))


def test_centering_check_rejects_outer_measures():
    mu = MeasureSpec([fg.from_trace(2, ["R:1:2:+"])], [1.0])
    with pytest.raises(ValueError):
        tree.centering_check(mu, [bp("per:a")], [])


def test_centering_check_needs_two_usable_samples():
    records = records_of([bp("prefix:ab depth:2"), bp("prefix:b depth:0")])
    with pytest.raises(ValueError, match="at least 2 usable"):
        tree.centering_check(POINT_MASS_A, [bp("per:b")], records)


# -- the head screen against the per-sample scalar loop

class LoopScreen:
    """The per-sample loop the estimators ran before the head screen: the
    scalar definition on every usable sample, in order."""

    def __init__(self, run):
        self.samples = [r.bnd for r in run if r.bnd is not None]

    def __len__(self):
        return len(self.samples)

    def products(self, queries):
        return np.array([[fallback(x, y) for y in self.samples]
                         for x, fallback in queries]).reshape(
            len(queries), len(self.samples))


def letters_of_rank(rank):
    return [g for i in range(1, rank + 1) for g in (i, -i)]


def extend(rng, word, n, first_not=None, rank=3):
    """Append n random letters to a reduced word, keeping it reduced; the
    first appended letter differs from first_not."""
    w = [int(c) for c in word]
    for i in range(n):
        ban = {-w[-1]} if w else set()
        if i == 0 and first_not is not None:
            ban.add(first_not)
        w.append(int(rng.choice([c for c in letters_of_rank(rank)
                                 if c not in ban])))
    return w


def periodic_after(rng, pre):
    while True:
        per = extend(rng, [], int(rng.integers(1, 5)))
        try:
            return tree.BoundaryPoint.periodic(pre, per)
        except ValueError:
            continue


def branching_sample(rng, x):
    """A sample leaving x's stream after a random number of shared letters
    (sometimes 64 or more), truncated at a random depth, within its letters
    or past them into a period."""
    known = x.depth
    k = int(rng.integers(0, 100))
    if known is not None:
        k = min(k, known)
    base = list(x.letters(k))
    nxt = x.letter(k) if known is None or k < known else None
    word = extend(rng, base, int(rng.integers(1, 40)), first_not=nxt)
    if rng.random() < 0.5:
        return as_limit(periodic_after(rng, word),
                        len(word) + int(rng.integers(0, 40)))
    return tree.BoundaryPoint.truncated(
        word, int(rng.integers(0, len(word) + 1)))


def random_x(rng):
    if rng.random() < 0.3:
        word = extend(rng, [], int(rng.integers(0, 90)))
        return tree.BoundaryPoint.truncated(word)
    return periodic_after(rng, extend(rng, [], int(rng.integers(0, 70))))


def mixed_samples(rng, x):
    """Random limits around x plus every case the head cannot decide."""
    ys = [branching_sample(rng, x) for _ in range(30)]
    ys.append(x if x.depth is not None else as_limit(x, 120))   # equal to x
    for d in (0, 5, 63, 64, 80, 100):                   # ties through depth
        if x.depth is None or d <= x.depth:
            ys.append(tree.BoundaryPoint.truncated(x.letters(d)))
    # (x|y) = 81 for per:ab
    ys.append(as_limit(bp("pre:" + "ab" * 40 + " per:a"), 90))
    ys.append(as_limit(bp("per:ab"), 100))
    ys.append(bp("prefix:" + "ab" * 40 + "b depth:70"))
    order = rng.permutation(len(ys))
    return [ys[i] for i in order]


def outcome(fn, *args):
    try:
        result = fn(*args)
    except (tree.DepthError, TypeError, ValueError) as exc:
        return (type(exc), str(exc))
    if tree.is_infinite(result):
        return ("inf",)
    return result


def head_known(p):
    if not isinstance(p, tree.BoundaryPoint):
        return 0
    return 64 if p.is_periodic else min(64, p.depth)


@pytest.mark.parametrize("seed", range(8))
def test_head_screen_matches_the_scalar_products(seed):
    rng = np.random.default_rng(seed)
    xs = [random_x(rng) for _ in range(5)]
    xs += [bp("per:ab"), bp("prefix:abab depth:4"),
           tree.BoundaryPoint.truncated(extend(rng, [], 70), 66),
           fg.parse_word("ab")]
    for x in xs:
        ys = mixed_samples(rng, x if isinstance(x, tree.BoundaryPoint)
                           else bp("per:ab"))
        seen = []

        def fallback(x, y):
            seen.append(outcome(tree.gromov_product, x, y))
            return -1.0

        got = tree._HeadScreen(records_of(ys)).products([(x, fallback)])[0]
        ys = [y for y in ys if y.depth]             # the usable samples
        screened = iter(seen)
        merged = [next(screened) if v == -1.0 else int(v) for v in got]
        expected = [outcome(tree.gromov_product, x, y) for y in ys]
        assert merged == expected
        # only rows with no letter mismatch inside both heads fall back
        assert seen == [
            o for o, y in zip(expected, ys)
            if not isinstance(o, int) or o >= min(head_known(x), head_known(y))]


@pytest.mark.parametrize("seed", range(4))
def test_head_screen_takes_many_queries_in_one_call(seed):
    # one call of several queries gives each query's row of one-query
    # calls, and calls the fallbacks in query then sample order
    rng = np.random.default_rng(seed)
    xs = [random_x(rng) for _ in range(4)] + [bp("per:ab"), fg.parse_word("b")]
    screen = tree._HeadScreen(records_of(mixed_samples(rng, bp("per:ab"))))
    seen = []

    def fallback(x, y):
        seen.append((id(x), tree._product_lower_value(x, y)))
        return -1.0

    got = screen.products([(x, fallback) for x in xs])
    batched = seen[:]
    seen.clear()
    rows = [screen.products([(x, fallback)])[0] for x in xs]
    assert got.shape == (len(xs), len(screen))
    assert np.array_equal(got, np.array(rows))
    assert seen == batched
    assert screen.products([]).shape == (0, len(screen))


def estimator_pair(monkeypatch, fn, *args):
    """fn's outcome with the head screen, then with the per-sample loop."""
    head = outcome(fn, *args)
    with monkeypatch.context() as m:
        m.setattr(tree, "_HeadScreen", LoopScreen)
        loop = outcome(fn, *args)
    return head, loop


@pytest.mark.parametrize("seed", range(8))
def test_estimators_equal_the_per_sample_loop(seed, monkeypatch):
    rng = np.random.default_rng(100 + seed)
    kappa_rng = np.random.default_rng(200 + seed)
    mu = MeasureSpec([fg.parse_word(w) for w in ("a", "B", "ab", "Ca")],
                     [0.4, 0.3, 0.2, 0.1])
    reports = 0
    for _ in range(4):
        x = random_x(rng)
        ys = [y for y in mixed_samples(rng, x)
              if isinstance(y, tree.BoundaryPoint)]
        ys += [branching_sample(rng, x) for _ in range(40)]
        kappas = [float(k) for k in kappa_rng.integers(0, 50, size=len(ys))]
        points = [x, random_x(rng), periodic_after(rng, [])]
        probes = list(points)
        for p in points:
            probes += [img for img in (outcome(tree.boundary_action, a, p)
                                       for a in mu.atoms)
                       if isinstance(img, tree.BoundaryPoint)]
        decided = [y for y in ys if all(
            isinstance(outcome(tree.gromov_product, p, y), int)
            for p in probes)]
        h2 = h2_section(x, [1, 2, 4, 8, 70])
        # ys holds samples equal to x and samples that tie with it through
        # their depth: the tail takes them, ψ and the centering fail on them
        for xs, samples in (([], ys), (points, ys), (points, decided),
                            (points[:1], decided[:2]),
                            (points[:1], decided[:1])):
            head, loop = estimator_pair(monkeypatch, tree.centering_check,
                                        mu, xs, records_of(samples, kappas),
                                        h2)
            assert head == loop
            reports += isinstance(head, tree.CenteringReport)
    assert reports >= 8


# -- the bytes calculus against the numpy calculus it replaced

def ref_common_prefix(u, v):
    n = min(len(u), len(v))
    hit = np.flatnonzero(np.asarray(u[:n]) != np.asarray(v[:n]))
    return int(hit[0]) if hit.size else n


def ref_letters(xi, n):
    if not xi.is_periodic:
        return xi.prefix[:n]
    reps = max(n - len(xi.preperiod), 0) // len(xi.period) + 1
    return np.concatenate([xi.preperiod] + [xi.period] * reps)[:n]


def ref_prefix_with_word(w, xi):
    if not xi.is_periodic and xi.depth < len(w):
        c = ref_common_prefix(w[:xi.depth], xi.prefix)
        if c < xi.depth:
            return c
        raise tree.DepthError("match reaches certified depth %d of a "
                              "truncated boundary point" % xi.depth)
    return ref_common_prefix(w, ref_letters(xi, len(w)))


def ref_prefix_pair(x, y):
    if x.is_periodic and y.is_periodic:
        bound = max(len(x.preperiod), len(y.preperiod)) \
            + len(x.period) + len(y.period)
        c = ref_common_prefix(ref_letters(x, bound), ref_letters(y, bound))
        return tree.INFINITE if c == bound else c
    bound = min(d for d in (x.depth, y.depth)
                if d is not None)
    c = ref_common_prefix(ref_letters(x, bound), ref_letters(y, bound))
    if c == bound:
        raise tree.DepthError("boundary points agree through certified depth "
                              "%d; product undecidable" % bound)
    return c


def ref_gromov_product(x, y):
    bx = isinstance(x, tree.BoundaryPoint)
    by = isinstance(y, tree.BoundaryPoint)
    if bx and by:
        return ref_prefix_pair(x, y)
    if bx:
        return ref_prefix_with_word(fg.reduce(y), x)
    if by:
        return ref_prefix_with_word(fg.reduce(x), y)
    return ref_common_prefix(fg.reduce(x), fg.reduce(y))


def ref_busemann(g, xi):
    g = fg.reduce(g)
    return len(g) - 2 * ref_prefix_with_word(fg.inverse(g), xi)


def ref_boundary_action(g, xi):
    g = fg.reduce(g)
    k = ref_prefix_with_word(fg.inverse(g), xi)
    head = g[:len(g) - k]
    if not xi.is_periodic:
        return tree.BoundaryPoint.truncated(
            np.concatenate((head, xi.prefix[k:])))
    pre, per = xi.preperiod, xi.period
    if k <= len(pre):
        return tree.BoundaryPoint.periodic(np.concatenate((head, pre[k:])), per)
    j = (k - len(pre)) % len(per)
    return tree.BoundaryPoint.periodic(head, np.concatenate((per[j:], per[:j])))


def ref_lemma_identities_check(g, xi):
    g = fg.reduce(g)
    b_fwd = ref_busemann(g, xi)
    b_bwd = ref_busemann(fg.inverse(g), xi)
    gx = ref_boundary_action(g, xi)
    r1 = 2 * ref_prefix_with_word(g, gx) - (len(g) + b_fwd)
    r2 = 2 * ref_prefix_with_word(g, xi) - (len(g) - b_bwd)
    assert r1 % 2 == 0 and r2 % 2 == 0
    return tree.IdentityReport(r1 // 2, r2 // 2)


def calculus_points(rng, rank):
    """Periodic, pre-periodic and truncated points of depth 0, 1, 5, 80,
    some sharing long prefixes with each other."""
    points = []
    while len(points) < 6:
        pre = extend(rng, [], int(rng.choice([0, 3, 20, 70])), rank=rank)
        per = extend(rng, [], int(rng.integers(1, 7)), rank=rank)
        try:
            points.append(tree.BoundaryPoint.periodic(pre, per))
        except ValueError:
            continue
    for d in (0, 1, 5, 80):
        points.append(tree.BoundaryPoint.truncated(
            extend(rng, [], d + int(rng.integers(0, 5)), rank=rank), d))
        # a truncated point that follows a periodic one through its depth
        points.append(tree.BoundaryPoint.truncated(points[d % 6].letters(d)))
    points.append(tree.parse_boundary(tree.format_boundary(points[0])))
    # distinct periodic points that agree on 3 letters (Fine-Wilf bound 6)
    points += [bp("per:ab"), bp("per:abaB")]
    return points


def calculus_word(rng, rank, points):
    """A word, unreduced half of the time, often along a point's stream (or
    its inverse) and sometimes longer than 64 letters."""
    n = int(rng.choice([0, 1, 5, 24, 90]))
    kind = rng.integers(4)
    if kind == 0:
        w = extend(rng, [], n, rank=rank)
    elif kind == 1:                 # a random letter list, unreduced
        w = [int(c) for c in rng.integers(1, rank + 1, size=n)
             * rng.choice([-1, 1], size=n)]
    else:
        xi = points[int(rng.integers(len(points)))]
        k = n if xi.is_periodic else min(n, xi.depth)
        w = extend(rng, xi.letters(k).tolist(), 3, rank=rank)
        if kind == 3:
            w = [-c for c in reversed(w)]
    # sometimes a cancelling pair in the middle, so the word is unreduced
    if w and rng.random() < 0.5:
        i = int(rng.integers(len(w)))
        w = w[:i] + [w[i], -w[i]] + w[i:]
    return np.array(w, dtype=fg.LETTER_DTYPE)


@pytest.mark.parametrize("rank,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
def test_bytes_calculus_matches_the_numpy_reference(rank, seed):
    rng = np.random.default_rng(seed)
    points = calculus_points(rng, rank)
    depth_errors = 0
    for x in points:
        for y in points:
            got = outcome(tree.gromov_product, x, y)
            assert got == outcome(ref_gromov_product, x, y)
            depth_errors += isinstance(got, tuple) and got[0] is tree.DepthError
    for _ in range(300):
        w = calculus_word(rng, rank, points)
        v = calculus_word(rng, rank, points)
        xi = points[int(rng.integers(len(points)))]
        assert outcome(tree.gromov_product, w, v) == \
            outcome(ref_gromov_product, w, v)
        for fn, ref in ((tree.gromov_product, ref_gromov_product),
                        (tree.busemann, ref_busemann),
                        (tree.lemma_identities_check,
                         ref_lemma_identities_check)):
            assert outcome(fn, w, xi) == outcome(ref, w, xi)
        assert outcome(tree.gromov_product, xi, w) == \
            outcome(ref_gromov_product, xi, w)
        got = outcome(tree.boundary_action, w, xi)
        want = outcome(ref_boundary_action, w, xi)
        if isinstance(want, tree.BoundaryPoint):
            got, want = tree.format_boundary(got), tree.format_boundary(want)
        assert got == want
        depth_errors += isinstance(want, tuple) and want[0] is tree.DepthError
    assert depth_errors > 0     # undecidable cases were reached


def test_boundary_point_pickles_its_letters_once():
    import pickle
    for xi in (bp("pre:Ba per:abAB"), bp("per:b"), bp("prefix:abAB depth:3"),
               bp("prefix:a depth:0")):
        size = len(pickle.dumps(xi))
        n = 500 if xi.is_periodic else xi.depth
        xi.letters(n)                           # grows a periodic stream
        assert len(pickle.dumps(xi)) == size
        back = pickle.loads(pickle.dumps(xi))
        assert tree.format_boundary(back) == tree.format_boundary(xi)
        assert back.depth == xi.depth
        assert back.letters(n).tolist() == xi.letters(n).tolist()


def test_boundary_letters_are_read_only():
    for xi in (bp("pre:a per:ba"), bp("prefix:abab depth:4")):
        arrays = [xi.letters(3), xi.preperiod if xi.is_periodic else xi.prefix]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 2
    assert xi.letters(4).tolist() == [1, 2, 1, 2]
