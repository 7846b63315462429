"""The exact invariant checks behind `outwalk verify` and the tests.

The paper's CLTs rest on a few exact identities: the stretch-factor
cocycle and White's formula on outer space, the Busemann cocycle, the
horofunction lemmas and the four-point condition on the tree.  A check is
a function check(rng, count) that draws count samples from rng and raises
AssertionError on the first violation (explicitly, not by `assert`, so
that the checks also run under python -O); the frozen checks ignore both.
SUITES lists the checks of each suite in report order, named suite/check
(dashed), with the count `outwalk verify` runs; run(suite) runs them on
one generator seeded SEEDS[suite].
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import freegroup as fg
from . import rose
from . import tree

POINTS = tuple(tree.parse_boundary(s) for s in (
    "per:a", "per:b", "per:ab", "pre:a per:ba", "per:aB", "pre:Ba per:abAB"))


def random_rose(rng, rank):
    """Edge lengths k_i / sum(k), k_i in [1, 11]; 0-5 random marking moves."""
    raw = rng.integers(1, 12, size=rank)
    lengths = [Fraction(int(v), int(raw.sum())) for v in raw]
    phi = fg.random_automorphism(rng, rank, int(rng.integers(0, 6)))
    return rose.rose_point(lengths, phi)


def _require(ok, detail=""):
    if not ok:
        raise AssertionError(detail)


def _point(rng):
    return POINTS[int(rng.integers(len(POINTS)))]


def reduction_laws(rng, count):
    for _ in range(count):
        w = rng.integers(-3, 4, size=int(rng.integers(0, 60)))
        r = fg.reduce(w[w != 0].astype(np.int8))
        _require(fg.is_reduced(r))
        _require(np.array_equal(fg.reduce(r), r))
        _require(len(fg.concat(r, fg.inverse(r))) == 0)


def cyclic_conjugacy_invariance(rng, count):
    for _ in range(count):
        g = fg.random_reduced_word(rng, 3, int(rng.integers(1, 20)))
        h = fg.random_reduced_word(rng, 3, int(rng.integers(0, 8)))
        conj = fg.concat(h, g, fg.inverse(h))
        _require(fg.word_key(fg.cyclic_word(conj))
                 == fg.word_key(fg.cyclic_word(g)))


def canonical_rotation_minimal(rng, count):
    def code_key(w):
        return tuple(fg.letter_code(int(v)) for v in w)
    for _ in range(count):
        core, _ = fg.cyclic_reduce(
            fg.random_reduced_word(rng, 2, int(rng.integers(1, 14))))
        if len(core):
            keys = [code_key(np.roll(core, -k)) for k in range(len(core))]
            _require(code_key(fg.canonical_rotation(core)) == min(keys))


def automorphism_round_trip(rng, count):
    for _ in range(count):
        phi = fg.random_automorphism(rng, 3, int(rng.integers(1, 12)))
        w = fg.random_reduced_word(rng, 3, int(rng.integers(0, 30)))
        _require(np.array_equal(phi.apply_inverse(phi.apply(w)), w))
        _require(np.array_equal(fg.compose(phi, phi.inverted()).forward[0],
                                fg.Automorphism.identity(3).forward[0]))


def homomorphism_property(rng, count):
    for _ in range(count):
        phi = fg.random_automorphism(rng, 2, int(rng.integers(1, 10)))
        u = fg.random_reduced_word(rng, 2, int(rng.integers(0, 15)))
        v = fg.random_reduced_word(rng, 2, int(rng.integers(0, 15)))
        _require(np.array_equal(phi.apply(fg.concat(u, v)),
                                fg.concat(phi.apply(u), phi.apply(v))))


def sigma_cocycle_identity(rng, count):
    """sigma(phi psi, g) = sigma(phi, psi(g)) sigma(psi, g); ranks 2, then 3."""
    for rank in (2, 3):
        for _ in range(count):
            phi = fg.random_automorphism(rng, rank, int(rng.integers(0, 6)))
            psi = fg.random_automorphism(rng, rank, int(rng.integers(0, 6)))
            g = fg.random_reduced_word(rng, rank, int(rng.integers(1, 12)))
            if fg.cyclic_length(g):
                _require(rose.sigma_ratio(fg.compose(phi, psi), g)
                         == rose.sigma_ratio(phi, psi.apply(g))
                         * rose.sigma_ratio(psi, g))


def frozen_asymmetry_example(rng, count):
    t, u = rose.unit_rose(2), rose.rose_point(["9/10", "1/10"])
    _require(rose.max_stretch(t, u) == Fraction(9, 5))
    _require(rose.max_stretch(u, t) == Fraction(5, 1))


def frozen_translation_lengths(rng, count):
    t = rose.unit_rose(2)
    _require(rose.translation_length(fg.parse_word("ab"), t) == 1)
    _require(rose.translation_length(fg.parse_word("abA"), t)
             == rose.translation_length(fg.parse_word("b"), t))
    marked = rose.rose_point(["1/2", "1/2"], fg.from_trace(2, ["R:1:2:+"]))
    _require(rose.translation_length(fg.parse_word("a"), marked) == 1)


def frozen_kappa(rng, count):
    _require(rose.kappa(fg.Automorphism.identity(2)) == 0.0)
    _require(rose.kappa_stretch(fg.from_trace(2, ["R:1:2:+"])) == 2)


def sigma_dominated_by_kappa(rng, count):
    for _ in range(count):
        phi = fg.random_automorphism(rng, 2, int(rng.integers(1, 10)))
        g = fg.random_reduced_word(rng, 2, int(rng.integers(1, 12)))
        if fg.cyclic_length(g):
            _require(rose.sigma_ratio(phi, g) <= rose.kappa_stretch(phi))


def white_equality(rng, count):
    """count rose pairs of rank 2 to length 8, then count // 5 of rank 3."""
    for rank, max_len, pairs in ((2, 8, count), (3, 6, count // 5)):
        for _ in range(pairs):
            t, u = random_rose(rng, rank), random_rose(rng, rank)
            brute = rose.brute_force_max_stretch(t, u, max_len)
            cand = rose.max_stretch(t, u)
            _require(brute == cand, "White equality failed: brute-force sup "
                     "%s, candidate max %s" % (brute, cand))


def triangle_inequality(rng, count):
    """d(t,v) <= d(t,u) + d(u,v), before the log: stretch factors multiply."""
    for _ in range(count):
        t, u, v = (random_rose(rng, 2) for _ in range(3))
        _require(rose.max_stretch(t, v)
                 <= rose.max_stretch(t, u) * rose.max_stretch(u, v))


def action_isometry(rng, count):
    """max_stretch(phi.t, phi.u) = max_stretch(t, u); ranks 2, then 3."""
    for rank in (2, 3):
        for _ in range(count):
            phi = fg.random_automorphism(rng, rank, int(rng.integers(0, 8)))
            t, u = random_rose(rng, rank), random_rose(rng, rank)
            _require(rose.max_stretch(rose.act(phi, t), rose.act(phi, u))
                     == rose.max_stretch(t, u))


def frozen_busemann_examples(rng, count):
    a, b = tree.parse_boundary("per:a"), tree.parse_boundary("per:b")
    _require(tree.busemann(fg.parse_word("A"), a) == -1)
    _require(tree.busemann(fg.parse_word("b"), a) == 1)
    _require(tree.lemma_identities_check(fg.parse_word("a"), b).exact)


def lemma_identity_residuals(rng, count):
    """500 words drawn first, paired cyclically with POINTS count times."""
    words = [fg.random_reduced_word(rng, 2, int(rng.integers(0, 24)))
             for _ in range(500)]
    for k in range(count):
        _require(tree.lemma_identities_check(words[k % 500],
                                             POINTS[k % len(POINTS)]).exact)


def busemann_cocycle(rng, count):
    for _ in range(count):
        g = fg.random_reduced_word(rng, 2, int(rng.integers(0, 12)))
        h = fg.random_reduced_word(rng, 2, int(rng.integers(0, 12)))
        xi = _point(rng)
        _require(tree.busemann(fg.concat(g, h), xi)
                 == tree.busemann(g, tree.boundary_action(h, xi))
                 + tree.busemann(h, xi))


def four_point_condition(rng, count):
    """count triples of distinct points: one with an equal pair is redrawn."""
    checked = 0
    while checked < count:
        x, y, z = (POINTS[int(i)] for i in rng.integers(len(POINTS), size=3))
        try:
            slack = tree.four_point_slack(x, y, z)
        except ValueError:      # an equal pair (periodic points: no DepthError)
            continue
        _require(slack >= 0)
        checked += 1


def action_associativity(rng, count):
    for _ in range(count):
        g = fg.random_reduced_word(rng, 2, int(rng.integers(0, 8)))
        h = fg.random_reduced_word(rng, 2, int(rng.integers(0, 8)))
        xi = _point(rng)
        one = tree.boundary_action(fg.concat(g, h), xi)
        two = tree.boundary_action(g, tree.boundary_action(h, xi))
        _require(tree.is_infinite(tree.gromov_product(one, two)))


def horofunction_product_agreement(rng, count):
    for _ in range(count):
        x, y = _point(rng), _point(rng)
        p = tree.gromov_product(x, y)
        if not tree.is_infinite(p):
            _require(tree.gromov_product_via_horofunctions(x, y)[0] == p)


def corollary_bound_witness(rng, count):
    for i, j in ((0, 1), (2, 4), (3, 5)):
        x, y = POINTS[i], POINTS[j]
        slacks = [tree.corollary_bound_slack(fg.inverse(x.letters(L)), x, y)
                  for L in range(int(tree.gromov_product(x, y)) + 1)]
        _require(min(slacks) >= 0)
        _require(0 in slacks, "no equality witness among ray prefixes")


def _rows(suite, *checks):
    return tuple(("%s/%s" % (suite, fn.__name__.replace("_", "-")), fn, count)
                 for fn, count in checks)


SEEDS = {"algebra": 2024, "outer-space": 77, "tree": 55}

SUITES = {
    "algebra": _rows(
        "algebra", (reduction_laws, 400), (cyclic_conjugacy_invariance, 300),
        (canonical_rotation_minimal, 200), (automorphism_round_trip, 150),
        (homomorphism_property, 150), (sigma_cocycle_identity, 1000)),
    "outer-space": _rows(
        "outer-space", (frozen_asymmetry_example, 1),
        (frozen_translation_lengths, 1), (frozen_kappa, 1),
        (sigma_dominated_by_kappa, 200), (white_equality, 25),
        (triangle_inequality, 50), (action_isometry, 20)),
    "tree": _rows(
        "tree", (frozen_busemann_examples, 1), (lemma_identity_residuals, 3000),
        (busemann_cocycle, 2000), (four_point_condition, 2000),
        (action_associativity, 1000), (horofunction_product_agreement, 300),
        (corollary_bound_witness, 1)),
}


def run(suite):
    """{name, passed, detail} of each check of the suite, in order."""
    rng = np.random.default_rng(SEEDS[suite])
    checks = []
    for name, check, count in SUITES[suite]:
        try:
            check(rng, count)
            detail = ""
        except Exception as exc:
            detail = "%s: %s" % (type(exc).__name__, exc)
        checks.append({"name": name, "passed": not detail, "detail": detail})
    return checks
