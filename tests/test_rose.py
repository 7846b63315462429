"""Marked metric roses: translation lengths, stretch, and the candidate
formula checked against full enumeration."""

import itertools
from fractions import Fraction

import math
import tracemalloc

import numpy as np
import pytest

from outwalk import freegroup as fg
from outwalk import invariants
from outwalk import rose


def test_rose_point_normalizes_and_validates():
    p = rose.rose_point(["1/2", "1/2"])
    assert p.rank == 2
    assert sum(p.lengths) == 1
    with pytest.raises(ValueError):
        rose.rose_point(["1/2", "1/3"])      # volume must be 1
    with pytest.raises(ValueError):
        rose.rose_point(["1", "0"])          # every petal needs positive length


def test_unit_rose_translation_lengths():
    t = rose.unit_rose(2)
    assert rose.translation_length(fg.parse_word("ab"), t) == 1
    assert rose.translation_length(fg.parse_word("aB"), t) == 1
    # conjugation does not move the class
    assert rose.translation_length(fg.parse_word("abA"), t) == \
        rose.translation_length(fg.parse_word("b"), t)
    assert rose.translation_length(fg.parse_word(""), t) == 0


def test_translation_length_uses_the_marking():
    psi = fg.from_trace(2, ["R:1:2:+"])    # marking sends a to ab
    marked = rose.rose_point(["1/2", "1/2"], psi)
    assert rose.translation_length(fg.parse_word("a"), marked) == 1
    assert rose.translation_length(fg.parse_word("b"), marked) == Fraction(1, 2)


def test_max_stretch_asymmetry_between_even_and_skewed_roses():
    t = rose.unit_rose(2)
    u = rose.rose_point(["9/10", "1/10"])
    assert rose.max_stretch(t, u) == Fraction(9, 5)
    assert rose.max_stretch(u, t) == Fraction(5, 1)
    assert math.log(rose.max_stretch(t, u)) == pytest.approx(math.log(9 / 5))
    assert math.log(rose.max_stretch(u, t)) == pytest.approx(math.log(5))


def test_distance_vanishes_only_at_equal_points():
    t = rose.unit_rose(2)
    assert math.log(rose.max_stretch(t, t)) == 0.0
    u = rose.rose_point(["2/3", "1/3"])
    assert math.log(rose.max_stretch(t, u)) > 0


def test_kappa_of_identity_and_single_move():
    assert rose.kappa(fg.Automorphism.identity(2)) == 0.0
    phi = fg.from_trace(2, ["R:1:2:+"])
    assert rose.kappa_stretch(phi) == 2
    assert rose.kappa(phi) == pytest.approx(math.log(2))


def test_sigma_ratio_exact_values():
    phi = fg.from_trace(2, ["R:1:2:+"])    # a -> ab
    assert rose.sigma_ratio(phi, fg.parse_word("a")) == 2
    assert rose.sigma_ratio(phi, fg.parse_word("b")) == 1
    assert rose.sigma_ratio(phi, fg.parse_word("ab")) == Fraction(3, 2)
    with pytest.raises(ValueError):
        rose.sigma_ratio(phi, fg.parse_word("aA"))  # trivial class has no ratio


def test_length_cocycle_is_exactly_additive():
    rng = np.random.default_rng(11)
    for _ in range(300):
        phi = fg.random_automorphism(rng, 2, int(rng.integers(0, 8)))
        psi = fg.random_automorphism(rng, 2, int(rng.integers(0, 8)))
        g = fg.random_reduced_word(rng, 2, int(rng.integers(1, 14)))
        if fg.cyclic_length(g) == 0:
            continue
        lhs = rose.sigma_ratio(fg.compose(phi, psi), g)
        rhs = rose.sigma_ratio(phi, psi.apply(g)) * rose.sigma_ratio(psi, g)
        assert lhs == rhs


def test_sigma_never_exceeds_kappa():
    rng = np.random.default_rng(23)
    for _ in range(300):
        phi = fg.random_automorphism(rng, 2, int(rng.integers(1, 10)))
        g = fg.random_reduced_word(rng, 2, int(rng.integers(1, 16)))
        if fg.cyclic_length(g) == 0:
            continue
        assert rose.sigma_ratio(phi, g) <= rose.kappa_stretch(phi)


def test_candidate_set_contains_petals_and_stays_short():
    t = rose.unit_rose(2)
    cands = rose.candidate_set(t)
    texts = {fg.format_word(w) for w in cands}
    assert "a" in texts and "b" in texts
    assert all(fg.cyclic_length(w) == len(w) > 0 for w in cands)


def test_candidate_maximum_matches_full_enumeration():
    # the oracle ignores candidates entirely: it enumerates every conjugacy
    # class with a short cyclically reduced representative
    rng = np.random.default_rng(5)
    for _ in range(12):
        t = invariants.random_rose(rng, 2)
        u = invariants.random_rose(rng, 2)
        assert rose.brute_force_max_stretch(t, u, 8) == rose.max_stretch(t, u)


def test_candidate_maximum_matches_enumeration_in_rank_3():
    rng = np.random.default_rng(6)
    for _ in range(4):
        t = invariants.random_rose(rng, 3)
        u = invariants.random_rose(rng, 3)
        assert rose.brute_force_max_stretch(t, u, 6) == rose.max_stretch(t, u)


def test_brute_force_oracle_monotone_in_word_length_bound():
    rng = np.random.default_rng(9)
    t = invariants.random_rose(rng, 2)
    u = invariants.random_rose(rng, 2)
    vals = [rose.brute_force_max_stretch(t, u, L) for L in (2, 4, 6, 8)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == rose.max_stretch(t, u)


# the catalogue's checks again, on seeds of their own

def test_triangle_inequality_for_the_asymmetric_distance():
    invariants.triangle_inequality(np.random.default_rng(41), 40)


def test_act_moves_the_marking_and_is_an_isometry():
    invariants.action_isometry(np.random.default_rng(3), 5)


def test_kappa_equals_distance_from_base_to_translate():
    rng = np.random.default_rng(17)
    base = rose.unit_rose(2)
    for _ in range(20):
        phi = fg.random_automorphism(rng, 2, int(rng.integers(0, 8)))
        lhs = rose.kappa_stretch(phi)
        rhs = rose.max_stretch(rose.act(phi, base), base)
        assert lhs == rhs


def test_enumeration_refuses_unreasonable_sizes():
    t = rose.unit_rose(3)
    u = rose.rose_point(["1/2", "1/4", "1/4"])
    with pytest.raises(rose.ResourceLimitError):
        rose.brute_force_max_stretch(t, u, 30)
    with pytest.raises(ValueError):
        rose.brute_force_max_stretch(t, u, 0)     # no class to take a sup of


def _burnside_class_count(rank, length):
    # cyclically reduced words of length d: trace of the (2N)x(2N) transfer
    # matrix that forbids a letter after its inverse, (2N-1)^d + 1 +
    # (N-1)(1+(-1)^d); Burnside over rotations divides out the classes
    total = 0
    for d in range(1, length + 1):
        if length % d == 0:
            phi = sum(1 for k in range(1, length // d + 1)
                      if math.gcd(k, length // d) == 1)
            total += phi * ((2 * rank - 1) ** d + 1
                            + (rank - 1) * (1 + (-1) ** d))
    return total // length


def _unpack(vals, length, bits):
    """Packed letter codes (first letter most significant) -> int8 rows."""
    shifts = bits * np.arange(length - 1, -1, -1, dtype=np.int64)
    codes = (vals[:, None] >> shifts) & ((1 << bits) - 1)
    return (((codes >> 1) + 1) * (1 - 2 * (codes & 1))).astype(np.int8)


def necklace_blocks(rank, max_len):
    """One int8 array per length 1..max_len of the necklaces the oracle's
    prenecklace tree keeps, each row a class's least rotation under a < A <
    b < B < ..., rows ascending."""
    bits = (2 * rank - 1).bit_length()
    return [_unpack(vals[keep], n, bits) for n, (vals, _, _, keep)
            in enumerate(rose._prenecklace_levels(rank, max_len), start=1)]


def test_necklace_block_sizes_match_the_burnside_count():
    for rank, max_len in ((2, 14), (3, 8)):
        sizes = [len(b) for b in necklace_blocks(rank, max_len)]
        assert sizes == [_burnside_class_count(rank, L)
                         for L in range(1, max_len + 1)]
    assert [_burnside_class_count(2, L) for L in (12, 13, 14)] == \
        [44370, 122644, 341804]


def test_length_14_classes_are_not_wrapped_around():
    # a^13 b is its own least rotation; a packing that overflows 63 bits
    # turns it into a word that was never enumerated
    block = necklace_blocks(2, 14)[13]
    for text in ("a" * 13 + "b", "a" * 14):
        assert (block == fg.parse_word(text)).all(axis=1).any(), text


def _reference_blocks(rank, max_len):
    # every word, filtered to cyclically reduced ones, each replaced by its
    # least rotation under the letter codes a=0, A=1, b=2, ...; then sorted
    letters = [v for i in range(1, rank + 1) for v in (i, -i)]
    code = {v: k for k, v in enumerate(letters)}
    out = []
    for L in range(1, max_len + 1):
        classes = set()
        for w in itertools.product(letters, repeat=L):
            if any(w[k] == -w[(k + 1) % L] for k in range(L)):
                continue
            classes.add(min(tuple(code[v] for v in w[r:] + w[:r])
                            for r in range(L)))
        out.append([[letters[c] for c in row] for row in sorted(classes)])
    return out


def test_necklace_blocks_match_a_pure_python_enumeration():
    for rank, max_len in ((2, 8), (3, 5), (4, 4)):
        blocks = necklace_blocks(rank, max_len)
        assert len(blocks) == max_len
        for L, (block, ref) in enumerate(
                zip(blocks, _reference_blocks(rank, max_len)), start=1):
            assert block.dtype == np.int8 and block.shape == (len(ref), L)
            assert block.tolist() == ref


def test_packing_refuses_words_wider_than_63_bits(monkeypatch):
    # two bits per letter at rank 2: 31 letters fit, 32 do not; lift the
    # enumeration bound so the packing check is the one that fires, before
    # the first level is yielded
    monkeypatch.setattr(rose, "ENUMERATION_BOUND", 10 ** 30)
    with pytest.raises(rose.ResourceLimitError, match="63 bits"):
        next(rose._prenecklace_levels(2, 32))
    with pytest.raises(rose.ResourceLimitError, match="63 bits"):
        next(rose._prenecklace_levels(16, 13))      # five bits per letter


# the oracle's former block kernel, kept as the reference for the tree:
# the images of a whole block are gathered into one array, rows kept apart
# by freegroup's separator, freely reduced by its cancel pass, then
# cyclically reduced by peeling inverse letters off both ends of every row
def _batch_weighted_cyclic(theta_inv, block, weights_num):
    """For each row w of block: weighted cyclic length of theta_inv(w)."""
    flat_img, starts, lens = fg.image_table([theta_inv])
    # the table's last code is the separator's, whose image is itself
    sep = len(lens) - 1
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

    stop = np.flatnonzero(letters == fg.SEPARATOR)       # one per row, in order
    begin = np.concatenate(([0], stop[:-1] + 1))
    wtab = np.zeros(fg.SEPARATOR + 1, dtype=np.int64)
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


def _tree_lengths(rank, max_len, theta_inv, num_t, num_u):
    """The tree kernel's T- and U-lengths: a (2, count) array per block."""
    tree = rose._prenecklace_tree(rank, max_len)
    got = [np.full((2, np.count_nonzero(keep)), -1, dtype=np.int64)
           for _, _, keep in tree]
    for n, nodes, t, u in rose._necklace_lengths(rank, max_len, theta_inv,
                                                 num_t, num_u):
        necklaces = np.flatnonzero(tree[n - 1][2])
        at = np.searchsorted(necklaces, nodes)
        assert (necklaces[at] == nodes).all()
        assert (got[n - 1][:, at] == -1).all()      # each necklace once
        got[n - 1][:, at] = t, u
    return got


@pytest.mark.parametrize("chunk_bytes", [rose._CHUNK_BYTES, 1],
                         ids=["default-budget", "one-parent-chunks"])
def test_tree_kernel_matches_the_block_kernel_and_the_word_engine(
        monkeypatch, chunk_bytes):
    # a budget of one byte splits every chunk down to a single parent
    monkeypatch.setattr(rose, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(77)
    for rank, max_len in ((2, 8), (3, 5)):
        blocks = necklace_blocks(rank, max_len)
        for _ in range(3):
            theta = fg.random_automorphism(rng, rank, int(rng.integers(8, 15)))
            num_t = rng.integers(1, 12, size=rank)
            num_u = rng.integers(1, 12, size=rank)
            got = _tree_lengths(rank, max_len, theta, num_t, num_u)
            for block, (t, u) in zip(blocks, got):
                assert t.tolist() == \
                    num_t[np.abs(block).astype(np.intp) - 1].sum(axis=1).tolist()
                assert u.tolist() == \
                    _batch_weighted_cyclic(theta, block, num_u).tolist()
                want = []
                for row in block:
                    core, _ = fg.cyclic_reduce(theta.apply(row))
                    want.append(int(sum(num_u[abs(int(v)) - 1] for v in core)))
                assert u.tolist() == want


def test_the_held_tree_is_six_bytes_a_node():
    tree = rose._prenecklace_tree(2, 12)
    nodes = sum(len(parent) for parent, _, _ in tree)
    assert [(parent.dtype, code.dtype, keep.dtype)
            for parent, code, keep in tree] == \
        [(np.int32, np.int8, np.bool_)] * 12
    assert sum(a.nbytes for level in tree for a in level) == 6 * nodes


def test_a_tree_built_in_one_parent_chunks_is_the_same(monkeypatch):
    whole = rose._prenecklace_tree.__wrapped__(3, 6)
    monkeypatch.setattr(rose, "_CHUNK_BYTES", 1)
    chunked = rose._prenecklace_tree.__wrapped__(3, 6)
    for a, b in zip(whole, chunked):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and x.tolist() == y.tolist()


def test_one_oracle_call_stays_within_its_working_set():
    # the chunk budget counts rows and int64 vectors: 2 MB, against about
    # 9 MB traced when it counted the rows alone
    rng = np.random.default_rng(414)
    t, u = invariants.random_rose(rng, 2), invariants.random_rose(rng, 2)
    rose.brute_force_max_stretch(t, u, 12)           # builds the cached tree
    tracemalloc.start()
    try:
        rose.brute_force_max_stretch(t, u, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def _tiny_edge_pair(k):
    # u has an edge of length 2^-k; its relative marking has images of up
    # to 4 letters at max_len 8, so weighted U-lengths reach 32 (2^k - 1)
    phi = fg.from_trace(2, ["R:1:2:+", "R:1:2:+", "L:2:1:+"])
    return rose.unit_rose(2), rose.rose_point(
        [Fraction(1, 2 ** k), 1 - Fraction(1, 2 ** k)], phi)


def test_the_oracle_refuses_lengths_past_int64():
    t, u = _tiny_edge_pair(62)
    for a, b in ((t, u), (u, t)):
        with pytest.raises(rose.ResourceLimitError, match="2\\^63"):
            rose.brute_force_max_stretch(a, b, 8)
    t, u = _tiny_edge_pair(59)          # 32 (2^59 - 1) >= 2^63
    with pytest.raises(rose.ResourceLimitError, match="2\\^63"):
        rose.brute_force_max_stretch(t, u, 8)


def test_lengths_just_inside_int64_are_exact():
    t, u = _tiny_edge_pair(58)          # 32 (2^58 - 1) < 2^63
    assert rose.brute_force_max_stretch(t, u, 8) == rose.max_stretch(t, u)
    t, u = _tiny_edge_pair(60)          # T-lengths up to 8 (2^60 - 1)
    assert rose.brute_force_max_stretch(u, t, 8) == rose.max_stretch(u, t)


def test_every_class_ties_between_a_point_and_itself():
    rng = np.random.default_rng(12)
    for rank, max_len in ((2, 8), (3, 5)):
        for point in (rose.unit_rose(rank), invariants.random_rose(rng, rank)):
            assert rose.brute_force_max_stretch(point, point, max_len) == 1


def test_supremum_reached_at_several_t_lengths_of_one_word_length():
    # a (T-length 1/3) and b (T-length 2/3) both stretch by 3/2, and so do
    # aa, ab, bb and many longer classes of each word length
    t = rose.rose_point(["1/3", "2/3"])
    u = rose.rose_point(["1/2", "1/2"], fg.from_trace(2, ["L:2:1:-"]))
    for max_len in (1, 2, 6):
        assert rose.brute_force_max_stretch(t, u, max_len) == Fraction(3, 2)
    assert rose.max_stretch(t, u) == Fraction(3, 2)
