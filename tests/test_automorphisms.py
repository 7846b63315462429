"""Elementary moves, composition, and inversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from outwalk import freegroup as fg


def images(phi):
    return [fg.format_word(w) for w in phi.forward]


def is_identity(phi):
    return images(phi) == [fg.format_word([i]) for i in range(1, phi.rank + 1)]


def test_elementary_images():
    assert images(fg.elementary("R:1:2:+", 2)) == ["ab", "b"]
    assert images(fg.elementary("R:1:2:-", 2)) == ["aB", "b"]
    assert images(fg.elementary("L:1:2:+", 2)) == ["ba", "b"]
    assert images(fg.elementary("L:2:1:-", 2)) == ["a", "Ab"]
    assert images(fg.elementary("I:1", 2)) == ["A", "b"]
    assert images(fg.elementary("T:1:2", 3)) == ["b", "a", "c"]


def test_elementary_rejects_bad_moves():
    for move in ("R:1:1:+", "Q:1:2:+", "R:0:2:+", "R:1:3:+", "R:1:2", "I:0"):
        with pytest.raises(ValueError):
            fg.elementary(move, 2)
    # a transposition of a letter with itself is just the identity
    assert is_identity(fg.elementary("T:1:1", 2))


def test_invert_move_round_trip():
    # each move against its opposite; inversions and transpositions are
    # involutions
    for move, opposite in (("R:1:2:+", "R:1:2:-"), ("R:2:1:-", "R:2:1:+"),
                           ("L:1:2:+", "L:1:2:-"), ("L:2:1:-", "L:2:1:+"),
                           ("I:2", "I:2"), ("T:1:2", "T:1:2")):
        phi, psi = fg.elementary(move, 2), fg.elementary(opposite, 2)
        assert is_identity(fg.compose(phi, psi))
        assert is_identity(fg.compose(psi, phi))
        assert images(phi.inverted()) == images(psi)


moves = st.sampled_from(
    ["R:1:2:+", "R:1:2:-", "R:2:1:+", "R:2:1:-",
     "L:1:2:+", "L:2:1:-", "I:1", "I:2", "T:1:2"])
traces = st.lists(moves, min_size=0, max_size=8)
short_words = st.text(alphabet="abAB", min_size=0, max_size=20)


@given(traces, short_words)
def test_from_trace_applies_moves_left_to_right(trace, text):
    w = fg.parse_word(text)
    phi = fg.from_trace(2, trace)
    expected = w
    for move in trace:
        expected = fg.elementary(move, 2).apply(expected)
    assert np.array_equal(phi.apply(w), expected)


@given(traces, short_words)
def test_inverse_undoes_apply(trace, text):
    phi = fg.from_trace(2, trace)
    w = fg.parse_word(text)
    assert np.array_equal(phi.inverted().apply(phi.apply(w)), w)
    assert np.array_equal(phi.apply(phi.inverted().apply(w)), w)


@given(traces, short_words, short_words)
def test_apply_is_a_homomorphism(trace, s, t):
    phi = fg.from_trace(2, trace)
    u, v = fg.parse_word(s), fg.parse_word(t)
    lhs = phi.apply(fg.concat(u, v))
    rhs = fg.concat(phi.apply(u), phi.apply(v))
    assert np.array_equal(lhs, rhs)


@given(traces, traces, short_words)
def test_compose_applies_right_factor_first(t1, t2, text):
    phi, psi = fg.from_trace(2, t1), fg.from_trace(2, t2)
    w = fg.parse_word(text)
    assert np.array_equal(
        fg.compose(phi, psi).apply(w), phi.apply(psi.apply(w)))


def test_identity_automorphism():
    e = fg.Automorphism.identity(3)
    assert images(e) == ["a", "b", "c"]
    assert images(e.inverted()) == ["a", "b", "c"]
    w = fg.parse_word("abcBA")
    assert np.array_equal(e.apply(w), w)


def test_constructor_rejects_mismatched_inverse():
    fwd = [fg.parse_word("ab"), fg.parse_word("b")]
    bad_inv = [fg.parse_word("a"), fg.parse_word("b")]  # a>a does not undo a>ab
    with pytest.raises(ValueError):
        fg.Automorphism(2, fwd, bad_inv)


def test_inverted_runs_no_round_trip(monkeypatch):
    # the round trip that checks phi also proves its inverse: a verified
    # inv o fwd = id makes both automorphisms, as F_N is Hopfian
    calls = []
    monkeypatch.setattr(fg.Automorphism, "_verify_round_trip",
                        lambda self: calls.append(self))
    fwd = [fg.parse_word("ab"), fg.parse_word("b")]
    phi = fg.Automorphism(2, fwd, [fg.parse_word("aB"), fg.parse_word("b")])
    assert calls == [phi]
    inv = phi.inverted()
    assert calls == [phi]
    assert inv.inverted() is phi and phi.inverted() is inv
    assert images(inv) == ["aB", "b"]


def test_checked_automorphisms_build_no_inverse_twin():
    # the round trip reads the inverse images directly: no constructor
    # leaves a cached inverse, and with it a reference cycle, behind (a
    # right factor of compose still builds its own, to apply its inverse)
    fwd = [fg.parse_word("ab"), fg.parse_word("b")]
    inv = [fg.parse_word("aB"), fg.parse_word("b")]
    phi = fg.Automorphism(2, fwd, inv)
    assert phi._inverted is None
    psi = fg.Automorphism._trusted(2, inv, fwd)
    assert psi._inverted is None
    both = fg.compose(phi, psi)
    assert both._inverted is None and images(both) == ["a", "b"]
    walk = fg.from_trace(2, ["R:1:2:+", "L:2:1:-", "I:1", "T:1:2"])
    assert walk._inverted is None


def test_a_checked_compose_builds_each_image_table_once(monkeypatch):
    # the round trip that checked psi built psi's inverse images, which are
    # its twin's forward table: applying psi's inverse in compose takes that
    # table, so one compose builds phi's forward table and its own result's
    # round-trip table only
    built = []
    letter_images = fg._letter_images

    def counted(images):
        built.append([fg.format_word(w) for w in images])
        return letter_images(images)

    monkeypatch.setattr(fg, "_letter_images", counted)
    phi = fg.Automorphism(2, [fg.parse_word("ab"), fg.parse_word("b")],
                          [fg.parse_word("aB"), fg.parse_word("b")])
    psi = fg.Automorphism(2, [fg.parse_word("a"), fg.parse_word("ba")],
                          [fg.parse_word("a"), fg.parse_word("bA")])
    assert built == [["aB", "b"], ["a", "bA"]]      # the two round trips
    del built[:]
    both = fg.compose(phi, psi)
    assert images(both) == ["ab", "bab"]
    assert built == [["ab", "b"], [fg.format_word(w) for w in both.inverse]]
    assert psi._inverse_lists is None       # handed to its twin


def test_trusted_constructor_rejects_mismatched_inverse():
    fwd = [fg.parse_word("ab"), fg.parse_word("b")]
    bad_inv = [fg.parse_word("a"), fg.parse_word("b")]
    with pytest.raises(ValueError):
        fg.Automorphism._trusted(2, fwd, bad_inv)


def test_constructor_rejects_wrong_rank_letters():
    fwd = [fg.parse_word("ac"), fg.parse_word("b")]
    with pytest.raises(fg.RankError):
        fg.Automorphism(2, fwd, fwd)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=12))
def test_random_automorphism_is_invertible(seed, rank, n_moves):
    rng = np.random.default_rng(seed)
    phi = fg.random_automorphism(rng, rank, n_moves)
    assert is_identity(fg.compose(phi, phi.inverted()))
    assert is_identity(fg.compose(phi.inverted(), phi))


def test_apply_accepts_empty_word():
    phi = fg.from_trace(2, ["R:1:2:+", "I:2"])
    assert len(phi.apply(fg.parse_word(""))) == 0


def test_images_grow_exponentially_under_iterated_positive_moves():
    # a>ab composed with b>ba grows lengths roughly like Fibonacci
    phi = fg.from_trace(2, ["R:1:2:+", "R:2:1:+"] * 12)
    total = sum(len(w) for w in phi.forward)
    assert total > 10000
    # round trips stay exact at sizes where the letter gather is affordable
    small = fg.from_trace(2, ["R:1:2:+", "R:2:1:+"] * 5)
    probe = small.apply(fg.parse_word("a"))
    assert np.array_equal(small.inverted().apply(probe), fg.parse_word("a"))


@pytest.mark.parametrize("rank", [2, 3])
def test_padded_segment_tables_match_apply(rank):
    # images of at most 8 letters are padded into one int8 table; a longer
    # image keeps the ragged table; both apply each word under its own atom
    rng = np.random.default_rng(10 + rank)
    short = [fg.elementary("R:1:2:+", rank), fg.elementary("L:2:1:-", rank),
             fg.from_trace(rank, ["R:1:2:+", "R:2:1:+", "I:1"]),
             fg.from_trace(rank, ["R:1:2:+"] * 7),      # a -> a b^7
             fg.Automorphism.identity(rank)]
    long = short + [fg.from_trace(rank, ["R:1:2:+"] * 8)]
    assert max(len(w) for phi in short for w in phi.forward) == 8
    padded, ragged = fg.segment_table(short), fg.segment_table(long)
    assert isinstance(padded, np.ndarray) and padded.shape[1] == 8
    assert isinstance(ragged, tuple)
    words = [fg.random_reduced_word(rng, rank, n)
             for n in [0, 1, 2, 7, 64, 65, 300] * 3]
    joined = fg.join(words)
    lens = fg.segment_lengths(joined)
    for autos, table in ((short, padded), (long, ragged)):
        atoms = rng.integers(0, len(autos), size=len(words))
        got = fg.apply_segments(table, joined, lens, atoms)
        assert [w.tolist() for w in fg.split(got)] == \
            [autos[i].apply(w).tolist() for i, w in zip(atoms.tolist(), words)]


@pytest.mark.parametrize("rank", [2, 3])
def test_apply_segments_matches_apply(rank):
    # one ragged gather of many words, each under its own automorphism,
    # against Automorphism.apply one word at a time, on words below and
    # above the 64 letters where apply leaves its list path; and
    # apply_inverse against the inverse applied forward on the same words
    rng = np.random.default_rng(rank)
    autos = [fg.random_automorphism(rng, rank, int(n)) for n in (3, 5, 8)]
    autos += [fg.from_trace(rank, ["R:1:2:+", "L:2:1:-"] * 3),
              fg.Automorphism.identity(rank)]
    assert max(len(w) for phi in autos for w in phi.forward) > 2
    table = fg.image_table(autos)
    lengths = [0, 1, 5, 63, 64, 65, 200, 1000]
    words = [fg.random_reduced_word(rng, rank, n) for n in lengths * 2]
    atoms = rng.integers(0, len(autos), size=len(words))
    joined = fg.join(words)
    got = fg.apply_segments(table, joined, fg.segment_lengths(joined), atoms)
    assert [w.tolist() for w in fg.split(got)] == \
        [autos[i].apply(w).tolist() for i, w in zip(atoms.tolist(), words)]
    assert len(joined) > 64
    # apply_inverse undoes apply on both of apply's paths
    for phi in autos:
        for w in words:
            assert np.array_equal(phi.apply_inverse(phi.apply(w)), w)
            assert np.array_equal(phi.apply_inverse(w),
                                  phi.inverted().apply(w))
