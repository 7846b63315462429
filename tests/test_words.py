"""Word arithmetic against naive reference implementations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from outwalk import freegroup as fg


def naive_reduce(letters):
    """Stack reducer used as the oracle for the vectorized one."""
    out = []
    for v in letters:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(int(v))
    return out


def naive_cyclic_core(letters):
    w = naive_reduce(letters)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


letters_f3 = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=0, max_size=60)


@given(letters_f3)
def test_reduce_matches_naive_stack(raw):
    assert fg.reduce(raw).tolist() == naive_reduce(raw)


@given(letters_f3)
def test_reduce_idempotent(raw):
    w = fg.reduce(raw)
    assert np.array_equal(fg.reduce(w), w)
    assert fg.is_reduced(w)


@given(letters_f3)
def test_reduced_word_has_no_adjacent_cancellation(raw):
    w = fg.reduce(raw)
    for i in range(len(w) - 1):
        assert int(w[i]) != -int(w[i + 1])


@given(letters_f3, letters_f3)
def test_concat_reduces_product(u_raw, v_raw):
    u, v = fg.reduce(u_raw), fg.reduce(v_raw)
    assert fg.concat(u, v).tolist() == naive_reduce(list(u) + list(v))


@given(letters_f3)
def test_inverse_involution_and_cancellation(raw):
    w = fg.reduce(raw)
    assert np.array_equal(fg.inverse(fg.inverse(w)), w)
    assert len(fg.concat(w, fg.inverse(w))) == 0


def test_long_words_use_the_vectorized_path():
    # the stack reducer handles short words; anything past 64 letters takes
    # the cancel-pass route, so force both on the same input
    rng = np.random.default_rng(7)
    raw = rng.choice([1, -1, 2, -2], size=5000).tolist()
    assert fg.reduce(raw).tolist() == naive_reduce(raw)


# -- separated arrays: many words in one, each followed by the separator

@given(st.lists(letters_f3, max_size=6))
def test_reduce_reduces_each_separated_word_alone(raws):
    joined = fg.join(raws)
    assert fg.segment_lengths(joined).tolist() == [len(r) for r in raws]
    assert [w.tolist() for w in fg.split(fg.reduce(joined))] == \
        [fg.reduce(r).tolist() for r in raws]


@pytest.mark.parametrize("copies", [1, 20], ids=["list-path", "cancel-passes"])
def test_reduce_never_cancels_across_a_separator(copies):
    # nested cancellations that take several passes, words that reduce to
    # nothing next to each other, and pairs that would cancel only across a
    # separator, which must be kept
    texts = ["abcCBA", "aaBbAA", "ab", "Ba", "", "bB", "A", "aBcCbA", "c",
             "Cab"] * copies
    raws = [[ord(ch) - 96 if ch.islower() else 64 - ord(ch) for ch in t]
            for t in texts]
    joined = fg.join(raws)
    assert (len(joined) > 64) == (copies > 1)
    got = fg.split(fg.reduce(joined))
    assert [w.tolist() for w in got] == [fg.reduce(r).tolist() for r in raws]
    assert [fg.format_word(w) for w in got[:10]] == \
        ["", "", "ab", "Ba", "", "", "A", "", "c", "Cab"]


@pytest.mark.parametrize("seed", range(4))
def test_cyclic_lengths_match_cyclic_length(seed):
    # reduced words with long conjugators, single letters and empty words,
    # in one separated array below and above 64 letters
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(12):
        core = fg.random_reduced_word(rng, 3, int(rng.integers(0, 40)))
        s = fg.random_reduced_word(rng, 3, int(rng.integers(0, 30)))
        words.append(fg.concat(s, core, fg.inverse(s)))
    words += [fg.parse_word("a"), fg.parse_word(""), fg.parse_word("abA")]
    for chosen in (words[-3:], words):
        joined = fg.join(chosen)
        lens = fg.segment_lengths(joined)
        assert fg.cyclic_lengths(joined, lens).tolist() == \
            [fg.cyclic_length(w) for w in chosen]
    assert len(fg.join(words)) > 64


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_cyclic_lengths_peel_in_rounds_then_scan(rank, seed):
    # conjugators of every depth from 0 past the rounds (so the last words
    # are scanned whole), on cores of 0-3 letters and longer ones, with
    # empty and one-letter words between them, against cyclic_length
    rng = np.random.default_rng(100 + seed)
    deep = fg._PEEL_ROUNDS
    words = []
    for depth in list(range(deep + 4)) + [40, 300]:
        for core_len in (0, 1, 2, 3, int(rng.integers(4, 60))):
            core = fg.random_reduced_word(rng, rank, core_len)
            s = fg.random_reduced_word(rng, rank, depth)
            words.append(fg.concat(s, core, fg.inverse(s)))
    order = rng.permutation(len(words))
    words = [words[i] for i in order]
    want = [fg.cyclic_length(w) for w in words]
    assert max(len(w) - c for w, c in zip(words, want)) > 2 * deep
    for chosen, cyc in ((words, want), (words[:5], want[:5]),
                        (words[-1:], want[-1:])):
        joined = fg.join(chosen)
        assert fg.cyclic_lengths(joined, fg.segment_lengths(joined)
                                 ).tolist() == cyc


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65])
def test_cyclic_length_counts_what_cyclic_reduce_peels(n):
    # reduced words of n letters, on either side of the 64-letter list path,
    # with conjugators of every depth a reduced word of n letters allows
    rng = np.random.default_rng(n)
    for k in range(max(1, (n + 1) // 2)):
        while True:
            s = fg.random_reduced_word(rng, 3, k).tolist()
            core = fg.random_reduced_word(rng, 3, n - 2 * k).tolist()
            w = np.array(s + core + [-v for v in reversed(s)],
                         dtype=fg.LETTER_DTYPE)
            if fg.is_reduced(w):
                break
        assert len(w) == n
        assert fg.cyclic_length(w) == len(fg.cyclic_reduce(w)[0]) <= n - 2 * k


@pytest.mark.parametrize("half", [1, 32, 33])
def test_cyclic_length_rejects_a_word_that_cancels_at_its_middle(half):
    # s s^-1 of 2, 64 and 66 letters: list path and array path
    s = fg.random_reduced_word(np.random.default_rng(half), 3, half)
    w = np.concatenate((s, fg.inverse(s)))
    for fn in (fg.cyclic_length, fg.cyclic_reduce):
        with pytest.raises(ValueError, match="not freely reduced"):
            fn(w)


@given(letters_f3)
def test_cyclic_reduce_conjugacy_relation(raw):
    w = fg.reduce(raw)
    core, conj = fg.cyclic_reduce(w)
    assert core.tolist() == naive_cyclic_core(raw)
    back = fg.concat(conj, core, fg.inverse(conj))
    assert np.array_equal(back, w)
    assert fg.cyclic_length(w) == len(core)


@given(letters_f3)
def test_canonical_rotation_is_a_rotation_of_the_core(raw):
    core = np.asarray(naive_cyclic_core(raw), dtype=np.int8)
    canon = fg.canonical_rotation(core)
    rotations = {tuple(np.roll(core, k)) for k in range(max(len(core), 1))}
    assert tuple(canon.tolist()) in rotations or len(core) == 0


@given(letters_f3)
def test_canonical_rotation_minimal_in_letter_code_order(raw):
    core = np.asarray(naive_cyclic_core(raw), dtype=np.int8)
    if len(core) == 0:
        return
    canon = fg.canonical_rotation(core)
    key = tuple(fg.letter_code(int(v)) for v in canon)
    for k in range(len(core)):
        rot = np.roll(core, k)
        assert key <= tuple(fg.letter_code(int(v)) for v in rot)


@given(letters_f3, st.integers(min_value=0, max_value=59))
def test_canonical_rotation_rotation_invariant(raw, k):
    core = np.asarray(naive_cyclic_core(raw), dtype=np.int8)
    if len(core) == 0:
        return
    a = fg.canonical_rotation(core)
    b = fg.canonical_rotation(np.roll(core, k % len(core)))
    assert np.array_equal(a, b)


@given(letters_f3, letters_f3)
def test_common_prefix_len_matches_scan(u_raw, v_raw):
    u, v = fg.reduce(u_raw), fg.reduce(v_raw)
    k = fg.common_prefix_len(u, v)
    assert u[:k].tolist() == v[:k].tolist()
    assert k == min(len(u), len(v)) or int(u[k]) != int(v[k])
    # the same words as int8 bytes, as the tree calculus passes them
    assert fg.common_prefix_len(u.tobytes(), v.tobytes()) == k


@pytest.mark.parametrize("seed", range(4))
def test_row_prefix_matches_common_prefix_len(seed):
    # two letters, so rows share long prefixes with the reference; the caps
    # are ragged, with zeros, and the reference is narrower than the rows,
    # as wide, or wider
    rng = np.random.default_rng(seed)
    letters = np.array([1, -2], dtype=np.int8)
    rows = rng.choice(letters, size=(60, 12))
    n = rng.integers(0, 13, size=60)
    n[:6] = 0
    for width in (1, 7, 12, 20):
        ref = rng.choice(letters, size=width)
        rows[6:12, :width] = ref[:12]       # equal to the end of either
        want = [fg.common_prefix_len(row[:k], ref) for row, k in zip(rows, n)]
        assert fg.row_prefix(rows, ref, n).tolist() == want
    # stacked references, each broadcast against every row
    refs = rng.choice(letters, size=(3, 1, 15))
    refs[:, 0, :12] = rows[:3]
    assert fg.row_prefix(rows, refs, n).tolist() == [
        [fg.common_prefix_len(row[:k], ref[0]) for row, k in zip(rows, n)]
        for ref in refs]


words_text = st.text(alphabet="abcABC", min_size=0, max_size=40)


@given(words_text)
def test_parse_format_round_trip(text):
    w = fg.parse_word(text)
    assert fg.is_reduced(w)
    assert np.array_equal(fg.parse_word(fg.format_word(w)), w)


def test_parse_word_letter_values():
    assert fg.parse_word("aA").tolist() == []
    assert fg.parse_word("abC").tolist() == [1, 2, -3]
    with pytest.raises(ValueError):
        fg.parse_word("a!b")


def test_letter_code_orders_letters_by_generator_then_sign():
    # a < A < b < B < c < ...
    codes = [fg.letter_code(v) for v in (1, -1, 2, -2, 3, -3)]
    assert codes == sorted(codes)
    assert len(set(codes)) == 6


def test_check_rank_rejects_out_of_range_letters():
    with pytest.raises(fg.RankError):
        fg.check_rank(fg.parse_word("abc"), 2)
    fg.check_rank(fg.parse_word("abc"), 3)


def test_word_key_distinguishes_words():
    assert fg.word_key(fg.parse_word("ab")) != fg.word_key(fg.parse_word("aB"))
    assert fg.word_key(fg.parse_word("ab")) == fg.word_key(fg.parse_word("ab"))


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=2, max_value=4))
@settings(max_examples=40)
def test_random_reduced_word_is_reduced_with_exact_length(length, rank):
    rng = np.random.default_rng(length * 10 + rank)
    w = fg.random_reduced_word(rng, rank, length)
    assert len(w) == length
    assert fg.is_reduced(w)
    fg.check_rank(w, rank)


def per_letter_reduced_word(rng, rank, length):
    """The sampler random_reduced_word replaced: one draw per letter, among
    the letters a1, a1^-1, a2, ... other than the inverse of the last one."""
    if length == 0:
        return []
    gens = [g for i in range(1, rank + 1) for g in (i, -i)]
    word = [gens[rng.integers(2 * rank)]]
    for _ in range(1, length):
        choices = [g for g in gens if g != -word[-1]]
        word.append(choices[rng.integers(2 * rank - 1)])
    return word


def test_random_reduced_word_matches_the_per_letter_sampler():
    for seed in range(200):
        for rank in (2, 3, 5):
            for length in (0, 1, 2, 7, 30):
                fast = np.random.default_rng(seed)
                slow = np.random.default_rng(seed)
                assert fg.random_reduced_word(fast, rank, length).tolist() == \
                    per_letter_reduced_word(slow, rank, length)
                # the generator is left in the same state
                assert fast.integers(1 << 40) == slow.integers(1 << 40)


def test_occurrence_counts_tally_both_signs():
    w = fg.parse_word("abAAb")
    counts = fg.occurrence_counts(w, 2)
    assert counts.tolist() == [3, 2]
