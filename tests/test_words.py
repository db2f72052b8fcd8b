import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from garside_census.matrices import b_total
from garside_census.permutations import (
    Perm,
    compose,
    d_left,
    d_right,
    flip,
    identity,
    inversion_number,
    is_normal_pair,
    perm_of_letters,
    phi,
    simple_enumeration,
    transposition,
)
from garside_census.words import (
    NormalSequence,
    PositiveWord,
    degree,
    delta_letters,
    dth_factor,
    normalize,
    normalize_factors,
    parse_word,
    rewrite_potential,
)


def letters_of(x: Perm) -> tuple[int, ...]:
    """
    A reduced positive word for a square-free braid, peeling the smallest
    right descent until the identity remains.
    """
    out: list[int] = []
    n = len(x)
    while x != identity(n):
        i = min(d_right(x))
        out.append(i)
        x = compose(x, transposition(n, i))
    return tuple(reversed(out))


def _reference_normalize_factors(n, factors, on_step=None):
    """
    The normal form move by move on permutation tuples and frozenset
    descents: the slow reference for normalize_factors, with the same
    moves, carries and on_step reports in the same order.  The prefix is
    stored in frame t (the factor standing there is phi^t of the stored
    one), and a half twist arising at the current slot is counted apart.
    """
    factors = tuple(factors)
    one, delta = identity(n), flip(n)
    deltas, t = 0, 0
    prefix: list[Perm] = []

    def braid():
        return (delta,) * deltas + tuple(phi(x) if t else x for x in prefix)

    for pos, y in enumerate(factors):
        prefix.append(phi(y) if t else y)
        k = len(prefix) - 1
        while True:
            if n > 1 and prefix[k] == delta:
                del prefix[k]
                deltas, t = deltas + 1, 1 - t
                prefix[k:] = [phi(x) for x in prefix[k:]]
                if k and on_step is not None:
                    on_step(braid() + factors[pos + 1 :])
                break
            if k == 0 or not (movable := d_left(prefix[k]) - d_right(prefix[k - 1])):
                break
            while movable:
                s_i = transposition(n, min(movable))
                prefix[k - 1] = compose(prefix[k - 1], s_i)
                prefix[k] = compose(s_i, prefix[k])
                if on_step is not None:
                    on_step(braid() + factors[pos + 1 :])
                movable = d_left(prefix[k]) - d_right(prefix[k - 1])
            k -= 1
        while prefix and prefix[-1] == one:
            prefix.pop()
    return NormalSequence(n=n, factors=braid())


def _carry_free_normalize_factors(n, factors):
    """
    The normal form by local moves alone, a half twist walking left one
    move per generator: the second reference, which shares no frame or
    carry with normalize_factors.
    """
    one = identity(n)
    prefix: list[Perm] = []
    for y in factors:
        prefix.append(y)
        k = len(prefix) - 1
        while k > 0 and (movable := d_left(prefix[k]) - d_right(prefix[k - 1])):
            while movable:
                s_i = transposition(n, min(movable))
                prefix[k - 1] = compose(prefix[k - 1], s_i)
                prefix[k] = compose(s_i, prefix[k])
                movable = d_left(prefix[k]) - d_right(prefix[k - 1])
            k -= 1
        while prefix and prefix[-1] == one:
            prefix.pop()
    return NormalSequence(n=n, factors=tuple(prefix))


def word_strategy(max_n=5, max_len=12):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(1, n - 1), max_size=max_len)
        )
    )


# --- parsing -----------------------------------------------------------------


def test_parse_examples():
    assert parse_word("s1 s2 s1", 3).letters == (1, 2, 1)
    assert parse_word("1^3", 2).letters == (1, 1, 1)
    assert parse_word("D", 3).letters == (1, 2, 1)
    assert parse_word("", 4).letters == ()
    assert parse_word("s2^2 3", 4).letters == (2, 2, 3)
    assert parse_word("D^2", 3).letters == (1, 2, 1, 1, 2, 1)


def test_parse_errors():
    with pytest.raises(ValueError, match="token 2"):
        parse_word("s1 huh", 3)
    with pytest.raises(ValueError, match="out of range"):
        parse_word("s3", 3)
    with pytest.raises(ValueError, match="token 1"):
        parse_word("s1^0", 3)
    with pytest.raises(ValueError):
        PositiveWord(n=3, letters=(1, 5))


@pytest.mark.parametrize("n", range(1, 7))
def test_delta_word_is_half_twist(n):
    letters = delta_letters(n)
    assert len(letters) == n * (n - 1) // 2
    assert perm_of_letters(letters, n) == flip(n)


# --- normalization ------------------------------------------------------------


def test_normalize_examples():
    seq = normalize(parse_word("s1 s2 s1", 3))
    assert seq.factors == (flip(3),)
    assert degree(seq) == 1

    seq = normalize(parse_word("s1 s1", 2))
    assert seq.factors == (flip(2), flip(2))

    seq = normalize(parse_word("s2 s1", 3))
    assert seq.factors == ((3, 1, 2),)

    assert normalize(parse_word("", 4)).factors == ()


def test_degree_and_padding():
    seq = normalize(parse_word("s1 s2 s1", 3))
    assert dth_factor(seq, 1) == flip(3)
    assert dth_factor(seq, 6) == identity(3)
    with pytest.raises(ValueError):
        dth_factor(seq, 0)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("d", range(1, 5))
def test_half_twist_powers(n, d):
    seq = normalize(parse_word(f"D^{d}", n))
    assert degree(seq) == d
    assert seq.factors == (flip(n),) * d


def test_normal_sequence_invariants_enforced():
    with pytest.raises(ValueError):
        NormalSequence(n=3, factors=(identity(3),))
    with pytest.raises(ValueError):
        NormalSequence(n=3, factors=((2, 1, 3), (1, 3, 2)))
    NormalSequence(n=3, factors=((1, 3, 2), (3, 1, 2)))


@settings(max_examples=150, deadline=None)
@given(word_strategy())
def test_normalize_soundness(data):
    n, letters = data
    word = PositiveWord(n=n, letters=tuple(letters))
    potentials = []
    seq = normalize(word, on_step=lambda fs: potentials.append(rewrite_potential(fs)))

    # output is a valid normal sequence
    for k in range(len(seq.factors) - 1):
        assert is_normal_pair(seq.factors[k], seq.factors[k + 1])
    if seq.factors:
        assert seq.factors[-1] != identity(n)

    # the permutation image and the total crossing count are conserved
    product = functools.reduce(compose, seq.factors, identity(n))
    assert product == perm_of_letters(letters, n)
    assert sum(inversion_number(x) for x in seq.factors) == len(letters)

    # each move lowers the termination measure by one, each carry by more
    trail = [rewrite_potential(tuple(perm_of_letters([i], n) for i in letters))] + potentials
    assert all(b < a for a, b in zip(trail, trail[1:]))


@settings(max_examples=150, deadline=None)
@given(word_strategy())
def test_on_step_reports_the_whole_braid(data):
    # every report is the whole sequence: prefix plus the letters not yet taken
    n, letters = data
    reports = []
    normalize(PositiveWord(n=n, letters=tuple(letters)), on_step=reports.append)
    target = perm_of_letters(letters, n)
    for fs in reports:
        assert functools.reduce(compose, fs, identity(n)) == target
        assert sum(inversion_number(x) for x in fs) == len(letters)


def factor_sequence_strategy(max_n=6, max_len=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.permutations(range(1, n + 1)).map(tuple), max_size=max_len)
        )
    )


@settings(max_examples=150, deadline=None)
@given(factor_sequence_strategy())
def test_normalize_factors_matches_letters(data):
    # factors with several generators exercise the early stop of the pass
    n, factors = data
    letters = tuple(i for x in factors for i in letters_of(x))
    assert normalize_factors(n, factors) == normalize(PositiveWord(n=n, letters=letters))


def assert_matches_reference(n, factors):
    fast, slow = [], []
    assert normalize_factors(n, factors, fast.append) == _reference_normalize_factors(n, factors, slow.append)
    assert fast == slow


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(1, n - 1), max_size=80) if n > 1 else st.just([])
        )
    )
)
def test_normalize_matches_the_reference_on_words(data):
    n, letters = data
    assert_matches_reference(n, [transposition(n, i) for i in letters])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.one_of(st.sampled_from(simple_enumeration(n)), st.just(flip(n))), max_size=10),
            st.lists(st.integers(0, 10), max_size=3),
        )
    )
)
def test_normalize_factors_matches_the_reference(data):
    # half twists are drawn often and identity factors are inserted
    # anywhere, the middle included, and the normal form itself is fed
    # back in as an already-normal list
    n, factors, slots = data
    for slot in slots:
        factors.insert(min(slot, len(factors)), identity(n))
    assert_matches_reference(n, factors)
    assert normalize_factors(n, factors) == _carry_free_normalize_factors(n, factors)
    normal = _reference_normalize_factors(n, factors).factors
    assert_matches_reference(n, normal)
    assert normalize_factors(n, normal).factors == normal


def test_normalize_long_word():
    rng = random.Random(3000)
    n = 8
    letters = tuple(rng.randint(1, n - 1) for _ in range(3000))
    moves = []
    seq = normalize(PositiveWord(n=n, letters=letters), on_step=lambda fs: moves.append(1))

    for k in range(len(seq.factors) - 1):
        assert is_normal_pair(seq.factors[k], seq.factors[k + 1])
    assert seq.factors and seq.factors[-1] != identity(n)
    product = functools.reduce(compose, seq.factors, identity(n))
    assert product == perm_of_letters(letters, n)
    assert sum(inversion_number(x) for x in seq.factors) == len(letters)

    # each report lowers the measure by at least one and the pops never raise it
    start = rewrite_potential(tuple(perm_of_letters([i], n) for i in letters))
    assert 0 < len(moves) <= start - rewrite_potential(seq.factors)


def test_normalize_long_word_reports_at_most_one_step_per_letter():
    # at n = 3 almost every move of the carry-free rewriting walks a half
    # twist to the front (about 409 000 for this word); a carry is one report
    rng = random.Random(3000)
    n = 3
    letters = tuple(rng.randint(1, n - 1) for _ in range(3000))
    reports = []
    seq = normalize(PositiveWord(n=n, letters=letters), on_step=lambda fs: reports.append(1))

    product = functools.reduce(compose, seq.factors, identity(n))
    assert product == perm_of_letters(letters, n)
    assert sum(inversion_number(x) for x in seq.factors) == len(letters)
    assert 0 < len(reports) <= len(letters)


@st.composite
def delta_rich_words(draw, max_letters=200):
    """A word on 2..5 strands of tokens s<i> and D^e, at most max_letters letters."""
    n = draw(st.integers(2, 5))
    budget = draw(st.integers(0, max_letters))
    dlen = n * (n - 1) // 2
    tokens, letters = [], 0
    while letters < budget:
        # a negative token -e stands for D^e, one that overshoots for s1
        token = draw(st.one_of(st.integers(1, n - 1), st.integers(-3, -1)))
        if token < 0 and letters - token * dlen > budget:
            token = 1
        tokens.append(f"s{token}" if token > 0 else "D" if token == -1 else f"D^{-token}")
        letters += 1 if token > 0 else -token * dlen
    return n, " ".join(tokens)


@settings(max_examples=80, deadline=None)
@given(delta_rich_words())
def test_normalize_matches_the_carry_free_reference_on_delta_rich_words(data):
    n, text = data
    word = parse_word(text, n)
    factors = [transposition(n, i) for i in word.letters]
    via_letters, via_factors = [], []
    seq = normalize(word, via_letters.append)
    assert seq == normalize_factors(n, factors, via_factors.append)
    assert seq == _carry_free_normalize_factors(n, factors)
    assert via_letters == via_factors
    assert_matches_reference(n, factors)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 2),
            st.lists(st.sampled_from(simple_enumeration(n)), max_size=12),
        )
    )
)
def test_odd_delta_power_then_factors(data):
    # after an odd power of the half twist every later factor is stored
    # twisted; the result still obeys D^e W = phi^e(W) D^e
    n, m, rest = data
    delta = (flip(n),) * (2 * m + 1)
    seq = normalize_factors(n, delta + tuple(rest))
    assert seq == _carry_free_normalize_factors(n, delta + tuple(rest))
    assert seq == normalize_factors(n, tuple(phi(x) for x in rest) + delta)
    assert_matches_reference(n, delta + tuple(rest))


@settings(max_examples=100, deadline=None)
@given(word_strategy())
def test_normalize_idempotent(data):
    n, letters = data
    seq = normalize(PositiveWord(n=n, letters=tuple(letters)))
    moves = []
    again = normalize_factors(n, seq.factors, on_step=lambda fs: moves.append(fs))
    assert again == seq
    assert moves == []


@settings(max_examples=100, deadline=None)
@given(word_strategy(max_n=5, max_len=10), st.data())
def test_confluence_under_relations(data, draw):
    # rewriting a word by a braid relation or a far-commutation does not
    # change the normal form
    n, letters = data
    seq = normalize(PositiveWord(n=n, letters=tuple(letters)))

    positions = [
        k
        for k in range(len(letters) - 1)
        if abs(letters[k] - letters[k + 1]) >= 2
    ]
    if positions:
        k = draw.draw(st.sampled_from(positions))
        swapped = list(letters)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        assert normalize(PositiveWord(n=n, letters=tuple(swapped))) == seq

    triples = [
        k
        for k in range(len(letters) - 2)
        if letters[k] == letters[k + 2] and abs(letters[k] - letters[k + 1]) == 1
    ]
    if triples:
        k = draw.draw(st.sampled_from(triples))
        i, j = letters[k], letters[k + 1]
        rewritten = list(letters)
        rewritten[k : k + 3] = [j, i, j]
        assert normalize(PositiveWord(n=n, letters=tuple(rewritten))) == seq


def test_confluence_commuting_example():
    a = normalize(parse_word("s1 s3", 4))
    b = normalize(parse_word("s3 s1", 4))
    assert a == b


def test_letters_of_round_trip():
    for n in range(1, 6):
        from garside_census.permutations import simple_enumeration

        for x in simple_enumeration(n):
            letters = letters_of(x)
            assert len(letters) == inversion_number(x)
            assert perm_of_letters(letters, n) == x


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_counting_consistency_at_tiny_scale(n, d):
    # words up to the maximal length of a degree-d braid realize exactly
    # the divisors of the d-th half-twist power
    max_len = d * n * (n - 1) // 2
    seen = set()
    for length in range(max_len + 1):
        for letters in itertools.product(range(1, n), repeat=length):
            seq = normalize(PositiveWord(n=n, letters=letters))
            if degree(seq) <= d:
                seen.add(seq.factors)
    assert len(seen) == b_total(n, d)
