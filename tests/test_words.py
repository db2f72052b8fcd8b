import functools
import itertools
import random
import re
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from garside_census import words
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
    _half_twist_items,
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
    assert parse_word("D", 3).letters == (0,)
    assert parse_word("", 4).letters == ()
    assert parse_word("s2^2 3", 4).letters == (2, 2, 3)
    assert parse_word("D^2", 3).letters == (0, 0)
    # a half twist is one letter 0 at every n, and trivial at n = 1
    assert parse_word("D^3", 50).letters == (0, 0, 0)
    assert parse_word("D", 1).letters == ()


def test_parse_errors():
    with pytest.raises(ValueError, match="token 2"):
        parse_word("s1 huh", 3)
    with pytest.raises(ValueError, match="out of range"):
        parse_word("s3", 3)
    # the letter 0 comes only from a D token
    for text in ("0", "s0"):
        with pytest.raises(ValueError, match="out of range"):
            parse_word(text, 3)
    with pytest.raises(ValueError, match="token 1"):
        parse_word("s1^0", 3)
    # the strand count is checked before any token's index
    with pytest.raises(ValueError, match="strand count must be at least 1"):
        parse_word("s1", -2)
    # no list is longer than sys.maxsize, so neither an exponent nor n may pass it
    big = sys.maxsize + 1
    for text, token in ((f"s1^{big}", f"1: 's1^{big}'"), (f"s2 D^{big}", f"2: 'D^{big}'")):
        with pytest.raises(ValueError, match=re.escape(f"exponent exceeds sys.maxsize at token {token}")):
            parse_word(text, 3)
    with pytest.raises(ValueError, match=f"^strand count n={big} exceeds sys.maxsize$"):
        parse_word("s1", big)
    with pytest.raises(ValueError):
        PositiveWord(n=3, letters=(1, 5))
    with pytest.raises(ValueError, match="out of range"):
        PositiveWord(n=1, letters=(0,))
    with pytest.raises(ValueError, match="out of range"):
        PositiveWord(n=3, letters=(-1,))
    # positional fields are checked the same way
    with pytest.raises(ValueError, match="out of range for n=3"):
        PositiveWord(3, (1, 5))
    with pytest.raises(ValueError, match="strand count must be at least 1"):
        PositiveWord(0, ())
    with pytest.raises(ValueError, match="out of range for n=3"):
        PositiveWord(3, (1,))._replace(letters=(9,))


@pytest.mark.parametrize(
    "text, message",
    [
        ("s" + "1" * 5000, "index out of range at token 1"),
        ("s1^" + "1" * 5000, "exponent exceeds sys.maxsize at token 1"),
        ("D^" + "1" * 5000, "exponent exceeds sys.maxsize at token 1"),
        ("s2 " + "1" * 5000, "index out of range at token 2"),
        ("s" + "0" * 18 + "1" + "0" * 19, "index out of range at token 1"),
        # 19 significant digits after 5000 zeros reach int(), and exceed sys.maxsize
        ("s1^" + "0" * 5000 + "9" * 19, "exponent exceeds sys.maxsize at token 1"),
    ],
    ids=["index", "exponent", "half twist exponent", "bare index", "inner zeros", "leading zeros"],
)
def test_a_number_past_the_int_digit_limit_gets_its_tokens_message(text, message):
    # int() raises past CPython's limit on the digits it converts, 4300 by default;
    # more than 19 significant digits exceed sys.maxsize and never reach it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_word(text, 3)
        # leading zeros stay accepted, however many
        assert parse_word("s" + "0" * 5000 + "2" + " D^" + "0" * 5000 + "3", 3).letters == (2, 0, 0, 0)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _reference_parse_word(text, n):
    """The reference for parse_word: each token matched and expanded where it stands."""
    if n < 1:
        raise ValueError("strand count must be at least 1")
    if n > sys.maxsize:
        raise ValueError(f"strand count n={n} exceeds sys.maxsize")
    letters: list[int] = []
    for pos, token in enumerate(text.split(), start=1):
        m = re.match(r"^(?:(D)|s?(\d+))(?:\^(\d+))?$", token)
        if m is None:
            raise ValueError(f"syntax error at token {pos}: {token!r}")
        is_delta, digits, exponent = m.groups()
        e = int(exponent) if exponent is not None else 1
        if e < 1:
            raise ValueError(f"non-positive exponent at token {pos}: {token!r}")
        if e > sys.maxsize:
            raise ValueError(f"exponent exceeds sys.maxsize at token {pos}: {token!r}")
        if is_delta:
            if n > 1:
                letters.extend([0] * e)
        else:
            i = int(digits)
            if not 1 <= i <= n - 1:
                raise ValueError(f"index out of range at token {pos}: {token!r}")
            letters.extend([i] * e)
    return PositiveWord(n=n, letters=tuple(letters))


@st.composite
def repetitive_token_texts(draw):
    """
    A word on 1..9 strands of a few distinct good tokens, each repeated,
    with at most one bad token among them; all digits are ASCII.
    """
    n = draw(st.integers(1, 9))
    exponent = st.integers(1, 3)
    good = [st.just("D"), exponent.map(lambda e: f"D^{e}")]
    if n > 1:
        index = st.integers(1, n - 1)
        good += [
            index.map(lambda i: f"s{i}"),
            index.map(str),
            st.tuples(index, exponent).map(lambda ie: f"s{ie[0]}^{ie[1]}"),
        ]
    pool = draw(st.lists(st.one_of(good), min_size=1, max_size=4, unique=True))
    tokens = draw(st.lists(st.sampled_from(pool), max_size=30))
    bad = draw(
        st.none()
        | st.sampled_from(["s0", "0", f"s{n}", f"{n}", "s1^0", "D^0", "x", "s", "D1", "s1^", "^2", "DD"])
        | st.just(f"s1^{sys.maxsize + 1}")
    )
    if bad is not None:
        tokens.insert(draw(st.integers(0, len(tokens))), bad)
    return n, " ".join(tokens)


@settings(max_examples=300, deadline=None)
@given(repetitive_token_texts())
def test_parse_word_matches_the_per_token_reference(data):
    n, text = data

    def outcome(parse):
        try:
            return parse(text, n)
        except ValueError as exc:
            return str(exc)

    assert outcome(parse_word) == outcome(_reference_parse_word)


def test_parse_word_matches_each_distinct_token_once(monkeypatch):
    matched, token = [], words._TOKEN
    counting = types.SimpleNamespace(match=lambda s: matched.append(s) or token.match(s))
    monkeypatch.setattr(words, "_TOKEN", counting)
    assert parse_word("s1 s1 s2 s1^2 s1^2 D D", 3).letters == (1, 1, 2, 1, 1, 1, 1, 0, 0)
    assert matched == ["s1", "s2", "s1^2", "D"]


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


def test_a_letter_that_is_no_right_descent_is_multiplied_in_place(monkeypatch):
    seeded, seed = [], words._seed_letter
    monkeypatch.setattr(words, "_seed_letter", lambda n, i, t: seeded.append(i) or seed(n, i, t))
    assert normalize(parse_word("s1 s2", 3)).factors == (perm_of_letters((1, 2), 3),)
    assert seeded == [1]
    seeded.clear()
    # 1 is a right descent of s1, so the second s1 starts a factor of its own
    assert normalize(parse_word("s1 s1", 3)).factors == (perm_of_letters((1,), 3),) * 2
    assert seeded == [1, 1]


def test_normal_sequence_invariants_enforced():
    with pytest.raises(ValueError):
        NormalSequence(n=3, factors=(identity(3),))
    with pytest.raises(ValueError):
        NormalSequence(n=3, factors=((2, 1, 3), (1, 3, 2)))
    NormalSequence(n=3, factors=((1, 3, 2), (3, 1, 2)))
    # positional fields are checked the same way
    with pytest.raises(ValueError, match="may not end with a trivial factor"):
        NormalSequence(3, ((1, 3, 2), identity(3)))
    with pytest.raises(ValueError, match="factors 2 and 3 are not normal"):
        NormalSequence(3, ((1, 3, 2), (3, 1, 2), (3, 2, 1)))
    with pytest.raises(ValueError, match="may not end with a trivial factor"):
        NormalSequence(3, ())._replace(factors=(identity(3),))


@pytest.mark.parametrize(
    ("n", "factors", "message"),
    [
        (3, [(1, 1, 3)], "not a permutation of 1..3"),
        (3, [(1, 2, 4)], "not a permutation of 1..3"),
        (3, [(2, 1)], r"\(2, 1\) does not live on 3 strands"),
        (3, [(1, 2, 3, 4)], r"\(1, 2, 3, 4\) does not live on 3 strands"),
        (3, [(2, 1, 3), (3, 3, 1)], "not a permutation of 1..3"),  # any factor, not only the first
        (0, [], "strand count must be at least 1"),
        (0, [()], "strand count must be at least 1"),
        (-1, [], "strand count must be at least 1"),
    ],
)
def test_normalize_factors_rejects_what_is_not_a_permutation_of_1_to_n(n, factors, message):
    # each of these used to come back as a NormalSequence: (1, 1, 3) and (1, 2, 3, 4)
    # as no factor at all, (2, 1) as a 2-entry factor of a 3-strand sequence
    with pytest.raises(ValueError, match=message):
        normalize_factors(n, factors)


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
    """A word on 2..9 strands of tokens s<i> and D^e, at most max_letters letters."""
    n = draw(st.integers(2, 9))
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
    # each D token is the letter 0; spelled out, it is delta_letters(n)
    letters = tuple(j for i in word.letters for j in (delta_letters(n) if i == 0 else (i,)))
    factors = [transposition(n, i) for i in letters]
    # normalize takes each half twist, a letter 0 or an occurrence of
    # delta_letters(n), as one item, so its reports are those of
    # normalize_factors on the same items
    items = [flip(n) if i == 0 else transposition(n, i) for i in _half_twist_items(n, word.letters)]
    via_letters, via_items = [], []
    seq = normalize(word, via_letters.append)
    assert seq == normalize_factors(n, items, via_items.append)
    assert via_letters == via_items
    assert seq == normalize(PositiveWord(n=n, letters=letters))
    assert seq == normalize_factors(n, factors)
    assert seq == _carry_free_normalize_factors(n, factors)
    assert_matches_reference(n, factors)


def descending_delta_letters(n: int) -> tuple[int, ...]:
    """
    A reduced word for the half twist, (n-1 ... 1)(n-1 ... 2)...(n-1),
    in which delta_letters(n) does not occur for n >= 3, nor in its powers.
    """
    return tuple(i for m in range(1, n) for i in range(n - 1, m - 1, -1))


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(2, 8), st.integers(1, 4)).flatmap(
        lambda ne: st.tuples(
            st.just(ne[0]),
            st.lists(st.lists(st.integers(1, ne[0] - 1), max_size=4), min_size=ne[1] + 1, max_size=ne[1] + 1),
        )
    )
)
def test_unmatched_half_twist_spelling_gives_the_same_normal_form(data):
    # the half twists spelled descending go through the letter route, those
    # spelled delta_letters(n) through the search for them, and the tokens
    # D through the letter 0; letters stand around and between them
    n, pieces = data
    descending = descending_delta_letters(n)
    assert perm_of_letters(descending, n) == flip(n)
    if n > 2:
        assert 0 not in _half_twist_items(n, descending * (len(pieces) - 1))
    letters, standard = tuple(pieces[0]), tuple(pieces[0])
    tokens = [f"s{i}" for i in pieces[0]]
    for piece in pieces[1:]:
        letters += descending + tuple(piece)
        standard += delta_letters(n) + tuple(piece)
        tokens += ["D", *(f"s{i}" for i in piece)]
    text = " ".join(tokens)
    by_letters = normalize(PositiveWord(n=n, letters=letters))
    assert by_letters == normalize(PositiveWord(n=n, letters=standard))
    assert by_letters == normalize(parse_word(text, n))
    assert by_letters == normalize_factors(n, [transposition(n, i) for i in letters])


def test_half_twist_items():
    # occurrences are taken left to right and do not overlap
    assert _half_twist_items(3, (1, 2, 1, 2, 1)) == (0, 2, 1)
    assert _half_twist_items(3, (2, 1, 2, 1, 2, 1)) == (2, 0, 2, 1)
    assert _half_twist_items(4, (3,) + delta_letters(4) * 2 + (1,)) == (3, 0, 0, 1)
    # letters 0 are kept, and a spelled half twist after one is found
    assert _half_twist_items(3, (1, 2, 0, 1, 2, 1)) == (1, 2, 0, 0)
    # at n = 2 every letter is the half twist
    assert _half_twist_items(2, (1, 1, 1)) == (0, 0, 0)
    # at n = 1 the pattern is empty and nothing is replaced
    assert _half_twist_items(1, ()) == ()
    # a word shorter than the pattern is left as it is
    assert _half_twist_items(4, (1, 2, 3, 1, 2)) == (1, 2, 3, 1, 2)
    # each letter is one code point, so letters whose bytes hold the
    # pattern hold no occurrence (they are out of range, which a
    # PositiveWord would reject)
    assert _half_twist_items(3, (256, 512, 256, 0)) == (256, 512, 256, 0)
    for n, letters in [(3, (1, 2, 1, 2, 1)), (2, (1, 1, 1)), (3, (2, 1, 2, 1, 2, 1))]:
        word = PositiveWord(n=n, letters=letters)
        assert normalize(word) == normalize_factors(n, [transposition(n, i) for i in letters])
    assert normalize(PositiveWord(n=1, letters=())) == NormalSequence(n=1, factors=())


def _scan_half_twists(n: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """The reference for _half_twist_items: a plain left-to-right scan."""
    pattern = delta_letters(n)
    out, k = [], 0
    while k < len(letters):
        if n > 1 and letters[k : k + len(pattern)] == pattern:
            out.append(0)
            k += len(pattern)
        else:
            out.append(letters[k])
            k += 1
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            # single letters, 0 among them, and whole or cut-off half twists
            st.lists(
                st.one_of(
                    st.tuples(st.integers(0, n - 1)),
                    st.integers(0, n * (n - 1) // 2).map(lambda k: delta_letters(n)[k:]),
                    st.integers(0, n * (n - 1) // 2).map(lambda k: delta_letters(n)[:k]),
                ),
                max_size=8,
            ),
        )
    )
)
def test_half_twist_items_match_a_left_to_right_scan(data):
    n, pieces = data
    letters = tuple(i for piece in pieces for i in piece)
    assert _half_twist_items(n, letters) == _scan_half_twists(n, letters)


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
