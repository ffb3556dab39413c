"""Word sources, factor location with explicit certainty states, block
regrouping and the standardisation loop with its periodicity certificates."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supermono import words
from supermono.words import (
    NOT_A_FACTOR,
    UNRESOLVED,
    BeyondPrefixError,
    BoundExhausted,
    EventuallyPeriodic,
    ExplicitPrefix,
    Factorisation,
    Morphic,
    Occurrence,
    Periodic,
    PeriodicityWitness,
    Standardised,
    block_subfactorisation,
    check_factorisation,
    check_periodicity_witness,
    first_occurrence,
    parse_word_spec,
    standardise,
)


def fibonacci_word() -> Morphic:
    return Morphic({"a": "ab", "b": "a"}, "a")


def test_word_source_letters():
    fib = fibonacci_word()
    assert "".join(fib.letter_at(n) for n in range(1, 7)) == "abaaba"
    assert Periodic("ab").prefix(5) == "ababa"
    assert EventuallyPeriodic("c", "ab").prefix(6) == "cababa"
    assert ExplicitPrefix("abc").letter_at(3) == "c"
    with pytest.raises(BeyondPrefixError):
        ExplicitPrefix("abc").letter_at(4)
    assert ExplicitPrefix("abc").prefix(10) == "abc"


def test_positions_are_one_based():
    with pytest.raises(ValueError):
        Periodic("ab").letter_at(0)


def test_parse_word_spec():
    assert isinstance(parse_word_spec("periodic:ab"), Periodic)
    evper = parse_word_spec("evper:c|ab")
    assert isinstance(evper, EventuallyPeriodic)
    assert evper.prefix(3) == "cab"
    morphic = parse_word_spec("morphic:a->ab,b->a|a")
    assert morphic.prefix(5) == "abaab"
    assert isinstance(parse_word_spec("prefix:abaab"), ExplicitPrefix)


# Each malformed spec and its message: the spec's own form, then each
# check Morphic makes of its rules and seed.
@pytest.mark.parametrize("spec, message", [
    ("cyclic:ab", "unknown word kind 'cyclic'; expected periodic, evper, "
                  "morphic or prefix"),
    ("periodic", "word spec needs 'kind:payload', got 'periodic'"),
    ("evper:ab", "evper payload needs 'prefix|period', got 'ab'"),
    ("morphic:a->ab", "morphic payload needs 'rules|seed', got 'a->ab'"),
    ("morphic:a->ab,bb|a", "morphic rule needs 'letter->image', got 'bb'"),
    ("morphic:a->ab,b->a,a->a|a", "duplicate rule for 'a'"),
    ("morphic:a->ab,b->a|ab", "seed must be a single letter, got 'ab'"),
    ("morphic:b->a|a", "seed 'a' has no rule"),
    ("morphic:a->ab,b->a,ab->a|a",
     "rule keys must be single letters, got 'ab'"),
    ("morphic:a->ab,b->|a", "rule for 'b' has an empty image"),
    ("morphic:a->ab|a", "letter 'b' appears in an image but has no rule"),
    ("morphic:a->ba,b->a|a", "morphism not prolongable: image of 'a' must "
                             "start with it and be longer"),
])
def test_parse_word_spec_names_what_is_malformed(spec, message):
    with pytest.raises(ValueError) as info:
        parse_word_spec(spec)
    assert str(info.value) == message


def test_first_occurrence_examples():
    fib = fibonacci_word()
    assert first_occurrence(fib, "aa", 32) == Occurrence(3, 5)
    assert first_occurrence(Periodic("ab"), "ba", 16) == Occurrence(2, 4)
    assert first_occurrence(Periodic("ab"), "aa", 16) is NOT_A_FACTOR
    assert first_occurrence(Periodic("ab"), "aa", 2) is UNRESOLVED
    assert first_occurrence(ExplicitPrefix("abaab"), "bb", 5) is UNRESOLVED
    # A factor longer than the scan cannot be found within it.
    assert first_occurrence(fib, "aba", 2) is UNRESOLVED
    assert first_occurrence(Periodic("ab"), "aba", 2) is UNRESOLVED


def test_periodic_decision_matches_plain_scan():
    rng = random.Random(564201)
    letters = "ab"
    for _ in range(10_000):
        period = "".join(rng.choice(letters)
                         for _ in range(rng.randint(1, 5)))
        u = "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        x = Periodic(period)
        certain_by = 2 * len(u) + len(period)
        scan_bound = certain_by + len(u)
        result = first_occurrence(x, u, scan_bound)
        reference = x.prefix(3 * certain_by).find(u)
        if reference >= 0 and reference + len(u) <= scan_bound:
            assert result == Occurrence(reference + 1, reference + 1 + len(u))
        else:
            assert result is NOT_A_FACTOR


@given(data=st.data())
@settings(max_examples=300)
def test_first_occurrence_is_minimal(data):
    period = data.draw(st.text(alphabet="ab", min_size=1, max_size=5))
    u = data.draw(st.text(alphabet="ab", min_size=1, max_size=6))
    bound = data.draw(st.integers(min_value=len(u), max_value=64))
    occ = first_occurrence(Periodic(period), u, bound)
    if isinstance(occ, Occurrence):
        text = Periodic(period).prefix(bound)
        assert text.find(u) == occ.start - 1
        assert occ.end - occ.start == len(u)


def test_factorisation_basics():
    f = Factorisation(("a", "b", "aab"), 1)
    assert f.standard_positions() == [1, 2, 3]
    with pytest.raises(ValueError):
        Factorisation(())
    with pytest.raises(ValueError):
        Factorisation(("ab",), 0)


def test_check_factorisation_names_first_mismatch():
    check_factorisation(Periodic("ab"), Factorisation(("ab", "ab"), 1))
    with pytest.raises(ValueError, match="position 1"):
        check_factorisation(Periodic("ab"), Factorisation(("b",), 1))
    with pytest.raises(ValueError, match="beyond the available prefix"):
        check_factorisation(ExplicitPrefix("ab"), Factorisation(("ab", "a"), 1))
    with pytest.raises(ValueError, match="mismatch at position 8: expected "
                                         "'a', word has 'b'"):
        check_factorisation(Periodic("ab"), Factorisation(("ab", "ab", "aa"), 3))
    with pytest.raises(ValueError, match="beyond the available prefix at "
                                         "position 5$"):
        check_factorisation(ExplicitPrefix("abab"),
                            Factorisation(("ba", "bab"), 2))


def test_block_subfactorisation_examples():
    f = Factorisation(("a", "b", "a", "ab"), 1)
    assert block_subfactorisation(f, (2, 4)).factors == ("ab", "aab")
    assert block_subfactorisation(f, (1, 2, 3, 4)) == f
    assert block_subfactorisation(f, (2,)).factors == ("ab",)
    assert block_subfactorisation(f, (2, 4)).suffix_start == 1
    with pytest.raises(ValueError):
        block_subfactorisation(f, ())
    with pytest.raises(ValueError):
        block_subfactorisation(f, (2, 1))
    with pytest.raises(ValueError):
        block_subfactorisation(f, (5,))


def test_standardise_fibonacci_example():
    fib = fibonacci_word()
    outcome = standardise(
        fib, Factorisation(("a", "b", "a", "ab", "aba"), 1), 512, 50)
    assert isinstance(outcome, Standardised)
    assert outcome.factorisation.factors == ("a", "b", "aababa")
    assert outcome.merges == 1
    _assert_standard(fib, outcome.factorisation)


def _assert_standard(x, f: Factorisation) -> None:
    bound = 4 * (f.suffix_start + sum(len(u) for u in f.factors)) + 64
    for u, at in zip(f.factors, f.standard_positions()):
        occ = first_occurrence(x, u, bound)
        assert occ == Occurrence(at, at + len(u))


def test_block_regrouping_preserves_standard_positions():
    fib = fibonacci_word()
    outcome = standardise(
        fib, Factorisation(("a", "b", "a", "ab", "aba", "abaab"), 1), 512, 50)
    assert isinstance(outcome, Standardised)
    factors = outcome.factorisation.factors
    for cuts in ((len(factors),), tuple(range(1, len(factors) + 1)), (2, len(factors))):
        _assert_standard(fib, block_subfactorisation(outcome.factorisation, cuts))


def test_standardise_periodic_yields_witness():
    x = Periodic("ab")
    outcome = standardise(x, Factorisation(("ab", "ab", "ab"), 3), 200, 50)
    assert isinstance(outcome, PeriodicityWitness)
    assert (outcome.i, outcome.j) == (1, 3)
    assert check_periodicity_witness(x, outcome.i, outcome.j, outcome.depth)


def test_standardise_rejects_mismatched_factorisation():
    with pytest.raises(ValueError, match="mismatch"):
        standardise(Periodic("ab"), Factorisation(("b", "a"), 1), 64, 8)


def test_standardise_reports_exhausted_bounds():
    outcome = standardise(Periodic("ab"), Factorisation(("ab", "ab", "ab"), 3), 200, 1)
    assert isinstance(outcome, BoundExhausted)
    assert outcome.reason == "merge budget exhausted"
    assert outcome.merges == 1
    outcome = standardise(ExplicitPrefix("aaab"), Factorisation(("b",), 4), 2, 8)
    assert isinstance(outcome, BoundExhausted)
    assert "scan bound 2" in outcome.reason
    outcome = standardise(fibonacci_word(), Factorisation(("a",), 3), 100, 10)
    assert outcome == BoundExhausted(
        1, 0, "first group occurs early but the two suffixes disagree")


def test_standardise_never_raises_on_a_valid_factorisation():
    """Four factors of 1-3 letters from each start 1..9, at every scan
    from 1 to 8: a merge that outgrows the scan is BoundExhausted, and no
    outcome is a traceback."""
    for x in (fibonacci_word(), Periodic("ab"), Periodic("aab")):
        for start in range(1, 10):
            text = x.prefix(start + 11)[start - 1:]
            for lengths in itertools.product((1, 2, 3), repeat=4):
                cuts = list(itertools.accumulate(lengths, initial=0))
                factors = tuple(text[a:b] for a, b in zip(cuts, cuts[1:]))
                f = Factorisation(factors, start)
                for scan in range(1, 9):
                    outcome = standardise(x, f, scan, 50)
                    assert isinstance(outcome, (
                        Standardised, PeriodicityWitness, BoundExhausted))
    outcome = standardise(
        fibonacci_word(), Factorisation(("a", "b", "a", "ab"), 1), 2, 50)
    assert outcome == BoundExhausted(
        3, 1, "scan bound 2 cannot resolve the occurrence of a length-3 "
              "factor standing at 3")


@given(data=st.data())
@settings(max_examples=200)
def test_late_periodic_factorisations_always_certify(data):
    period = data.draw(st.text(alphabet="ab", min_size=1, max_size=4))
    m = len(period)
    x = Periodic(period)
    start = data.draw(st.integers(min_value=m + 1, max_value=m + 8))
    total = data.draw(st.integers(min_value=m, max_value=m + 3))
    text = x.prefix(start + total - 1)[start - 1:]
    if total > 1:
        cut_at = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=total - 1), max_size=2)))
    else:
        cut_at = []
    pieces = []
    previous = 0
    for cut in cut_at + [total]:
        pieces.append(text[previous:cut])
        previous = cut
    outcome = standardise(
        x, Factorisation(tuple(pieces), start), 4 * (start + m), 50)
    assert isinstance(outcome, PeriodicityWitness)
    assert check_periodicity_witness(x, outcome.i, outcome.j, outcome.depth)
    assert outcome.depth > 0


def test_check_periodicity_witness_examples():
    assert check_periodicity_witness(EventuallyPeriodic("c", "ab"), 2, 4, 100)
    assert not check_periodicity_witness(fibonacci_word(), 1, 2, 5)
    with pytest.raises(ValueError):
        check_periodicity_witness(Periodic("ab"), 4, 2, 10)
    with pytest.raises(ValueError):
        check_periodicity_witness(Periodic("ab"), 0, 2, 10)


def test_decision_bound_only_for_periodic_structure():
    assert words.decision_bound(Periodic("ab"), "aa") == 6
    assert words.decision_bound(EventuallyPeriodic("c", "ab"), "aa") == 7
    assert words.decision_bound(fibonacci_word(), "aa") is None
    assert words.decision_bound(ExplicitPrefix("ab"), "aa") is None


def test_periodic_agrees_with_an_empty_preperiod():
    for w in ("a", "ab", "aab", "abcab", "babba"):
        plain, evper = Periodic(w), EventuallyPeriodic("", w)
        assert plain.spec == f"periodic:{w}"
        for length in range(0, 4 * len(w) + 3):
            assert plain.prefix(length) == evper.prefix(length)
        for n in range(1, 4 * len(w) + 3):
            assert plain.letter_at(n) == evper.letter_at(n)
        for size in range(1, 5):
            for letters in itertools.product("abc", repeat=size):
                u = "".join(letters)
                assert words.decision_bound(plain, u) == \
                    words.decision_bound(evper, u)
                for scan in (size, size + 3, 4 * size + 2 * len(w)):
                    assert first_occurrence(plain, u, scan) == \
                        first_occurrence(evper, u, scan)


@pytest.mark.parametrize("rules, seed", [
    ({"a": "a" + "b" * 50, "b": "b" * 50}, "a"),
    ({"a": "ab", "b": "a"}, "a"),
    ({"a": "abc", "b": "ac", "c": "b"}, "a"),
])
def test_morphic_text_overshoots_by_less_than_one_image(rules, seed):
    fixed_point = seed
    while len(fixed_point) < 4000:
        fixed_point = "".join(rules[ch] for ch in fixed_point)
    longest = max(len(image) for image in rules.values())
    x = Morphic(rules, seed)
    for length in (1, 2, 3, 60, 700, 3000):
        assert x.prefix(length) == fixed_point[:length]
        assert len(x._text) < max(length, len(rules[seed])) + longest
    assert parse_word_spec(f"morphic:a->a{'b' * 50},b->{'b' * 50}|a") \
        .prefix(3000) == "a" + "b" * 2999


_SOURCES = {
    "periodic": lambda: Periodic("aab"),
    "evper": lambda: EventuallyPeriodic("ba", "abb"),
    "fibonacci": fibonacci_word,
    "prefix": lambda: ExplicitPrefix("abaababaab"),
}

_READS = st.one_of(
    st.tuples(st.just("prefix"), st.integers(min_value=0, max_value=300)),
    st.tuples(st.just("letter_at"), st.integers(min_value=1, max_value=300)),
    st.tuples(st.just("first_occurrence"),
              st.text(alphabet="ab", min_size=1, max_size=6),
              st.integers(min_value=1, max_value=300)),
)


def _read(x, read):
    name, *args = read
    try:
        if name == "first_occurrence":
            return first_occurrence(x, *args)
        return getattr(x, name)(*args)
    except (BeyondPrefixError, ValueError) as err:
        return type(err), str(err)


@given(kind=st.sampled_from(sorted(_SOURCES)),
       reads=st.lists(_READS, max_size=12))
@settings(max_examples=300)
@example(kind="fibonacci",
         reads=[("prefix", 300), ("first_occurrence", "aabaa", 6)])
@example(kind="periodic",
         reads=[("prefix", 300), ("first_occurrence", "ba", 2)])
@example(kind="prefix",
         reads=[("prefix", 300), ("letter_at", 10), ("letter_at", 11)])
def test_reads_through_one_cached_text_match_a_fresh_source(kind, reads):
    warm = _SOURCES[kind]()
    for read in reads:
        assert _read(warm, read) == _read(_SOURCES[kind](), read)
