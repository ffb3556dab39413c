"""Factor colouring through first occurrences: pinned colours, the split
tag against its every-cut referee, representation independence, and the
alternating-sum bridge that ties concatenated factors to the pair
colouring."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermono import factor_colouring, words
from supermono.factor_colouring import (
    NOT_FACTOR,
    UNKNOWN,
    altsum_identity_check,
    phi,
    prefix_colourer,
)
from supermono.oracles import split_tag_oracle
from supermono.pair_colouring import PairColour, colour_pair
from supermono.words import (
    EventuallyPeriodic,
    ExplicitPrefix,
    Factorisation,
    Morphic,
    Occurrence,
    Periodic,
    Standardised,
    first_occurrence,
    parse_word_spec,
    standardise,
)


def _serialised(colour) -> str:
    """A word colour as the paper writes it: the pair colour key of the
    first-occurrence span and the split tag, or 2 for a non-factor."""
    if colour is NOT_FACTOR:
        return "2"
    return f"({PairColour.decode(colour >> 1).key()},{colour & 1})"


def test_pinned_factor_colours():
    x = Periodic("ab")
    assert _serialised(phi(x, "ab", 64)) == "(110-001-111,0)"
    assert _serialised(phi(x, "ba", 64)) == "(111-001-010,1)"
    assert _serialised(phi(x, "a", 64)) == "(000-001-010,1)"
    fib = Morphic({"a": "ab", "b": "a"}, "a")
    for u, serialised in (
        ("b", "(001-001-011,1)"),
        ("aa", "(111-001-111,1)"),
        ("aba", "(100-011-010,0)"),
        ("bab", "(102-011-010,1)"),
        ("baab", "(221-001-111,0)"),
        ("abaab", "(200-101-000,0)"),
    ):
        assert _serialised(phi(fib, u, 64)) == serialised, u


def test_occurrences_are_immutable_hashable_values():
    occ = first_occurrence(Morphic({"a": "ab", "b": "a"}, "a"), "aba", 64)
    for name in ("start", "end"):
        with pytest.raises(AttributeError):
            setattr(occ, name, getattr(occ, name))
    assert occ == Occurrence(1, 4) and occ != Occurrence(1, 5)
    assert occ != Occurrence(2, 4)
    assert len({occ, Occurrence(1, 4), Occurrence(4, 7)}) == 2


def test_absent_and_undecided_factors():
    """The two outcome sentinels are the word layer's own, so a lookup of
    either name finds the object phi returns."""
    assert NOT_FACTOR is words.NOT_A_FACTOR
    assert UNKNOWN is words.UNRESOLVED
    assert phi(Periodic("ab"), "aa", 64) is words.NOT_A_FACTOR
    assert _serialised(phi(Periodic("ab"), "aa", 64)) == "2"
    assert phi(ExplicitPrefix("abaab"), "aabb", 5) is words.UNRESOLVED
    with pytest.raises(ValueError):
        phi(Periodic("ab"), "aba", 2)


def test_single_letters_never_split():
    colour = phi(Periodic("ab"), "b", 64)
    assert isinstance(colour, int)
    assert colour & 1 == 1
    assert colour >> 1 == colour_pair(2, 3)


@given(data=st.data())
@settings(max_examples=200)
def test_colour_ignores_word_representation(data):
    u = data.draw(st.text(alphabet="ab", min_size=1, max_size=4))
    sources = (Periodic("ab"), Periodic("abab"), EventuallyPeriodic("ab", "ab"))
    colours = [phi(x, u, 64) for x in sources]
    assert colours[0] == colours[1] == colours[2] or \
        all(c is colours[0] for c in colours)


_EXPLICIT = ("prefix:bbbaaabbabababbaaaaaaababaabababbbaaababbaaabaaaaabaaaaa"
             "bababaaaaaababaabaaabababbabaabbabaaabbbabbaaabbbbaabaabbbab"
             "abaa")


def _factors(text: str, longest: int) -> list[str]:
    return sorted({text[i:i + k] for k in range(1, longest + 1)
                   for i in range(len(text) - k + 1)})


# Each case: a word, and how many distinct factors of length <= 30 its
# first 512 letters (all of an explicit prefix) hold, with how many of
# them have tag 0.
@pytest.mark.parametrize("spec, count, zeros", [
    ("morphic:a->ab,b->a|a", 495, 219),
    ("morphic:a->ab,b->ba|a", 1390, 468),
    ("morphic:a->abc,b->ac,c->b|a", 1479, 505),
    ("periodic:aab", 89, 28),
    ("evper:abc|ab", 147, 85),
    (_EXPLICIT, 2497, 1687),
], ids=["fibonacci", "thue-morse", "ternary-morphic", "periodic", "evper",
        "explicit"])
def test_split_tag_matches_the_every_cut_referee(spec, count, zeros):
    x = parse_word_spec(spec)
    factors = _factors(x.prefix(512), 30)
    tags = []
    for u in factors:
        colour = phi(x, u, 512)
        occ = first_occurrence(x, u, 512)
        assert colour >> 1 == colour_pair(occ.start, occ.end), u
        assert colour & 1 == split_tag_oracle(x, u, 512), u
        tags.append(colour & 1)
        tight = occ.end - 1
        assert phi(x, u, tight) == colour, u
        assert split_tag_oracle(x, u, tight) == colour & 1, u
    assert (len(factors), tags.count(0)) == (count, zeros)


@given(spec=st.sampled_from(["morphic:a->ab,b->a|a", "morphic:a->ab,b->ba|a",
                             "periodic:aab", "evper:abc|ab", _EXPLICIT]),
       u=st.text(alphabet="abc", min_size=1, max_size=12),
       slack=st.integers(min_value=0, max_value=200))
@settings(max_examples=300)
def test_split_tag_matches_the_referee_on_any_word_and_scan(spec, u, slack):
    x = parse_word_spec(spec)
    scan = len(u) + slack
    colour = phi(x, u, scan)
    tag = colour & 1 if isinstance(colour, int) else colour
    assert tag == split_tag_oracle(x, u, scan)


# In evper:aab|c, "a" first occurs before "ab", whose "b" first occurs at
# its end: the cut of "ab" at 1 aligns only its right half, so its tag is 1.
_PREFIX_SPECS = ["periodic:ab", "evper:c|ab", "morphic:a->ab,b->a|a",
                  "morphic:a->ab,b->ba|a", "morphic:a->abc,b->ac,c->b|a",
                  "prefix:abaababaabaab", "evper:aab|c"]


def _outcome_kind(colour, n: int, scan: int) -> str:
    if colour is NOT_FACTOR:
        return "not a factor"
    if colour is UNKNOWN:
        return "past the scan" if n > scan else "unresolved"
    return f"tag {colour & 1}"


@pytest.mark.parametrize("spec", _PREFIX_SPECS)
def test_prefix_colourer_matches_phi_in_and_out_of_order(spec):
    """Every prefix of up to 40 letters of each suffix starting at 1..12
    and of a^ω, (ab)^ω and (aab)^ω gets phi's colour, read in order of
    length or shuffled, at scan bounds that leave prefixes unresolved (3,
    7), certify non-factors (64) and leave the prefixes past them UNKNOWN.
    On prefixes of up to 12 letters the tags are the every-cut referee's."""
    x = parse_word_spec(spec)
    words = [x.prefix(start + 39)[start - 1:] for start in range(1, 13)]
    words += [(u * 40)[:40] for u in ("a", "ab", "aab")]
    shuffled = list(range(1, 41))
    random.Random(0).shuffle(shuffled)
    kinds = set()
    for y, scan in itertools.product(words, (3, 7, 64)):
        expected = {n: UNKNOWN if n > scan else phi(x, y[:n], scan)
                    for n in range(1, len(y) + 1)}
        for order in (sorted(expected), [n for n in shuffled if n in expected]):
            colour_at = prefix_colourer(x, y, scan)
            assert {n: colour_at(n) for n in order} == expected, (y, scan)
        for n in range(1, min(len(y), scan, 12) + 1):
            colour = expected[n]
            tag = colour & 1 if isinstance(colour, int) else colour
            assert tag == split_tag_oracle(x, y[:n], scan), (y[:n], scan)
        kinds |= {_outcome_kind(colour, n, scan)
                  for n, colour in expected.items()}
    wanted = {"unresolved", "past the scan", "tag 0", "tag 1"}
    if spec.startswith(("periodic:", "evper:")):
        wanted.add("not a factor")
    assert kinds == wanted


def test_phi_searches_one_first_occurrence_per_word(monkeypatch):
    searched = []
    found = factor_colouring.first_occurrence

    def counted(x, u, scan_bound):
        searched.append(u)
        return found(x, u, scan_bound)

    monkeypatch.setattr(factor_colouring, "first_occurrence", counted)
    x = Morphic({"a": "ab", "b": "a"}, "a")
    asked = _factors(x.prefix(128), 20) + ["bb", "aaa", "abbab"]
    colours = [phi(x, u, 128) for u in asked]
    assert searched == asked
    assert sum(isinstance(c, int) for c in colours) == len(asked) - 3


def test_tag_zero_closure_for_standardised_neighbours():
    fib = Morphic({"a": "ab", "b": "a"}, "a")
    outcome = standardise(
        fib, Factorisation(("a", "b", "a", "ab", "aba", "abaab"), 1), 512, 50)
    assert isinstance(outcome, Standardised)
    factors = outcome.factorisation.factors
    assert len(factors) >= 2
    for left, right in zip(factors, factors[1:]):
        colour = phi(fib, left + right, 512)
        assert isinstance(colour, int)
        assert colour & 1 == 0


def test_altsum_identity_examples():
    assert altsum_identity_check((2, 4, 6), (2,)) == (2, 4)
    assert altsum_identity_check((2, 4, 6), (3,)) == (4, 6)
    assert altsum_identity_check((2, 4, 6), (2, 3)) == (2, 6)


def test_altsum_identity_validation():
    with pytest.raises(ValueError):
        altsum_identity_check((2, 4, 6), ())
    with pytest.raises(ValueError):
        altsum_identity_check((2, 4, 6), (1, 2))
    with pytest.raises(ValueError):
        altsum_identity_check((2, 4, 6), (3, 2))
    with pytest.raises(ValueError):
        altsum_identity_check((2, 4, 6), (2, 4))
    with pytest.raises(ValueError):
        altsum_identity_check((4, 2, 6), (2,))
    with pytest.raises(ValueError):
        altsum_identity_check((0, 2, 6), (2,))


@given(data=st.data())
@settings(max_examples=300)
def test_altsum_identity_yields_valid_pairs(data):
    ms = sorted(data.draw(st.sets(
        st.integers(min_value=1, max_value=200), min_size=2, max_size=8)))
    ks = sorted(data.draw(st.sets(
        st.integers(min_value=2, max_value=len(ms)), min_size=1)))
    left, right = altsum_identity_check(ms, ks)
    assert 1 <= left < right
    assert right == ms[ks[-1] - 1]


def test_concatenated_factors_colour_as_their_endpoint_pair():
    x = Periodic("abcdef")
    slices = {1: "a", 2: "bc", 3: "de"}
    starts = {1: 1, 2: 2, 3: 4}
    ms = (2, 4, 6)
    for k, u in slices.items():
        occ = first_occurrence(x, u, 64)
        assert occ == Occurrence(starts[k], starts[k] + len(u))
    for ks in ((2,), (3,), (2, 3)):
        left, right = altsum_identity_check(ms, ks)
        concat = "".join(slices[k] for k in ks)
        assert first_occurrence(x, concat, 64) == Occurrence(left, right)
        colour = phi(x, concat, 64)
        assert isinstance(colour, int)
        assert colour >> 1 == colour_pair(left, right)
    assert phi(x, slices[2] + slices[3], 64) & 1 == 0
