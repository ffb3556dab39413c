"""Seven-component pair colouring: pinned colours, stage projections, the
packed colour codes and the sum obstruction the first refinement stage
carries."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermono import bits, oracles
from supermono.bits import common_fragment_count
from supermono.pair_colouring import (
    CODE_COUNTS,
    FULL,
    STAGE1,
    STAGE2,
    STAGES,
    PairColour,
    colour_pair,
)

small = st.integers(min_value=1, max_value=1 << 12)


def _record(a, b, stage=FULL) -> PairColour:
    """The named components of the pair's colour code."""
    return PairColour.decode(colour_pair(a, b, stage), stage)


def test_pinned_colour_of_1_201():
    assert colour_pair(1, 201) == 293
    colour = _record(1, 201)
    assert (colour.c0, colour.c1, colour.c2) == (1, 0, 0)
    assert colour.c3 == "001"
    assert (colour.c4, colour.c5, colour.c6) == (1, 0, 1)
    assert colour.key() == "100-001-101"


def test_pinned_colour_of_132_431():
    assert colour_pair(132, 431) == 616
    assert _record(132, 431).key() == "201-011-000"


def test_code_zero_is_a_real_colour():
    """The first code is a colour like any other, so no truthiness test
    may read it as unfixed."""
    assert colour_pair(1, 10) == 0
    assert _record(1, 10) == PairColour(0, 0, 0, "001", 0, 0, 0, FULL)
    assert _record(1, 10).key() == "000-001-000"


def test_stage_keys_drop_absent_components():
    assert _record(1, 201, STAGE1).key() == "100-001"
    assert _record(1, 201, STAGE2).key() == "100-001-10"
    assert _record(1, 201, FULL).key() == "100-001-101"


def _joined_key(colour) -> str:
    """Referee for key(): the generic join of the present components."""
    head = f"{colour.c0}{colour.c1}{colour.c2}-{colour.c3}"
    tail = "".join(
        str(c) for c in (colour.c4, colour.c5, colour.c6) if c is not None
    )
    return f"{head}-{tail}" if tail else head


def test_key_matches_the_joined_components_on_every_small_pair():
    codes = {}
    for b in range(2, 128):
        for a in range(1, b):
            for stage in STAGES:
                colour = _record(a, b, stage)
                assert colour.key() == _joined_key(colour), (a, b, stage)
            code = colour_pair(a, b)
            assert 0 <= code <= 863
            assert codes.setdefault(code, colour.key()) == colour.key()
    assert len(set(codes.values())) == len(codes)


_FIELDS = ("c0", "c1", "c2", "c3", "c4", "c5", "c6", "stage")


def test_colours_are_immutable_hashable_values():
    colour = _record(1, 201)
    for name in _FIELDS:
        with pytest.raises(AttributeError):
            setattr(colour, name, getattr(colour, name))
    assert colour == PairColour(1, 0, 0, "001", 1, 0, 1, FULL)
    assert hash(colour) == hash(PairColour(1, 0, 0, "001", 1, 0, 1, FULL))
    assert _record(1, 201, STAGE2) != _record(1, 201, FULL)
    colours = [_record(a, b, stage)
               for b in range(2, 24) for a in range(1, b) for stage in STAGES]
    for p in colours[::7]:
        for q in colours:
            same = [getattr(p, f) for f in _FIELDS] == [getattr(q, f) for f in _FIELDS]
            assert (p == q) == same
            if same:
                assert hash(p) == hash(q)
    assert len(set(colours)) == len({c.key() + c.stage for c in colours})


def test_validation_errors():
    with pytest.raises(ValueError):
        colour_pair(5, 3)
    with pytest.raises(ValueError):
        colour_pair(3, 3)
    with pytest.raises(ValueError):
        colour_pair(0, 3)
    with pytest.raises(ValueError):
        colour_pair(1, 2, "stage9")
    with pytest.raises(ValueError):
        PairColour.decode(0, "stage9")
    for stage, count in CODE_COUNTS.items():
        for code in (-1, count):
            with pytest.raises(ValueError):
                PairColour.decode(code, stage)


@given(a=small)
def test_consecutive_pair_colour(a):
    colour = _record(a, a + 1)
    assert (colour.c0, colour.c1) == (0, 0)
    assert colour.c3 == "001"
    assert colour.c5 == 1


def test_codes_fill_each_stage_range_and_decode_injectively():
    """Each stage's codes fill exactly 0..107, 0..431 or 0..863: 100,000
    seeded pairs below 2^20 take every code of the range and no other
    (the pairs below 2^10 still miss 42 full codes), and decode gives
    distinct records with distinct keys across the range."""
    rng = random.Random(0)
    pairs = set()
    for _ in range(100_000):
        a, b = rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 20)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    for stage, count in zip(STAGES, (108, 432, 864)):
        assert CODE_COUNTS[stage] == count
        codes = {colour_pair(a, b, stage) for a, b in pairs}
        assert codes == set(range(count)), stage
        records = [PairColour.decode(code, stage) for code in range(count)]
        assert len(set(records)) == count
        assert len({colour.key() for colour in records}) == count
        assert all(colour.stage == stage for colour in records)


def test_stage_projection_is_exhaustively_consistent():
    limit = 1 << 9
    for a in range(1, limit):
        for b in range(a + 1, limit):
            code = colour_pair(a, b, FULL)
            assert colour_pair(a, b, STAGE2) == code >> 1
            assert colour_pair(a, b, STAGE1) == code >> 3
            full = PairColour.decode(code, FULL)
            mid = PairColour.decode(code >> 1, STAGE2)
            base = PairColour.decode(code >> 3, STAGE1)
            shared = (full.c0, full.c1, full.c2, full.c3)
            assert shared == (mid.c0, mid.c1, mid.c2, mid.c3)
            assert shared == (base.c0, base.c1, base.c2, base.c3)
            assert (mid.c4, mid.c5) == (full.c4, full.c5)
            assert (base.c4, base.c5, base.c6) == (None, None, None)
            assert mid.c6 is None


@given(data=st.data())
@settings(max_examples=300)
def test_later_stages_refine_earlier_ones(data):
    pairs = []
    for _ in range(2):
        a = data.draw(small)
        b = data.draw(st.integers(min_value=a + 1, max_value=(1 << 12) + 1))
        pairs.append((a, b))
    p, q = pairs
    for coarse, fine in ((STAGE1, STAGE2), (STAGE1, FULL), (STAGE2, FULL)):
        if colour_pair(*p, fine) == colour_pair(*q, fine):
            assert colour_pair(*p, coarse) == colour_pair(*q, coarse)


def test_refinement_is_strict_somewhere():
    p, q = (1, 2), (8, 9)
    assert colour_pair(*p, STAGE1) == colour_pair(*q, STAGE1)
    assert colour_pair(*p, FULL) != colour_pair(*q, FULL)


@given(data=st.data())
@settings(max_examples=300)
def test_sum_pair_never_matches_part_pairs(data):
    f = data.draw(st.integers(min_value=0, max_value=8))
    w = data.draw(st.sampled_from(("001", "011", "101", "111")))
    window = int(w, 2)
    r1 = data.draw(st.integers(min_value=0, max_value=63))
    r2 = data.draw(st.integers(min_value=0, max_value=63))
    x = (window | (r1 << 3)) << f
    y = (window | (r2 << 3)) << f
    z = data.draw(small)
    part1 = _record(z, z + x)
    part2 = _record(z, z + y)
    total = _record(z, z + x + y)
    assert part1.c1 == part2.c1 == f % 3
    assert part1.c3 == part2.c3 == w
    assert total.c1 == (f + 1) % 3
    assert total.c1 != part1.c1
    for stage in STAGES:
        assert _record(z, z + x + y, stage).key() != \
            _record(z, z + x, stage).key()


@given(a=small, b=small)
def test_common_fragment_count_matches_fragment_list(a, b):
    assert common_fragment_count(a, b) == len(bits.common_fragments(a, b))


def test_common_fragment_count_matches_scanner_on_every_small_pair():
    for a in range(1, 1 << 8):
        for b in range(1, 1 << 8):
            count = common_fragment_count(a, b)
            assert count == oracles.common_fragment_count_oracle(a, b), (a, b)
            assert count == len(bits.common_fragments(a, b)), (a, b)


_WIDE = (1 << 100) | (1 << 70) | 1


@pytest.mark.parametrize("a, b, expected", [
    (6, 6, 1),
    ((1 << 64) - 1, (1 << 64) - 1, 1),
    (_WIDE, _WIDE, 1),
    (1, 1 << 9, 0),
    (1 << 65, 1 << 64, 0),
    (1 << 64, 1 << 64, 1),
    (0b1010, 0b0101, 0),
    ((1 << 70) | 1, (1 << 70) | (1 << 35) | 1, 2),
    (_WIDE, (1 << 100) | (1 << 71) | (1 << 35) | 1, 2),
    (_WIDE | (1 << 50),
     (1 << 100) | (1 << 71) | (1 << 50) | (1 << 35) | 1, 3),
])
def test_pinned_common_fragment_counts_on_equal_power_and_wide_pairs(
        a, b, expected):
    assert common_fragment_count(a, b) == expected
    assert common_fragment_count(b, a) == expected
    assert oracles.common_fragment_count_oracle(a, b) == expected
    assert len(bits.common_fragments(a, b)) == expected


def _scanner_colour(a, b, stage):
    """Referee for colour_pair: the digit components read off the binary
    string of b - a, and each parity from its string scanner."""
    digits = bin(b - a)[2:]
    last, first = len(digits) - 1, len(digits) - 1 - digits.rindex("1")
    parities = (oracles.jumps_oracle(a, b) % 2,
                oracles.intervals_oracle(b - a) % 2,
                oracles.common_fragment_count_oracle(a, b) % 2)
    kept = {STAGE1: 0, STAGE2: 2, FULL: 3}[stage]
    parities = parities[:kept] + (None,) * (3 - kept)
    return PairColour(last % 3, first % 3, (a.bit_length() - 1) % 3,
                      digits[max(0, len(digits) - first - 3):
                             len(digits) - first].zfill(3),
                      *parities, stage)


def test_colour_matches_the_scanner_colour_on_every_pair_below_2_8():
    for b in range(2, 1 << 8):
        for a in range(1, b):
            for stage in STAGES:
                assert _record(a, b, stage) == _scanner_colour(a, b, stage), \
                    (a, b, stage)


def _assert_difference_components(a, b):
    """c0, c1 and c3 read b - a through digit_bounds and one window shift;
    the referees are the per-digit definitions."""
    d = b - a
    for stage in STAGES:
        colour = _record(a, b, stage)
        assert colour.c0 == bits.last_digit(d) % 3
        assert colour.c1 == bits.first_digit(d) % 3
        assert colour.c3 == bits.first_three_digits(d)


def test_difference_components_match_the_digit_referees_below_2_8():
    for b in range(2, 1 << 8):
        for a in range(1, b):
            _assert_difference_components(a, b)


@given(a=st.integers(min_value=1, max_value=1 << 64),
       d=st.integers(min_value=1, max_value=1 << 64))
def test_difference_components_match_the_digit_referees(a, d):
    _assert_difference_components(a, a + d)
