"""Seven-component pair colouring: pinned colours, stage projections, the
ordinal encoding and the sum obstruction the first refinement stage carries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermono import bits, oracles
from supermono.bits import common_fragment_count
from supermono.pair_colouring import (
    FULL,
    STAGE1,
    STAGE2,
    STAGES,
    colour_pair,
    refines,
)

small = st.integers(min_value=1, max_value=1 << 12)


def test_pinned_colour_of_1_201():
    colour = colour_pair(1, 201)
    assert (colour.c0, colour.c1, colour.c2) == (1, 0, 0)
    assert colour.c3 == "001"
    assert (colour.c4, colour.c5, colour.c6) == (1, 0, 1)
    assert colour.key() == "100-001-101"
    assert colour.ordinal() == 293


def test_pinned_colour_of_132_431():
    colour = colour_pair(132, 431)
    assert colour.key() == "201-011-000"
    assert colour.ordinal() == 616


def test_stage_keys_drop_absent_components():
    assert colour_pair(1, 201, STAGE1).key() == "100-001"
    assert colour_pair(1, 201, STAGE2).key() == "100-001-10"
    assert colour_pair(1, 201, FULL).key() == "100-001-101"


def test_ordinal_requires_full_stage():
    for stage in (STAGE1, STAGE2):
        with pytest.raises(ValueError):
            colour_pair(1, 201, stage).ordinal()


def test_validation_errors():
    with pytest.raises(ValueError):
        colour_pair(5, 3)
    with pytest.raises(ValueError):
        colour_pair(3, 3)
    with pytest.raises(ValueError):
        colour_pair(0, 3)
    with pytest.raises(ValueError):
        colour_pair(1, 2, "stage9")


@given(a=small)
def test_consecutive_pair_colour(a):
    colour = colour_pair(a, a + 1)
    assert (colour.c0, colour.c1) == (0, 0)
    assert colour.c3 == "001"
    assert colour.c5 == 1


@given(a=small, b=small)
@settings(max_examples=400)
def test_ordinal_is_injective_on_keys(a, b):
    if a == b:
        return
    lo, hi = sorted((a, b))
    p = colour_pair(lo, hi)
    q = colour_pair(lo, hi + 1)
    assert 0 <= p.ordinal() <= 863
    assert (p.key() == q.key()) == (p.ordinal() == q.ordinal())


def test_stage_projection_is_exhaustively_consistent():
    limit = 1 << 9
    for a in range(1, limit):
        for b in range(a + 1, limit):
            full = colour_pair(a, b, FULL)
            mid = colour_pair(a, b, STAGE2)
            base = colour_pair(a, b, STAGE1)
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
    assert refines(STAGE1, STAGE2, p, q)
    assert refines(STAGE1, FULL, p, q)
    assert refines(STAGE2, FULL, p, q)


def test_refinement_is_strict_somewhere():
    p, q = (1, 2), (8, 9)
    assert colour_pair(*p, STAGE1) == colour_pair(*q, STAGE1)
    assert colour_pair(*p, FULL) != colour_pair(*q, FULL)
    assert not refines(FULL, STAGE1, p, q)


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
    part1 = colour_pair(z, z + x)
    part2 = colour_pair(z, z + y)
    total = colour_pair(z, z + x + y)
    assert part1.c1 == part2.c1 == f % 3
    assert part1.c3 == part2.c3 == w
    assert total.c1 == (f + 1) % 3
    assert total.c1 != part1.c1
    for stage in STAGES:
        assert colour_pair(z, z + x + y, stage).key() != \
            colour_pair(z, z + x, stage).key()


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


def test_common_fragment_count_needs_naturals():
    for a, b in ((0, 5), (5, 0), (-3, 5), (5, -1)):
        with pytest.raises(ValueError, match="must be a natural"):
            common_fragment_count(a, b)
