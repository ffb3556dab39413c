"""Digit geometry: pinned values, guard behaviour and the arithmetic
properties the pair colouring relies on, cross-checked against the naive
string scanners."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supermono import bits, oracles

naturals = st.integers(min_value=1, max_value=1 << 16)


def test_digit_basics():
    assert bits.digit(200, 3) == 1
    assert bits.digit(200, 4) == 0
    assert bits.support(200) == [3, 6, 7]
    assert bits.digit_bounds(200) == (3, 7)
    assert bits.first_digit(200) == 3
    assert bits.last_digit(200) == 7
    assert bits.from_support([3, 6, 7]) == 200
    assert bits.first_three_digits(200) == "001"


def test_naturals_start_at_one():
    for fn in (bits.support, bits.first_digit, bits.last_digit,
               bits.intervals, bits.first_three_digits):
        with pytest.raises(ValueError):
            fn(0)


def test_digit_string_reads_most_significant_first():
    assert bits.digit_string(2, 1, 4) == "0001"
    assert bits.digit_string(6, 0, 2) == "110"


def test_digit_string_matches_the_per_digit_definition():
    for n in range(600):
        for lo in range(-4, 12):
            for hi in range(-5, 14):
                want = "".join(str(bits.digit(n, p))
                               for p in range(hi, lo - 1, -1))
                assert bits.digit_string(n, lo, hi) == want, (n, lo, hi)


def test_pinned_jumps_and_labels():
    a, b = 0b110101111, 0b10000100
    assert bits.jumps(a, b) == 2
    labels = dict(bits.label_positions(a, b))
    assert {p for p, mark in labels.items() if mark == "2"} == {2, 7}
    assert {p for p, mark in labels.items() if mark == "1"} == {0, 1, 3, 5, 8}
    assert bits.jumps(1, 201) == 1


def test_jumps_match_scanner_on_every_small_pair():
    for a in range(1, 1 << 8):
        for b in range(1, 1 << 8):
            assert bits.jumps(a, b) == oracles.jumps_oracle(a, b), (a, b)


_WIDE = (1 << 100) | (1 << 70) | 1


@pytest.mark.parametrize("a, b, expected", [
    (5, 5, 0),
    ((1 << 64) - 1, (1 << 64) - 1, 0),
    (_WIDE, _WIDE, 0),
    (1, 1 << 9, 0),
    (1 << 65, 1 << 64, 0),
    (1 << 64, 1 << 64, 0),
    (0b11, 0b111, 1),
    ((1 << 64) - 1, (1 << 65) - 1, 1),
    (_WIDE, (1 << 70) | (1 << 130), 1),
    (_WIDE, (1 << 100) | (1 << 101) | (1 << 71) | 1, 2),
])
def test_pinned_jumps_on_equal_power_and_wide_pairs(a, b, expected):
    assert bits.jumps(a, b) == expected
    assert bits.jumps(b, a) == expected
    assert oracles.jumps_oracle(a, b) == expected


def test_jumps_need_naturals():
    for a, b in ((0, 5), (5, 0), (-3, 5), (5, -1)):
        with pytest.raises(ValueError, match="must be a natural"):
            bits.jumps(a, b)


def test_pinned_intervals():
    assert bits.intervals(0b11101110010101) == 5
    assert bits.intervals(1) == 1
    assert bits.intervals(0b1011) == 2


def test_pinned_carry_region():
    region = bits.carry_region(0b1010011011, 0b100111010)
    assert (region.start, region.stop) == (1, 6)
    assert bits.carry_region(3, 1) == bits.CarryRegion(0, 2)
    assert bits.carry_region(4, 2) is None


@given(a=naturals, b=naturals)
def test_carry_sanity_disjoint_supports(a, b):
    if a & b:
        assert bits.carry_region(a, b) is not None
    else:
        assert bits.carry_region(a, b) is None
        assert set(bits.support(a + b)) == set(bits.support(a)) | set(bits.support(b))


@given(a=naturals, b=naturals)
@settings(max_examples=300)
def test_scanner_oracles_agree(a, b):
    assert bits.jumps(a, b) == oracles.jumps_oracle(a, b)
    assert bits.intervals(a) == oracles.intervals_oracle(a)
    assert bits.support(a) == oracles.support_oracle(a)
    assert bits.carry_region(a, b) == oracles.carry_region_oracle(a, b)


def test_pinned_fragments():
    right = bits.fragments(18, 40, "right")
    assert right == [bits.Fragment("1", 3, 3, "right")]
    left = bits.fragments(18, 40, "left")
    assert left == [bits.Fragment("1", 4, 4, "left")]


def test_fragment_hypothesis_errors_name_first_failure():
    with pytest.raises(ValueError, match=r"f_lower < f_upper fails: 2 >= 1"):
        bits.fragments(0b100100, 0b1000010, "right")
    with pytest.raises(ValueError):
        bits.fragments(18, 40, "sideways")


@given(lower=naturals, upper=naturals)
@settings(max_examples=300)
def test_fragments_match_scanner_on_any_pair(lower, upper):
    for side in ("right", "left"):
        try:
            expected = oracles.fragments_oracle(lower, upper, side)
        except ValueError as err:
            with pytest.raises(ValueError) as excinfo:
                bits.fragments(lower, upper, side)
            assert str(excinfo.value) == str(err)
        else:
            assert bits.fragments(lower, upper, side) == expected


def test_pinned_common_fragments():
    frags = bits.common_fragments(5, 4)
    assert frags == [bits.Fragment("10", 1, 2, "common")]
    assert len(bits.common_fragments(1, 201)) == 1
    whole = bits.common_fragments(6, 6)
    assert whole == [bits.Fragment("110", 0, 2, "common")]
    assert bits.common_fragments(0b1010, 0b0101) == []


@given(a=naturals, b=naturals)
@settings(max_examples=300)
def test_common_fragment_count_matches_scanner(a, b):
    assert len(bits.common_fragments(a, b)) == \
        oracles.common_fragment_count_oracle(a, b)


@given(a=naturals, b=naturals, lo=st.integers(-2, 24),
       hi=st.integers(-1, 24) | st.none())
@example(a=5, b=4, lo=3, hi=1)
@example(a=0b1101, b=0b0101, lo=1, hi=20)
@example(a=6, b=6, lo=0, hi=-1)
@settings(max_examples=500)
def test_windowed_common_fragment_count_matches_list_and_scanner(a, b, lo, hi):
    """The count over [lo, hi] agrees with the fragment list and with the
    string scanner, for empty windows (lo > hi) and for windows reaching
    past both last digits."""
    count = bits.common_fragment_count(a, b, lo, hi)
    assert count == len(bits.common_fragments(a, b, lo, hi))
    top = max(bits.last_digit(a), bits.last_digit(b)) if hi is None else hi
    assert count == len(oracles._scan_fragments(a, b, lo, top, "common"))


def test_centre_window_and_digits():
    text, window = bits.centre(0b110010, 0b1001, 0b10100000)
    assert text == "1"
    assert window == (4, 4)


def test_centre_rejects_broken_staircase():
    with pytest.raises(ValueError):
        bits.centre(0b1001, 0b110010, 0b10100000)


def _position_value(positions) -> int:
    return sum(1 << p for p in positions)


@given(data=st.data())
@settings(max_examples=300)
def test_first_digit_of_same_window_sum_shifts(data):
    f = data.draw(st.integers(min_value=0, max_value=10))
    w = data.draw(st.sampled_from((1, 3, 5, 7)))
    r1 = data.draw(st.integers(min_value=0, max_value=255))
    r2 = data.draw(st.integers(min_value=0, max_value=255))
    a = (w | (r1 << 3)) << f
    b = (w | (r2 << 3)) << f
    assert bits.first_digit(a) == bits.first_digit(b) == f
    assert bits.first_three_digits(a) == bits.first_three_digits(b)
    assert bits.first_digit(a + b) == f + 1


@given(data=st.data())
@settings(max_examples=200)
def test_last_digit_of_staircase_pair_sum(data):
    f1 = data.draw(st.integers(min_value=0, max_value=4))
    f2 = data.draw(st.integers(min_value=f1 + 1, max_value=6))
    l1 = data.draw(st.integers(min_value=f2, max_value=8))
    l2 = data.draw(st.integers(min_value=l1 + 1, max_value=10))
    inner1 = data.draw(st.sets(st.integers(min_value=f1, max_value=l1)))
    inner2 = data.draw(st.sets(st.integers(min_value=f2, max_value=l2)))
    z1 = _position_value({f1, l1} | inner1)
    z2 = _position_value({f2, l2} | inner2)
    assert bits.last_digit(z1 + z2) in (l2, l2 + 1)


def test_block_subsequence_examples():
    zs = (1, 2, 4, 8)
    assert bits.block_subsequence(zs, (1, 2, 3, 4)) == [1, 2, 4, 8]
    assert bits.block_subsequence(zs, (2, 4)) == [3, 12]
    with pytest.raises(ValueError):
        bits.block_subsequence(zs, (3, 1))
    with pytest.raises(ValueError):
        bits.block_subsequence(zs, ())


@given(data=st.data())
@settings(max_examples=200)
def test_block_subsequence_composition(data):
    zs = data.draw(st.lists(naturals, min_size=1, max_size=8))
    outer = data.draw(st.sets(st.integers(min_value=1, max_value=len(zs)),
                              min_size=1))
    cuts1 = sorted(outer)
    inner = data.draw(st.sets(st.integers(min_value=1, max_value=len(cuts1)),
                              min_size=1))
    cuts2 = sorted(inner)
    once = bits.block_subsequence(bits.block_subsequence(zs, cuts1), cuts2)
    composed = [cuts1[c - 1] for c in cuts2]
    assert once == bits.block_subsequence(zs, composed)


def test_classify_examples():
    assert bits.classify([1, 2, 16]).kind == bits.TYPE_A
    candidate = bits.classify([1, 3, 16])
    assert candidate.kind == bits.TYPE_B_CANDIDATE
    assert candidate.checked_cut_depth is not None
    assert bits.classify([2, 1]).kind == bits.NEITHER


def test_middle_reads_most_significant_first():
    text, proper = bits.middle((1, 2, 32), 2)
    assert text == "0001"
    assert proper is True


def test_overlapping_zone_bounds():
    zone = bits.overlapping_zone((3, 6, 24), 1)
    assert (zone.lo, zone.hi) == (1, 3)
    assert not zone.empty
    assert bits.overlapping_zone((1, 2, 32), 1).empty
    with pytest.raises(ValueError):
        bits.overlapping_zone((1, 2, 32), 3)


@given(a=naturals, b=naturals)
def test_jumps_is_symmetric(a, b):
    assert bits.jumps(a, b) == bits.jumps(b, a)
