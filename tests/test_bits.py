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
    assert bits.support(200) == [3, 6, 7]
    assert bits.support(200) == [p for p in range(8) if (200 >> p) & 1]
    assert bits.digit_bounds(200) == (3, 7)
    assert bits.first_digit(200) == 3
    assert bits.last_digit(200) == 7
    assert bits.first_three_digits(200) == "001"


_STAIRCASE = [0b11, 0b1100, 0b110000]

# Each public function that takes naturals, with arguments it accepts.
_NATURAL_CALLS = [
    (bits.support, (200,)),
    (bits.first_digit, (200,)),
    (bits.last_digit, (200,)),
    (bits.digit_bounds, (200,)),
    (bits.intervals, (200,)),
    (bits.first_three_digits, (200,)),
    (bits.label_positions, (5, 6)),
    (bits.jumps, (5, 6)),
    (bits.carry_region, (5, 6)),
    (bits.fragments, (0b101, 0b1010, "right")),
    (bits.fragments, (0b101, 0b1010, "left")),
    (bits.common_fragments, (5, 7)),
    (bits.common_fragment_count, (5, 7)),
    (bits.centre, (0b1010, 0b11, 0b11000)),
    (bits.j_sequence, (_STAIRCASE,)),
    (bits.middles, (_STAIRCASE,)),
    (bits.overlapping_zones, (_STAIRCASE,)),
    (bits.is_type_a, (_STAIRCASE,)),
]


def test_naturals_start_at_one():
    """Every public function that takes naturals rejects 0 in each natural
    argument: each int argument and each element of a staircase list."""
    for fn, args in _NATURAL_CALLS:
        fn(*args)
        for i, arg in enumerate(args):
            if isinstance(arg, list):
                zeroed = [arg[:j] + [0] + arg[j + 1:] for j in range(len(arg))]
            elif isinstance(arg, int):
                zeroed = [0]
            else:
                continue
            for value in zeroed:
                bad = args[:i] + (value,) + args[i + 1:]
                with pytest.raises(ValueError, match="must be a natural"):
                    fn(*bad)


@given(n=st.one_of(naturals, st.integers(min_value=1, max_value=1 << 200)))
@example(n=1)
def test_digit_bounds_are_the_first_and_last_digit(n):
    assert bits.digit_bounds(n) == (bits.first_digit(n), bits.last_digit(n))


def test_digit_string_reads_most_significant_first():
    assert bits.digit_string(2, 1, 4) == "0001"
    assert bits.digit_string(6, 0, 2) == "110"


def test_digit_string_matches_the_per_digit_definition():
    for n in range(600):
        for lo in range(-4, 12):
            for hi in range(-5, 14):
                want = "".join(str((n >> p) & 1 if p >= 0 else 0)
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
@example(a=5, b=7, lo=-2, hi=None)
@settings(max_examples=500)
def test_windowed_common_fragment_count_matches_list_and_scanner(a, b, lo, hi):
    """The count over [lo, hi] agrees with the fragment list, and the list
    with the string scanner's, for empty windows (lo > hi), for windows
    reaching past both last digits, and for windows below position 0,
    where a run through position 0 reaches down to lo."""
    count = bits.common_fragment_count(a, b, lo, hi)
    listed = bits.common_fragments(a, b, lo, hi)
    assert count == len(listed)
    top = max(bits.last_digit(a), bits.last_digit(b)) if hi is None else hi
    assert listed == oracles._scan_fragments(a, b, lo, top, "common")


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


def test_is_type_a_examples():
    assert bits.is_type_a([1, 2, 16])
    assert not bits.is_type_a([1, 3, 16])
    assert not bits.is_type_a([2, 1])


def test_middle_reads_most_significant_first():
    assert bits.middles((1, 2, 32)) == ["1", "0001"]


def test_overlapping_zone_bounds():
    first, second = bits.overlapping_zones((3, 6, 24))
    assert (first.lo, first.hi) == (1, 3)
    assert not first.empty
    assert second.empty
    assert all(zone.empty for zone in bits.overlapping_zones((1, 2, 32)))


@given(a=naturals, b=naturals)
def test_jumps_is_symmetric(a, b):
    assert bits.jumps(a, b) == bits.jumps(b, a)
