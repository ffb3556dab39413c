"""Digit geometry: pinned values, guard behaviour and the arithmetic
properties the pair colouring relies on, cross-checked against the naive
string scanners."""

from __future__ import annotations

import itertools
import random

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
    (bits.jump_marks, (5, 6)),
    (bits.jumps, (5, 6)),
    (bits.top_run_shared, (5, 6)),
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


# Each kernel that checks its int arguments itself: valid arguments and
# their parameter names, in order.
_NAMED_NATURAL_CALLS = [
    (bits.first_digit, (200,), ("n",)),
    (bits.last_digit, (200,), ("n",)),
    (bits.digit_bounds, (200,), ("n",)),
    (bits.support, (200,), ("n",)),
    (bits.intervals, (200,), ("c",)),
    (bits.label_positions, (5, 6), ("a", "b")),
    (bits.jump_marks, (5, 6), ("a", "b")),
    (bits.jumps, (5, 6), ("a", "b")),
    (bits.top_run_shared, (5, 6), ("a", "b")),
    (bits.carry_region, (5, 6), ("m", "n")),
    (bits.common_fragments, (5, 7), ("a", "b")),
    (bits.common_fragment_count, (5, 7), ("a", "b")),
    (bits.fragments, (0b101, 0b1010, "right"), ("lower", "upper")),
    (bits.centre, (0b1010, 0b11, 0b11000), ("r", "p", "s")),
    # a bad value beside a valid 5: (0, 5), (5, 0), (-3, 5), (5, -1), ...
    (bits.jumps, (5, 5), ("a", "b")),
    (bits.common_fragment_count, (5, 5), ("a", "b")),
]


def _call_ids(rows):
    """The function's name, with its valid arguments when it has an
    earlier row."""
    seen = set()
    for fn, args, _ in rows:
        name = fn.__name__
        yield name if name not in seen else f"{name}-{'-'.join(map(str, args))}"
        seen.add(name)


@pytest.mark.parametrize("fn, args, names", _NAMED_NATURAL_CALLS,
                         ids=list(_call_ids(_NAMED_NATURAL_CALLS)))
def test_natural_errors_name_the_argument(fn, args, names):
    """A 0 or a negative value in each argument gives the message that
    names that argument, word for word, e.g. jumps(5, 0) -> 'b must be a
    natural >= 1, got 0'."""
    for i, name in enumerate(names):
        for value in (0, -1, -3):
            bad = args[:i] + (value,) + args[i + 1:]
            with pytest.raises(ValueError) as info:
                fn(*bad)
            assert str(info.value) == f"{name} must be a natural >= 1, got {value}"


@given(n=st.one_of(naturals, st.integers(min_value=1, max_value=1 << 200)))
@example(n=1)
def test_digit_bounds_are_the_first_and_last_digit(n):
    assert bits.digit_bounds(n) == (bits.first_digit(n), bits.last_digit(n))


def test_digit_string_reads_most_significant_first():
    assert bits.digit_string(2, 1, 4) == "0001"
    assert bits.digit_string(6, 0, 2) == "110"


def _digits_referee(n: int, lo: int, hi: int) -> str:
    return "".join(str((n >> p) & 1 if p >= 0 else 0)
                   for p in range(hi, lo - 1, -1))


def test_digit_string_matches_the_per_digit_definition():
    for n in range(600):
        for lo in range(-4, 12):
            for hi in range(-5, 14):
                assert bits.digit_string(n, lo, hi) == \
                    _digits_referee(n, lo, hi), (n, lo, hi)
    for n, lo, hi in ((1 << 256, 250, 260), ((1 << 256) - 1, -3, 258),
                      (5 << 200, 199, 203)):
        assert bits.digit_string(n, lo, hi) == \
            _digits_referee(n, lo, hi), (n, lo, hi)


@given(data=st.data())
@settings(max_examples=300)
def test_digit_string_matches_the_per_digit_definition_on_wide_naturals(data):
    """Windows anywhere from below position 0 to past the top digit of an
    n up to 2^256, so many cross it and read leading 0s."""
    n = data.draw(st.integers(min_value=0, max_value=1 << 256))
    top = n.bit_length()
    lo = data.draw(st.integers(min_value=-4, max_value=top + 4))
    hi = data.draw(st.integers(min_value=lo - 1, max_value=top + 8))
    assert bits.digit_string(n, lo, hi) == _digits_referee(n, lo, hi)


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


def _jump_mark_positions(a: int, b: int) -> set[int]:
    """Referee: the '1'-labelled support positions whose next-lower
    support position is labelled '2', read off the digit strings."""
    width = max(a.bit_length(), b.bit_length())
    da, db = (bin(n)[2:].zfill(width)[::-1] for n in (a, b))
    labels = [(p, "2" if da[p] == db[p] == "1" else "1")
              for p in range(width) if "1" in (da[p], db[p])]
    return {p for (_, below), (p, label) in zip(labels, labels[1:])
            if below == "2" and label == "1"}


def test_jump_marks_sit_just_above_each_2_on_every_small_pair():
    for a in range(1, 1 << 8):
        for b in range(a + 1, 1 << 8):
            marks = bits.jump_marks(a, b)
            assert marks >= 0, (a, b)
            assert {p for p in range(marks.bit_length()) if marks >> p & 1} \
                == _jump_mark_positions(a, b), (a, b)
            assert bits.jumps(a, b) == marks.bit_count(), (a, b)


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


_RNG_200 = random.Random(200)
_BITS_200 = [_RNG_200.getrandbits(200) | 1 << 199 for _ in range(4)]


@pytest.mark.parametrize("a, b", [
    (0b1010 << 150, 0b0101 << 150),
    ((1 << 150) - 1, 1 << 149),
    ((1 << 200) - 1, (1 << 200) - 1 ^ (1 << 100) ^ 1),
    ((1 << 100) - 1 << 50, (1 << 201) - 1),
    (_WIDE, _WIDE),
    (1 << 199, 1 << 199),
    (1 << 199, 1),
    (1 << 199, (1 << 200) - 1),
    *zip(_BITS_200, _BITS_200[1:]),
    (_BITS_200[0], _BITS_200[0] & _BITS_200[1]),
    (_BITS_200[2] & ~_BITS_200[3], _BITS_200[3]),
], ids=["disjoint", "disjoint-runs", "nested-holes", "nested-run", "equal",
        "equal-single-bit", "single-bits", "single-bit-in-run",
        "200-bit-0", "200-bit-1", "200-bit-2", "200-bit-nested",
        "200-bit-disjoint"])
def test_jumps_match_scanner_on_wide_pairs(a, b):
    assert bits.jumps(a, b) == oracles.jumps_oracle(a, b)
    assert bits.jumps(b, a) == oracles.jumps_oracle(a, b)


def _top_run_shared_by_digits(a: int, b: int) -> bool:
    """Referee: scan the digits above the highest difference of a and b for
    a 1 of both."""
    width = max(a.bit_length(), b.bit_length())
    diffs = [p for p in range(width) if (a >> p) & 1 != (b >> p) & 1]
    start = diffs[-1] + 1 if diffs else 0
    return any((a >> p) & (b >> p) & 1 for p in range(start, width))


def _assert_fragment_count_is_jumps_plus_top_run(a, b):
    """The unwindowed count, the count over the explicit window [0, top]
    and the fragment list all equal jumps plus the top-run bit, and the
    bit is the per-digit one."""
    top_run = bits.top_run_shared(a, b)
    assert top_run == _top_run_shared_by_digits(a, b), (a, b)
    expected = bits.jumps(a, b) + top_run
    top = max(a.bit_length(), b.bit_length()) - 1
    assert bits.common_fragment_count(a, b) == expected, (a, b)
    assert bits.common_fragment_count(a, b, 0, top) == expected, (a, b)
    assert len(bits.common_fragments(a, b)) == expected, (a, b)


def test_common_fragment_count_is_jumps_plus_top_run_below_2_9():
    for a in range(1, 1 << 9):
        for b in range(1, 1 << 9):
            _assert_fragment_count_is_jumps_plus_top_run(a, b)


@given(a=st.integers(min_value=1, max_value=1 << 256),
       b=st.integers(min_value=1, max_value=1 << 256))
@example(a=(1 << 256) - 1, b=(1 << 256) - 1)
@example(a=1 << 256, b=1)
@settings(max_examples=300)
def test_common_fragment_count_is_jumps_plus_top_run(a, b):
    _assert_fragment_count_is_jumps_plus_top_run(a, b)
    _assert_fragment_count_is_jumps_plus_top_run(b, a)
    _assert_fragment_count_is_jumps_plus_top_run(a, a)


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
@example(a=5, b=7, lo=-2, hi=-3)
@example(a=5, b=7, lo=-1, hi=-3)
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


@pytest.mark.parametrize("zs, message", [
    ([], "zs must be nonempty"),
    ([4, 2], "staircase geometry fails: first digits not increasing at "
             "index 1"),
    ([3, 2], "staircase geometry fails: last digits not increasing at "
             "index 1"),
])
def test_j_sequence_rejects_a_broken_staircase(zs, message):
    with pytest.raises(ValueError) as info:
        bits.j_sequence(zs)
    assert str(info.value) == message


def _centre_referee(r: int, p: int, s: int):
    """centre from the per-digit definitions: (text, window), or the
    message of the first failing check."""
    for name, value in (("r", r), ("p", p), ("s", s)):
        if value < 1:
            return f"{name} must be a natural >= 1, got {value}"

    def bounds(v):
        ones = [q for q in range(v.bit_length()) if (v >> q) & 1]
        return min(ones), max(ones)

    (f_p, l_p), (f_r, l_r), (f_s, l_s) = map(bounds, (p, r, s))
    checks = [
        (f_p < f_r, f"f_p < f_r fails: {f_p} >= {f_r}"),
        (f_r < f_s, f"f_r < f_s fails: {f_r} >= {f_s}"),
        (l_p < l_r, f"l_p < l_r fails: {l_p} >= {l_r}"),
        (l_r < l_s, f"l_r < l_s fails: {l_r} >= {l_s}"),
        (l_p >= f_r, f"l_p >= f_r fails: {l_p} < {f_r}"),
        (l_r >= f_s, f"l_r >= f_s fails: {l_r} < {f_s}"),
        (l_p + 1 < f_s, f"l_p + 1 < f_s fails: {l_p + 1} >= {f_s}"),
    ]
    for holds, message in checks:
        if not holds:
            return f"centre hypothesis {message}"
    text = "".join(str((r >> q) & 1) for q in range(f_s - 1, l_p, -1))
    return text, (l_p + 1, f_s - 1)


def _centre_or_message(r: int, p: int, s: int):
    try:
        return bits.centre(r, p, s)
    except ValueError as err:
        return str(err)


def test_centre_matches_the_per_digit_referee_below_2_5():
    """Every triple of values below 2^5, 0 included: the window, its
    digits, or the first failing check's message."""
    accepted = 0
    for r, p, s in itertools.product(range(32), repeat=3):
        got = _centre_or_message(r, p, s)
        assert got == _centre_referee(r, p, s), (r, p, s)
        accepted += isinstance(got, tuple)
    assert accepted > 0


@st.composite
def _centre_triples(draw):
    """(r, p, s) meeting every centre hypothesis: the chain
    f_p < f_r <= l_p < l_p + 2 <= f_s <= l_r < l_s, random interiors."""
    f_p = draw(st.integers(0, 8))
    f_r = f_p + draw(st.integers(1, 8))
    l_p = f_r + draw(st.integers(0, 12))
    f_s = l_p + draw(st.integers(2, 16))
    l_r = f_s + draw(st.integers(0, 12))
    l_s = l_r + draw(st.integers(1, 8))

    def natural(f, l):
        interior = draw(st.integers(0, (1 << 64) - 1)) << (f + 1)
        return (1 << f) | (1 << l) | interior & ((1 << l) - 1)

    return natural(f_r, l_r), natural(f_p, l_p), natural(f_s, l_s)


_WIDE = st.integers(min_value=-2, max_value=1 << 64)


@given(triple=_centre_triples() | st.tuples(_WIDE, _WIDE, _WIDE))
@settings(max_examples=500)
def test_centre_matches_the_per_digit_referee_on_wide_naturals(triple):
    assert _centre_or_message(*triple) == _centre_referee(*triple)


@pytest.mark.parametrize("r, p, s, message", [
    (0b1, 0b11, 0b100, "f_p < f_r fails: 0 >= 0"),
    (0b110, 0b1, 0b10, "f_r < f_s fails: 1 >= 1"),
    (0b10, 0b1001, 0b100, "l_p < l_r fails: 3 >= 1"),
    (0b110, 0b1, 0b100, "l_r < l_s fails: 2 >= 2"),
    (0b10, 0b1, 0b100, "l_p >= f_r fails: 0 < 1"),
    (0b110, 0b11, 0b11000, "l_r >= f_s fails: 2 < 3"),
    (0b110, 0b11, 0b1100, "l_p + 1 < f_s fails: 2 >= 2"),
])
def test_centre_hypothesis_messages_are_pinned(r, p, s, message):
    with pytest.raises(ValueError) as info:
        bits.centre(r, p, s)
    assert str(info.value) == f"centre hypothesis {message}"


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
