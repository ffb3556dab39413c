"""Binary digit diagnostics for naturals: supports, carries, intervals,
jumps, fragments, centres, middles, zones, and staircase classification.

Positions are 0-based exponents of 2, so position 0 is the least significant
digit. All reported digit strings read most significant position first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

TYPE_A = "TypeA"
TYPE_B_CANDIDATE = "TypeBCandidate"
NEITHER = "Neither"


def _require_natural(n: int, name: str) -> None:
    if n < 1:
        raise ValueError(f"{name} must be a natural >= 1, got {n}")


def digit(n: int, p: int) -> int:
    """Digit of n at position p (0 or 1)."""
    if p < 0:
        return 0
    return (n >> p) & 1


def first_digit(n: int) -> int:
    """Position of the least significant 1 of n."""
    _require_natural(n, "n")
    return (n & -n).bit_length() - 1


def last_digit(n: int) -> int:
    """Position of the most significant 1 of n."""
    _require_natural(n, "n")
    return n.bit_length() - 1


def digit_bounds(n: int) -> tuple[int, int]:
    """(first, last) digit positions of n."""
    return first_digit(n), last_digit(n)


def support(n: int) -> list[int]:
    """Ascending list of positions where n has digit 1."""
    _require_natural(n, "n")
    positions = []
    p = 0
    while n:
        if n & 1:
            positions.append(p)
        n >>= 1
        p += 1
    return positions


def from_support(positions) -> int:
    """Inverse of support: the natural with 1s exactly at the given positions."""
    value = 0
    for p in positions:
        if p < 0:
            raise ValueError(f"positions must be >= 0, got {p}")
        bit = 1 << p
        if value & bit:
            raise ValueError(f"duplicate position {p}")
        value |= bit
    if value == 0:
        raise ValueError("empty support does not describe a natural >= 1")
    return value


def digit_string(n: int, lo: int, hi: int) -> str:
    """Digits of n at positions hi down to lo; empty when lo > hi. Digits
    below position 0 read 0, as in digit."""
    if lo > hi:
        return ""
    width = hi - lo + 1
    window = n >> lo if lo >= 0 else n << -lo
    return format(window & ((1 << width) - 1), f"0{width}b")


def first_three_digits(n: int) -> str:
    """Digits of n at positions f+2, f+1, f where f is the first digit."""
    f = first_digit(n)
    return digit_string(n, f, f + 2)


def label_positions(a: int, b: int) -> list[tuple[int, str]]:
    """Joint support of a and b, each position labelled '2' (digit 1 in both)
    or '1' (digit 1 in exactly one), ascending."""
    _require_natural(a, "a")
    _require_natural(b, "b")
    labels = []
    both = a & b
    union = a | b
    p = 0
    while union:
        if union & 1:
            labels.append((p, "2" if (both >> p) & 1 else "1"))
        union >>= 1
        p += 1
    return labels


def jumps(a: int, b: int) -> int:
    """Number of '2'-to-'1' label transitions over the joint support, ascending."""
    _require_natural(a, "a")
    _require_natural(b, "b")
    union = a | b
    # Each '2' position adds 1 one place up; the carry runs through the gaps
    # there and lands on the next joint-support position, which counts when
    # it is a '1'.
    gaps = ~union & ((1 << (union.bit_length() + 1)) - 1)
    return ((gaps + ((a & b) << 1)) & (a ^ b)).bit_count()


def intervals(c: int) -> int:
    """Number of maximal runs of consecutive 1s in the expansion of c."""
    _require_natural(c, "c")
    return (c & ~(c << 1)).bit_count()


@dataclass(frozen=True)
class CarryRegion:
    """Minimal position interval containing all carrying of an addition."""

    start: int
    stop: int


def carry_region(m: int, n: int) -> CarryRegion | None:
    """Carry region of m + n, or None when the supports are disjoint.

    start is the least position where both have digit 1; stop is the greatest
    position where the sum's digit differs from the plain column sum.
    """
    _require_natural(m, "m")
    _require_natural(n, "n")
    both = m & n
    if both == 0:
        return None
    # a both-1 column sums to 2, which no single result digit equals
    disagree = both | ((m + n) ^ m ^ n)
    start = (both & -both).bit_length() - 1
    stop = disagree.bit_length() - 1
    assert start <= stop
    return CarryRegion(start, stop)


@dataclass(frozen=True)
class Fragment:
    """Maximal matched digit string with leading digit 1.

    side 'right': piece of upper matched by lower + upper in the overlap
    window; side 'left': piece of lower matched there; side 'common': piece
    matched at identical positions by both members of a pair.
    """

    bits: str
    lo: int
    hi: int
    side: str


def _matched_fragments(x: int, y: int, lo: int, hi: int, side: str) -> list[Fragment]:
    """Fragments from maximal agreement runs of x and y within [lo, hi].

    A run contributes one fragment when it contains a position where both
    numbers have digit 1; the fragment tops out at the highest such position
    so its leading digit is 1.
    """
    marks = x & y
    frags = []
    run_lo = None
    for p in range(lo, hi + 2):
        agree = p <= hi and digit(x, p) == digit(y, p)
        if agree and run_lo is None:
            run_lo = p
        elif not agree and run_lo is not None:
            top = None
            for q in range(p - 1, run_lo - 1, -1):
                if digit(marks, q):
                    top = q
                    break
            if top is not None:
                frags.append(Fragment(digit_string(x, run_lo, top), run_lo, top, side))
            run_lo = None
    return frags


def fragments(lower: int, upper: int, side: str) -> list[Fragment]:
    """Fragments of the pair's sum within the overlap window [f_upper, l_lower].

    side 'right' extracts the pieces of upper, side 'left' the pieces of
    lower. The standing hypotheses are enforced: f_lower < f_upper,
    l_lower < l_upper, disjoint supports, and l_lower >= f_upper.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    _require_natural(lower, "lower")
    _require_natural(upper, "upper")
    f_lo, l_lo = digit_bounds(lower)
    f_up, l_up = digit_bounds(upper)
    if not f_lo < f_up:
        raise ValueError(
            f"fragment hypothesis f_lower < f_upper fails: {f_lo} >= {f_up}")
    if not l_lo < l_up:
        raise ValueError(
            f"fragment hypothesis l_lower < l_upper fails: {l_lo} >= {l_up}")
    if lower & upper:
        raise ValueError("fragment hypothesis fails: supports not disjoint")
    if not l_lo >= f_up:
        raise ValueError(
            f"fragment hypothesis l_lower >= f_upper fails: {l_lo} < {f_up}")
    target = upper if side == "right" else lower
    return _matched_fragments(lower + upper, target, f_up, l_lo, side)


def common_fragments(a: int, b: int, lo: int = 0, hi: int | None = None) -> list[Fragment]:
    """Maximal same-position matched strings of a and b containing a shared 1,
    within [lo, hi] (default: up to the larger last digit)."""
    _require_natural(a, "a")
    _require_natural(b, "b")
    if hi is None:
        hi = max(last_digit(a), last_digit(b))
    return _matched_fragments(a, b, lo, hi, "common")


def common_fragment_count(a: int, b: int, lo: int = 0, hi: int | None = None) -> int:
    """len(common_fragments(a, b, lo, hi)) without building the fragments:
    the shared 1s of a run of agreeing digits carry out of its top exactly
    once. No 1 is shared below position 0, and lo > hi is an empty window."""
    _require_natural(a, "a")
    _require_natural(b, "b")
    if hi is None:
        hi = max(a.bit_length(), b.bit_length()) - 1
    lo = lo if lo > 0 else 0
    agree = ~(a ^ b) & ((1 << (hi + 1 if hi >= lo else lo)) - (1 << lo))
    return ((agree + (a & b & agree)) & ~agree).bit_count()


def centre(r: int, p: int, s: int) -> tuple[str, tuple[int, int]]:
    """Digits of r strictly between l_p and f_s, with the position range.

    The standing hypotheses are enforced: f_p < f_r < f_s, l_p < l_r < l_s,
    l_p >= f_r, l_r >= f_s, l_p + 1 < f_s.
    """
    for value, name in ((r, "r"), (p, "p"), (s, "s")):
        _require_natural(value, name)
    f_p, l_p = digit_bounds(p)
    f_r, l_r = digit_bounds(r)
    f_s, l_s = digit_bounds(s)
    if not f_p < f_r:
        raise ValueError(f"centre hypothesis f_p < f_r fails: {f_p} >= {f_r}")
    if not f_r < f_s:
        raise ValueError(f"centre hypothesis f_r < f_s fails: {f_r} >= {f_s}")
    if not l_p < l_r:
        raise ValueError(f"centre hypothesis l_p < l_r fails: {l_p} >= {l_r}")
    if not l_r < l_s:
        raise ValueError(f"centre hypothesis l_r < l_s fails: {l_r} >= {l_s}")
    if not l_p >= f_r:
        raise ValueError(f"centre hypothesis l_p >= f_r fails: {l_p} < {f_r}")
    if not l_r >= f_s:
        raise ValueError(f"centre hypothesis l_r >= f_s fails: {l_r} < {f_s}")
    if not l_p + 1 < f_s:
        raise ValueError(
            f"centre hypothesis l_p + 1 < f_s fails: {l_p + 1} >= {f_s}")
    lo, hi = l_p + 1, f_s - 1
    return digit_string(r, lo, hi), (lo, hi)


def _check_staircase(zs) -> None:
    if not zs:
        raise ValueError("zs must be nonempty")
    for z in zs:
        _require_natural(z, "zs element")
    for i in range(len(zs) - 1):
        if first_digit(zs[i]) >= first_digit(zs[i + 1]):
            raise ValueError(
                f"staircase geometry fails: first digits not increasing at index {i + 1}")
        if last_digit(zs[i]) >= last_digit(zs[i + 1]):
            raise ValueError(
                f"staircase geometry fails: last digits not increasing at index {i + 1}")


def j_sequence(zs) -> list[int]:
    """j_1 = f_{z_1} - 1; j_n = max(carry stop of z_{n-1} + z_n, l_{z_{n-1}}).

    Requires staircase geometry (first and last digits strictly increasing).
    """
    _check_staircase(zs)
    js = [first_digit(zs[0]) - 1]
    for i in range(1, len(zs)):
        region = carry_region(zs[i - 1], zs[i])
        prev_last = last_digit(zs[i - 1])
        js.append(max(region.stop, prev_last) if region else prev_last)
    return js


def middle(zs, n: int) -> tuple[str, bool]:
    """Digits of z_n strictly between j_n and f_{z_{n+1}}; flag is True when
    the string is nonempty and contains a 1. n is 1-based."""
    if not 1 <= n < len(zs):
        raise ValueError(f"n must be in 1..{len(zs) - 1}, got {n}")
    js = j_sequence(zs)
    lo = js[n - 1] + 1
    hi = first_digit(zs[n]) - 1
    text = digit_string(zs[n - 1], lo, hi) if lo <= hi else ""
    return text, "1" in text


@dataclass(frozen=True)
class Zone:
    """Inclusive position range; empty when lo > hi."""

    lo: int
    hi: int

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


def overlapping_zone(zs, n: int) -> Zone:
    """Zone [f_{z_{n+1}}, j_{n+1}] between consecutive terms. n is 1-based."""
    if not 1 <= n < len(zs):
        raise ValueError(f"n must be in 1..{len(zs) - 1}, got {n}")
    js = j_sequence(zs)
    return Zone(first_digit(zs[n]), js[n])


@dataclass(frozen=True)
class SeqClass:
    """Classification of a finite sequence; checked_cut_depth records how many
    block-cut patterns the Type-B check examined (TypeBCandidate only)."""

    kind: str
    checked_cut_depth: int | None = None


def _is_type_a(zs) -> bool:
    fs = [first_digit(z) for z in zs]
    ls = [last_digit(z) for z in zs]
    if any(fs[i] >= fs[i + 1] for i in range(len(zs) - 1)):
        return False
    if any(ls[i] >= ls[i + 1] for i in range(len(zs) - 1)):
        return False
    return all(ls[i] + 1 < fs[i + 2] for i in range(len(zs) - 2))


def block_subsequence(zs, cuts) -> list[int]:
    """Sums of the consecutive blocks (0, k_1], (k_1, k_2], ...; elements
    beyond the last cut are dropped. Cuts are 1-based and strictly ascending."""
    if not cuts:
        raise ValueError("cuts must be nonempty")
    previous = 0
    blocks = []
    for cut in cuts:
        if cut <= previous:
            raise ValueError(f"cuts must be strictly ascending, got {tuple(cuts)}")
        if cut > len(zs):
            raise ValueError(f"cut {cut} exceeds sequence length {len(zs)}")
        blocks.append(sum(zs[previous:cut]))
        previous = cut
    return blocks


def _cut_patterns(length: int):
    """Ascending cut tuples over 1..length with at least three blocks, in
    block-count order then lexicographic. Fewer than three blocks cannot
    witness Type A (the third inequality needs three terms)."""
    for size in range(3, length + 1):
        yield from combinations(range(1, length + 1), size)


def classify(zs, cut_depth: int = 1000) -> SeqClass:
    """Type A, Type B candidate (no Type-A block subsequence found within
    cut_depth examined patterns), or Neither."""
    if not zs:
        raise ValueError("zs must be nonempty")
    for z in zs:
        _require_natural(z, "zs element")
    if _is_type_a(zs):
        return SeqClass(TYPE_A)
    if len(zs) >= 3:
        fs = [first_digit(z) for z in zs]
        ls = [last_digit(z) for z in zs]
        structure = (
            fs[0] == fs[1]
            and ls[0] < ls[1]
            and ls[0] + 1 < fs[2]
            and _is_type_a(zs[1:])
        )
        if structure:
            examined = 0
            for cuts in _cut_patterns(len(zs)):
                if examined >= cut_depth:
                    break
                examined += 1
                if _is_type_a(block_subsequence(zs, cuts)):
                    return SeqClass(NEITHER)
            return SeqClass(TYPE_B_CANDIDATE, examined)
    return SeqClass(NEITHER)
