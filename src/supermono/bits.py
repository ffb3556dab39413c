"""Binary digit diagnostics for naturals: supports, carries, intervals,
jumps, fragments, centres, and the staircase j-sequence with its middles,
overlapping zones and type-A test.

Positions are 0-based exponents of 2, so position 0 is the least significant
digit. All reported digit strings read most significant position first.
"""

from __future__ import annotations

from dataclasses import dataclass


def _not_natural(n: int, name: str) -> ValueError:
    """The error for an argument below 1. Callers test n < 1 inline and
    build it only then, so a valid call costs one comparison."""
    return ValueError(f"{name} must be a natural >= 1, got {n}")


def first_digit(n: int) -> int:
    """Position of the least significant 1 of n."""
    if n < 1:
        raise _not_natural(n, "n")
    return (n & -n).bit_length() - 1


def last_digit(n: int) -> int:
    """Position of the most significant 1 of n."""
    if n < 1:
        raise _not_natural(n, "n")
    return n.bit_length() - 1


def digit_bounds(n: int) -> tuple[int, int]:
    """(first, last) digit positions of n."""
    if n < 1:
        raise _not_natural(n, "n")
    return (n & -n).bit_length() - 1, n.bit_length() - 1


def support(n: int) -> list[int]:
    """Ascending list of positions where n has digit 1."""
    if n < 1:
        raise _not_natural(n, "n")
    positions = []
    p = 0
    while n:
        if n & 1:
            positions.append(p)
        n >>= 1
        p += 1
    return positions


def digit_string(n: int, lo: int, hi: int) -> str:
    """Digits of n at positions hi down to lo; empty when lo > hi. Digits
    below position 0 read 0."""
    if lo > hi:
        return ""
    top = 1 << (hi - lo + 1)
    window = n >> lo if lo >= 0 else n << -lo
    # the 1 at `top` keeps the window's leading 0s; [3:] drops '0b1'
    return bin(window & (top - 1) | top)[3:]


def first_three_digits(n: int) -> str:
    """Digits of n at positions f+2, f+1, f where f is the first digit."""
    f = first_digit(n)
    return digit_string(n, f, f + 2)


def label_positions(a: int, b: int) -> list[tuple[int, str]]:
    """Joint support of a and b, each position labelled '2' (digit 1 in both)
    or '1' (digit 1 in exactly one), ascending."""
    if a < 1:
        raise _not_natural(a, "a")
    if b < 1:
        raise _not_natural(b, "b")
    both = a & b
    return [(p, "2" if (both >> p) & 1 else "1") for p in support(a | b)]


def jump_marks(a: int, b: int) -> int:
    """Mask of the '1'-labelled positions just above an agreeing run of a
    and b that holds a '2': one mark per '2'-to-'1' label transition."""
    if a < 1:
        raise _not_natural(a, "a")
    if b < 1:
        raise _not_natural(b, "b")
    # ~x holds a 1 at every agreeing position, so a '2' carries up through
    # the agreeing run it sits in and lands on the '1' just above, if any.
    return ((a & b) + ~(x := a ^ b)) & x


def jumps(a: int, b: int) -> int:
    """Number of '2'-to-'1' label transitions over the joint support, ascending."""
    return jump_marks(a, b).bit_count()


def top_run_shared(a: int, b: int) -> bool:
    """Whether a and b share a 1 above every position where they differ."""
    if a < 1:
        raise _not_natural(a, "a")
    if b < 1:
        raise _not_natural(b, "b")
    return (a & b).bit_length() > (a ^ b).bit_length()


def intervals(c: int) -> int:
    """Number of maximal runs of consecutive 1s in the expansion of c."""
    if c < 1:
        raise _not_natural(c, "c")
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
    if m < 1:
        raise _not_natural(m, "m")
    if n < 1:
        raise _not_natural(n, "n")
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
    so its leading digit is 1. Below position 0 both numbers read 0, so a
    run through position 0 reaches down to lo.
    """
    start = lo if lo > 0 else 0
    agree = ~(x ^ y) & ((1 << (hi + 1 if hi >= start else start)) - (1 << start))
    marks = x & y
    frags = []
    while agree:
        lowbit = agree & -agree
        run = agree & ~(agree + lowbit)
        agree ^= run
        shared = run & marks
        if shared:
            run_lo = lo if lowbit == 1 else lowbit.bit_length() - 1
            top = shared.bit_length() - 1
            frags.append(Fragment(digit_string(x, run_lo, top), run_lo, top, side))
    return frags


def fragments(lower: int, upper: int, side: str) -> list[Fragment]:
    """Fragments of the pair's sum within the overlap window [f_upper, l_lower].

    side 'right' extracts the pieces of upper, side 'left' the pieces of
    lower. The standing hypotheses are enforced: f_lower < f_upper,
    l_lower < l_upper, disjoint supports, and l_lower >= f_upper.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if lower < 1:
        raise _not_natural(lower, "lower")
    if upper < 1:
        raise _not_natural(upper, "upper")
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
    if a < 1:
        raise _not_natural(a, "a")
    if b < 1:
        raise _not_natural(b, "b")
    if hi is None:
        hi = max(last_digit(a), last_digit(b))
    return _matched_fragments(a, b, lo, hi, "common")


def common_fragment_count(a: int, b: int, lo: int = 0, hi: int | None = None) -> int:
    """len(common_fragments(a, b, lo, hi)) without building the fragments:
    the shared 1s of a run of agreeing digits carry out of its top exactly
    once. No 1 is shared below position 0, and lo > hi is an empty window."""
    if a < 1:
        raise _not_natural(a, "a")
    if b < 1:
        raise _not_natural(b, "b")
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
    if r < 1:
        raise _not_natural(r, "r")
    if p < 1:
        raise _not_natural(p, "p")
    if s < 1:
        raise _not_natural(s, "s")
    f_p, l_p = (p & -p).bit_length() - 1, p.bit_length() - 1
    f_r, l_r = (r & -r).bit_length() - 1, r.bit_length() - 1
    f_s, l_s = (s & -s).bit_length() - 1, s.bit_length() - 1
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


def _staircase(zs) -> tuple[list[tuple[int, int]], list[int]]:
    """Each element's digit_bounds, checked to increase strictly, and the
    j-sequence they give (see j_sequence)."""
    if not zs:
        raise ValueError("zs must be nonempty")
    bounds = [digit_bounds(z) for z in zs]
    for i, ((f, l), (f_next, l_next)) in enumerate(zip(bounds, bounds[1:])):
        if f >= f_next:
            raise ValueError(
                f"staircase geometry fails: first digits not increasing at index {i + 1}")
        if l >= l_next:
            raise ValueError(
                f"staircase geometry fails: last digits not increasing at index {i + 1}")
    js = [bounds[0][0] - 1]
    for i in range(1, len(zs)):
        region = carry_region(zs[i - 1], zs[i])
        prev_last = bounds[i - 1][1]
        js.append(max(region.stop, prev_last) if region else prev_last)
    return bounds, js


def j_sequence(zs) -> list[int]:
    """j_1 = f_{z_1} - 1; j_n = max(carry stop of z_{n-1} + z_n, l_{z_{n-1}}).

    Requires staircase geometry (first and last digits strictly increasing).
    """
    return _staircase(zs)[1]


def middles(zs) -> list[str]:
    """For n = 1 .. len(zs) - 1, the digits of z_n strictly between j_n and
    f_{z_{n+1}}; entry n - 1 holds the middle of z_n."""
    bounds, js = _staircase(zs)
    return [digit_string(z, j + 1, f_next - 1)
            for z, j, (f_next, _) in zip(zs, js, bounds[1:])]


@dataclass(frozen=True)
class Zone:
    """Inclusive position range; empty when lo > hi."""

    lo: int
    hi: int

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


def overlapping_zones(zs) -> list[Zone]:
    """For n = 1 .. len(zs) - 1, the zone [f_{z_{n+1}}, j_{n+1}] between
    z_n and z_{n+1}; entry n - 1 holds the zone after z_n."""
    bounds, js = _staircase(zs)
    return [Zone(f_next, j_next)
            for (f_next, _), j_next in zip(bounds[1:], js[1:])]


def is_type_a(zs) -> bool:
    """Staircase geometry (first and last digits strictly increasing) with
    each term ending at least two positions below the start of the term
    after next: l_{z_i} + 1 < f_{z_{i+2}}."""
    bounds = [digit_bounds(z) for z in zs]
    return (all(f < f_next and l < l_next
                for (f, l), (f_next, l_next) in zip(bounds, bounds[1:]))
            and all(l + 1 < f_after
                    for (_, l), (f_after, _) in zip(bounds, bounds[2:])))
