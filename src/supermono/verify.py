"""Verification suites for the arithmetic engine behind the pair colouring.

Each suite body states only its checks: a generator registered with
`_suite(name, passed)` that yields the number of instances it checks and
raises `_Counterexample(detail, counterexample)` at its first failure. A
body may yield one instance at a time, or a block's count once the whole
block has passed; at a failure inside a block it first yields the count
through the failing instance, so `checked` is the same either way. claim1
and claim4 check each block as packed sums in one int. A failing claim4
block, one subset's sums, is still counted through its failing triple;
claim1 is the exception, and its failing group is not counted. The
registered function sums the yields into a SuiteResult that carries the
first counterexample, or `passed` when the body finishes. Suites that
construct random instances use a fixed seed, so every run checks the same
instances.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from . import bits, oracles
from .pair_colouring import STAGE2, colour_pair

_SEED = 988121

# The largest claim1 bound: the suite groups every value below its bound
# before it checks one, at about 38 bytes per value (about 40 MB at the cap).
CLAIM1_MAX_BOUND = 1 << 20


@dataclass
class SuiteResult:
    suite: str
    ok: bool
    checked: int
    detail: str
    counterexample: tuple | None = None


class BoundError(ValueError):
    """A suite bound the suite refuses before it checks anything."""


class _Counterexample(Exception):
    """Raised by a suite body at its first failing instance, with the
    failure's detail and counterexample as args."""


_RUNNERS: dict[str, Callable[..., SuiteResult]] = {}


def _suite(name: str, passed: str):
    """Register a suite body under `name`; SUITES keeps registration
    order.

    `checked` sums the body's yields up to its end or its first
    `_Counterexample`: a block's count once the block passes, and at a
    failure the count through the failing instance (claim1 leaves its
    failing group out)."""
    def register(checks: Callable[..., Iterator[int]]):
        @functools.wraps(checks)
        def run(*args, **kwargs) -> SuiteResult:
            checked = 0
            try:
                for count in checks(*args, **kwargs):
                    checked += count
            except _Counterexample as failure:
                return SuiteResult(name, False, checked, *failure.args)
            return SuiteResult(name, True, checked, passed)

        _RUNNERS[name] = run
        return run
    return register


# ---------------------------------------------------------------------------
# Oracle equivalence


def _fragments_either(fn, lower: int, upper: int, side: str):
    """Fragment list, or the rejection message when hypotheses fail."""
    try:
        return fn(lower, upper, side)
    except ValueError as err:
        return str(err)


def _random_fill(rng: random.Random, zs: list[int], regions) -> list[int]:
    """Give each free digit of each region to one of its owners, in place.

    A region (lo, hi, owners) covers positions lo..hi-1, and an owner is
    an index into zs or -1, which leaves the digit empty. Per digit, two
    owners draw one rng.random() < 0.5 and three draw one rng.randrange(3).
    """
    for lo, hi, owners in regions:
        for p in range(lo, hi):
            if len(owners) == 2:
                owner = owners[rng.random() < 0.5]
            else:
                owner = owners[rng.randrange(3)]
            if owner >= 0:
                zs[owner] |= 1 << p
    return zs


def _every_fill(zs, regions) -> Iterator[tuple[int, ...]]:
    """Every way _random_fill can fill zs over the same regions, in
    itertools.product order: the owners in the order given, the last free
    digit varying fastest."""
    digits = [(1 << p, owners) for lo, hi, owners in regions
              for p in range(lo, hi)]
    for choice in itertools.product(*(owners for _, owners in digits)):
        filled = list(zs)
        for (bit, _), owner in zip(digits, choice):
            if owner >= 0:
                filled[owner] |= bit
        yield tuple(filled)


def _random_fragment_pair(rng: random.Random) -> tuple[int, int]:
    """A pair satisfying all four fragment hypotheses by construction."""
    f_lo = rng.randrange(0, 6)
    f_up = f_lo + 1 + rng.randrange(0, 6)
    l_lo = f_up + 1 + rng.randrange(0, 8)
    l_up = l_lo + 1 + rng.randrange(0, 6)
    return tuple(_random_fill(
        rng, [(1 << f_lo) | (1 << l_lo), (1 << f_up) | (1 << l_up)],
        ((f_lo + 1, f_up, (-1, 0, -1)), (f_up + 1, l_lo, (-1, 0, 1)),
         (l_lo + 1, l_up, (-1, -1, 1)))))


def _check_oracle_pair(a: int, b: int) -> None:
    """Raise on the first operation whose value for the pair mismatches."""
    if bits.jumps(a, b) != oracles.jumps_oracle(a, b):
        raise _Counterexample("jumps mismatch", (a, b))
    fragment_count = oracles.common_fragment_count_oracle(a, b)
    listed = bits.common_fragments(a, b)
    if len(listed) != fragment_count:
        raise _Counterexample("common_fragments mismatch", (a, b))
    if bits.common_fragment_count(a, b) != fragment_count:
        raise _Counterexample("common_fragment_count mismatch", (a, b))
    if bits.carry_region(a, b) != oracles.carry_region_oracle(a, b):
        raise _Counterexample("carry_region mismatch", (a, b))
    _check_fragments(a, b, (a, b))
    _check_fragments(b, a, (a, b))


def _check_fragments(lower: int, upper: int, counterexample: tuple) -> None:
    """Raise on the first side whose fragments, or hypothesis rejection,
    differ between bits.fragments and the scanner."""
    for side in ("right", "left"):
        if _fragments_either(bits.fragments, lower, upper, side) != \
                _fragments_either(oracles.fragments_oracle, lower, upper, side):
            raise _Counterexample(f"fragments {side} mismatch", counterexample)


@_suite("oracles", "jumps, intervals, carry, fragments, common fragments "
                   "all match the string scanners")
def verify_oracles(bound: int = 1024) -> Iterator[int]:
    """Library bit tricks against the naive string scanners.

    Exhaustive on all pairs a < b < bound, then on 100_000 * bound // 1024
    random pairs below 2^32, then on 20_000 * bound // 1024 constructed
    pairs satisfying the fragment hypotheses so the value paths get dense
    coverage too. Bound 1 checks sampled pairs only.
    """
    for n in range(1, bound):
        yield 1
        if bits.intervals(n) != oracles.intervals_oracle(n):
            raise _Counterexample("intervals mismatch", (n,))
        if bits.support(n) != oracles.support_oracle(n):
            raise _Counterexample("support mismatch", (n,))
    for a in range(1, bound):
        for b in range(a + 1, bound):
            yield 1
            _check_oracle_pair(a, b)
    rng = random.Random(_SEED)
    for _ in range(100_000 * bound // 1024):
        a = rng.randrange(1, 1 << 32)
        b = rng.randrange(1, 1 << 32)
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        yield 1
        if bits.intervals(a) != oracles.intervals_oracle(a):
            raise _Counterexample("intervals mismatch", (a,))
        _check_oracle_pair(a, b)
    for _ in range(20_000 * bound // 1024):
        lower, upper = _random_fragment_pair(rng)
        yield 1
        _check_fragments(lower, upper, (lower, upper))


# ---------------------------------------------------------------------------
# First-digit shift under equal windows


def _claim1_counterexample(group: list[int], f: int) -> tuple[int, int] | None:
    """First (a, b) over the group, a row by row, whose sum does not have
    its first digit at f + 1; None when every sum does.

    The group is packed into one int with a field per member, wide enough
    that no sum carries into the next field, so one addition forms a + b
    for every b. A field fails on a 1 below position f + 1 or a 0 at it.
    """
    width = (2 * max(group)).bit_length()
    ones = ((1 << (width * len(group))) - 1) // ((1 << width) - 1)
    packed = sum(v << (i * width) for i, v in enumerate(group))
    below = ((1 << (f + 1)) - 1) * ones
    at = (1 << (f + 1)) * ones
    for a in group:
        sums = packed + a * ones
        bad = (sums & below) | (at & ~sums)
        if bad:
            return a, group[((bad & -bad).bit_length() - 1) // width]
    return None


@_suite("claim1", "first digit of every same-window sum is one above")
def verify_claim1(bound: int = 16384) -> Iterator[int]:
    """For a, b < bound with equal first-digit position f and equal digits
    at f, f+1, f+2, the first digit of a+b sits exactly at f+1 (so the
    f mod 3 colour component of sums shifts; 1 is not 0 mod 3). A bound
    above CLAIM1_MAX_BOUND raises BoundError."""
    if bound > CLAIM1_MAX_BOUND:
        raise BoundError(f"claim1 bound must be at most {CLAIM1_MAX_BOUND}, "
                         f"got {bound}")
    groups: dict[tuple[int, int], list[int]] = {}
    for v in range(1, bound):
        f = bits.first_digit(v)
        groups.setdefault((f, (v >> f) & 7), []).append(v)
    for (f, _), group in sorted(groups.items()):
        if len(group) < 2:
            continue
        bad = _claim1_counterexample(group, f)
        if bad is not None:
            raise _Counterexample("first digit of sum is not f+1", bad)
        yield len(group) * (len(group) - 1) // 2


# ---------------------------------------------------------------------------
# Last digit of consecutive-range sums


def _random_type_a(rng: random.Random, length: int) -> list[int]:
    """A random staircase list satisfying the separated-by-two condition."""
    fs: list[int] = []
    ls: list[int] = []
    for i in range(length):
        lo_f = 0 if i == 0 else fs[-1] + 1
        if i >= 2:
            lo_f = max(lo_f, ls[i - 2] + 2)
        f = lo_f + rng.randrange(0, 3)
        lo_l = max(f, ls[-1] + 1 if ls else f)
        l = lo_l + rng.randrange(0, 4)
        fs.append(f)
        ls.append(l)
    return _random_fill(
        rng, [(1 << f) | (1 << l) for f, l in zip(fs, ls)],
        [(f + 1, l, (-1, i)) for i, (f, l) in enumerate(zip(fs, ls))])


def _type_a_lists(length: int, below: int) -> list[list[int]]:
    """Every staircase list of `length` naturals below `below` that
    satisfies the separated-by-two condition, in itertools.product order:
    first and last digits increase strictly, and l_i + 1 < f_{i+2}."""
    bounds = {z: bits.digit_bounds(z) for z in range(1, below)}
    lists = [[z] for z in bounds]
    for _ in range(length - 1):
        lists = [zs + [z] for zs in lists for z, (f, l) in bounds.items()
                 if bounds[zs[-1]][0] < f and bounds[zs[-1]][1] < l
                 and (len(zs) < 2 or bounds[zs[-2]][1] + 1 < f)]
    return lists


def _check_range_sums(zs) -> None:
    for m in range(1, len(zs) + 1):
        for n in range(m, len(zs) + 1):
            total = sum(zs[m - 1:n])
            l_n = bits.last_digit(zs[n - 1])
            if bits.last_digit(total) not in (l_n, l_n + 1):
                raise _Counterexample("last digit out of range",
                                      tuple(zs) + (m, n))


@_suite("lastdigit", "every range sum ends at l or l+1")
def verify_lastdigit(trials: int = 2000) -> Iterator[int]:
    """Last digit of z_m + ... + z_n lands on l_{z_n} or one above, for
    staircase lists: exhaustively on small pairs and triples, then on
    random constructed lists of length up to 8."""
    for zs in _type_a_lists(2, 128) + _type_a_lists(3, 64):
        yield 1
        _check_range_sums(zs)
    rng = random.Random(_SEED)
    for t in range(trials):
        zs = _random_type_a(rng, 2 + t % 7)
        yield 1
        if not bits.is_type_a(zs):
            raise _Counterexample("constructed list is not type A",
                                  tuple(zs))
        _check_range_sums(zs)


# ---------------------------------------------------------------------------
# Jump elimination


def _claim4_layout(k: int, width: int) -> tuple[list[int], list[int], int]:
    """The packed layout for k-element subsets: one lane of `width` bits
    per sum, the k - 3 present sums y1+y2+y3 (c3 = 3..k-1) first, then
    the missing sums y1+y3 in lexicographic triple order.

    Lane j's bit of sums[i] says whether the subset's element i is in
    lane j's sum, and of marks[i] whether that sum's jump mark is due at
    element i: at c3 for a present sum, at c1 and c3 for a missing one.
    Times the subset's powers of 2, they pack every sum and every due
    mark. ones holds a 1 at the foot of every lane."""
    lanes = [(range(c3), (c3,)) for c3 in range(3, k)]
    lanes += [(itertools.chain(range(c1), range(c2, c3)), (c1, c3))
              for c1, c2, c3 in itertools.combinations(range(1, k), 3)]
    sums, marks = [0] * k, [0] * k
    for j, (members, due) in enumerate(lanes):
        foot = 1 << (j * width)
        for i in members:
            sums[i] |= foot
        for i in due:
            marks[i] |= foot
    ones = ((1 << (width * len(lanes))) - 1) // ((1 << width) - 1)
    return sums, marks, ones


@_suite("claim4", "jump count always drops from 2 to 1")
def verify_claim4(position_count: int = 16) -> Iterator[int]:
    """For every 4-tuple of pairwise right-to-left disjoint staircase
    numbers with supports inside 0..position_count-1, reinstating the
    second term removes exactly one high-to-low jump:
    J(y1+y3, Y) = 2 and J(y1+y2+y3, Y) = 1 where Y is the full sum.

    Each subset takes one bits.jump_marks call: every sum in a lane of
    position_count bits (see _claim4_layout), against Y in every lane.
    No carry crosses a lane: every sum lacks Y's top element, which is
    labelled 1 and absorbs the lane's carry, and above it both read 0
    to the lane's end, which no carry reaches. If the marks are the due
    ones, every count is right. Otherwise each lane's marks are counted,
    and the first triple whose y1+y3 count is not 2, or whose c3's
    y1+y2+y3 count is not 1, is the counterexample, counted through: the
    same triple and count as checking both sums of every triple."""
    powers = [1 << p for p in range(position_count)]
    lane = (1 << position_count) - 1
    for k in range(4, position_count + 1):
        triples = list(itertools.combinations(range(1, k), 3))
        sums, marks, ones = _claim4_layout(k, position_count)
        for subset in itertools.combinations(powers, k):
            full = sum(subset)
            found = bits.jump_marks(sum(map(operator.mul, sums, subset)),
                                    full * ones)
            if found == sum(map(operator.mul, marks, subset)):
                yield len(triples)
                continue
            counts = [(found >> (j * position_count) & lane).bit_count()
                      for j in range(k - 3 + len(triples))]
            for bad, (c1, c2, c3) in enumerate(triples):
                if counts[k - 3 + bad] != 2 or counts[c3 - 3] != 1:
                    yield bad + 1
                    y = [0, *itertools.accumulate(subset)]
                    raise _Counterexample(
                        "jump delta is not exactly 1",
                        (y[c1], y[c2] - y[c1], y[c3] - y[c2], full - y[c3]))
            yield len(triples)


# ---------------------------------------------------------------------------
# Five-term obstruction


def _ones(lo: int, hi: int) -> int:
    if lo > hi:
        return 0
    return ((1 << (hi - lo + 1)) - 1) << lo


def claim6_tuples(max_pos: int):
    """Every 5-tuple of pairwise-disjoint-support numbers within positions
    0..max_pos whose five computable centres are all-1 strings.

    The centre hypotheses force the boundary chain f1<f2<l1, l1+2<=f3<l2,
    l2+2<=f4<l3, l3+2<=f5<l4<l5 (overlaps are strict because endpoint
    digits of neighbours must differ under disjointness), force z2, z3, z4
    to fill their centre ranges, and force exact complementary fills on
    [f3,l2] and [f4,l3]; every remaining interior digit is free. The test
    suite cross-checks this derivation against a brute-force filter.

    The fills come in itertools.product order, so z5's last region
    (l4, l5), whose digits touch no other term, varies fastest: the
    tuples that differ only there come in one run with z1..z4 unchanged.
    """
    # the chain's least gaps 1, 1, 2, 1, 2, 1, 2, 1, 1 leave this slack
    # over ten strictly increasing positions
    slack = (0, 0, 0, 1, 1, 2, 2, 3, 3, 3)
    for chain in itertools.combinations(range(max_pos - 2), 10):
        f1, f2, l1, f3, l2, f4, l3, f5, l4, l5 = map(sum, zip(chain, slack))
        yield from _every_fill(
            ((1 << f1) | (1 << l1),
             (1 << f2) | (1 << l2) | _ones(l1 + 1, f3 - 1),
             (1 << f3) | (1 << l3) | _ones(l2 + 1, f4 - 1),
             (1 << f4) | (1 << l4) | _ones(l3 + 1, f5 - 1),
             (1 << f5) | (1 << l5)),
            ((f1 + 1, f2, (-1, 0)), (f2 + 1, l1, (-1, 0, 1)),
             (f3 + 1, l2, (1, 2)), (f4 + 1, l3, (2, 3)),
             (f5 + 1, l4, (-1, 3, 4)), (l4 + 1, l5, (-1, 4))))


def claim6_hypotheses_hold(zs) -> bool:
    """The pairwise-disjointness and all-1-centre hypothesis predicate,
    evaluated through the library centre operation. The supports are
    pairwise disjoint exactly when no 1 of their union is counted twice."""
    z1, z2, z3, z4, z5 = zs
    if (z1 | z2 | z3 | z4 | z5).bit_count() != (
            z1.bit_count() + z2.bit_count() + z3.bit_count() + z4.bit_count()
            + z5.bit_count()):
        return False
    centres = ((z2, z1, z3), (z3, z2, z4), (z4, z3, z5),
               (z2 + z3, z1, z4), (z3 + z4, z2, z5))
    for r, p, s in centres:
        try:
            text, _ = bits.centre(r, p, s)
        except ValueError:
            return False
        if "0" in text:
            return False
    return True


def _claim6_bookkeeping(zs) -> bool:
    """Interval counts against the k-expressions from the obstruction
    argument."""
    z1, z2, z3, z4, z5 = zs
    (f1, l1), (f2, l2), (f3, l3), (f4, l4), (f5, _) = map(bits.digit_bounds, zs)

    def between(c, lo, hi):
        return bits.intervals(c & _ones(lo, hi))

    k1 = between(z2, f2, l1)
    k2 = between(z2, f3, l2)
    k3 = between(z3, f4, l3)
    k4 = between(z4, f5, l4)
    return (between(z3, f3, l2) == k2
            and between(z4, f4, l3) == k3
            and bits.intervals(z2) == 1 + k1 + k2
            and bits.intervals(z3) == 1 + k2 + k3
            and bits.intervals(z4) == 1 + k3 + k4
            and bits.intervals(z2 + z3) == 1 + k1 + k3
            and bits.intervals(z2 + z4) == 2 + k1 + k2 + k3 + k4)


def claim6_pair_set(zs) -> list[tuple[int, int]]:
    """The five alternating-family pairs named by the obstruction proof;
    their differences are z2, z3, z4, z2+z3, z2+z4."""
    z1, z2, z3, z4, _ = zs
    s4 = z1 + z2 + z3 + z4
    return [(z1 + z3 + z4, s4), (z1 + z2 + z4, s4), (z1 + z2 + z3, s4),
            (z1 + z4, s4), (z1 + z3, s4)]


@_suite("claim6", "no hypothesis-satisfying tuple is two-stage "
                  "monochromatic")
def verify_claim6(position_count: int = 18) -> Iterator[int]:
    """Every enumerated 5-tuple satisfying the disjointness and
    all-1-centre hypotheses is non-monochromatic on the named pair set
    under the two-stage colouring, and its interval counts obey the
    bookkeeping identities.

    Every tuple gets its own hypothesis and bookkeeping checks, but the
    pair set reads z1..z4 only, so it is coloured only when they differ
    from the last coloured tuple's: 1,296 of 1,544 tuples at position
    count 16 (944 distinct z1..z4; a group recurs when a digit z4 and z5
    share goes to z5 or to neither), 42,078 of 53,826 at the default 18.
    That is exact: the colouring is a function of the pairs, and a
    repeated set is one just found non-monochromatic, or the suite would
    have stopped."""
    coloured = None
    for zs in claim6_tuples(position_count - 1):
        yield 1
        if not claim6_hypotheses_hold(zs):
            raise _Counterexample("enumerated tuple fails its own hypotheses",
                                  zs)
        if not _claim6_bookkeeping(zs):
            raise _Counterexample("interval bookkeeping mismatch", zs)
        if zs[:4] == coloured:
            continue
        coloured = zs[:4]
        pairs = claim6_pair_set(zs)
        first = colour_pair(*pairs[0], STAGE2)
        if all(colour_pair(a, b, STAGE2) == first for a, b in pairs[1:]):
            raise _Counterexample("monochromatic pair set", zs)


# ---------------------------------------------------------------------------
# Fragment partition


def _string_positions(text: str, lo: int) -> set[int]:
    return {lo + i for i, ch in enumerate(reversed(text)) if ch == "1"}


def _fragment_positions(frag: bits.Fragment) -> set[int]:
    return _string_positions(frag.bits, frag.lo)


def _random_partition_triple(rng: random.Random) -> tuple[int, int, int]:
    """A disjoint-support staircase triple with overlapping neighbour
    spans, satisfying the fragment and centre hypotheses."""
    f1 = rng.randrange(0, 3)
    f2 = f1 + 1 + rng.randrange(0, 3)
    l1 = f2 + 1 + rng.randrange(0, 4)
    f3 = l1 + 2 + rng.randrange(0, 3)
    l2 = f3 + 1 + rng.randrange(0, 4)
    l3 = l2 + 1 + rng.randrange(0, 3)
    return tuple(_random_fill(
        rng, [(1 << f1) | (1 << l1), (1 << f2) | (1 << l2),
              (1 << f3) | (1 << l3)],
        ((f1 + 1, f2, (-1, 0)), (f2 + 1, l1, (-1, 0, 1)),
         (l1 + 1, f3, (-1, 1)), (f3 + 1, l2, (-1, 1, 2)),
         (l2 + 1, l3, (-1, 2)))))


def partition_pieces(z1: int, z2: int, z3: int):
    """The attributed pieces of the three-term picture: solo regions and
    centre for the owning term, fragments for each overlap window."""
    f2 = bits.first_digit(z2)
    l2 = bits.last_digit(z2)
    pieces = [({p for p in bits.support(z1) if p < f2}, 1)]
    for frag in bits.fragments(z1, z2, "left"):
        pieces.append((_fragment_positions(frag), 1))
    for frag in bits.fragments(z1, z2, "right"):
        pieces.append((_fragment_positions(frag), 2))
    text, (lo, _) = bits.centre(z2, z1, z3)
    pieces.append((_string_positions(text, lo), 2))
    for frag in bits.fragments(z2, z3, "left"):
        pieces.append((_fragment_positions(frag), 2))
    for frag in bits.fragments(z2, z3, "right"):
        pieces.append((_fragment_positions(frag), 3))
    pieces.append(({p for p in bits.support(z3) if p > l2}, 3))
    return pieces


def _partition_holds(z1: int, z2: int, z3: int) -> bool:
    supports = {1: set(bits.support(z1)), 2: set(bits.support(z2)),
                3: set(bits.support(z3))}
    union: set[int] = set()
    total = 0
    for positions, term in partition_pieces(z1, z2, z3):
        if not positions <= supports[term]:
            return False
        total += len(positions)
        union |= positions
    return total == len(union) and union == set(bits.support(z1 + z2 + z3))


@_suite("fragments", "fragments plus centres tile every sum support")
def verify_fragments(trials: int = 1500) -> Iterator[int]:
    """The 1-positions of a disjoint staircase triple's sum split exactly
    into the fragment position-sets and centres attributed to each term."""
    rng = random.Random(_SEED)
    for _ in range(trials):
        z1, z2, z3 = _random_partition_triple(rng)
        yield 1
        if not _partition_holds(z1, z2, z3):
            raise _Counterexample("fragment partition mismatch", (z1, z2, z3))


# ---------------------------------------------------------------------------
# Removal counting


def _random_stage3_sequence(rng: random.Random, length: int) -> list[int]:
    """A staircase whose consecutive terms share exactly their boundary
    position, with carries stopping before the next term starts and all
    middles proper. The properties are re-checked by the caller."""
    bounds = [rng.randrange(0, 2)]
    for _ in range(length):
        bounds.append(bounds[-1] + 4 + rng.randrange(0, 3))
    ys = []
    for i in range(length):
        lo, hi = bounds[i], bounds[i + 1]
        y = (1 << lo) | (1 << hi)
        interior = list(range(lo + 2, hi))
        ones = [p for p in interior if rng.random() < 0.55]
        if not ones:
            ones = [interior[rng.randrange(len(interior))]]
        for p in ones:
            y |= 1 << p
        ys.append(y)
    return ys


def _stage3_discipline_ok(ys) -> bool:
    """Overlapping consecutive supports, carries stopping before the next
    first digit (for pair and partial-sum alike), and proper middles."""
    prefix = list(itertools.accumulate(ys))
    for i in range(len(ys) - 1):
        if ys[i] & ys[i + 1] == 0:
            return False
    for i in range(1, len(ys) - 1):
        pair_carry = bits.carry_region(ys[i - 1], ys[i])
        part_carry = bits.carry_region(prefix[i - 1], ys[i])
        if pair_carry is None or part_carry is None:
            return False
        if pair_carry.stop != part_carry.stop:
            return False
        if part_carry.stop >= bits.first_digit(ys[i + 1]):
            return False
    return all("1" in text for text in bits.middles(ys)[1:])


@_suite("stage3", "removal always adds f(k)+1+f(k+1) common fragments")
def verify_stage3(trials: int = 400) -> Iterator[int]:
    """Removing y_{k+1} from the left of the pair
    (y_1+...+y_{k+3}, y_1+...+y_{k+4}) adds exactly f(k) + 1 + f(k+1)
    common fragments, where f(m) counts the removal pair's common
    fragments inside the overlapping zone of y_m and y_{m+1}. Fragment
    counts are cross-checked against the string-scanning oracle."""
    rng = random.Random(_SEED)
    for t in range(trials):
        length = 6 + t % 2
        ys = _random_stage3_sequence(rng, length)
        if not _stage3_discipline_ok(ys):
            raise _Counterexample("constructed sequence is not disciplined",
                                  tuple(ys))
        prefix = list(itertools.accumulate(ys))
        zones = bits.overlapping_zones(ys)
        for k in range(1, length - 3):
            yield 1
            b = prefix[k + 3]
            a_full = prefix[k + 2]
            a_removed = a_full - ys[k]
            f_removed = bits.common_fragment_count(a_removed, b)
            f_full = bits.common_fragment_count(a_full, b)
            if f_removed != oracles.common_fragment_count_oracle(a_removed, b) \
                    or f_full != oracles.common_fragment_count_oracle(a_full, b):
                raise _Counterexample("oracle disagrees on F", tuple(ys) + (k,))
            zone_lo, zone_hi = zones[k - 1], zones[k]
            f_k = bits.common_fragment_count(a_removed, b,
                                             zone_lo.lo, zone_lo.hi)
            f_k1 = bits.common_fragment_count(a_removed, b,
                                              zone_hi.lo, zone_hi.hi)
            if f_removed - f_full != f_k + 1 + f_k1:
                raise _Counterexample("removal count is not f(k)+1+f(k+1)",
                                      tuple(ys) + (k,))


# ---------------------------------------------------------------------------
# Dispatch


SUITES = tuple(_RUNNERS)


def run_suite(suite: str, bound: int | None = None) -> SuiteResult:
    """Run one named suite. bound scales the suite's main knob: the
    exhaustive pair bound (oracles, whose random and constructed phases
    run bound/1024 of their 100,000 and 20,000 pairs), the value bound
    (claim1), the trial count (lastdigit, fragments, stage3), or the
    position count (claim4, claim6); None runs the suite at its
    default."""
    if suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}")
    runner = _RUNNERS[suite]
    return runner() if bound is None else runner(bound)
