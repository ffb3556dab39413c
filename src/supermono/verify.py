"""Verification suites for the arithmetic engine behind the pair colouring.

Each suite runs an exhaustive or constructed check and returns a
SuiteResult; a failure carries the first counterexample found. Suites
that construct random instances use a fixed seed, so every run checks the
same instances.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import bits, oracles
from .pair_colouring import STAGE2, colour_pair

_SEED = 988121


@dataclass
class SuiteResult:
    suite: str
    ok: bool
    checked: int
    detail: str
    counterexample: tuple | None = None


# ---------------------------------------------------------------------------
# Oracle equivalence


def _fragments_either(fn, lower: int, upper: int, side: str):
    """Fragment list, or the rejection message when hypotheses fail."""
    try:
        return fn(lower, upper, side)
    except ValueError as err:
        return str(err)


def _random_fragment_pair(rng: random.Random) -> tuple[int, int]:
    """A pair satisfying all four fragment hypotheses by construction."""
    f_lo = rng.randrange(0, 6)
    f_up = f_lo + 1 + rng.randrange(0, 6)
    l_lo = f_up + 1 + rng.randrange(0, 8)
    l_up = l_lo + 1 + rng.randrange(0, 6)
    lower = (1 << f_lo) | (1 << l_lo)
    upper = (1 << f_up) | (1 << l_up)
    for p in range(f_lo + 1, l_up):
        if p in (f_up, l_lo):
            continue
        may_lower = p < l_lo
        may_upper = p > f_up
        pick = rng.randrange(3)
        if pick == 1 and may_lower:
            lower |= 1 << p
        elif pick == 2 and may_upper:
            upper |= 1 << p
    return lower, upper


def _oracle_pair_check(a: int, b: int):
    """First mismatching operation name for the pair, or None."""
    if bits.jumps(a, b) != oracles.jumps_oracle(a, b):
        return "jumps"
    fragment_count = oracles.common_fragment_count_oracle(a, b)
    listed = bits.common_fragments(a, b)
    if len(listed) != fragment_count:
        return "common_fragments"
    if bits.common_fragment_count(a, b) != fragment_count:
        return "common_fragment_count"
    if bits.carry_region(a, b) != oracles.carry_region_oracle(a, b):
        return "carry_region"
    for lower, upper in ((a, b), (b, a)):
        for side in ("right", "left"):
            got = _fragments_either(bits.fragments, lower, upper, side)
            want = _fragments_either(oracles.fragments_oracle, lower, upper, side)
            if got != want:
                return f"fragments {side}"
    return None


def verify_oracles(bound: int = 1024, samples: int = 100_000) -> SuiteResult:
    """Library bit tricks against the naive string scanners.

    Exhaustive on all pairs a < b < bound, then on `samples` random pairs
    below 2^32, then on constructed pairs satisfying the fragment
    hypotheses so the value paths get dense coverage too.
    """
    checked = 0
    for n in range(1, bound):
        checked += 1
        if bits.intervals(n) != oracles.intervals_oracle(n):
            return SuiteResult("oracles", False, checked,
                               "intervals mismatch", (n,))
        if bits.support(n) != oracles.support_oracle(n):
            return SuiteResult("oracles", False, checked,
                               "support mismatch", (n,))
    for a in range(1, bound):
        for b in range(a + 1, bound):
            checked += 1
            bad = _oracle_pair_check(a, b)
            if bad is not None:
                return SuiteResult("oracles", False, checked,
                                   f"{bad} mismatch", (a, b))
    rng = random.Random(_SEED)
    for _ in range(samples):
        a = rng.randrange(1, 1 << 32)
        b = rng.randrange(1, 1 << 32)
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        checked += 1
        if bits.intervals(a) != oracles.intervals_oracle(a):
            return SuiteResult("oracles", False, checked,
                               "intervals mismatch", (a,))
        bad = _oracle_pair_check(a, b)
        if bad is not None:
            return SuiteResult("oracles", False, checked,
                               f"{bad} mismatch", (a, b))
    for _ in range(20_000):
        lower, upper = _random_fragment_pair(rng)
        checked += 1
        for side in ("right", "left"):
            if bits.fragments(lower, upper, side) != \
                    oracles.fragments_oracle(lower, upper, side):
                return SuiteResult("oracles", False, checked,
                                   f"fragments {side} mismatch",
                                   (lower, upper))
    return SuiteResult("oracles", True, checked,
                       "jumps, intervals, carry, fragments, common "
                       "fragments all match the string scanners")


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


def verify_claim1(bound: int = 16384) -> SuiteResult:
    """For a, b < bound with equal first-digit position f and equal digits
    at f, f+1, f+2, the first digit of a+b sits exactly at f+1 (so the
    f mod 3 colour component of sums shifts; 1 is not 0 mod 3)."""
    groups: dict[tuple[int, int], list[int]] = {}
    for v in range(1, bound):
        f = bits.first_digit(v)
        groups.setdefault((f, (v >> f) & 7), []).append(v)
    checked = 0
    for (f, _), group in sorted(groups.items()):
        if len(group) < 2:
            continue
        bad = _claim1_counterexample(group, f)
        if bad is not None:
            return SuiteResult("claim1", False, checked,
                               "first digit of sum is not f+1", bad)
        checked += len(group) * (len(group) - 1) // 2
    return SuiteResult("claim1", True, checked,
                       "first digit of every same-window sum is one above")


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
    zs = []
    for f, l in zip(fs, ls):
        z = (1 << f) | (1 << l)
        for p in range(f + 1, l):
            if rng.random() < 0.5:
                z |= 1 << p
        zs.append(z)
    return zs


def _range_sum_last_digit_ok(zs) -> tuple | None:
    for m in range(1, len(zs) + 1):
        for n in range(m, len(zs) + 1):
            total = sum(zs[m - 1:n])
            l_n = bits.last_digit(zs[n - 1])
            if bits.last_digit(total) not in (l_n, l_n + 1):
                return tuple(zs) + (m, n)
    return None


def verify_lastdigit(trials: int = 2000) -> SuiteResult:
    """Last digit of z_m + ... + z_n lands on l_{z_n} or one above, for
    staircase lists: exhaustively on small pairs and triples, then on
    random constructed lists of length up to 8."""
    checked = 0
    for z1 in range(1, 128):
        f1, l1 = bits.digit_bounds(z1)
        for z2 in range(1, 128):
            f2, l2 = bits.digit_bounds(z2)
            if not (f1 < f2 and l1 < l2):
                continue
            checked += 1
            bad = _range_sum_last_digit_ok([z1, z2])
            if bad is not None:
                return SuiteResult("lastdigit", False, checked,
                                   "last digit out of range", bad)
    for z1 in range(1, 64):
        f1, l1 = bits.digit_bounds(z1)
        for z2 in range(1, 64):
            f2, l2 = bits.digit_bounds(z2)
            if not (f1 < f2 and l1 < l2):
                continue
            for z3 in range(1, 64):
                f3, l3 = bits.digit_bounds(z3)
                if not (f2 < f3 and l2 < l3 and l1 + 1 < f3):
                    continue
                checked += 1
                bad = _range_sum_last_digit_ok([z1, z2, z3])
                if bad is not None:
                    return SuiteResult("lastdigit", False, checked,
                                       "last digit out of range", bad)
    rng = random.Random(_SEED)
    for t in range(trials):
        zs = _random_type_a(rng, 2 + t % 7)
        assert bits.classify(zs, cut_depth=1).kind == bits.TYPE_A
        checked += 1
        bad = _range_sum_last_digit_ok(zs)
        if bad is not None:
            return SuiteResult("lastdigit", False, checked,
                               "last digit out of range", bad)
    return SuiteResult("lastdigit", True, checked,
                       "every range sum ends at l or l+1")


# ---------------------------------------------------------------------------
# Jump elimination


def verify_claim4(position_count: int = 16) -> SuiteResult:
    """For every 4-tuple of pairwise right-to-left disjoint staircase
    numbers with supports inside 0..position_count-1, reinstating the
    second term removes exactly one high-to-low jump:
    J(y1+y3, Y) = 2 and J(y1+y2+y3, Y) = 1 where Y is the full sum."""
    checked = 0
    universe = list(range(position_count))
    for k in range(4, position_count + 1):
        for subset in itertools.combinations(universe, k):
            prefix = [0]
            value = 0
            for p in subset:
                value += 1 << p
                prefix.append(value)
            full = prefix[k]
            for c1, c2, c3 in itertools.combinations(range(1, k), 3):
                checked += 1
                missing = prefix[c1] + prefix[c3] - prefix[c2]
                present = prefix[c3]
                if bits.jumps(missing, full) != 2 or \
                        bits.jumps(present, full) != 1:
                    parts = (prefix[c1], prefix[c2] - prefix[c1],
                             prefix[c3] - prefix[c2], full - prefix[c3])
                    return SuiteResult("claim4", False, checked,
                                       "jump delta is not exactly 1", parts)
    return SuiteResult("claim4", True, checked,
                       "jump count always drops from 2 to 1")


# ---------------------------------------------------------------------------
# Five-term obstruction


def _ones(lo: int, hi: int) -> int:
    if lo > hi:
        return 0
    return ((1 << (hi - lo + 1)) - 1) << lo


def _fill_options(positions, owners):
    """Expand per-position ownership choices into 5-channel masks.

    owners lists candidate channels for each position; channel -1 leaves
    the position empty everywhere.
    """
    out = []
    for assignment in itertools.product(owners, repeat=len(positions)):
        masks = [0] * 5
        for p, owner in zip(positions, assignment):
            if owner >= 0:
                masks[owner] |= 1 << p
        out.append(tuple(masks))
    return out


def _claim6_boundaries(max_pos: int):
    for f1 in range(0, max_pos + 1):
        for f2 in range(f1 + 1, max_pos + 1):
            for l1 in range(f2 + 1, max_pos + 1):
                for f3 in range(l1 + 2, max_pos + 1):
                    for l2 in range(f3 + 1, max_pos + 1):
                        for f4 in range(l2 + 2, max_pos + 1):
                            for l3 in range(f4 + 1, max_pos + 1):
                                for f5 in range(l3 + 2, max_pos + 1):
                                    for l4 in range(f5 + 1, max_pos + 1):
                                        for l5 in range(l4 + 1, max_pos + 1):
                                            yield (f1, f2, l1, f3, l2,
                                                   f4, l3, f5, l4, l5)


def claim6_tuples(max_pos: int):
    """Every 5-tuple of pairwise-disjoint-support numbers within positions
    0..max_pos whose five computable centres are all-1 strings.

    The centre hypotheses force the boundary chain f1<f2<l1, l1+2<=f3<l2,
    l2+2<=f4<l3, l3+2<=f5<l4<l5 (overlaps are strict because endpoint
    digits of neighbours must differ under disjointness), force z2, z3, z4
    to fill their centre ranges, and force exact complementary fills on
    [f3,l2] and [f4,l3]; every remaining interior digit is free. The test
    suite cross-checks this derivation against a brute-force filter.
    """
    for f1, f2, l1, f3, l2, f4, l3, f5, l4, l5 in _claim6_boundaries(max_pos):
        base = (
            (1 << f1) | (1 << l1),
            (1 << f2) | (1 << l2) | _ones(l1 + 1, f3 - 1),
            (1 << f3) | (1 << l3) | _ones(l2 + 1, f4 - 1),
            (1 << f4) | (1 << l4) | _ones(l3 + 1, f5 - 1),
            (1 << f5) | (1 << l5),
        )
        regions = (
            _fill_options(range(f1 + 1, f2), (-1, 0)),
            _fill_options(range(f2 + 1, l1), (-1, 0, 1)),
            _fill_options(range(f3 + 1, l2), (1, 2)),
            _fill_options(range(f4 + 1, l3), (2, 3)),
            _fill_options(range(f5 + 1, l4), (-1, 3, 4)),
            _fill_options(range(l4 + 1, l5), (-1, 4)),
        )
        for parts in itertools.product(*regions):
            zs = list(base)
            for masks in parts:
                zs = [z | m for z, m in zip(zs, masks)]
            yield tuple(zs)


def claim6_hypotheses_hold(zs) -> bool:
    """The pairwise-disjointness and all-1-centre hypothesis predicate,
    evaluated through the library centre operation."""
    for a, b in itertools.combinations(zs, 2):
        if a & b:
            return False
    z1, z2, z3, z4, z5 = zs
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
    windows = [bits.digit_bounds(z) for z in zs]
    (f1, l1), (f2, l2), (f3, l3), (f4, l4), (f5, _) = windows

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


def verify_claim6(position_count: int = 18) -> SuiteResult:
    """Every enumerated 5-tuple satisfying the disjointness and
    all-1-centre hypotheses is non-monochromatic on the named pair set
    under the two-stage colouring, and its interval counts obey the
    bookkeeping identities."""
    checked = 0
    for zs in claim6_tuples(position_count - 1):
        checked += 1
        if not claim6_hypotheses_hold(zs):
            return SuiteResult("claim6", False, checked,
                               "enumerated tuple fails its own hypotheses",
                               zs)
        if not _claim6_bookkeeping(zs):
            return SuiteResult("claim6", False, checked,
                               "interval bookkeeping mismatch", zs)
        pairs = claim6_pair_set(zs)
        first = colour_pair(*pairs[0], STAGE2)
        if all(colour_pair(a, b, STAGE2) == first for a, b in pairs[1:]):
            return SuiteResult("claim6", False, checked,
                               "monochromatic pair set", zs)
    return SuiteResult("claim6", True, checked,
                       "no hypothesis-satisfying tuple is two-stage "
                       "monochromatic")


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
    z1 = (1 << f1) | (1 << l1)
    z2 = (1 << f2) | (1 << l2)
    z3 = (1 << f3) | (1 << l3)
    for p in range(f1 + 1, f2):
        if rng.random() < 0.5:
            z1 |= 1 << p
    for p in range(f2 + 1, l1):
        pick = rng.randrange(3)
        if pick == 1:
            z1 |= 1 << p
        elif pick == 2:
            z2 |= 1 << p
    for p in range(l1 + 1, f3):
        if rng.random() < 0.5:
            z2 |= 1 << p
    for p in range(f3 + 1, l2):
        pick = rng.randrange(3)
        if pick == 1:
            z2 |= 1 << p
        elif pick == 2:
            z3 |= 1 << p
    for p in range(l2 + 1, l3):
        if rng.random() < 0.5:
            z3 |= 1 << p
    return z1, z2, z3


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


def verify_fragments(trials: int = 1500) -> SuiteResult:
    """The 1-positions of a disjoint staircase triple's sum split exactly
    into the fragment position-sets and centres attributed to each term."""
    rng = random.Random(_SEED)
    checked = 0
    for _ in range(trials):
        z1, z2, z3 = _random_partition_triple(rng)
        checked += 1
        if not _partition_holds(z1, z2, z3):
            return SuiteResult("fragments", False, checked,
                               "fragment partition mismatch", (z1, z2, z3))
    return SuiteResult("fragments", True, checked,
                       "fragments plus centres tile every sum support")


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
    for n in range(2, len(ys)):
        if not bits.middle(ys, n)[1]:
            return False
    return True


def verify_stage3(trials: int = 400) -> SuiteResult:
    """Removing y_{k+1} from the left of the pair
    (y_1+...+y_{k+3}, y_1+...+y_{k+4}) adds exactly f(k) + 1 + f(k+1)
    common fragments, where f(m) counts the removal pair's common
    fragments inside the overlapping zone of y_m and y_{m+1}. Fragment
    counts are cross-checked against the string-scanning oracle."""
    rng = random.Random(_SEED)
    checked = 0
    for t in range(trials):
        length = 6 + t % 2
        for _ in range(50):
            ys = _random_stage3_sequence(rng, length)
            if _stage3_discipline_ok(ys):
                break
        else:
            return SuiteResult("stage3", False, checked,
                               "could not construct a disciplined sequence",
                               None)
        prefix = list(itertools.accumulate(ys))
        for k in range(1, length - 3):
            checked += 1
            b = prefix[k + 3]
            a_full = prefix[k + 2]
            a_removed = a_full - ys[k]
            f_removed = bits.common_fragment_count(a_removed, b)
            f_full = bits.common_fragment_count(a_full, b)
            if f_removed != oracles.common_fragment_count_oracle(a_removed, b) \
                    or f_full != oracles.common_fragment_count_oracle(a_full, b):
                return SuiteResult("stage3", False, checked,
                                   "oracle disagrees on F", tuple(ys) + (k,))
            zone_lo = bits.overlapping_zone(ys, k)
            zone_hi = bits.overlapping_zone(ys, k + 1)
            f_k = bits.common_fragment_count(a_removed, b,
                                             zone_lo.lo, zone_lo.hi)
            f_k1 = bits.common_fragment_count(a_removed, b,
                                              zone_hi.lo, zone_hi.hi)
            if f_removed - f_full != f_k + 1 + f_k1:
                return SuiteResult("stage3", False, checked,
                                   "removal count is not f(k)+1+f(k+1)",
                                   tuple(ys) + (k,))
    return SuiteResult("stage3", True, checked,
                       "removal always adds f(k)+1+f(k+1) common fragments")


# ---------------------------------------------------------------------------
# Dispatch


_RUNNERS = {
    "oracles": verify_oracles,
    "claim1": verify_claim1,
    "lastdigit": verify_lastdigit,
    "claim4": verify_claim4,
    "claim6": verify_claim6,
    "fragments": verify_fragments,
    "stage3": verify_stage3,
}

SUITES = tuple(_RUNNERS)


def run_suite(suite: str, bound: int | None = None) -> SuiteResult:
    """Run one named suite. bound scales the suite's main knob: the
    exhaustive pair bound (oracles), the value bound (claim1), the trial
    count (lastdigit, fragments, stage3), or the position count (claim4,
    claim6); None runs the suite at its default."""
    if suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}")
    runner = _RUNNERS[suite]
    return runner() if bound is None else runner(bound)
