"""Verification suites at reduced bounds, plus an independent brute-force
cross-check that the constructive obstruction enumeration is complete."""

from __future__ import annotations

import ast
import collections
import functools
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from supermono import bits, oracles, verify
from supermono.pair_colouring import STAGE2
from supermono.verify import (
    SUITES,
    SuiteResult,
    _claim1_counterexample,
    claim6_hypotheses_hold,
    claim6_pair_set,
    claim6_tuples,
    partition_pieces,
    run_suite,
    verify_claim1,
)


def test_suite_registry():
    assert SUITES == ("oracles", "claim1", "lastdigit", "claim4", "claim6",
                      "fragments", "stage3")
    with pytest.raises(ValueError):
        run_suite("claim9")


@pytest.mark.parametrize("build, expected", [
    (lambda rng, _t: verify._random_fragment_pair(rng),
     [(281, 1126), (6282, 49184), (594, 14600), (37072, 877056),
      (800, 4224)]),
    (lambda rng, _t: verify._random_partition_triple(rng),
     [(33, 1870, 6272), (18, 548, 1152), (67, 23084, 41984),
      (33, 3542, 16896), (78, 1680, 12544)]),
    (lambda rng, t: verify._random_type_a(rng, 2 + t % 7),
     [[1, 72], [2, 12, 240], [3, 12, 40, 192], [3, 36, 992, 13184, 18432],
      [6, 24, 336, 2432, 12288, 57344]]),
], ids=["fragment-pair", "partition-triple", "type-a"])
def test_random_builders_draw_the_pinned_instances(build, expected):
    """The first five instances each seeded builder gives the suites, so a
    change to how a builder draws its digits cannot change what the
    oracles, fragments and lastdigit suites check unnoticed."""
    rng = random.Random(verify._SEED)
    assert [build(rng, t) for t in range(5)] == expected


def _shift(monkeypatch, module, name, when, by):
    """Patch module.name to add `by` to its value wherever when(*args)."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: real(*args) + (by if when(*args) else 0))


def _jump_mark_fault(monkeypatch, width, when, move=False):
    """Patch bits.jump_marks lane by lane, for lanes of `width` bits as
    verify_claim4 packs them: in each lane whose (sum, full) has
    when(sum, full), add a mark at the lane's lowest unmarked position,
    or with move, take the lowest mark there instead, keeping the count.
    bits.jumps reads jump_marks, so a one-lane call sees the same fault.
    Returns the list of faulted lanes, appended to as calls fault them."""
    real = bits.jump_marks
    lane = (1 << width) - 1
    faulted = []

    def jump_marks(a, b):
        marks = real(a, b)
        for shift in range(0, max(a, b).bit_length(), width):
            pair = (a >> shift & lane, b >> shift & lane)
            found = marks >> shift & lane
            if when(*pair) and (found or not move):
                free = ~found & (found + 1)
                marks ^= (free | (found & -found if move else 0)) << shift
                faulted.append(pair)
        return marks

    monkeypatch.setattr(bits, "jump_marks", jump_marks)
    return faulted


def _fragment_fault(monkeypatch, side, raises=False):
    """Patch bits.fragments, wherever the real call succeeds on `side`, to
    list one extra fragment, or with raises, to raise a ValueError."""
    real = bits.fragments

    def fragments(lower, upper, s):
        listed = real(lower, upper, s)
        if s != side:
            return listed
        if raises:
            raise ValueError("fragments fault")
        return listed + [bits.Fragment("1", 0, 0, side)]

    monkeypatch.setattr(bits, "fragments", fragments)


# (suite, bound, fault, outcome): fault injects one failure through a
# public name, or is None; outcome is (ok, checked, detail, counterexample).
_OUTCOMES = [
    ("oracles", (64,), None,
     (True, 9516, "jumps, intervals, carry, fragments, common fragments "
                   "all match the string scanners", None)),
    ("claim1", (1024,), None,
     (True, 43180, "first digit of every same-window sum is one above", None)),
    ("lastdigit", (200,), None,
     (True, 2335, "every range sum ends at l or l+1", None)),
    ("claim4", (10,), None,
     (True, 7937, "jump count always drops from 2 to 1", None)),
    ("claim6", (15,), None,
     (True, 200, "no hypothesis-satisfying tuple is two-stage "
                 "monochromatic", None)),
    ("fragments", (150,), None,
     (True, 150, "fragments plus centres tile every sum support", None)),
    ("stage3", (50,), None,
     (True, 125, "removal always adds f(k)+1+f(k+1) common fragments", None)),
    ("claim4", (10,),
     lambda mp: _jump_mark_fault(mp, 10, lambda a, b: a == 13),
     (False, 29, "jump delta is not exactly 1", (1, 4, 8, 16))),
    # trips the missing pair y1+y3 rather than the present y1+y2+y3
    ("claim4", (10,),
     lambda mp: _jump_mark_fault(mp, 10, lambda a, b: a == 9),
     (False, 8, "jump delta is not exactly 1", (1, 2, 8, 16))),
    ("lastdigit", (200,),
     lambda mp: _shift(mp, bits, "last_digit", lambda n: n == 12, 2),
     (False, 6, "last digit out of range", (1, 12, 1, 2))),
    ("claim6", (15,),
     lambda mp: mp.setattr(verify, "colour_pair", lambda *args: 0),
     (False, 1, "monochromatic pair set", (5, 42, 336, 2688, 5120))),
    ("fragments", (150,),
     lambda mp: mp.setattr(bits, "support", lambda n: ()),
     (False, 1, "fragment partition mismatch", (33, 1870, 6272))),
    ("stage3", (50,),
     lambda mp: _shift(mp, oracles, "common_fragment_count_oracle",
                       lambda a, b: True, 1),
     (False, 1, "oracle disagrees on F",
      (21, 1936, 62464, 950272, 46661632, 1912602624, 1))),
    ("stage3", (50,),
     lambda mp: mp.setattr(bits, "middles", lambda ys: ["0"] * len(ys)),
     (False, 0, "constructed sequence is not disciplined",
      (21, 1936, 62464, 950272, 46661632, 1912602624))),
    # one fault per check of the oracle suite: at bound 8 the exhaustive
    # phase checks 7 values and 21 pairs, then 781 random pairs and 156
    # constructed ones; no pair before the constructed phase meets the
    # fragment hypotheses at bound 8, and (5, 10) is the first at bound 16
    ("oracles", (8,),
     lambda mp: _shift(mp, bits, "jumps", lambda a, b: a == 5, 1),
     (False, 26, "jumps mismatch", (5, 6))),
    ("oracles", (8,),
     lambda mp: mp.setattr(bits, "common_fragments", lambda a, b: []),
     (False, 9, "common_fragments mismatch", (1, 3))),
    ("oracles", (8,),
     lambda mp: _shift(mp, bits, "common_fragment_count",
                       lambda a, b: a == 3, 1),
     (False, 19, "common_fragment_count mismatch", (3, 4))),
    ("oracles", (8,),
     lambda mp: mp.setattr(bits, "carry_region", lambda m, n: None),
     (False, 9, "carry_region mismatch", (1, 3))),
    ("oracles", (16,),
     lambda mp: _fragment_fault(mp, "right"),
     (False, 70, "fragments right mismatch", (5, 10))),
    ("oracles", (16,),
     lambda mp: _fragment_fault(mp, "left"),
     (False, 70, "fragments left mismatch", (5, 10))),
    ("oracles", (8,),
     lambda mp: _shift(mp, bits, "intervals", lambda n: n == 6, 1),
     (False, 6, "intervals mismatch", (6,))),
    ("oracles", (8,),
     lambda mp: mp.setattr(bits, "support", lambda n: []),
     (False, 1, "support mismatch", (1,))),
    # the random phase: its first value past the exhaustive bound
    ("oracles", (8,),
     lambda mp: _shift(mp, bits, "intervals", lambda n: n >= 8, 1),
     (False, 29, "intervals mismatch", (331393138,))),
    # the constructed phase: its first pair, where a kernel that raises
    # is reported like a wrong list
    ("oracles", (8,),
     lambda mp: _fragment_fault(mp, "right"),
     (False, 810, "fragments right mismatch", (15240, 16448))),
    ("oracles", (8,),
     lambda mp: _fragment_fault(mp, "left", raises=True),
     (False, 810, "fragments left mismatch", (15240, 16448))),
    ("claim6", (15,),
     lambda mp: mp.setattr(bits, "centre", lambda r, p, s: ("0", (0, 0))),
     (False, 1, "enumerated tuple fails its own hypotheses",
      (5, 42, 336, 2688, 5120))),
    ("claim6", (15,),
     lambda mp: _shift(mp, bits, "intervals", lambda c: True, 1),
     (False, 1, "interval bookkeeping mismatch", (5, 42, 336, 2688, 5120))),
]


def _outcome_ids(rows):
    """suite-passes or suite-fails; a suite's second fault is suite-fails2."""
    seen = collections.Counter()
    for suite, _, fault, _ in rows:
        name = f"{suite}-{'fails' if fault else 'passes'}"
        seen[name] += 1
        yield name if seen[name] == 1 else f"{name}{seen[name]}"


@pytest.mark.parametrize("suite, args, fault, outcome", _OUTCOMES,
                         ids=list(_outcome_ids(_OUTCOMES)))
def test_suite_outcomes_are_pinned(monkeypatch, suite, args, fault, outcome):
    if fault is not None:
        fault(monkeypatch)
    result = getattr(verify, f"verify_{suite}")(*args)
    assert isinstance(result, SuiteResult)
    assert result.suite == suite
    assert (result.ok, result.checked, result.detail,
            result.counterexample) == outcome


def _claim4_referee(position_count):
    """verify_claim4 one instance at a time: both jump counts of every
    triple, one bits.jumps call each. Returns (ok, checked, detail,
    counterexample)."""
    checked = 0
    for k in range(4, position_count + 1):
        for subset in itertools.combinations(range(position_count), k):
            prefix = [0, *itertools.accumulate(1 << p for p in subset)]
            full = prefix[k]
            for c1, c2, c3 in itertools.combinations(range(1, k), 3):
                checked += 1
                missing = prefix[c1] + prefix[c3] - prefix[c2]
                if bits.jumps(missing, full) != 2 or \
                        bits.jumps(prefix[c3], full) != 1:
                    return (False, checked, "jump delta is not exactly 1",
                            (prefix[c1], prefix[c2] - prefix[c1],
                             prefix[c3] - prefix[c2], full - prefix[c3]))
    return True, checked, "jump count always drops from 2 to 1", None


def _pairwise_disjoint_and_all_1_centres(zs):
    """claim6_hypotheses_hold with disjointness tested pair by pair."""
    if any(a & b for a, b in itertools.combinations(zs, 2)):
        return False
    z1, z2, z3, z4, z5 = zs
    for r, p, s in ((z2, z1, z3), (z3, z2, z4), (z4, z3, z5),
                    (z2 + z3, z1, z4), (z3 + z4, z2, z5)):
        try:
            text, _ = bits.centre(r, p, s)
        except ValueError:
            return False
        if "0" in text:
            return False
    return True


def _claim6_referee(position_count):
    """verify_claim6 one instance at a time: every tuple's hypotheses,
    bookkeeping and pair set colours, read through verify.claim6_tuples
    and verify.colour_pair. Returns (ok, checked, detail,
    counterexample)."""
    checked = 0
    for zs in verify.claim6_tuples(position_count - 1):
        checked += 1
        if not _pairwise_disjoint_and_all_1_centres(zs):
            return (False, checked,
                    "enumerated tuple fails its own hypotheses", zs)
        if not verify._claim6_bookkeeping(zs):
            return False, checked, "interval bookkeeping mismatch", zs
        colours = {verify.colour_pair(a, b, STAGE2)
                   for a, b in claim6_pair_set(zs)}
        if len(colours) == 1:
            return False, checked, "monochromatic pair set", zs
    return (True, checked,
            "no hypothesis-satisfying tuple is two-stage monochromatic", None)


def _claim4_fault(position_count, positions, missing=(), present=(),
                  move=False):
    """A fault adding one jump mark, in the subset of these positions, to
    the missing sum y1+y3 of each triple in `missing` and to the present
    sum y1+y2+y3 of each c3 in `present`; with move, moving one of the
    sum's marks instead, which keeps its jump count."""
    def inject(monkeypatch):
        prefix = [0, *itertools.accumulate(1 << p for p in positions)]
        full = prefix[-1]
        wrong = {prefix[c1] + prefix[c3] - prefix[c2]
                 for c1, c2, c3 in missing}
        wrong |= {prefix[c3] for c3 in present}
        return _jump_mark_fault(monkeypatch, position_count,
                                lambda a, b: b == full and a in wrong, move)
    return inject


def _claim6_fault(index):
    """A fault making verify.colour_pair constant on the pair set of the
    index-th tuple at position count 15, and on no other z1..z4 group.
    The constant is -1, which no colour code takes (code 0 is a real
    colour), so no other pair set can share it."""
    def inject(monkeypatch):
        pairs = set(claim6_pair_set(list(claim6_tuples(14))[index]))
        real = verify.colour_pair
        monkeypatch.setattr(
            verify, "colour_pair",
            lambda a, b, stage: -1 if (a, b) in pairs else real(a, b, stage))
    return inject


# claim4 against its per-instance referee: (bound, fault, passes)
_CLAIM4_REFEREE_ROWS = [
    pytest.param(8, None, True, id="passes"),
    pytest.param(8, _claim4_fault(8, (0, 2, 3, 5, 6, 7), missing=[(1, 2, 4)],
                                  present=[5]), False,
                 id="missing-before-bad-c3"),
    pytest.param(8, _claim4_fault(8, (0, 2, 3, 5, 6, 7), missing=[(1, 3, 4)],
                                  present=[4]), False,
                 id="bad-c3-before-missing"),
    pytest.param(8, _claim4_fault(8, (1, 2, 4, 5, 7), present=[4]), False,
                 id="bad-c3"),
    pytest.param(8, _claim4_fault(8, (0, 1, 3, 4, 6, 7), present=[4, 5]),
                 False, id="two-bad-c3"),
    pytest.param(8, _claim4_fault(8, (0, 1, 3, 4, 6, 7), present=[5, 3]),
                 False, id="two-bad-c3-first-at-index-0"),
    pytest.param(8, _claim4_fault(8, (0, 2, 3, 5, 6, 7), missing=[(1, 2, 4)],
                                  present=[5], move=True), True,
                 id="moved-mark"),
    # with passes, every position count from 4 to 10
    *[pytest.param(n, None, True, id=f"passes-at-{n}")
      for n in (4, 5, 6, 7, 9, 10)],
]


@pytest.mark.parametrize("suite, bound, fault, passes", [
    *[pytest.param("claim4", *row.values, id=f"claim4-{row.id}")
      for row in _CLAIM4_REFEREE_ROWS],
    pytest.param("claim6", 15, None, True, id="claim6-passes"),
    pytest.param("claim6", 15, _claim6_fault(9), False,
                 id="claim6-recurring-group"),
    pytest.param("claim6", 15, _claim6_fault(100), False,
                 id="claim6-mid-group"),
])
def test_claim_suites_match_their_per_instance_referees(
        monkeypatch, suite, bound, fault, passes):
    """claim4 checks a chunk of subsets in one packed call per sum and
    claim6 colours a pair set once per run of equal z1..z4; each reports
    what checking every instance in full reports. A claim4 fault is one
    extra or moved jump mark in the lanes of chosen sums of one subset; a
    moved mark changes the packed marks but no count, so the subset still
    passes. The smallest position counts have subsets whose top element
    sits at a lane's last bit, where the lane's carry stops."""
    faulted = fault(monkeypatch) if fault is not None else None
    referee = {"claim4": _claim4_referee, "claim6": _claim6_referee}[suite]
    want = referee(bound)
    assert want[0] is passes
    if faulted is not None:
        faulted.clear()
    result = getattr(verify, f"verify_{suite}")(bound)
    assert (result.ok, result.checked, result.detail,
            result.counterexample) == want
    if faulted is not None:
        assert faulted, "the fault never reached the suite's packed call"


def _nth_subset(position_count, k, index):
    """The index-th k-element subset of range(position_count), in the
    itertools.combinations order claim4 checks them in."""
    return next(itertools.islice(
        itertools.combinations(range(position_count), k), index, None))


# With chunks of 5, subsets 10..14 of a level form its third chunk, and
# the 6-element level at 8 positions (28 subsets) ends on a chunk of 3.
@pytest.mark.parametrize("bound, fault, passes", [
    *_CLAIM4_REFEREE_ROWS,
    pytest.param(8, _claim4_fault(8, _nth_subset(8, 6, 10), present=[3]),
                 False, id="chunk-first-subset"),
    pytest.param(8, _claim4_fault(8, _nth_subset(8, 6, 14),
                                  missing=[(2, 3, 5)]),
                 False, id="chunk-last-subset"),
    pytest.param(8, _claim4_fault(8, _nth_subset(8, 6, 27), present=[4]),
                 False, id="level-last-subset"),
    pytest.param(8, _claim4_fault(8, _nth_subset(8, 6, 14), present=[3],
                                  move=True),
                 True, id="moved-mark-on-chunk-last-subset"),
])
def test_claim4_reports_the_same_in_chunks_of_five(
        monkeypatch, bound, fault, passes):
    """verify_claim4 with CLAIM4_CHUNK at 5, so every level but the
    smallest spans several chunks, reports what its per-instance referee
    reports. Each fault lands past a level's first chunk, some on a
    chunk's first or last subset; a moved mark fails the chunk's packed
    comparison but no count, so the suite reads that chunk subset by
    subset and goes on."""
    monkeypatch.setattr(verify, "CLAIM4_CHUNK", 5)
    test_claim_suites_match_their_per_instance_referees(
        monkeypatch, "claim4", bound, fault, passes)


def test_claim4_checked_counts_follow_the_closed_form():
    """A k-element subset holds C(k - 1, 3) triples, so claim4 checks
    sum_k C(n, k) * C(k - 1, 3) at position count n. At 15 the 7-element
    level holds more subsets than one chunk."""
    assert math.comb(15, 7) > verify.CLAIM4_CHUNK
    for position_count, checked in ((4, 1), (10, 7937), (12, 65_537),
                                    (15, 1_216_513)):
        assert checked == sum(
            math.comb(position_count, k) * math.comb(k - 1, 3)
            for k in range(4, position_count + 1))
        result = verify.verify_claim4(position_count)
        assert (result.ok, result.checked) == (True, checked), position_count


@pytest.mark.parametrize("suite, first_call", [
    ("claim4", (bits, "jump_marks")), ("claim6", (verify, "claim6_tuples"))])
def test_position_count_suites_refuse_a_count_above_the_cap(
        monkeypatch, suite, first_call):
    def no_check(*args):
        raise AssertionError(f"{suite} checked past its cap")

    monkeypatch.setattr(*first_call, no_check)
    cap = verify.MAX_POSITION_COUNT
    for position_count in (cap + 1, 10 ** 20):
        with pytest.raises(verify.BoundError, match=(
                f"{suite} position count must be at most {cap}, "
                f"got {position_count}")):
            verify.run_suite(suite, position_count)


def _digit_bound_shape(zs):
    """Each term's (first, last) digit positions; (-1, -1) for 0."""
    return tuple(((z & -z).bit_length() - 1, z.bit_length() - 1) for z in zs)


def _holed(zs):
    """z2 loses the lowest digit of its centre window [l1 + 1, f3 - 1]."""
    z1, z2, z3, z4, z5 = zs
    return z1, z2 & ~(1 << z1.bit_length()), z3, z4, z5


def _shared(zs):
    """z1 takes z2's first digit, which lies strictly inside z1's span."""
    z1, z2, z3, z4, z5 = zs
    return (z1 | (z2 & -z2), z2, z3, z4, z5)


def _moved_last(zs):
    """z1's last digit moves one place down onto a free position above f2,
    which opens a hole at l1 in z2's centre window; None when that
    position is taken or is not above f2."""
    z1, z2, z3, z4, z5 = zs
    last = 1 << (z1.bit_length() - 1)
    if last >> 1 <= z2 & -z2 or last >> 1 & (z1 | z2 | z3 | z4 | z5):
        return None
    return (z1 ^ last ^ last >> 1, z2, z3, z4, z5)


def _zeroed(zs):
    """z5 is 0; no other check reads it."""
    return (*zs[:4], 0)


@pytest.mark.parametrize("alter, keeps_shape", [
    (_holed, True), (_shared, True), (_moved_last, False), (_zeroed, False),
], ids=["hole-in-centre-window", "shared-digit", "moved-last-digit",
        "zero-term"])
def test_claim6_checks_each_tuple_of_a_shape_like_its_referee(
        monkeypatch, alter, keeps_shape):
    """verify_claim6 checks a tuple's centres against its shape's masks and
    calls the library centre only at a new shape. Each fault alters the
    first tuple at position count 15 that shares its shape with the tuple
    before it and that the fault applies to; suite and referee read the
    same altered stream and report the same failure there. A stale mask
    would miss the faults that start a new shape."""
    tuples = list(claim6_tuples(14))
    index, altered = next(
        (i, alter(zs)) for i, zs in enumerate(tuples) if i > 0
        and _digit_bound_shape(zs) == _digit_bound_shape(tuples[i - 1])
        and alter(zs) is not None)
    assert (_digit_bound_shape(altered) == _digit_bound_shape(tuples[index])) \
        is keeps_shape
    tuples[index] = altered
    monkeypatch.setattr(verify, "claim6_tuples", lambda max_pos: iter(tuples))
    want = _claim6_referee(15)
    assert want == (False, index + 1,
                    "enumerated tuple fails its own hypotheses", altered)
    result = verify.verify_claim6(15)
    assert (result.ok, result.checked, result.detail,
            result.counterexample) == want


def _counting(monkeypatch, module, name):
    """Wrap module.name so that every call is counted; returns the counter."""
    calls = collections.Counter()
    real = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_claim6_calls_the_centre_once_per_shape_and_colours_through_a_memo(
        monkeypatch):
    """At position count 16: one library centre call per centre triple of
    each of the 286 digit-bound shapes (each tuple's own would be 7,720),
    and 1,670 colour_pair calls where colouring every pair set's pairs
    without the memo would make 2,810."""
    centre = _counting(monkeypatch, bits, "centre")
    colour = _counting(monkeypatch, verify, "colour_pair")
    assert verify.verify_claim6(16).checked == 1544
    assert centre["centre"] == 1430
    assert colour["colour_pair"] == 1670
    assert verify.verify_claim6(15).checked == 200


def test_hypothesis_predicate_matches_the_pairwise_disjointness_test():
    """The popcount identity against pair-by-pair disjointness, on tuples
    made to overlap by one extra digit in one term."""
    for zs in claim6_tuples(14):
        assert claim6_hypotheses_hold(zs)
        for i in range(5):
            for p in range(16):
                moved = zs[:i] + (zs[i] | 1 << p,) + zs[i + 1:]
                assert claim6_hypotheses_hold(moved) == \
                    _pairwise_disjoint_and_all_1_centres(moved), (moved,)


def test_lastdigit_reports_a_constructed_list_that_is_not_type_a(monkeypatch):
    monkeypatch.setattr(bits, "is_type_a", lambda zs: False)
    result = verify.verify_lastdigit(200)
    assert (result.ok, result.checked, result.detail,
            result.counterexample) == (
        False, 2136, "constructed list is not type A", (1, 72))


@pytest.mark.parametrize("length, below", [(2, 128), (3, 64)])
def test_is_type_a_holds_exactly_for_the_enumerated_lists(length, below):
    """The lastdigit suite states the type-A rule twice: as the incremental
    filter that enumerates its exhaustive lists and as bits.is_type_a,
    which checks its constructed ones. They must pick the same lists."""
    listed = {tuple(zs) for zs in verify._type_a_lists(length, below)}
    assert listed
    for zs in itertools.product(range(1, below), repeat=length):
        assert bits.is_type_a(zs) == (zs in listed), zs


def test_middles_and_zones_match_their_per_index_definitions():
    """middles(zs)[n - 1] is the digits of z_n from j_n + 1 up to
    f_{z_{n+1}} - 1, and overlapping_zones(zs)[n - 1] is
    Zone(f_{z_{n+1}}, j_{n+1}), on the staircases the stage3 suite draws."""
    rng = random.Random(verify._SEED)
    for t in range(200):
        ys = verify._random_stage3_sequence(rng, 6 + t % 2)
        js = bits.j_sequence(ys)
        fs = [bits.first_digit(y) for y in ys]
        n_range = range(1, len(ys))
        assert bits.middles(ys) == [
            bits.digit_string(ys[n - 1], js[n - 1] + 1, fs[n] - 1)
            for n in n_range]
        assert bits.overlapping_zones(ys) == [
            bits.Zone(fs[n], js[n]) for n in n_range]


def _first_bad_pair(group, f):
    for a in group:
        for b in group:
            if bits.first_digit(a + b) != f + 1:
                return a, b
    return None


def test_claim1_counterexample_is_the_first_bad_pair_row_by_row():
    assert _claim1_counterexample([1, 3, 4], 0) == (1, 3)
    assert _claim1_counterexample([3, 1], 0) == (3, 1)
    assert _claim1_counterexample([5, 3], 0) == (5, 3)
    assert _claim1_counterexample([1, 9, 17], 0) is None


def test_claim1_counterexample_matches_a_double_loop_below_1024():
    by_window, by_first_digit = {}, {}
    for v in range(1, 1024):
        f = bits.first_digit(v)
        by_window.setdefault((f, (v >> f) & 7), []).append(v)
        by_first_digit.setdefault((f, None), []).append(v)
    failures = 0
    for (f, window), group in {**by_window, **by_first_digit}.items():
        want = _first_bad_pair(group, f)
        assert _claim1_counterexample(group, f) == want, (f, window)
        if window is not None:
            assert want is None, (f, window)
        failures += want is not None
    assert failures == 9


def test_claim1_checked_counts_are_pinned():
    """At 1024 and 16384 the counts are pinned by the suite's _OUTCOMES row
    and its acceptance run."""
    for bound, checked in ((1, 0), (2, 0), (3, 0), (5, 0), (100, 368),
                           (777, 24710)):
        result = verify_claim1(bound)
        assert (result.ok, result.checked) == (True, checked), bound


def test_claim1_refuses_a_bound_above_its_cap_before_grouping(monkeypatch):
    def no_group(group, f):
        raise AssertionError("claim1 checked a group")

    monkeypatch.setattr(verify, "_claim1_counterexample", no_group)
    over = verify.CLAIM1_MAX_BOUND + 1
    for bound in (over, 10 ** 12):
        with pytest.raises(verify.BoundError, match=(
                f"claim1 bound must be at most {verify.CLAIM1_MAX_BOUND}, "
                f"got {bound}")):
            verify.run_suite("claim1", bound)


def test_claim1_failure_carries_the_pair_and_the_count_before_it(monkeypatch):
    def fail_on_first_digit_two(group, f):
        return (group[0], group[-1]) if f == 2 else None

    monkeypatch.setattr(verify, "_claim1_counterexample",
                        fail_on_first_digit_two)
    result = verify_claim1(100)
    assert not result.ok
    assert result.counterexample == (4, 68)

    def key(v):
        f = bits.first_digit(v)
        return f, (v >> f) & 7

    pairs = itertools.combinations(range(1, 100), 2)
    assert result.checked == sum(key(a) == key(b) and key(a)[0] < 2
                                 for a, b in pairs)


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's src."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


_BITWISE = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift,
            ast.Invert)


def _bitwise_lines(source: str) -> list[int]:
    """Lines of source that apply a bitwise operator outside an annotation."""
    tree = ast.parse(source)
    notes = {id(part) for node in ast.walk(tree)
             for note in (getattr(node, "annotation", None),
                          getattr(node, "returns", None)) if note is not None
             for part in ast.walk(note)}
    return [node.lineno for node in ast.walk(tree)
            if id(node) not in notes
            and isinstance(getattr(node, "op", None), _BITWISE)]


def test_oracles_use_no_bitwise_operator():
    """The string scanners referee the bit kernels, so they must not share
    their bit tricks; `CarryRegion | None` is an annotation, not code."""
    assert _bitwise_lines("def f(a: int | None) -> int | None: return a") == []
    assert _bitwise_lines("def f(a):\n    a <<= 1\n    return ~a & 3") \
        == [2, 3, 3]
    assert _bitwise_lines(Path(oracles.__file__).read_text()) == []


def test_verify_and_cli_import_without_numpy():
    done = _run_python('import sys; sys.modules["numpy"] = None; '
                       'import supermono.verify, supermono.cli')
    assert done.returncode == 0, done.stderr


def test_verify_imports_no_word_or_search_layer():
    """The verify suites need only the digit and pair layers. A fresh
    interpreter compiles every module it imports, so a module-level import
    of the word layer would slow every verify run's set-up."""
    done = _run_python(
        'import sys, supermono.verify; print(*sorted(m for m in sys.modules '
        'if m.partition(".")[0] == "supermono"))')
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "supermono", "supermono.bits", "supermono.oracles",
        "supermono.pair_colouring", "supermono.verify"]


def _brute_obstruction_tuples(max_pos):
    """Relaxed candidate generator for the completeness cross-check.

    The strict ordering of the ten boundary positions follows from the
    centre validation rules plus support disjointness alone; the >= 2 gap
    margins are deliberately not imposed, so near-miss chains are generated
    and left for the hypothesis predicate to reject. Interior positions may
    go to any channel whose digit window contains them, or to none.
    """
    for chain in itertools.combinations(range(max_pos + 1), 10):
        f1, f2, l1, f3, l2, f4, l3, f5, l4, l5 = chain
        bounds = [(f1, l1), (f2, l2), (f3, l3), (f4, l4), (f5, l5)]
        interiors = []
        for p in range(f1 + 1, l5):
            if p in chain:
                continue
            owners = [i for i, (f, l) in enumerate(bounds) if f < p < l]
            interiors.append((p, [None] + owners))
        base = [(1 << f) | (1 << l) for f, l in bounds]
        for choice in itertools.product(*(opts for _, opts in interiors)):
            zs = list(base)
            for (p, _), owner in zip(interiors, choice):
                if owner is not None:
                    zs[owner] |= 1 << p
            yield tuple(zs)


@functools.lru_cache(maxsize=None)
def _brute_survivors(max_pos):
    return tuple(zs for zs in _brute_obstruction_tuples(max_pos)
                 if claim6_hypotheses_hold(zs))


@pytest.mark.parametrize("position_count", [13, 14, 15])
def test_obstruction_tuples_come_in_product_order(position_count):
    """The constructive enumeration yields the brute-force filter's
    survivors, each once and in the filter's order, which decides the
    counterexample claim6 reports first."""
    constructive = list(claim6_tuples(position_count - 1))
    assert len(constructive) == {13: 1, 14: 19, 15: 200}[position_count]
    assert len(set(constructive)) == len(constructive)
    assert list(_brute_survivors(position_count - 1)) == constructive


def test_obstruction_pair_differences():
    for zs in claim6_tuples(13):
        z1, z2, z3, z4, z5 = zs
        pairs = claim6_pair_set(zs)
        assert [b - a for a, b in pairs] == [z2, z3, z4, z2 + z3, z2 + z4]
        assert all(a < b for a, b in pairs)


def test_hypothesis_predicate_rejects_broken_tuples():
    zs = next(iter(claim6_tuples(13)))
    assert claim6_hypotheses_hold(zs)
    overlapping = (zs[0] | (zs[1] & -zs[1]),) + zs[1:]
    assert not claim6_hypotheses_hold(overlapping)
    window_lo = bits.centre(zs[1], zs[0], zs[2])[1][0]
    holed = (zs[0], zs[1] & ~(1 << window_lo)) + zs[2:]
    assert not claim6_hypotheses_hold(holed)


def test_partition_pieces_attribution():
    pieces = partition_pieces(9, 70, 160)
    assert pieces == [({0}, 1), ({3}, 1), ({1, 2}, 2), (set(), 2),
                      ({6}, 2), ({5}, 3), ({7}, 3)]
    union = set().union(*(positions for positions, _ in pieces))
    assert union == set(bits.support(9 + 70 + 160))
    assert sum(len(positions) for positions, _ in pieces) == len(union)
