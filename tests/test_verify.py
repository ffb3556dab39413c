"""Verification suites at reduced bounds, plus an independent brute-force
cross-check that the constructive obstruction enumeration is complete."""

from __future__ import annotations

import collections
import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from supermono import bits, oracles, verify
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
    verify_oracles,
)


def test_suite_registry():
    assert SUITES == ("oracles", "claim1", "lastdigit", "claim4", "claim6",
                      "fragments", "stage3")
    with pytest.raises(ValueError):
        run_suite("claim9")


def test_oracle_suite_passes_at_small_bounds():
    result = verify_oracles(64)
    assert isinstance(result, SuiteResult)
    assert result.ok
    assert result.suite == "oracles"
    assert result.checked == 9516
    assert result.counterexample is None


def test_oracle_suite_referees_the_fragment_count(monkeypatch):
    count = bits.common_fragment_count
    monkeypatch.setattr(bits, "common_fragment_count",
                        lambda a, b: count(a, b) + (a == 3))
    result = verify_oracles(8)
    assert not result.ok
    assert result.detail == "common_fragment_count mismatch"
    assert result.counterexample == (3, 4)
    assert result.checked == 19


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
     lambda mp: _shift(mp, bits, "jumps", lambda a, b: a == 13, 1),
     (False, 29, "jump delta is not exactly 1", (1, 4, 8, 16))),
    # trips the missing pair y1+y3 rather than the present y1+y2+y3
    ("claim4", (10,),
     lambda mp: _shift(mp, bits, "jumps", lambda a, b: a == 9, 1),
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
    assert result.suite == suite
    assert (result.ok, result.checked, result.detail,
            result.counterexample) == outcome


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


def test_remaining_suites_pass_at_small_bounds():
    for suite, bound in (("claim1", 1024), ("lastdigit", 200), ("claim4", 10),
                         ("claim6", 15), ("fragments", 150), ("stage3", 50)):
        result = run_suite(suite, bound)
        assert result.ok, (suite, result.detail, result.counterexample)
        assert result.suite == suite
        assert result.checked > 0


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
    for bound, checked in ((1, 0), (2, 0), (3, 0), (5, 0), (100, 368),
                           (777, 24710), (1024, 43180), (16384, 11176620)):
        result = verify_claim1(bound)
        assert (result.ok, result.checked) == (True, checked), bound


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


def test_obstruction_tuple_counts():
    assert len(list(claim6_tuples(13))) == 19
    assert run_suite("claim6", 15).checked == 200


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


def test_constructive_enumeration_is_complete():
    constructive = set(claim6_tuples(14))
    assert len(constructive) == 200
    assert set(_brute_survivors(14)) == constructive


@pytest.mark.parametrize("position_count", [13, 14, 15])
def test_obstruction_tuples_come_in_product_order(position_count):
    """The brute-force filter's order, which decides the counterexample
    claim6 reports first."""
    constructive = list(claim6_tuples(position_count - 1))
    assert len(constructive) == {13: 1, 14: 19, 15: 200}[position_count]
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
