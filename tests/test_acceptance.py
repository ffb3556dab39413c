"""End-to-end acceptance runs at full bounds.

Each test exercises one headline behaviour at its stated scale, prints a
single pass or fail line and enforces a wall-clock budget.
"""

from __future__ import annotations

import json
import random
import time

from click.testing import CliRunner

from supermono import search, verify, words
from supermono.cli import main
from supermono.search import (
    X_ALTERNATING,
    Y_BLOCK,
    constraints_for,
    parse_colouring,
    xy_inverse,
    xy_transform,
)


def _cli_json(*args):
    result = CliRunner().invoke(main, [*args, "--format", "json"])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def _report(name: str, ok: bool, started: float, budget: float,
            detail: str) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.2f}s of {budget:.0f}s]",
          flush=True)
    assert ok, detail
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_digit_diagnostics_match_pinned_values():
    started = time.perf_counter()
    support = _cli_json("inspect", "200")["support"]
    jumps = _cli_json("inspect-pair", "431", "132")["jumps"]
    intervals = _cli_json("inspect", "15253")["intervals"]
    carry = _cli_json("inspect-pair", "667", "314")["carry_region"]
    observed = (support, jumps, intervals, carry)
    expected = ([3, 6, 7], 2, 5, [1, 6])
    _report("digit diagnostics", observed == expected, started, 1.0,
            f"support/jumps/intervals/carry = {observed}")


def test_scanner_oracles_agree_on_exhaustive_and_random_pairs():
    started = time.perf_counter()
    result = verify.verify_oracles(1024)
    _report("scanner oracle agreement", result.ok, started, 120.0,
            f"{result.checked} checks, {result.detail}")
    assert result.checked == 643_776


def test_sum_first_digit_climbs_for_shared_window_pairs():
    started = time.perf_counter()
    result = verify.run_suite("claim1", 16384)
    _report("sum first-digit climb", result.ok, started, 60.0,
            f"{result.checked} pairs, {result.detail}")
    assert result.checked == 11_176_620


def test_jump_delta_is_one_for_disjoint_staircase_quadruples():
    started = time.perf_counter()
    result = verify.run_suite("claim4", 16)
    _report("staircase jump delta", result.ok, started, 120.0,
            f"{result.checked} quadruples, {result.detail}")
    assert result.checked == 3_080_193


def test_obstruction_tuples_are_never_stage2_monochromatic():
    started = time.perf_counter()
    result = verify.run_suite("claim6", 18)
    _report("obstruction tuple colours", result.ok, started, 300.0,
            f"{result.checked} tuples, {result.detail}")
    assert result.checked == 53_826


def test_index_transform_preserves_constraint_lists():
    started = time.perf_counter()
    rng = random.Random(411289)
    checked = 0
    ok = True
    for _ in range(10_000):
        xs = sorted(rng.sample(range(1, 1025), rng.randint(1, 6)))
        if constraints_for(xs, X_ALTERNATING) != constraints_for(
                xy_transform(xs), Y_BLOCK):
            ok = False
            break
        if xy_inverse(xy_transform(xs)) != list(xs):
            ok = False
            break
        checked += 1
    _report("index transform coherence", ok, started, 60.0,
            f"{checked} sampled tuples")


def test_periodic_suffix_factorisations_yield_verified_witnesses():
    started = time.perf_counter()
    x = words.Periodic("ab")
    ok = True
    for start in range(2, 7):
        block = x.letter_at(start) + x.letter_at(start + 1)
        f = words.Factorisation((block, block, block), suffix_start=start)
        outcome = words.standardise(x, f, 100, 10)
        if not isinstance(outcome, words.PeriodicityWitness):
            ok = False
            break
        if not words.check_periodicity_witness(x, outcome.i, outcome.j,
                                               10_000):
            ok = False
            break
    _report("periodicity detection", ok, started, 1.0,
            "suffix starts 2..6, verified to depth 10000")


def test_fibonacci_consecutive_factor_search_exhausts_empty():
    started = time.perf_counter()
    fib = words.Morphic({"a": "ab", "b": "a"}, "a")
    report = search.supermono_search(fib, parse_colouring("theta"), 20, 3,
                                     40, 4096, "all", 1)
    ok = report.exhausted and not report.witnesses
    _report("consecutive factor exhaustion", ok, started, 1800.0,
            f"{report.nodes_explored} nodes, exhausted={report.exhausted}, "
            f"{len(report.witnesses)} witnesses")


def test_weighted_prefix_search_exhausts_and_stages_refine():
    started = time.perf_counter()
    report = search.q5_search(parse_colouring("base-lsnz:3"), "a1free", 3,
                              243, "all")
    ok = report.exhausted and not report.witnesses
    coarse, middle, fine = (
        {tuple(w) for w in search.altsum_search(
            parse_colouring(spec), 8, 3, X_ALTERNATING, "all", 1).witnesses}
        for spec in ("theta:stage1", "theta:stage2", "theta"))
    stages_refine = fine <= middle <= coarse
    _report("weighted prefix exhaustion", ok and stages_refine, started,
            600.0, f"{report.nodes_explored} nodes, zero witnesses, "
            f"stage containment holds")
