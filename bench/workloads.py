"""The benchmark's workloads: the library calls one pass makes, the outcome
pinned for them, and the gate that checks every pass against the pin.

Every workload is an exhaustive, deterministic bounded run, so its outcome
is exact and the pass either reproduces it or has failed. The calls go
through public entry points only; the library is imported inside
``setup`` so that the import counts as set-up time. Why each workload was
chosen, and which layer metric it is expected to move, is recorded in
BENCHMARK.json and in README.md beside this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter

THETA = "theta:full"
FIBONACCI = "morphic:a->ab,b->a|a"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class SearchOutcome:
    report: object

    def metrics(self) -> dict[str, float]:
        counts = self.report.counts
        return {
            "search.nodes": self.report.nodes_explored,
            "search.constraints_checked": counts.get("constraints_checked", 0),
            "search.colour_evaluations": counts.get("colour_evaluations", 0),
            "search.unknown_aborts": counts.get("unknown_aborts", 0),
        }


@dataclass
class SuitesOutcome:
    results: list
    walls: dict[str, float]

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for result in self.results:
            out[f"verify.{result.suite}.wall_s"] = self.walls[result.suite]
            out[f"verify.{result.suite}.checked"] = result.checked
        return out


def _search_problems(report, nodes: int, witnesses: int, referee) -> list[str]:
    """Compare a search report with its pinned outcome and re-check every
    reported witness with the search's independent verifier. The unknown
    abort count is deliberately not pinned: deciding more factors lowers
    it without changing the outcome."""
    problems = []
    if not report.exhausted:
        problems.append("search did not exhaust its bounds")
    if report.nodes_explored != nodes:
        problems.append(f"nodes {report.nodes_explored}, pinned {nodes}")
    if len(report.witnesses) != witnesses:
        problems.append(f"{len(report.witnesses)} witnesses, pinned {witnesses}")
    for witness in report.witnesses:
        if not referee(witness):
            problems.append(f"witness {witness} fails its verifier")
    return problems


@dataclass(frozen=True)
class Altsum:
    """``altsum_search`` over x_alternating sequences under the full pair
    colour, enumerating all of them."""

    bound: int
    max_len: int
    jobs: int
    nodes: int
    witnesses: int = 0

    @property
    def work(self) -> int:
        return self.nodes

    def setup(self):
        from supermono import report, search  # noqa: F401  (set-up cost)
        return search.parse_colouring(THETA)

    def run(self, colouring) -> SearchOutcome:
        from supermono import report, search
        found = search.altsum_search(
            colouring, self.bound, self.max_len, search.X_ALTERNATING, "all",
            jobs=min(self.jobs, nproc()))
        report.to_json(found)  # rendered as the CLI would; traced as report
        return SearchOutcome(found)

    def problems(self, colouring, outcome: SearchOutcome) -> list[str]:
        from supermono import search
        return _search_problems(
            outcome.report, self.nodes, self.witnesses,
            lambda w: search.verify_altsum_witness(colouring, w,
                                                   search.X_ALTERNATING))


@dataclass(frozen=True)
class Supermono:
    """``supermono_search`` for super-monochromatic factorisations of a
    suffix of the Fibonacci word under the induced colouring."""

    suffix_bound: int
    n_factors: int
    len_bound: int
    scan_bound: int
    nodes: int
    witnesses: int = 0

    @property
    def work(self) -> int:
        return self.nodes

    def setup(self):
        from supermono import report, search, words  # noqa: F401
        return words.parse_word_spec(FIBONACCI), search.parse_colouring(THETA)

    def run(self, inputs) -> SearchOutcome:
        from supermono import report, search
        word, colouring = inputs
        found = search.supermono_search(
            word, colouring, self.suffix_bound, self.n_factors,
            self.len_bound, self.scan_bound, "all", jobs=1)
        report.to_json(found)  # rendered as the CLI would; traced as report
        return SearchOutcome(found)

    def problems(self, inputs, outcome: SearchOutcome) -> list[str]:
        from supermono import search
        word, colouring = inputs
        return _search_problems(
            outcome.report, self.nodes, self.witnesses,
            lambda w: search.verify_supermono_witness(word, colouring, w,
                                                      self.scan_bound))


@dataclass(frozen=True)
class Suites:
    """``verify.run_suite`` on each (suite, bound), pinned to pass with an
    exact checked count."""

    suites: tuple[tuple[str, int, int], ...]

    @property
    def work(self) -> int:
        return sum(checked for _, _, checked in self.suites)

    def setup(self):
        from supermono import verify  # noqa: F401  (pulls in numpy)
        return None

    def run(self, _inputs) -> SuitesOutcome:
        from supermono import verify
        results, walls = [], {}
        for suite, bound, _ in self.suites:
            start = perf_counter()
            results.append(verify.run_suite(suite, bound))
            walls[suite] = perf_counter() - start
        return SuitesOutcome(results, walls)

    def problems(self, _inputs, outcome: SuitesOutcome) -> list[str]:
        problems = []
        for (suite, _, checked), result in zip(self.suites, outcome.results):
            if not result.ok:
                problems.append(f"{suite} failed: {result.detail}")
            if result.checked != checked:
                problems.append(f"{suite} checked {result.checked}, pinned {checked}")
        return problems


# name -> (full workload, tiny-bounds smoke variant). Both are pinned.
WORKLOADS = {
    "altsum_theta": (
        Altsum(bound=44, max_len=4, jobs=1, nodes=14_234),
        Altsum(bound=12, max_len=3, jobs=1, nodes=298),
    ),
    "altsum_theta_jobs2": (
        Altsum(bound=44, max_len=4, jobs=2, nodes=14_234),
        Altsum(bound=12, max_len=3, jobs=2, nodes=298),
    ),
    "fib_supermono": (
        Supermono(suffix_bound=24, n_factors=4, len_bound=100,
                  scan_bound=4096, nodes=121_327),
        Supermono(suffix_bound=6, n_factors=3, len_bound=16,
                  scan_bound=256, nodes=816),
    ),
    "verify_claims": (
        Suites((("claim4", 12, 65_537), ("claim6", 16, 1_544))),
        Suites((("claim4", 7, 209), ("claim6", 14, 19))),
    ),
}
