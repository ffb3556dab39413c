"""One benchmark pass in a fresh interpreter.

``python3 bench/worker.py WORKLOAD TRACE SMOKE`` (run.py starts it) sets
the workload up, runs its library calls once, traced when TRACE is 1,
gates the outcome against its pin and prints one JSON line. ``ready`` is
CLOCK_MONOTONIC when set-up ended. run.py reads the same system-wide clock
just before it starts this process, so the difference is the set-up time:
interpreter start, imports and building the inputs.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, SearchOutcome  # noqa: E402

# One self-time metric per layer. They share no span, so on a one-thread
# pass they add up to the traced wall less the harness's own glue.
LAYER_SELF = (
    "bits.self_s",
    "pair_colouring.colour_pair.self_s",
    "words.first_occurrence.self_s",
    "factor_colouring.phi.self_s",
    "search.self_s",
    "verify.self_s",
    "report.render_s",
)


def _cpu_s() -> float:
    """Process CPU time of all threads, plus that of reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class _Pair:
    __slots__ = ("low", "high")

    def __init__(self, low: int, high: int):
        self.low = low
        self.high = high


def _mix(a: int, b: int) -> tuple[int, int]:
    return (a ^ b) & (a | b), a + 1


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the kind of work the library
    does: small calls, integer bit loops, tuples, small objects and short
    strings. Taken just before and just after every pass, it gauges how
    fast the CPU runs at that moment. On a shared machine the same pass can
    take twice as long from one second to the next, and the ratio of pass
    to calibration time cancels most of that. The loop uses no library
    code, so no library change can move it."""
    start = perf_counter()
    recent: list[tuple[int, int]] = []
    total = 0
    for i in range(1, 6_001):
        x, y = _mix(i, i * 7)
        n = x | 1
        while n:
            n &= n - 1
            total += 1
        recent.append((x, y))
        if len(recent) > 64:
            recent.clear()
    for i in range(1, 8_001):
        pair = _Pair(i, i + 3)
        text = f"{pair.low % 3}{pair.high % 5}-{bin(pair.low)[-3:]}"
        total += len(text) + (pair.high - pair.low).bit_length()
    return perf_counter() - start


def _trace_metrics(tracer: Tracer, wall: float, layer: dict) -> dict:
    stats = tracer.stats()
    counters = tracer.counters()

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names):
        return sum(stats.get(name, (0, 0.0, 0.0))[2] for name in names)

    out = {}
    for fn in ("common_fragments", "jumps", "intervals"):
        out[f"bits.{fn}.calls"] = calls(f"bits.{fn}")
        out[f"bits.{fn}.self_s"] = self_s(f"bits.{fn}")
    out["bits.self_s"] = self_s("bits.common_fragments", "bits.jumps",
                                "bits.intervals")
    colourings = calls("pair_colouring.colour_pair")
    distinct = tracer.distinct_pairs()
    out["pair_colouring.colour_pair.calls"] = colourings
    out["pair_colouring.colour_pair.self_s"] = self_s("pair_colouring.colour_pair")
    out["pair_colouring.colour_pair.distinct_pairs"] = distinct
    out["pair_colouring.colour_pair.repeat_ratio"] = (
        1 - distinct / colourings if colourings else 0.0)
    out["words.first_occurrence.calls"] = calls("words.first_occurrence")
    out["words.first_occurrence.self_s"] = self_s("words.first_occurrence")
    for outcome in ("unresolved", "not_a_factor"):
        key = f"words.first_occurrence.{outcome}"
        out[key] = counters.get(key, 0)
    out["words.prefix.letters_copied"] = counters.get(
        "words.prefix.letters_copied", 0)
    phi_calls = calls("factor_colouring.phi")
    out["factor_colouring.phi.calls"] = phi_calls
    out["factor_colouring.phi.self_s"] = self_s("factor_colouring.phi")
    out["factor_colouring.phi.unknown"] = counters.get(
        "factor_colouring.phi.unknown", 0)
    evaluations = layer.get("search.colour_evaluations", 0)
    out["search.word_colour.hit_ratio"] = (
        1 - phi_calls / evaluations if evaluations else 0.0)
    out["search.self_s"] = self_s("search.altsum_search",
                                  "search.supermono_search",
                                  "search.constraints")
    out["search.constraints.self_s"] = self_s("search.constraints")
    out["verify.self_s"] = self_s("verify.run_suite")
    out["report.render_s"] = self_s("report.to_json")
    out["report.bytes"] = counters.get("report.bytes", 0)
    out["trace.wall_s"] = wall
    return out


def measure(workload, trace: bool) -> dict:
    """Set the workload up, run one pass and gate it. A pass that raises
    or disagrees with its pin is reported in ``problems``, not raised."""
    inputs = workload.setup()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    outcome, problems = None, []
    calibration = calibrate()
    cpu_before = _cpu_s()
    start = perf_counter()
    try:
        outcome = workload.run(inputs)
    except Exception as exc:  # the pass failed; count it and carry on
        problems.append(f"pass raised {type(exc).__name__}: {exc}")
    finally:
        wall = perf_counter() - start
        cpu = _cpu_s() - cpu_before
        if tracer is not None:
            tracer.uninstall()
    calibration = (calibration + calibrate()) / 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layer = {"pass.wall_s": wall, "pass.calibration_s": calibration}
    if outcome is not None:
        try:
            problems += workload.problems(inputs, outcome)
        except Exception as exc:  # a gate that cannot decide fails the pass
            problems.append(f"gate raised {type(exc).__name__}: {exc}")
        layer.update(outcome.metrics())
        if isinstance(outcome, SearchOutcome):
            layer["search.nodes_per_s"] = layer["search.nodes"] / wall
            layer["search.cpu_per_wall"] = cpu / wall
    return {
        "ready": ready,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "layer": layer,
        "trace": (_trace_metrics(tracer, wall, layer)
                  if tracer is not None else None),
        "absent": tracer.absent if tracer is not None else [],
    }


def main(argv: list[str]) -> int:
    name, trace, smoke = argv
    result = measure(WORKLOADS[name][smoke == "1"], trace == "1")
    import supermono
    if not Path(supermono.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"supermono was imported from {supermono.__file__}, "
                 f"not from {ROOT / 'src'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
