"""The supermono benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (see workloads.py) for S seconds, one at a
time, each in a fresh interpreter started from this checkout's ``src``, so
every pass pays the same set-up and no cache outlives it. Every pass is
gated against the workload's pinned outcome. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics, where counts and
self times come from the traced passes and timings that tracing would
inflate come from the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every metric value
is the median over the run's passes. The lines before it give the run's
metadata, and each metric's quartiles and sample count. The workloads are
exhaustive and deterministic, so ``--seed`` is recorded but changes no
input. ``--smoke`` swaps in tiny pinned bounds for the benchmark's tests.
The exit code is 2, with no result line, when a pass cannot be started or
set up, as in a directory without the library's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
TIME_LIMIT_S = 170.0
# setup_s is given in seconds on a CPU where the calibration loop takes this
# long: the measured set-up time scaled by how fast the CPU ran at the time.
REFERENCE_CALIBRATION_S = 0.02

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, nproc  # noqa: E402

END_TO_END = (
    ("wall_cal", "cal"),
    ("work_per_cal", "1/cal"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("bits.common_fragments.calls", "count"),
    ("bits.common_fragments.self_s", "s"),
    ("bits.jumps.calls", "count"),
    ("bits.jumps.self_s", "s"),
    ("bits.intervals.calls", "count"),
    ("bits.intervals.self_s", "s"),
    ("bits.self_s", "s"),
    ("pair_colouring.colour_pair.calls", "count"),
    ("pair_colouring.colour_pair.self_s", "s"),
    ("pair_colouring.colour_pair.distinct_pairs", "count"),
    ("pair_colouring.colour_pair.repeat_ratio", "ratio"),
    ("words.first_occurrence.calls", "count"),
    ("words.first_occurrence.self_s", "s"),
    ("words.first_occurrence.unresolved", "count"),
    ("words.first_occurrence.not_a_factor", "count"),
    ("words.prefix.letters_copied", "count"),
    ("factor_colouring.phi.calls", "count"),
    ("factor_colouring.phi.self_s", "s"),
    ("factor_colouring.phi.unknown", "count"),
    ("search.word_colour.hit_ratio", "ratio"),
    ("search.self_s", "s"),
    ("search.constraints.self_s", "s"),
    ("search.nodes", "count"),
    ("search.nodes_per_s", "1/s"),
    ("search.constraints_checked", "count"),
    ("search.colour_evaluations", "count"),
    ("search.unknown_aborts", "count"),
    ("search.cpu_per_wall", "ratio"),
    ("verify.claim4.wall_s", "s"),
    ("verify.claim4.checked", "count"),
    ("verify.claim6.wall_s", "s"),
    ("verify.claim6.checked", "count"),
    ("verify.self_s", "s"),
    ("report.render_s", "s"),
    ("report.bytes", "bytes"),
    ("pass.wall_s", "s"),
    ("pass.setup_s", "s"),
    ("pass.calibration_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """A pass could not be run at all; the benchmark gives no result."""


def run_pass(name: str, traced: bool, smoke: bool, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its measurements,
    with ``pass.setup_s`` measured from just before the process starts."""
    command = [sys.executable, str(WORKER), name, str(int(traced)),
               str(int(smoke))]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass of {name} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"the {name} pass exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["layer"]["pass.setup_s"] = result["ready"] - spawned
    return result


def run_passes(name: str, trace: bool, smoke: bool, seconds: int) -> list:
    """Passes until ``seconds`` have gone by, at least one of each kind.
    With tracing, untraced and traced passes alternate."""
    begin = time.monotonic()
    deadline = begin + TIME_LIMIT_S
    kinds = (False, True) if trace else (False,)
    samples = []
    while not samples or time.monotonic() - begin < seconds:
        for traced in kinds:
            samples.append(run_pass(name, traced, smoke, deadline))
    return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(samples: list, work: int) -> dict[str, list[float]]:
    layers = [s["layer"] for s in samples]
    walls = [x["pass.wall_s"] / x["pass.calibration_s"] for x in layers]
    return {
        "wall_cal": walls,
        "work_per_cal": [work / wall for wall in walls],
        "setup_s": [x["pass.setup_s"] * REFERENCE_CALIBRATION_S
                    / x["pass.calibration_s"] for x in layers],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }


def per_layer(untraced: list, traced: list) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        if name in traced[0]["trace"]:
            out[name] = [s["trace"][name] for s in traced]
        else:
            out[name] = [s["layer"].get(name, 0) for s in untraced]
    overhead = (statistics.median(s["trace"]["trace.wall_s"] for s in traced)
                / statistics.median(s["layer"]["pass.wall_s"] for s in untraced))
    out["trace.overhead_ratio"] = [overhead]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pinned bounds, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "supermono" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        samples = run_passes(args.workload, bool(args.trace), args.smoke,
                             args.seconds)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2

    untraced = [s for s in samples if s["trace"] is None]
    traced = [s for s in samples if s["trace"] is not None]
    failed = sum(1 for s in samples if s["problems"])
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "python": platform.python_version(), "nproc": nproc(),
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "passes": len(samples), "failed_ratio": failed / len(samples),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for sample in samples:
        for problem in sample["problems"]:
            print(f"FAILED pass: {problem}")
    absent = sorted({name for s in traced for name in s["absent"]})
    if absent:
        print("absent from the library, so traced as zero: " + ", ".join(absent))

    if args.trace:
        series, units = per_layer(untraced, traced), dict(PER_LAYER)
    else:
        work = WORKLOADS[args.workload][args.smoke].work
        series, units = end_to_end(untraced, work), dict(END_TO_END)
    metrics = {}
    for name, values in series.items():
        q1, median, q3 = quartiles(values)
        print(f"{name:44s} {median:14.6g} {units[name]:6s} "
              f"q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
        metrics[name] = {"value": median, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
