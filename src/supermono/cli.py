"""Command-line surface: digit diagnostics, verification suites and
bounded search experiments with reproducible reports. The search
subcommands are built from one table, _SEARCHES, that gives each its search
function, help text and own options; one body, _run_search, runs them all.

Exit codes: 0 completed or passed, 1 usage or parse error (including every
argument a search rejects, a suite bound that checks nothing or is above
its cap, and an --out path that cannot be written), 2 verification
failure, 3 witnesses found where --expect-none was set.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

import click

from . import __version__, bits, report, search, verify, words
from .pair_colouring import FULL, PairColour, colour_pair

click.UsageError.exit_code = 1

OUT_ENV = "SUPERMONO_OUT"


def _emit(text: str, out: str | None) -> None:
    """Print to stdout, or write to out (relative paths resolve under the
    SUPERMONO_OUT directory when that variable is set)."""
    if out is None:
        click.echo(text, nl=False)
        return
    path = Path(out)
    if not path.is_absolute():
        base = os.environ.get(OUT_ENV)
        if base:
            path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as err:
        raise click.FileError(str(path), hint=str(err))
    click.echo(f"wrote {path}")


def _emit_record(fmt: str, data: dict, rows, out: str | None) -> None:
    """Emit data as canonical JSON, or rows as aligned text."""
    _emit(report.canonical_json(data) if fmt == "json"
          else report.aligned(rows), out)


def _rows(data: dict, **text) -> list:
    """One text row per field of data, in order: the field's text from
    text when given there, else its value."""
    return [(key, text.get(key, value)) for key, value in data.items()]


_PLAIN_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(("text", "json")), default="text",
    show_default=True, help="Output format.")
_OUT_ATTRS = dict(
    default=None, metavar="PATH",
    help="Write to PATH instead of stdout; relative PATH resolves under "
         f"${OUT_ENV} when set.")
_OUT = click.option("--out", **_OUT_ATTRS)


@click.group()
@click.version_option(version=__version__, prog_name="supermono")
def main() -> None:
    """Digit diagnostics, verification suites and bounded searches for
    monochromatic configurations."""


@main.command()
@click.argument("n", type=int)
@_PLAIN_FORMAT
@_OUT
def inspect(n: int, fmt: str, out: str | None) -> None:
    """Digit diagnostics of one natural number."""
    if n < 1:
        raise click.UsageError(f"n must be a natural >= 1, got {n}")
    first, last = bits.digit_bounds(n)
    data = {
        "n": n,
        "digits": bits.digit_string(n, 0, last),
        "support": bits.support(n),
        "digit_bounds": [first, last],
        "first_three_digits": bits.first_three_digits(n),
        "intervals": bits.intervals(n),
    }
    _emit_record(fmt, data, _rows(
        data, support=" ".join(str(p) for p in data["support"]),
        digit_bounds=f"({first}, {last})"), out)


@main.command("inspect-pair")
@click.argument("a", type=int)
@click.argument("b", type=int)
@_PLAIN_FORMAT
@_OUT
def inspect_pair(a: int, b: int, fmt: str, out: str | None) -> None:
    """Diagnostics of a pair: labels, jumps, intervals of the difference,
    common fragments, carry region and the full pair colour."""
    if a < 1 or b < 1:
        raise click.UsageError(f"pair members must be naturals >= 1, got {a}, {b}")
    if a == b:
        raise click.UsageError("pair members must be distinct")
    a, b = min(a, b), max(a, b)
    code = colour_pair(a, b, FULL)
    carry = bits.carry_region(a, b)
    labels = bits.label_positions(a, b)
    data = {
        "a": a,
        "b": b,
        "labels": [[p, mark] for p, mark in labels],
        "jumps": bits.jumps(a, b),
        "difference_intervals": bits.intervals(b - a),
        "common_fragments": bits.common_fragment_count(a, b),
        "carry_region": None if carry is None else [carry.start, carry.stop],
        "colour_key": PairColour.decode(code, FULL).key(),
        "colour_ordinal": code,
    }
    _emit_record(fmt, data, _rows(
        data, labels=" ".join(f"{p}:{mark}" for p, mark in labels),
        carry_region="none" if carry is None
        else f"({carry.start}, {carry.stop})"), out)


@main.command("verify")
@click.argument("suite", type=click.Choice(verify.SUITES))
@click.option("--bound", type=int, default=None,
              help="Suite size knob: exhaustive pair bound (oracles; its "
                   "random and constructed phases run bound/1024 of their "
                   "100,000 and 20,000 pairs), value bound (claim1), "
                   "position count (claim4, claim6) or trial count "
                   "(lastdigit, fragments, stage3).")
@_PLAIN_FORMAT
@_OUT
def verify_cmd(suite: str, bound: int | None, fmt: str,
               out: str | None) -> None:
    """Run one verification suite; exit 2 with the counterexample on
    failure. A pass that checked no instance is a usage error, since the
    bound was too small for the suite to take on any."""
    if bound is not None and bound < 1:
        raise click.UsageError(f"bound must be positive, got {bound}")
    try:
        result = verify.run_suite(suite, bound)
    except verify.BoundError as err:
        raise click.UsageError(str(err))
    if result.ok and result.checked == 0:
        raise click.UsageError(
            f"suite {suite} checks no instance at bound {bound}")
    data = {
        "suite": result.suite,
        "ok": result.ok,
        "checked": result.checked,
        "detail": result.detail,
        "counterexample": None if result.counterexample is None
        else list(result.counterexample),
    }
    rows = [
        ("suite", result.suite),
        ("result", "pass" if result.ok else "FAIL"),
        ("checked", result.checked),
        ("detail", result.detail),
    ]
    if result.counterexample is not None:
        rows.append(("counterexample",
                     " ".join(str(v) for v in result.counterexample)))
    _emit_record(fmt, data, rows, out)
    if not result.ok:
        sys.exit(2)


@main.group("search")
def search_group() -> None:
    """Bounded searches for monochromatic configurations."""


# One entry per search command: the search it runs, its help text and its
# own options. Each option's parameter name is the search's own argument
# name, so the parsed options are the call's keyword arguments.
_SEARCHES = {
    "altsum": (search.altsum_search,
               "Sequences whose alternating-sum constraint pairs are one "
               "colour.", [
        click.Option(["--colouring"], default="theta", show_default=True),
        click.Option(["--B", "bound"], type=int, default=16,
                     show_default=True, help="Largest sequence value."),
        click.Option(["--L", "max_len"], type=int, default=4,
                     show_default=True, help="Witness length."),
        click.Option(["--form"], type=click.Choice(search.FORMS),
                     default=search.X_ALTERNATING, show_default=True),
        click.Option(["--allow-k1-equal-1"], is_flag=True,
                     help="Let index families start at the first element."),
    ]),
    "supermono": (search.supermono_search,
                  "Consecutive factors of a suffix whose ordered-subset "
                  "concatenations are one colour.", [
        click.Option(["--word", "x"], required=True,
                     help="Reference word spec."),
        click.Option(["--colouring"], default="theta", show_default=True),
        click.Option(["--n", "n_factors"], type=int, default=3,
                     show_default=True,
                     help="Number of consecutive factors."),
        click.Option(["--suffix-bound"], type=int, default=6,
                     show_default=True, help="Largest suffix start tried."),
        click.Option(["--len-bound"], type=int, default=12,
                     show_default=True, help="Largest total factor length."),
        click.Option(["--scan-bound"], type=int,
                     default=search.DEFAULT_SCAN_BOUND, show_default=True,
                     help="Occurrence scan horizon."),
    ]),
    "hindman": (search.hindman_search,
                "Value sequences whose nonempty subset sums s all give u^s "
                "one colour.", [
        click.Option(["--u"], default="a", show_default=True,
                     help="Base word repeated s times per value s."),
        click.Option(["--word", "x"], default=None,
                     help="Reference word spec (needed by the theta "
                          "colouring)."),
        click.Option(["--colouring"], default="lenmod:2", show_default=True),
        click.Option(["--n"], type=int, default=3, show_default=True,
                     help="Number of sequence values."),
        click.Option(["--bound"], type=int, default=10, show_default=True,
                     help="Largest sequence value."),
        click.Option(["--scan-bound"], type=int,
                     default=search.DEFAULT_SCAN_BOUND, show_default=True,
                     help="Occurrence scan horizon for word colourings."),
    ]),
    "plus": (search.plus_pair_search,
             "Sequences whose pairs (value, later subset sum) are one "
             "colour.", [
        click.Option(["--colouring"], default="valmod:2", show_default=True),
        click.Option(["--n"], type=int, default=3, show_default=True,
                     help="Number of sequence values."),
        click.Option(["--bound"], type=int, default=16, show_default=True,
                     help="Largest sequence value."),
    ]),
    "q5": (search.q5_search,
           "Sequences whose coefficient-weighted prefix sums are one "
           "colour.", [
        click.Option(["--colouring"], default="base-lsnz:3",
                     show_default=True),
        click.Option(["--variant"], type=click.Choice(search.Q5_VARIANTS),
                     default="plain", show_default=True),
        click.Option(["--L", "max_len"], type=int, default=3,
                     show_default=True, help="Witness length."),
        click.Option(["--bound"], type=int, default=243, show_default=True,
                     help="Largest sequence value."),
    ]),
}

def _run_search(run, fmt: str, out: str | None, expect_none: bool,
                **args) -> None:
    """Parse the word spec, when given, then the colouring spec; run the
    search, emit its report, and exit 3 when --expect-none is set and a
    witness was found.

    The spec parsers run no engine, so every ValueError they raise is
    rejected input. A search raises search.ArgumentError for each argument
    it rejects; both are usage errors (exit 1). Any other ValueError from a
    running search is an internal fault and stays a traceback."""
    try:
        if args.get("x") is not None:
            args["x"] = words.parse_word_spec(args["x"])
        args["colouring"] = search.parse_colouring(args["colouring"])
    except ValueError as err:
        raise click.UsageError(str(err))
    try:
        rep = run(**args)
    except search.ArgumentError as err:
        raise click.UsageError(str(err))
    _emit(report.render(rep, fmt), out)
    if expect_none and rep.witnesses:
        sys.exit(3)


for _name, (_run, _help, _options) in _SEARCHES.items():
    search_group.add_command(click.Command(
        _name, help=_help, callback=functools.partial(_run_search, _run),
        params=[
            *_options,
            click.Option(["--expect-none"], is_flag=True,
                         help="Exit 3 when any witness is found."),
            click.Option(["--out"], **_OUT_ATTRS),
            click.Option(["--format", "fmt"],
                         type=click.Choice(report.FORMATS), default="text",
                         show_default=True, help="Report format."),
            click.Option(["--mode"], type=click.Choice(("first", "all")),
                         default="first", show_default=True,
                         help="Stop at the first witness or enumerate all."),
        ]))
