"""Command-line surface: digit diagnostics, verification suites and
bounded search experiments with reproducible reports.

Exit codes: 0 completed or passed, 1 usage or parse error (including every
argument a search rejects and a suite bound that leaves nothing to check),
2 verification failure, 3 witnesses found where --expect-none was set.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from . import __version__, bits, report, search, verify, words
from .pair_colouring import FULL, colour_pair

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
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    click.echo(f"wrote {path}")


def _emit_record(fmt: str, data: dict, rows, out: str | None) -> None:
    """Emit data as canonical JSON, or rows as aligned text."""
    _emit(report.canonical_json(data) if fmt == "json"
          else report.aligned(rows), out)


def _checked(call, *args, **kwargs):
    """Return call(*args, **kwargs), turning an argument the library
    rejects into a usage error (exit 1).

    The spec parsers run no engine, so every ValueError they raise is
    rejected input. A search raises search.ArgumentError for each argument
    it rejects; any other ValueError from a running search is an internal
    fault and stays a traceback.
    """
    rejected = (ValueError
                if call in (search.parse_colouring, words.parse_word_spec)
                else search.ArgumentError)
    try:
        return call(*args, **kwargs)
    except rejected as err:
        raise click.UsageError(str(err))


_PLAIN_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(("text", "json")), default="text",
    show_default=True, help="Output format.")
_OUT = click.option(
    "--out", default=None, metavar="PATH",
    help="Write to PATH instead of stdout; relative PATH resolves under "
         f"${OUT_ENV} when set.")


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
    _emit_record(fmt, data, [
        ("n", n),
        ("digits", data["digits"]),
        ("support", " ".join(str(p) for p in data["support"])),
        ("digit_bounds", f"({first}, {last})"),
        ("first_three_digits", data["first_three_digits"]),
        ("intervals", data["intervals"]),
    ], out)


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
    colour = colour_pair(a, b, FULL)
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
        "colour_key": colour.key(),
        "colour_ordinal": colour.ordinal(),
    }
    _emit_record(fmt, data, [
        ("a", a),
        ("b", b),
        ("labels", " ".join(f"{p}:{mark}" for p, mark in labels)),
        ("jumps", data["jumps"]),
        ("difference_intervals", data["difference_intervals"]),
        ("common_fragments", data["common_fragments"]),
        ("carry_region", "none" if carry is None
         else f"({carry.start}, {carry.stop})"),
        ("colour_key", data["colour_key"]),
        ("colour_ordinal", data["colour_ordinal"]),
    ], out)


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
    result = verify.run_suite(suite, bound)
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


def _search_options(fn):
    fn = click.option("--mode", type=click.Choice(("first", "all")),
                      default="first", show_default=True,
                      help="Stop at the first witness or enumerate all.")(fn)
    fn = click.option("--format", "fmt",
                      type=click.Choice(report.FORMATS), default="text",
                      show_default=True, help="Report format.")(fn)
    fn = _OUT(fn)
    fn = click.option("--expect-none", is_flag=True,
                      help="Exit 3 when any witness is found.")(fn)
    return fn


def _finish_search(rep, fmt: str, out: str | None, expect_none: bool) -> None:
    _emit(report.render(rep, fmt), out)
    if expect_none and rep.witnesses:
        sys.exit(3)


@search_group.command("altsum")
@click.option("--colouring", default="theta", show_default=True)
@click.option("--B", "bound", type=int, default=16, show_default=True,
              help="Largest sequence value.")
@click.option("--L", "max_len", type=int, default=4, show_default=True,
              help="Witness length.")
@click.option("--form", type=click.Choice(search.FORMS),
              default=search.X_ALTERNATING, show_default=True)
@click.option("--allow-k1-equal-1", is_flag=True,
              help="Let index families start at the first element.")
@_search_options
def search_altsum(colouring: str, bound: int, max_len: int, form: str,
                  allow_k1_equal_1: bool, mode: str, fmt: str,
                  out: str | None, expect_none: bool) -> None:
    """Sequences whose alternating-sum constraint pairs are one colour."""
    col = _checked(search.parse_colouring, colouring)
    rep = _checked(search.altsum_search, col, bound, max_len, form, mode,
                   allow_k1_equal_1=allow_k1_equal_1)
    _finish_search(rep, fmt, out, expect_none)


@search_group.command("supermono")
@click.option("--word", required=True, help="Reference word spec.")
@click.option("--colouring", default="theta", show_default=True)
@click.option("--n", "n_factors", type=int, default=3, show_default=True,
              help="Number of consecutive factors.")
@click.option("--suffix-bound", type=int, default=6, show_default=True,
              help="Largest suffix start tried.")
@click.option("--len-bound", type=int, default=12, show_default=True,
              help="Largest total factor length.")
@click.option("--scan-bound", type=int, default=search.DEFAULT_SCAN_BOUND,
              show_default=True, help="Occurrence scan horizon.")
@_search_options
def search_supermono(word: str, colouring: str, n_factors: int,
                     suffix_bound: int, len_bound: int, scan_bound: int,
                     mode: str, fmt: str, out: str | None,
                     expect_none: bool) -> None:
    """Consecutive factors of a suffix whose ordered-subset concatenations
    are one colour."""
    x = _checked(words.parse_word_spec, word)
    col = _checked(search.parse_colouring, colouring)
    rep = _checked(search.supermono_search, x, col, suffix_bound, n_factors,
                   len_bound, scan_bound, mode)
    _finish_search(rep, fmt, out, expect_none)


@search_group.command("hindman")
@click.option("--u", default="a", show_default=True,
              help="Base word repeated s times per value s.")
@click.option("--word", default=None,
              help="Reference word spec (needed by the theta colouring).")
@click.option("--colouring", default="lenmod:2", show_default=True)
@click.option("--n", "n_values", type=int, default=3, show_default=True,
              help="Number of sequence values.")
@click.option("--bound", type=int, default=10, show_default=True,
              help="Largest sequence value.")
@click.option("--scan-bound", type=int, default=search.DEFAULT_SCAN_BOUND,
              show_default=True,
              help="Occurrence scan horizon for word colourings.")
@_search_options
def search_hindman(u: str, word: str | None, colouring: str, n_values: int,
                   bound: int, scan_bound: int, mode: str,
                   fmt: str, out: str | None, expect_none: bool) -> None:
    """Value sequences whose nonempty subset sums s all give u^s one
    colour."""
    col = _checked(search.parse_colouring, colouring)
    x = _checked(words.parse_word_spec, word) if word is not None else None
    rep = _checked(search.hindman_search, u, col, n_values, bound, x=x,
                   scan_bound=scan_bound, mode=mode)
    _finish_search(rep, fmt, out, expect_none)


@search_group.command("plus")
@click.option("--colouring", default="valmod:2", show_default=True)
@click.option("--n", "n_values", type=int, default=3, show_default=True,
              help="Number of sequence values.")
@click.option("--bound", type=int, default=16, show_default=True,
              help="Largest sequence value.")
@_search_options
def search_plus(colouring: str, n_values: int, bound: int, mode: str,
                fmt: str, out: str | None, expect_none: bool) -> None:
    """Sequences whose pairs (value, later subset sum) are one colour."""
    col = _checked(search.parse_colouring, colouring)
    rep = _checked(search.plus_pair_search, col, n_values, bound, mode)
    _finish_search(rep, fmt, out, expect_none)


@search_group.command("q5")
@click.option("--colouring", default="base-lsnz:3", show_default=True)
@click.option("--variant", type=click.Choice(search.Q5_VARIANTS),
              default="plain", show_default=True)
@click.option("--L", "max_len", type=int, default=3, show_default=True,
              help="Witness length.")
@click.option("--bound", type=int, default=243, show_default=True,
              help="Largest sequence value.")
@_search_options
def search_q5(colouring: str, variant: str, max_len: int, bound: int,
              mode: str, fmt: str, out: str | None,
              expect_none: bool) -> None:
    """Sequences whose coefficient-weighted prefix sums are one colour."""
    col = _checked(search.parse_colouring, colouring)
    rep = _checked(search.q5_search, col, variant, max_len, bound, mode)
    _finish_search(rep, fmt, out, expect_none)


if __name__ == "__main__":
    main()
