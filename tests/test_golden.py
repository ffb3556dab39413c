"""Byte-for-byte command output: the README's examples, and one golden
file per command and format under tests/golden. Each golden file holds
the exact stdout of its command line, so a change to one is a change to
what the tool prints, never a refactor."""

from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from supermono import verify
from supermono.cli import main, search_group
from supermono.verify import SuiteResult

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
README = HERE.parent / "README.md"

_SEARCHES = {
    "altsum": ("altsum", "--colouring", "valmod:2", "--B", "6", "--L", "3",
               "--mode", "all"),
    "supermono": ("supermono", "--word", "periodic:ab", "--colouring",
                  "lenmod:2", "--suffix-bound", "2", "--n", "2",
                  "--len-bound", "5", "--mode", "all"),
    "supermono_theta": ("supermono", "--word", "periodic:ab",
                        "--suffix-bound", "2", "--n", "2", "--len-bound", "6",
                        "--scan-bound", "3", "--mode", "all"),
    "hindman": ("hindman", "--bound", "8", "--mode", "all"),
    "plus": ("plus", "--bound", "12", "--mode", "all"),
    "q5": ("q5",),
}

CASES = {
    "inspect.json": ("inspect", "200", "--format", "json"),
    "inspect_pair.json": ("inspect-pair", "431", "132", "--format", "json"),
    "verify.json": ("verify", "claim6", "--bound", "15", "--format", "json"),
    **{f"search_{name}.{fmt}": ("search", *args, "--format", fmt)
       for name, args in _SEARCHES.items()
       for fmt in ("json", "text", "csv")},
}

HELP = {
    "help.text": (),
    "help_inspect.text": ("inspect",),
    "help_inspect_pair.text": ("inspect-pair",),
    "help_verify.text": ("verify",),
    "help_search.text": ("search",),
    **{f"help_search_{name}.text": ("search", name)
       for name in ("altsum", "supermono", "hindman", "plus", "q5")},
}


def _stdout(*args) -> tuple[int, str]:
    result = CliRunner().invoke(main, list(args))
    return result.exit_code, result.stdout


def _readme_example(command: str) -> str:
    """The output block that follows `$ supermono <command>` in README.md."""
    text = README.read_text()
    prompt = f"$ supermono {command}\n"
    start = text.index(prompt) + len(prompt)
    return text[start:text.index("```", start)]


@pytest.mark.parametrize("command", [
    "inspect 200",
    "inspect-pair 431 132",
    "verify claim6 --bound 15",
])
def test_readme_example_is_verbatim(command):
    assert _stdout(*command.split()) == (0, _readme_example(command))


def test_readme_command_list_is_every_registered_command():
    text = README.read_text()
    start = text.index("```\n", text.index("## Command line\n")) + 4
    listed = []
    for line in text[start:text.index("```", start)].splitlines():
        words = line.split()
        listed.append(" ".join(words[1:3] if words[1] == "search"
                               else words[1:2]))
    registered = [name for name in main.commands if name != "search"]
    registered += [f"search {name}" for name in search_group.commands]
    assert sorted(listed) == sorted(registered)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name):
    assert _stdout(*CASES[name]) == (0, (GOLDEN / name).read_text())


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_matches_golden_file(name):
    # A fixed program name and width keep the text independent of how the
    # tests are launched and of the terminal's COLUMNS.
    result = CliRunner().invoke(main, [*HELP[name], "--help"],
                                prog_name="supermono", terminal_width=80)
    assert (result.exit_code, result.stdout) == (
        0, (GOLDEN / name).read_text())


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failing_verify_matches_golden_file(monkeypatch, fmt):
    failing = SuiteResult(suite="claim1", ok=False, checked=12,
                          detail="difference mismatch", counterexample=(3, 7))
    monkeypatch.setattr(verify, "run_suite", lambda suite, bound: failing)
    expected = (GOLDEN / f"verify_failure.{fmt}").read_text()
    assert _stdout("verify", "claim1", "--format", fmt) == (2, expected)
