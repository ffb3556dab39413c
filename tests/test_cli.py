"""Command-line behaviour: output fields, exit codes, file output and
usage errors."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from supermono import __version__, search, verify
from supermono.cli import main
from supermono.verify import SuiteResult


def _invoke(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def _rows(output):
    entries = {}
    for line in output.splitlines():
        key, _, value = line.partition("  ")
        entries[key.rstrip()] = value.lstrip()
    return entries


def test_inspect_text_fields():
    result = _invoke("inspect", "200")
    assert result.exit_code == 0
    rows = _rows(result.output)
    assert rows["n"] == "200"
    assert rows["digits"] == "11001000"
    assert rows["support"] == "3 6 7"
    assert rows["digit_bounds"] == "(3, 7)"
    assert rows["first_three_digits"] == "001"
    assert rows["intervals"] == "2"


def test_inspect_json():
    result = _invoke("inspect", "200", "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "n": 200,
        "digits": "11001000",
        "support": [3, 6, 7],
        "digit_bounds": [3, 7],
        "first_three_digits": "001",
        "intervals": 2,
    }


def test_inspect_rejects_nonpositive():
    result = _invoke("inspect", "0")
    assert result.exit_code == 1
    assert "natural" in result.stderr


def test_inspect_pair_normalises_order():
    forward = _invoke("inspect-pair", "132", "431", "--format", "json")
    backward = _invoke("inspect-pair", "431", "132", "--format", "json")
    assert forward.exit_code == 0
    assert forward.output == backward.output
    data = json.loads(forward.output)
    assert data == {
        "a": 132,
        "b": 431,
        "labels": [[0, "1"], [1, "1"], [2, "2"], [3, "1"], [5, "1"],
                   [7, "2"], [8, "1"]],
        "jumps": 2,
        "difference_intervals": 4,
        "common_fragments": 2,
        "carry_region": [2, 9],
        "colour_key": "201-011-000",
        "colour_ordinal": 616,
    }
    text = _rows(_invoke("inspect-pair", "431", "132").output)
    assert text["labels"] == "0:1 1:1 2:2 3:1 5:1 7:2 8:1"
    assert text["carry_region"] == "(2, 9)"


def test_inspect_pair_rejects_bad_members():
    assert _invoke("inspect-pair", "5", "5").exit_code == 1
    assert _invoke("inspect-pair", "0", "3").exit_code == 1


def test_verify_pass_exits_zero():
    result = _invoke("verify", "claim6", "--bound", "15")
    assert result.exit_code == 0
    rows = _rows(result.output)
    assert rows["result"] == "pass"
    assert rows["checked"] == "200"


def test_verify_failure_exits_two_with_counterexample(monkeypatch):
    failing = SuiteResult(suite="claim1", ok=False, checked=12,
                          detail="difference mismatch", counterexample=(3, 7))
    monkeypatch.setattr(verify, "run_suite", lambda suite, bound: failing)
    result = _invoke("verify", "claim1")
    assert result.exit_code == 2
    rows = _rows(result.output)
    assert rows["result"] == "FAIL"
    assert rows["counterexample"] == "3 7"


def test_verify_usage_errors():
    assert _invoke("verify", "oracles", "--format", "csv").exit_code == 1
    assert _invoke("verify", "bogus").exit_code == 1
    assert _invoke("verify", "claim1", "--bound", "0").exit_code == 1


def test_verify_claim1_bound_above_its_cap_is_a_usage_error():
    over = verify.CLAIM1_MAX_BOUND + 1
    result = _invoke("verify", "claim1", "--bound", str(over))
    assert result.exit_code == 1
    assert result.stdout == ""
    assert (f"claim1 bound must be at most {verify.CLAIM1_MAX_BOUND}, "
            f"got {over}") in result.stderr


@pytest.mark.parametrize("suite, bound", [
    ("claim1", 1), ("claim1", 4), ("claim1", 9), ("claim4", 1),
    ("claim4", 3), ("claim6", 1), ("claim6", 12)])
def test_verify_rejects_a_bound_that_checks_nothing(suite, bound):
    result = _invoke("verify", suite, "--bound", str(bound))
    assert result.exit_code == 1
    assert result.stdout == ""
    assert f"suite {suite} checks no instance at bound {bound}" \
        in result.stderr


@pytest.mark.parametrize("suite, bound, checked", [
    ("claim1", 10, "1"), ("claim4", 4, "1"), ("claim6", 13, "1"),
    ("lastdigit", 1, "2136"), ("fragments", 1, "1"), ("stage3", 1, "2"),
    ("oracles", 1, "116")])
def test_verify_passes_at_the_least_bound_that_checks_something(
        suite, bound, checked):
    result = _invoke("verify", suite, "--bound", str(bound))
    assert result.exit_code == 0
    rows = _rows(result.output)
    assert (rows["result"], rows["checked"]) == ("pass", checked)


def test_verify_failure_that_counted_nothing_still_exits_two(monkeypatch):
    failing = SuiteResult(suite="claim1", ok=False, checked=0,
                          detail="first digit of sum is not f+1",
                          counterexample=(1, 9))
    monkeypatch.setattr(verify, "run_suite", lambda suite, bound: failing)
    result = _invoke("verify", "claim1", "--bound", "10")
    assert result.exit_code == 2
    assert _rows(result.output)["counterexample"] == "1 9"


def test_search_altsum_const_witness():
    result = _invoke("search", "altsum", "--colouring", "const",
                     "--B", "10", "--L", "6")
    assert result.exit_code == 0
    assert "witnesses (1):" in result.output
    assert "1 2 3 4 5 6" in result.output


def test_search_expect_none_exit_codes():
    found = _invoke("search", "q5", "--expect-none")
    assert found.exit_code == 3
    assert "witnesses (1):" in found.output
    clear = _invoke("search", "q5", "--variant", "a1free", "--expect-none")
    assert clear.exit_code == 0
    assert "witnesses (0):" in clear.output


def test_search_supermono_witness_json():
    result = _invoke("search", "supermono", "--word", "periodic:ab",
                     "--colouring", "lenmod:2", "--suffix-bound", "3",
                     "--n", "2", "--len-bound", "8", "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output)["witnesses"] == [[1, "ab", "ab"]]


def test_search_usage_errors():
    bad_word = _invoke("search", "supermono", "--word", "bogus:ab")
    assert bad_word.exit_code == 1
    assert "word kind" in bad_word.stderr
    for spec, message in (("evper:ab", "evper payload needs"),
                          ("morphic:a->ab,b->a,a->b|a", "duplicate rule")):
        malformed = _invoke("search", "supermono", "--word", spec)
        assert malformed.exit_code == 1
        assert message in malformed.stderr
    bad_colouring = _invoke("search", "altsum", "--colouring", "wat:3")
    assert bad_colouring.exit_code == 1
    bad_argument = _invoke("search", "plus", "--colouring", "dbl:9@diff")
    assert bad_argument.exit_code == 1
    assert "dbl takes no argument" in bad_argument.stderr
    empty_argument = _invoke("search", "altsum", "--colouring", "const:")
    assert empty_argument.exit_code == 1
    assert "const takes no argument, got ''" in empty_argument.stderr
    empty_stage = _invoke("search", "altsum", "--colouring", "theta:")
    assert empty_stage.exit_code == 1
    assert "unknown theta stage ''" in empty_stage.stderr
    for spec, message in (("gaps:2,", "gaps cap must be an integer, got ''"),
                          ("lenmod:", "lenmod modulus must be an integer, got ''"),
                          ("fpmod:2.5", "fpmod modulus must be an integer, got '2.5'")):
        bad_integer = _invoke("search", "altsum", "--colouring", spec)
        assert bad_integer.exit_code == 1
        assert message in bad_integer.stderr
        assert "invalid literal" not in bad_integer.stderr


@pytest.mark.parametrize("command", ["supermono", "hindman"])
def test_a_malformed_word_is_reported_before_a_malformed_colouring(command):
    result = _invoke("search", command, "--word", "bogus:ab",
                     "--colouring", "wat:3")
    assert result.exit_code == 1
    assert "unknown word kind 'bogus'" in result.stderr
    assert "colouring family" not in result.stderr


def test_out_writes_file(tmp_path):
    target = tmp_path / "n.txt"
    result = _invoke("inspect", "200", "--out", str(target))
    assert result.exit_code == 0
    assert result.output == f"wrote {target}\n"
    assert target.read_text() == _invoke("inspect", "200").output


def test_out_resolves_relative_paths_under_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SUPERMONO_OUT", str(tmp_path))
    result = _invoke("inspect", "200", "--out", "sub/n.txt")
    assert result.exit_code == 0
    written = tmp_path / "sub" / "n.txt"
    assert written.read_text() == _invoke("inspect", "200").output
    assert str(written) in result.output


@pytest.mark.parametrize("target", ["directory", "parent-is-a-file"])
def test_out_that_cannot_be_written_is_a_usage_error(tmp_path, target):
    if target == "directory":
        path = tmp_path
    else:
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "n.txt"
    result = _invoke("inspect", "5", "--out", str(path))
    assert result.exit_code == 1
    assert result.stdout == ""
    assert f"Could not open file {str(path)!r}" in result.stderr
    assert isinstance(result.exception, SystemExit)


def test_jobs_option_is_a_usage_error():
    result = _invoke("search", "altsum", "--colouring", "const", "--B", "4",
                     "--L", "2", "--jobs", "2")
    assert result.exit_code == 1
    assert "Error: No such option '--jobs'" in result.stderr
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args, message", [
    (("altsum", "--colouring", "lenmod:2"), "lenmod does not colour pairs"),
    (("plus", "--colouring", "lenmod:2"), "lenmod does not colour pairs"),
    (("q5", "--colouring", "theta"), "theta does not colour numbers"),
    (("hindman", "--colouring", "theta"), "needs a reference word"),
    (("supermono", "--word", "periodic:ab", "--colouring", "valmod:2"),
     "valmod does not colour words"),
    (("supermono", "--word", "periodic:ab", "--colouring", "theta:stage1"),
     "uses the full stage"),
    (("hindman", "--n", "1"), "n must be at least 2, got 1"),
    (("plus", "--n", "1"), "n must be at least 2, got 1"),
    (("altsum", "--B", "0"), "B must be at least 1, got 0"),
    (("hindman", "--u", ""), "u must be a nonempty word"),
    (("q5", "--colouring", "valmod:3@diff"),
     "a pair lift applies only when a number family colours pairs"),
    (("supermono", "--word", "periodic:ab", "--scan-bound", "1048577"),
     "scan_bound must be at most 1048576, got 1048577"),
    (("q5", "--variant", "with_gaps", "--L", "20"),
     "L must be at most 13 for variant with_gaps, got 20"),
    (("altsum", "--colouring", "const", "--L", "21"),
     "L must be at most 20, got 21"),
    (("supermono", "--word", "periodic:ab", "--colouring", "const",
      "--n", "21"), "n must be at most 20, got 21"),
    (("hindman", "--colouring", "const", "--n", "21"),
     "n must be at most 20, got 21"),
    (("plus", "--colouring", "const", "--n", "24", "--bound", "1000000000"),
     "n must be at most 20, got 24"),
], ids=["altsum-lenmod", "plus-lenmod", "q5-theta", "hindman-theta-no-word",
        "supermono-valmod", "supermono-theta-stage1", "hindman-n-1",
        "plus-n-1", "altsum-B-0", "hindman-empty-u", "q5-lift",
        "supermono-scan-over-cap", "q5-L-over-cap", "altsum-L-over-cap",
        "supermono-n-over-cap", "hindman-n-over-cap", "plus-n-over-cap"])
def test_colouring_in_the_wrong_role_is_a_usage_error(args, message):
    result = _invoke("search", *args)
    assert result.exit_code == 1
    assert "Error:" in result.stderr
    assert message in result.stderr
    assert isinstance(result.exception, SystemExit)


def test_value_error_inside_a_running_search_is_a_traceback(monkeypatch):
    def fault(col, a, b):
        raise ValueError("internal fault")

    monkeypatch.setattr(search, "colour_pair_value", fault)
    result = _invoke("search", "altsum", "--colouring", "const", "--B", "4",
                     "--L", "2")
    assert result.exit_code == 1
    assert type(result.exception) is ValueError


def test_version_flag():
    result = _invoke("--version")
    assert result.exit_code == 0
    assert result.output == f"supermono, version {__version__}\n"


def test_python_m_supermono_runs_the_cli_from_a_plain_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "supermono", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"supermono, version {__version__}\n"
