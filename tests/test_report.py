"""Report rendering: schema layout, canonical JSON bytes, CSV witness
tables and the aligned text block."""

from __future__ import annotations

import json

import pytest

from supermono import __version__, report
from supermono.search import SearchReport, altsum_search, parse_colouring, supermono_search
from supermono.words import Periodic


def _sample_report() -> SearchReport:
    return altsum_search(parse_colouring("const"), 4, 2, mode="all")


def test_schema_layout():
    data = report.report_to_dict(_sample_report())
    assert set(data) == {"schema", "tool_version", "params", "witnesses",
                        "exhausted", "nodes", "max_depth", "counts"}
    assert data["schema"] == report.SCHEMA_VERSION == "1"
    assert data["tool_version"] == __version__
    assert data["params"]["kind"] == "altsum"
    assert "jobs" not in data["params"]
    assert data["witnesses"][0] == [1, 2]
    assert data["exhausted"] is True


def test_json_is_canonical():
    text = report.to_json(_sample_report())
    assert text.endswith("}\n")
    parsed = json.loads(text)
    assert parsed == report.report_to_dict(_sample_report())
    assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_csv_layout():
    text = report.to_csv(_sample_report())
    lines = text.splitlines()
    assert lines[0] == "index,v1,v2"
    assert lines[1] == "0,1,2"
    assert len(lines) == 7


def test_csv_pads_ragged_witnesses_and_keeps_strings():
    rep = supermono_search(Periodic("ab"), parse_colouring("lenmod:2"), 3, 2, 8)
    text = report.to_csv(rep)
    assert text.splitlines()[0] == "index,v1,v2,v3"
    assert text.splitlines()[1] == "0,1,ab,ab"
    empty = report.to_csv(altsum_search(parse_colouring("theta"), 3, 3))
    assert empty == "index\n"


def test_text_block_is_aligned_and_complete():
    text = report.to_text(_sample_report())
    lines = text.splitlines()
    assert lines[0].startswith("schema")
    assert any(line.startswith("exhausted") and line.endswith("True")
               for line in lines)
    assert "witnesses (6):" in lines
    assert lines[-1] == "  3 4"
    assert text.endswith("\n")


def test_render_dispatch():
    rep = _sample_report()
    assert report.render(rep, "json") == report.to_json(rep)
    assert report.render(rep, "csv") == report.to_csv(rep)
    assert report.render(rep, "text") == report.to_text(rep)
    with pytest.raises(ValueError):
        report.render(rep, "yaml")
    assert report.FORMATS == ("json", "csv", "text")
