"""Report rendering: canonical JSON, flat CSV witness tables, aligned text.

JSON is the canonical machine format: sorted keys, two-space indent, one
trailing newline, no timestamps, schema version and library version
embedded. Identical report content renders to identical bytes. The CLI
renders every other command's output with canonical_json and aligned too.
"""

from __future__ import annotations

import csv
import io
import json

from . import __version__
from .search import SearchReport

SCHEMA_VERSION = "1"
FORMATS = ("json", "csv", "text")


def report_to_dict(report: SearchReport) -> dict:
    """Flatten a SearchReport into the serialisable schema."""
    return {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "params": dict(report.params),
        "witnesses": [list(w) for w in report.witnesses],
        "exhausted": report.exhausted,
        "nodes": report.nodes_explored,
        "max_depth": report.max_depth_reached,
        "counts": dict(report.counts),
    }


def canonical_json(data) -> str:
    """data in the canonical JSON format."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def aligned(rows) -> str:
    """One 'key  value' line per row, keys padded to the longest."""
    width = max(len(str(key)) for key, _ in rows)
    return "".join(f"{key:<{width}}  {value}\n" for key, value in rows)


def to_json(report: SearchReport) -> str:
    return canonical_json(report_to_dict(report))


def to_csv(report: SearchReport) -> str:
    """Flat witness table: one row per witness, columns index,v1..vk."""
    width = max((len(w) for w in report.witnesses), default=0)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index"] + [f"v{i + 1}" for i in range(width)])
    for i, w in enumerate(report.witnesses):
        writer.writerow([i] + list(w) + [""] * (width - len(w)))
    return buf.getvalue()


def to_text(report: SearchReport) -> str:
    """Aligned key/value block followed by a witness table."""
    data = report_to_dict(report)
    rows = [("schema", data["schema"]), ("tool_version", data["tool_version"])]
    rows += sorted(data["params"].items())
    rows += [("exhausted", data["exhausted"]), ("nodes", data["nodes"]),
             ("max_depth", data["max_depth"])]
    rows += sorted(data["counts"].items())
    return aligned(rows) + f"witnesses ({len(report.witnesses)}):\n" + "".join(
        "  " + " ".join(str(v) for v in w) + "\n" for w in report.witnesses)


def render(report: SearchReport, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report)
    raise ValueError(f"unknown format {fmt!r}")
