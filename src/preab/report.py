"""Stable JSON document wrapping an audit report.

Documents are schema-versioned and emitted canonically (sorted keys,
two-space indent, trailing newline), so identical audits produce
byte-identical files and emit-parse-emit is the identity.  Unknown
schema versions are refused, never guessed at.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import __version__
from .audit import AuditConfig, AuditReport

SCHEMA_VERSION = 1
TOOL_NAME = "preab"


@dataclass(frozen=True)
class ReportDocument:
    """Versioned envelope: tool identity, config echo, report body."""

    config: dict
    report: dict
    schema_version: int = SCHEMA_VERSION
    tool: dict = None

    def __post_init__(self):
        if self.tool is None:
            object.__setattr__(self, "tool", {"name": TOOL_NAME, "version": __version__})

    @classmethod
    def from_audit(cls, report: AuditReport) -> "ReportDocument":
        return cls(config=report.config.to_json(), report=report.to_json())

    def to_json(self) -> dict:
        return {"schema_version": self.schema_version, "tool": dict(self.tool),
                "config": self.config, "report": self.report}

    def emit(self) -> str:
        return emit_report(self.to_json())

    @classmethod
    def parse(cls, text: str) -> "ReportDocument":
        blob = parse_report(text)
        return cls(config=blob["config"], report=blob["report"],
                   schema_version=blob["schema_version"], tool=blob["tool"])


def emit_report(doc: dict) -> str:
    """Canonical serialization; the only way report bytes are produced."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_report(text: str) -> dict:
    """Parse and validate a report document; ValueError on anything off."""
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"report is not valid JSON: {e}") from None
    if not isinstance(blob, dict):
        raise ValueError("report must be a JSON object")
    version = blob.get("schema_version")
    # True and 1.0 equal 1, but emit would write them back as they are
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema version: {version!r} "
                         f"(this tool reads version {SCHEMA_VERSION})")
    for key in ("tool", "config", "report"):
        if key not in blob:
            raise ValueError(f"report is missing key {key!r}")
        if not isinstance(blob[key], dict):
            raise ValueError(f"report key {key!r} must be a JSON object")
    return blob
