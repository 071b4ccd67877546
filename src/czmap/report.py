"""Structured run reports: line-delimited records, a flat table, a summary.

Reports are deterministic for fixed inputs and seed; wall-clock timing
lives in the single key ``timing_seconds`` which consumers strip before
byte comparisons.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

TABLE_COLUMNS = ("scenario", "mode", "p", "resolution", "lhs_hess",
                 "t_laplacian", "t_du", "t_du_2p_sq", "t_dist", "ratio",
                 "passed")


@dataclass
class InequalityReport:
    """One verified inequality: terms, ratio, checks, grid metadata."""

    scenario: str
    mode: str
    p: float
    resolution: str
    terms: dict
    ratio: float
    checks: dict = field(default_factory=dict)
    certificates: list = field(default_factory=list)
    cover_stats: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    caveats: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    error: str | None = None
    timing_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.error is None and all(
            bool(v) for k, v in self.checks.items() if isinstance(v, bool))

    def as_record(self) -> dict:
        record = {
            "scenario": self.scenario, "mode": self.mode, "p": self.p,
            "resolution": self.resolution, "terms": self.terms,
            "ratio": self.ratio, "checks": self.checks,
            "certificates": self.certificates, "cover_stats": self.cover_stats,
            "warnings": self.warnings, "caveats": self.caveats,
            "error": self.error, "passed": self.passed,
            "timing_seconds": self.timing_seconds,
        }
        record.update(self.extra)
        return record

    def table_row(self) -> dict:
        row = {c: "" for c in TABLE_COLUMNS}
        row.update({"scenario": self.scenario, "mode": self.mode,
                    "p": self.p, "resolution": self.resolution,
                    "ratio": self.ratio, "passed": self.passed})
        for key in ("lhs_hess", "t_laplacian", "t_du", "t_du_2p_sq", "t_dist"):
            if key in self.terms:
                row[key] = self.terms[key]
        return row


def _spell_nonfinite(value):
    """``value`` as plain Python data, numpy scalars and arrays included,
    with every non-finite float replaced by 'inf', '-inf' or 'nan'."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _spell_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_nonfinite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _encode(value):
    """JSON with non-finite floats spelled as the strings 'inf', '-inf'
    and 'nan'; strings are written unchanged."""
    return json.dumps(_spell_nonfinite(value), sort_keys=True, default=str,
                      allow_nan=False)


def write_reports(reports, out_prefix: str) -> tuple:
    """Write ``<prefix>.jsonl`` and ``<prefix>.tsv``; returns the paths."""
    directory = os.path.dirname(out_prefix)
    if directory:
        os.makedirs(directory, exist_ok=True)
    jsonl_path = out_prefix + ".jsonl"
    tsv_path = out_prefix + ".tsv"
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(_encode(rep.as_record()))
            fh.write("\n")
    with open(tsv_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(TABLE_COLUMNS) + "\n")
        for rep in reports:
            row = rep.table_row()
            fh.write("\t".join(_cell(row[c]) for c in TABLE_COLUMNS) + "\n")
    return jsonl_path, tsv_path


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summarize(reports) -> str:
    lines = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        head = (f"[{status}] {rep.scenario} mode={rep.mode} p={rep.p} "
                f"res={rep.resolution} ratio={rep.ratio:.6g}")
        lines.append(head)
        if rep.error:
            lines.append(f"    error: {rep.error}")
        for key, val in sorted(rep.terms.items()):
            if isinstance(val, float):
                lines.append(f"    {key} = {val:.6g}")
        for key, val in sorted(rep.checks.items()):
            if isinstance(val, bool) and not val:
                lines.append(f"    check failed: {key}")
        for w in rep.warnings:
            lines.append(f"    note: {w}")
    return "\n".join(lines)


def read_reports(jsonl_path: str) -> list:
    records = []
    with open(jsonl_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
