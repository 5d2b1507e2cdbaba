"""Serialization: native text, SPMF, JSON-lines and CSV formats.

Every export is imported on first access (:mod:`repro._lazy`), so
reading the native text format loads no other format.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.io.csv_format import read_csv, write_csv
    from repro.io.jsonl import read_jsonl, write_jsonl
    from repro.io.spmf import read_spmf, write_spmf
    from repro.io.text_format import (
        read_database,
        read_patterns,
        write_database,
        write_patterns,
    )

__all__ = [
    "read_database",
    "write_database",
    "read_patterns",
    "write_patterns",
    "read_spmf",
    "write_spmf",
    "read_jsonl",
    "write_jsonl",
    "read_csv",
    "write_csv",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.io.csv_format": ("read_csv", "write_csv"),
    "repro.io.jsonl": ("read_jsonl", "write_jsonl"),
    "repro.io.spmf": ("read_spmf", "write_spmf"),
    "repro.io.text_format": (
        "read_database", "read_patterns", "write_database", "write_patterns",
    ),
})
