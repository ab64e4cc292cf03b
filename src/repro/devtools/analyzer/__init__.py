"""Whole-program determinism analyzer for the ODR reproduction.

The repository's one static determinism checker.  One fact-extraction
pass per file feeds every rule: per-file hazards (clock and entropy
reads outside their sanctuaries, set iteration, module-level state,
non-generator engine processes, float timestamp equality) are reported
wherever they occur; a call graph lets the purity dataflow walk the
closure of the sim-pure boundary and attach call chains; contract
passes cross-check structures that must stay in sync (CellSpec fields
vs the run-id hash, FaultSpec subclasses vs their registry and catalog,
sweep-event kinds vs the schema and docs); and a fork-safety pass vets
everything handed to worker pools.  ``odr-sim analyze`` is the CLI.
"""

from repro.devtools.analyzer.driver import DEFAULT_DOCS, analyze, collect_sources
from repro.devtools.analyzer.findings import AnalyzerReport, Finding
from repro.devtools.analyzer.rules import (
    PURITY_ROOTS,
    RULES,
    explain,
    normalize_select,
)
from repro.devtools.analyzer.sarif import findings_from_sarif, to_sarif

__all__ = [
    "AnalyzerReport",
    "DEFAULT_DOCS",
    "Finding",
    "PURITY_ROOTS",
    "RULES",
    "analyze",
    "collect_sources",
    "explain",
    "findings_from_sarif",
    "normalize_select",
    "to_sarif",
]
