"""Discrete-event correctness: engine processes and timestamp equality.

``D1``
    ``env.process(f(...))`` sites, recorded at extraction, are resolved
    over the whole-program graph (``self`` methods, base classes,
    imported functions); a callee without a ``yield`` is a finding.
    Unresolvable callees stay silent — the graph over-approximates
    reachability, but it never guesses a callee's body.
``D2``
    ``==``/``!=`` on a name that denotes a float simulation timestamp.
"""

from __future__ import annotations

from typing import List

from repro.devtools.analyzer.findings import Finding
from repro.devtools.analyzer.graph import ProgramGraph

__all__ = ["des_findings"]


def des_findings(graph: ProgramGraph) -> List[Finding]:
    """D1 and D2 over every scanned function."""
    findings: List[Finding] = []
    for mod, fn in graph.functions.values():
        for taint in fn.taints:
            if taint.kind == "time_eq":
                findings.append(
                    Finding(
                        rule="D2",
                        path=mod.path,
                        line=taint.line,
                        col=taint.col,
                        message=(
                            "==/!= on a float sim timestamp: use math.isclose "
                            "or an explicit epsilon"
                        ),
                        detail="time_eq",
                    )
                )
            elif taint.kind == "process":
                callee = graph.resolve_call(mod, fn, taint.detail)
                if callee is None or callee.endswith(".__init__"):
                    continue
                if not graph.functions[callee][1].is_generator:
                    findings.append(
                        Finding(
                            rule="D1",
                            path=mod.path,
                            line=taint.line,
                            col=taint.col,
                            message=(
                                f"{taint.detail}() is registered as an engine "
                                f"process but contains no yield"
                            ),
                            detail=f"process:{taint.detail}",
                        )
                    )
    return findings
