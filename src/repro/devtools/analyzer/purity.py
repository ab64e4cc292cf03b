"""Purity: raw nondeterminism sources, scoped by how they can leak.

Two scopes apply:

* **Everywhere** (outside the sanctuary modules): wall-clock reads
  (``P1``) and entropy draws (``P2``) in any scanned file, iteration over
  a set (``P5``), and module-level mutable state in the sim packages
  (``P6``).  These hazards are local: no call path is needed to see
  them, and a helper that is not reachable today can be tomorrow.  A
  ``P1``/``P2`` finding in code that *is* reachable from a declared
  sim-pure root (:data:`~repro.devtools.analyzer.rules.PURITY_ROOTS`)
  carries the call chain as evidence.
* **Reachable only**: environment reads (``P3``) and global writes
  (``P4``) are findings when the whole-program call graph has a path
  from a sim-pure root to them; tooling outside the boundary may do
  both freely.

Sanctioned sources live in the sanctuary modules (the injectable-clock
home ``repro.obs.probes``, the seeded-RNG home ``repro.simcore.rng``):
raw reads there are by design, and calls into their wrappers are
likewise sanctioned, because the wrappers are injectable and
observational.

``P5``'s other half (unsorted ``json.dumps``) matters only where a
content hash is computed, so it fires in any function that both
computes a digest and dumps without ``sort_keys``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.devtools.analyzer.facts import MODULE_BODY
from repro.devtools.analyzer.findings import Finding
from repro.devtools.analyzer.graph import ProgramGraph
from repro.devtools.analyzer.rules import (
    MODULE_STATE_PACKAGES,
    PURITY_ROOTS,
    SANCTUARIES,
)

__all__ = ["purity_findings"]

#: Taint kind -> (rule, human noun).
_TAINT_RULES: Dict[str, Tuple[str, str]] = {
    "clock": ("P1", "wall-clock read"),
    "entropy": ("P2", "entropy source"),
    "env": ("P3", "environment read"),
    "global_write": ("P4", "module-global write"),
}

#: Taint kinds reported wherever they occur, not only when reachable.
_EVERYWHERE = ("clock", "entropy")

#: Call names (leaf) that mark a function as computing a content hash,
#: in addition to direct hashlib/hexdigest use recorded at extraction.
_FINGERPRINT_HELPERS = ("config_fingerprint", "run_id_for", "metrics_digest")


def _short_chain(chain: Tuple[str, ...], limit: int = 6) -> Tuple[str, ...]:
    if len(chain) <= limit:
        return chain
    return chain[:2] + ("...",) + chain[-(limit - 3):]


def _in_packages(module: str, packages: Tuple[str, ...]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


def purity_findings(
    graph: ProgramGraph, roots: Optional[Tuple[str, ...]] = None
) -> List[Finding]:
    """P1/P2/P5/P6 everywhere, P3/P4 over the reachable closure."""
    roots = roots if roots is not None else PURITY_ROOTS
    reachable, parents = graph.reachable_from(list(roots))
    findings: List[Finding] = []

    for fid, (mod, fn) in graph.functions.items():
        in_boundary = fid in reachable
        where = fn.qualname if fn.qualname != MODULE_BODY else "module body"
        hash_context = any(t.kind == "hash_digest" for t in fn.taints) or any(
            call.rsplit(".", 1)[-1] in _FINGERPRINT_HELPERS for call in fn.calls
        )
        for taint in fn.taints:
            rule_noun = _TAINT_RULES.get(taint.kind)
            if rule_noun is not None:
                if mod.module in SANCTUARIES.get(taint.kind, ()):
                    continue
                if not in_boundary and taint.kind not in _EVERYWHERE:
                    continue
                rule, noun = rule_noun
                chain = _short_chain(graph.chain(parents, fid)) if in_boundary else ()
                scope = (
                    "is reachable from the sim-pure boundary"
                    if in_boundary
                    else "is outside its sanctuary module"
                )
                message = (
                    f"{noun} {taint.detail} in {where}() {scope}; a run must "
                    f"be a pure function of (config, seed)"
                )
                findings.append(
                    Finding(
                        rule=rule,
                        path=mod.path,
                        line=taint.line,
                        col=taint.col,
                        message=message,
                        chain=chain,
                        detail=f"{taint.kind}:{taint.detail}",
                    )
                )
            elif taint.kind == "set_iter" or (
                taint.kind == "dumps_unsorted" and hash_context
            ):
                message = (
                    f"{taint.detail} in hash-computing {where}(): dict/set order "
                    f"is unstable, so the digest is not a function of the payload"
                    if hash_context
                    else f"{taint.detail} in {where}(): set order depends on hash "
                    f"seeding and insertion history; iterate sorted(...) instead"
                )
                findings.append(
                    Finding(
                        rule="P5",
                        path=mod.path,
                        line=taint.line,
                        col=taint.col,
                        message=message,
                        detail=f"{taint.kind}",
                    )
                )
            elif taint.kind == "mutable_global" and _in_packages(
                mod.module, MODULE_STATE_PACKAGES
            ):
                findings.append(
                    Finding(
                        rule="P6",
                        path=mod.path,
                        line=taint.line,
                        col=taint.col,
                        message=(
                            f"module-level mutable state ({taint.detail}): state "
                            f"shared across runs breaks run independence"
                        ),
                        detail=f"state:{taint.detail}",
                    )
                )
    return findings
