"""Suppression baseline: adopt-now, ratchet-later debt tracking.

The baseline is a checked-in JSON file of finding *fingerprints* — the
``(rule, path, detail-or-message)`` triple, deliberately **without line
numbers** so unrelated edits above a finding do not invalidate it.  At
analyze time every current finding whose fingerprint appears in the
baseline is silenced (counted, not reported); baseline entries that
match nothing (the finding was fixed, or its whole file deleted) are
returned as *stale* so ``--write-baseline`` can prune them — stale
entries are informational, never fatal, so deleting a file does not
break CI.

Stale inline *waivers* are the opposite: a ``# analyzer: allow=P1``
comment (or a header ``# analyzer: allow-file=D2`` comment) that no
longer suppresses anything is a ``W1`` finding (fatal), because dead
waivers are how real regressions sneak back in under an old rationale.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.devtools.analyzer.facts import ModuleFacts
from repro.devtools.analyzer.findings import Finding

__all__ = [
    "apply_baseline",
    "apply_waivers",
    "baseline_entry",
    "load_baseline",
    "waiver_findings",
    "write_baseline_payload",
]

_BASELINE_VERSION = 1


def baseline_entry(finding: Finding) -> Dict[str, str]:
    """The stable fingerprint a finding is baselined under."""
    return {
        "rule": finding.rule,
        "path": finding.path,
        "key": finding.detail or finding.message,
    }


def _fingerprint(entry: Mapping[str, Any]) -> Tuple[str, str, str]:
    return (str(entry["rule"]), str(entry["path"]), str(entry["key"]))


def load_baseline(text: str) -> List[Dict[str, Any]]:
    """Parse a baseline file's text into its entry list.

    Raises ``ValueError`` on malformed payloads — a corrupt baseline
    must fail loudly, not silently suppress nothing.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ValueError("baseline file must be an object with an 'entries' list")
    entries = payload["entries"]
    if not isinstance(entries, list):
        raise ValueError("baseline 'entries' must be a list")
    out: List[Dict[str, Any]] = []
    for entry in entries:
        if (
            not isinstance(entry, dict)
            or not all(k in entry for k in ("rule", "path", "key"))
        ):
            raise ValueError(f"malformed baseline entry: {entry!r}")
        out.append({"rule": entry["rule"], "path": entry["path"], "key": entry["key"]})
    return out


def write_baseline_payload(findings: Sequence[Finding]) -> str:
    """Serialize current findings as a fresh baseline file."""
    entries = sorted(
        (baseline_entry(f) for f in findings),
        key=lambda e: (e["path"], e["rule"], e["key"]),
    )
    # Deduplicate identical fingerprints (two findings may share one).
    unique: List[Dict[str, str]] = []
    seen: Set[Tuple[str, str, str]] = set()
    for entry in entries:
        fp = _fingerprint(entry)
        if fp not in seen:
            seen.add(fp)
            unique.append(entry)
    return json.dumps(
        {"version": _BASELINE_VERSION, "entries": unique}, indent=2, sort_keys=True
    ) + "\n"


def apply_baseline(
    findings: Sequence[Finding], entries: Sequence[Mapping[str, Any]]
) -> Tuple[List[Finding], Dict[str, int], List[Dict[str, Any]]]:
    """Split findings into (kept, baselined-counts, stale-entries)."""
    index: Set[Tuple[str, str, str]] = {_fingerprint(e) for e in entries}
    matched: Set[Tuple[str, str, str]] = set()
    kept: List[Finding] = []
    baselined: Dict[str, int] = {}
    for finding in findings:
        fp = _fingerprint(baseline_entry(finding))
        if fp in index:
            matched.add(fp)
            baselined[finding.rule] = baselined.get(finding.rule, 0) + 1
        else:
            kept.append(finding)
    stale = [
        {"rule": fp[0], "path": fp[1], "key": fp[2]}
        for fp in sorted(index - matched)
    ]
    return kept, baselined, stale


def apply_waivers(
    findings: Sequence[Finding], modules: Iterable[ModuleFacts]
) -> Tuple[List[Finding], Dict[str, int], Dict[Tuple[str, int], Set[str]]]:
    """Silence findings covered by a same-line or file waiver.

    Returns (kept findings, waived counts per rule, used waiver slots)
    where a slot is ``(path, waiver line)`` mapped to the rule ids it
    actually suppressed — the input for stale-waiver detection.  A
    line waiver takes precedence over a file waiver for the same rule.
    """
    line_index: Dict[Tuple[str, int], Set[str]] = {}
    #: path -> rule -> line of the file waiver covering it
    file_index: Dict[str, Dict[str, int]] = {}
    for mod in modules:
        for waiver in mod.waivers:
            if not waiver.rationale:
                continue  # rationale-less waivers suppress nothing (W1 fires)
            if waiver.scope == "line":
                line_index.setdefault((mod.path, waiver.line), set()).update(
                    waiver.rules
                )
            elif waiver.scope == "file":
                for rule in waiver.rules:
                    file_index.setdefault(mod.path, {}).setdefault(rule, waiver.line)
    kept: List[Finding] = []
    waived: Dict[str, int] = {}
    used: Dict[Tuple[str, int], Set[str]] = {}
    for finding in findings:
        slot: Optional[Tuple[str, int]] = (finding.path, finding.line)
        if finding.rule not in line_index.get((finding.path, finding.line), set()):
            file_line = file_index.get(finding.path, {}).get(finding.rule)
            slot = None if file_line is None else (finding.path, file_line)
        if slot is None:
            kept.append(finding)
            continue
        waived[finding.rule] = waived.get(finding.rule, 0) + 1
        used.setdefault(slot, set()).add(finding.rule)
    return kept, waived, used


def _w1(mod: ModuleFacts, line: int, message: str, detail: str) -> Finding:
    return Finding(
        rule="W1", path=mod.path, line=line, col=1, message=message, detail=detail
    )


def waiver_findings(
    modules: Iterable[ModuleFacts],
    used: Mapping[Tuple[str, int], Set[str]],
    known_rules: Optional[Set[str]] = None,
) -> List[Finding]:
    """W1: waivers that are malformed, misplaced, unknown, or suppress nothing."""
    findings: List[Finding] = []
    for mod in modules:
        for waiver in mod.waivers:
            slot = (mod.path, waiver.line)
            form = "allow-file" if waiver.scope != "line" else "allow"
            if not waiver.rationale:
                findings.append(
                    _w1(
                        mod,
                        waiver.line,
                        "waiver has no rationale: write "
                        f"`# analyzer: {form}=<RULE> -- <why this is safe>`",
                        "waiver:no-rationale",
                    )
                )
                continue
            if waiver.scope == "misplaced":
                findings.append(
                    _w1(
                        mod,
                        waiver.line,
                        "file waiver below the first def/class suppresses "
                        "nothing: move it into the module header",
                        "waiver:misplaced-file",
                    )
                )
                continue
            for rule in waiver.rules:
                if known_rules is not None and rule not in known_rules:
                    findings.append(
                        _w1(
                            mod,
                            waiver.line,
                            f"waiver names unknown rule {rule!r}",
                            f"waiver:unknown:{rule}",
                        )
                    )
                elif rule not in used.get(slot, set()):
                    where = "in this file" if waiver.scope == "file" else "on this line"
                    findings.append(
                        _w1(
                            mod,
                            waiver.line,
                            f"stale waiver: {form}={rule} suppresses nothing "
                            f"{where} — remove it so the rule can bite again",
                            f"waiver:stale:{rule}",
                        )
                    )
    return findings
