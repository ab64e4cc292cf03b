"""The analyzer's rule catalogue: ids, summaries, and long explanations.

One table drives everything: the CLI's ``--list-rules`` and
``--explain`` output, SARIF rule metadata, and the rule-index table in
``docs/STATIC_ANALYSIS.md`` (whose completeness rule ``C5`` checks
against this module, so the docs cannot silently drift from the code).

Families
--------
``P*``
    Purity: raw nondeterminism sources.  Wall clocks and entropy are
    findings in every scanned file outside their sanctuary module (with
    the call chain when the sim-pure boundary reaches them); environment
    reads and global writes only inside the boundary; set iteration
    everywhere; module-level mutable state in the sim packages.
``D*``
    Discrete-event correctness: engine processes must be generators,
    and float timestamps are never compared with ``==``/``!=``.
``C*``
    Contract drift: structures that must stay in sync — cache-key
    fields, the fault catalog, the sweep event schema, the docs tables.
``F*``
    Fork safety: objects shipped into worker processes must be
    picklable by construction and must not smuggle live state.
``W*``
    Waiver hygiene: suppressions must stay justified and alive.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

__all__ = [
    "MODULE_STATE_PACKAGES",
    "PURITY_ROOTS",
    "SANCTUARIES",
    "RULES",
    "explain",
    "normalize_select",
]

#: Rule id -> one-line summary (``--list-rules``, SARIF shortDescription).
RULES: Dict[str, str] = {
    "P1": "wall-clock read outside repro.obs.probes",
    "P2": "unseeded entropy source outside repro.simcore.rng",
    "P3": "environment read reachable from the sim-pure boundary",
    "P4": "module global written from sim-pure code",
    "P5": "iteration over a set, or unsorted json.dumps feeding a content hash",
    "P6": "module-level mutable state in pipeline/regulators/core",
    "D1": "non-generator registered as an engine process",
    "D2": "==/!= comparison of float simulation timestamps",
    "C1": "CellSpec field missing from the content-address payload",
    "C2": "FaultSpec subclass not registered in the FAULT_TYPES catalog",
    "C3": "cataloged fault kind never exercised by a chaos fault class",
    "C4": "sweep event kind drifted from the schema validator",
    "C5": "documentation table out of sync with the code registry",
    "F1": "callable submitted to a worker pool is not picklable by construction",
    "F2": "worker submission smuggles an open handle, lock, or RNG state",
    "W1": "stale or unjustified analyzer waiver",
}

#: Long-form explanations (``--explain``), one paragraph per rule.
_EXPLANATIONS: Dict[str, str] = {
    "P1": (
        "Every run must be a pure function of (config, seed); a wall-clock\n"
        "read (time.time/monotonic/perf_counter, datetime.now, ...) makes\n"
        "two identical runs diverge. Any call or reference to a raw clock\n"
        "outside repro.obs.probes is a finding. When the code is reachable\n"
        "from the engine's event loop or execute_cell, the finding carries\n"
        "the call chain, so a clock buried three calls deep shows how it\n"
        "is reached. The sanctioned escape hatch is repro.obs.probes\n"
        "(host_wallclock/host_epoch): injectable, observational clocks\n"
        "that never feed back into scheduling."
    ),
    "P2": (
        "Unseeded entropy (module-level random, numpy.random, os.urandom,\n"
        "uuid.uuid1/uuid4, secrets) breaks replayability. All randomness\n"
        "must flow through the seeded RngRegistry streams in\n"
        "repro.simcore.rng, which derive every draw from the experiment\n"
        "seed; any use outside that module is a finding, with the call\n"
        "chain when the sim-pure boundary reaches it."
    ),
    "P3": (
        "os.environ / os.getenv reads reachable from the sim-pure boundary\n"
        "tie results to ambient machine state that the content address\n"
        "cannot see: two hosts produce different outputs for the same\n"
        "run_id, silently corrupting the cache and the ledger. Plumb the\n"
        "value through ExperimentConfig (hashed) or waive the line with a\n"
        "rationale if it is genuinely out-of-band (test hooks)."
    ),
    "P4": (
        "Writing a module-level global from sim-reachable code (a `global`\n"
        "statement with assignment) shares state between runs in one\n"
        "process: run N's result depends on whether run N-1 happened.\n"
        "Keep all mutable state on per-run objects."
    ),
    "P5": (
        "Set order is an accident of insertion history and hash seeding:\n"
        "an event scheduled from inside a loop over a set (or a union,\n"
        "intersection or difference of sets) makes the calendar order\n"
        "depend on it, so every such loop or comprehension is a finding;\n"
        "iterate sorted(...) instead. A function that computes a content\n"
        "hash (hashlib, or the ledger's config_fingerprint) must also not\n"
        "fold in json.dumps(...) without sort_keys=True, or the 'same'\n"
        "payload can produce different digests — cache misses at best,\n"
        "cross-experiment collisions at worst."
    ),
    "P6": (
        "A mutable container bound at module level in repro.pipeline,\n"
        "repro.regulators or repro.core (a list/dict/set literal or\n"
        "constructor) is state shared by every run in one process, so run\n"
        "N can see what run N-1 left behind. Use tuples/frozensets for\n"
        "constants and per-run objects for state. __all__ and other dunder\n"
        "names are exempt."
    ),
    "D1": (
        "env.process(f(...)) must be handed a generator: a plain function\n"
        "returns before the engine can resume it, so the process is a\n"
        "silent no-op (a TypeError at runtime at best). The callee is\n"
        "resolved over the whole-program graph (self methods, base\n"
        "classes, imported functions) and checked for a yield."
    ),
    "D2": (
        "Two code paths computing 'the same' simulation time can differ in\n"
        "the last ulp, so ==/!= on a float timestamp (names like now,\n"
        "t_*, *_ms, *_time, *_at, *timestamp*) is a latent flake. Use\n"
        "math.isclose or an explicit epsilon. Comparisons with None are\n"
        "identity checks and are exempt."
    ),
    "C1": (
        "CellSpec.config_payload() is the cache key: the run_id hashes it.\n"
        "Every CellSpec field must appear in the payload (or be explicitly\n"
        "marked `# analyzer: hash-exempt -- <why>` for presentation-only\n"
        "fields, or be the seed, which is hashed alongside). PR 4's\n"
        "changelog records exactly this bug: the old memoizer key dropped\n"
        "the simulation horizon, so two different experiments collided in\n"
        "the cache. This rule makes that class of drift a lint failure."
    ),
    "C2": (
        "Every concrete FaultSpec subclass must declare a unique `kind`\n"
        "ClassVar and be registered in FAULT_TYPES. An unregistered spec\n"
        "serializes into a payload that fault_from_dict cannot rebuild, so\n"
        "a faulted cell's content address stops round-tripping through the\n"
        "ledger."
    ),
    "C3": (
        "Every kind in FAULT_TYPES should be constructed by at least one\n"
        "builder in repro.faults.catalog: an un-exercised fault type has no\n"
        "chaos-sweep coverage and no recovery-metric story, so regressions\n"
        "in it ship silently."
    ),
    "C4": (
        "The sweep event vocabulary lives in repro.obs.sweep\n"
        "(_REQUIRED_BY_KIND). Emitting a kind the schema does not know, or\n"
        "keeping a schema kind nothing emits, means validate_events_file\n"
        "and the dashboards disagree with the executors about what a sweep\n"
        "log contains. Emit sites are resolved statically, including\n"
        "**-expanded kwargs from dict-literal helpers, and checked against\n"
        "each kind's required fields."
    ),
    "C5": (
        "Tables that mirror a code registry (the rule index in\n"
        "docs/STATIC_ANALYSIS.md, the event-kind table in\n"
        "docs/OBSERVABILITY.md) must mention every registered id. The\n"
        "reproducibility literature's dominant failure mode is silent\n"
        "doc/model drift; this rule makes the docs part of the build."
    ),
    "F1": (
        "Callables handed to ProcessPoolExecutor.submit/map or\n"
        "multiprocessing.Process(target=...) must be module-level functions\n"
        "(or functools.partial over one): lambdas, nested functions, and\n"
        "bound methods of local objects either fail to pickle outright or\n"
        "drag their enclosing state into the worker."
    ),
    "F2": (
        "Arguments shipped to a worker must not smuggle live state: open\n"
        "file handles, threading locks/conditions/events, or random.Random\n"
        "instances. Handles and locks do not survive the pickle boundary;\n"
        "RNG state smuggled around the seeded registry makes the worker's\n"
        "draws depend on parent-process history."
    ),
    "W1": (
        "A waiver (`# analyzer: allow=P1 -- rationale`, or the header-only\n"
        "`# analyzer: allow-file=D2 -- rationale`) must carry a rationale\n"
        "and must still match a live finding on its line (or in its file).\n"
        "A stale waiver is worse than none: it documents a hazard that no\n"
        "longer exists and will silently swallow the next, different\n"
        "finding. A file waiver below the first def/class suppresses\n"
        "nothing. Delete waivers when the code they excuse goes away."
    ),
}

#: The declared sim-pure boundary: everything statically reachable from
#: these functions must be free of raw nondeterminism sources.
#: ``module:*`` means every function and method in the module.
PURITY_ROOTS = (
    "repro.simcore.engine:*",
    "repro.experiments.executor:execute_cell",
)

#: Taint kind -> the one module where that raw source is sanctioned:
#: the injectable-clock home (its wrappers are observational, so calls
#: *to* them are fine anywhere) and the seeded-randomness home.
SANCTUARIES = {
    "clock": frozenset({"repro.obs.probes"}),
    "entropy": frozenset({"repro.simcore.rng"}),
}

#: Packages whose modules may not bind mutable state at module level (P6).
MODULE_STATE_PACKAGES = ("repro.pipeline", "repro.regulators", "repro.core")


def explain(rule: str) -> Optional[str]:
    """Long-form explanation for ``rule`` (``--explain``), or ``None``."""
    rule = rule.strip().upper()
    if rule not in RULES:
        return None
    return f"{rule}: {RULES[rule]}\n\n{_EXPLANATIONS[rule]}"


def normalize_select(select: Optional[Iterable[str]]) -> Set[str]:
    """Validate a ``--select`` rule subset; default is every rule."""
    if select is None:
        return set(RULES)
    chosen = {s.strip().upper() for s in select if s.strip()}
    unknown = chosen - set(RULES)
    if unknown:
        raise ValueError(f"unknown analyzer rule(s): {', '.join(sorted(unknown))}")
    return chosen
