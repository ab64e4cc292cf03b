"""Developer tooling guarding the repository's reproducibility contract.

Two complementary halves:

:mod:`repro.devtools.analyzer`
    Static analysis — one fact-extraction pass per file feeding the
    purity, DES-correctness, contract-drift and fork-safety rules
    (seeded randomness only, no wall clock outside the probes, ordered
    iteration, real generators for engine processes, epsilon time
    comparisons, no module-level mutable state, cache keys and schemas
    in sync with their registries).

:mod:`repro.devtools.determinism`
    Runtime verification — run a small scenario twice under the same
    seed, SHA-256 the full event schedule + frame spans, and fail on
    divergence.

Both are wired into the CLI (``odr-sim analyze``,
``odr-sim verify-determinism``) and CI; see docs/STATIC_ANALYSIS.md.
"""

from repro.devtools.determinism import (
    DeterminismReport,
    RunFingerprint,
    ScheduleRecorder,
    fingerprint_run,
    verify_determinism,
)

__all__ = [
    "DeterminismReport",
    "RunFingerprint",
    "ScheduleRecorder",
    "fingerprint_run",
    "verify_determinism",
]
