"""The whole-program determinism analyzer, tested in both directions.

Positive direction: today's tree analyzes clean (the analyzer gates CI,
so this test *is* the gate's local twin).  Negative direction: the
contract and purity rules must actually fire — each negative test
analyzes the real tree with a source *overlay* that reintroduces a
historical bug class (dropping a CellSpec hash input, adding an
unregistered FaultSpec, calling ``time.time()`` in engine-reachable
code) and asserts the named finding appears.  The per-file rules are
tested on small overlay snippets, one that must fire and one that must
stay silent.  Suppression machinery (waivers, baseline, SARIF, cache)
is exercised on the same driver.
"""

import json
import textwrap
import time

import pytest

from repro.devtools.analyzer import (
    RULES,
    AnalyzerReport,
    Finding,
    analyze,
    explain,
    findings_from_sarif,
    to_sarif,
)
from repro.devtools.analyzer.baseline import (
    apply_baseline,
    baseline_entry,
    load_baseline,
    write_baseline_payload,
)
from repro.devtools.analyzer.cache import CACHE_VERSION

SRC = ["src/repro"]

PLAN_PATH = "src/repro/experiments/plan.py"
ENGINE_PATH = "src/repro/simcore/engine.py"
EXECUTOR_PATH = "src/repro/experiments/executor.py"


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    """One shared facts cache: overlay tests re-extract only one file."""
    return str(tmp_path_factory.mktemp("analyzer") / "facts-cache.json")


def _analyze(overlay=None, cache_path=None, **kwargs):
    return analyze(SRC, overlay=overlay, cache_path=cache_path, **kwargs)


def _rules(report):
    return {f.rule for f in report.findings}


# -- positive: HEAD is clean ----------------------------------------------


def test_head_tree_analyzes_clean(cache_path):
    report = _analyze(cache_path=cache_path)
    assert report.ok, "\n".join(f.render() for f in report.findings)
    assert report.files_scanned > 100
    # The dogfooded waivers (executor chaos hooks) are alive, not stale.
    assert sum(report.waived.values()) >= 2


def test_tests_tree_analyzes_clean(cache_path):
    report = analyze(["src/repro", "tests"], cache_path=cache_path)
    assert report.ok, "\n".join(f.render() for f in report.findings)


# -- C1: cache-key drift (the PR-4 horizon bug as a lint rule) ------------


def test_deleting_hash_input_field_fires_c1(cache_path):
    source = _read(PLAN_PATH).replace(
        '            "duration_ms": self.duration_ms,\n', ""
    )
    assert '"duration_ms"' not in source.split("def config_payload")[1].split(
        "def "
    )[0]
    report = _analyze(overlay={PLAN_PATH: source}, cache_path=cache_path)
    c1 = [f for f in report.findings if f.rule == "C1"]
    assert len(c1) == 1
    assert c1[0].detail == "field:duration_ms"
    assert c1[0].path == PLAN_PATH
    assert "collide" in c1[0].message


def test_removing_hash_exempt_marker_fires_c1(cache_path):
    source = _read(PLAN_PATH).replace(
        "  # analyzer: hash-exempt -- catalog label; the fault specs "
        "themselves are hashed",
        "",
    )
    report = _analyze(overlay={PLAN_PATH: source}, cache_path=cache_path)
    assert any(
        f.rule == "C1" and f.detail == "field:fault_class" for f in report.findings
    )


# -- C2/C3: fault registry drift ------------------------------------------


def test_unregistered_faultspec_fires_c2(cache_path):
    rogue = (
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "from repro.faults.spec import FaultSpec\n"
        "\n\n"
        "@dataclass(frozen=True)\n"
        "class RogueFault(FaultSpec):\n"
        '    kind: ClassVar[str] = "rogue"\n'
    )
    report = _analyze(
        overlay={"src/repro/faults/rogue.py": rogue}, cache_path=cache_path
    )
    c2 = [f for f in report.findings if f.rule == "C2"]
    assert any(f.detail == "class:RogueFault:unregistered" for f in c2)
    # An unregistered kind is by definition also uncataloged.
    assert any(
        f.rule == "C3" and "rogue" in f.detail for f in report.findings
    ) is False  # C3 only covers *registered* kinds; C2 is the finding here


def test_faultspec_without_kind_fires_c2(cache_path):
    rogue = (
        "from dataclasses import dataclass\n"
        "from repro.faults.spec import FaultSpec\n"
        "\n\n"
        "@dataclass(frozen=True)\n"
        "class KindlessFault(FaultSpec):\n"
        "    pass\n"
    )
    report = _analyze(
        overlay={"src/repro/faults/rogue.py": rogue}, cache_path=cache_path
    )
    assert any(
        f.rule == "C2" and f.detail == "class:KindlessFault:no-kind"
        for f in report.findings
    )


# -- P1: wall clock inside the sim-pure boundary --------------------------


def test_clock_read_in_engine_fires_p1_with_chain(cache_path):
    source = _read(ENGINE_PATH) + (
        "\n\nimport time\n\n\n"
        "def _smuggled_timestamp() -> float:\n"
        "    return time.time()\n"
    )
    report = _analyze(overlay={ENGINE_PATH: source}, cache_path=cache_path)
    p1 = [f for f in report.findings if f.rule == "P1"]
    assert len(p1) == 1
    assert p1[0].path == ENGINE_PATH
    assert "time.time()" in p1[0].message
    assert p1[0].chain  # evidence: the call chain from the root
    assert p1[0].chain[-1].endswith(":_smuggled_timestamp")


def test_clock_read_behind_helper_is_still_found(cache_path):
    # Two calls deep: engine -> helper -> clock.  Per-file linting with
    # an allowlist could never see this; the call graph does.
    source = _read(EXECUTOR_PATH).replace(
        "def _chaos_hooks(spec: CellSpec) -> None:",
        "def _hidden_clock() -> float:\n"
        "    import time\n"
        "    return time.perf_counter()\n"
        "\n\n"
        "def _chaos_hooks(spec: CellSpec) -> None:\n"
        "    _hidden_clock()",
        1,
    )
    report = _analyze(overlay={EXECUTOR_PATH: source}, cache_path=cache_path)
    p1 = [f for f in report.findings if f.rule == "P1"]
    assert len(p1) == 1
    chain = p1[0].chain
    assert any(h.endswith(":execute_cell") for h in chain)
    assert chain[-1].endswith(":_hidden_clock")


def test_clock_read_outside_boundary_is_flagged_without_chain(cache_path):
    overlay = {
        "src/repro/obs/offline_tool.py": (
            "import time\n\n\n"
            "def wall_now() -> float:\n"
            "    return time.time()\n"
        )
    }
    report = _analyze(overlay=overlay, cache_path=cache_path)
    p1 = [f for f in report.findings if f.rule == "P1"]
    assert [f.path for f in p1] == ["src/repro/obs/offline_tool.py"]
    assert p1[0].chain == ()
    assert "outside its sanctuary" in p1[0].message


# -- C4: sweep event vocabulary drift -------------------------------------


def test_emitting_unknown_event_kind_fires_c4(cache_path):
    overlay = {
        "src/repro/obs/rogue_emitter.py": (
            "from repro.obs.sweep import SweepEventBus\n\n\n"
            "def chatter(bus: SweepEventBus) -> None:\n"
            '    bus.emit("mystery_kind", cell="x")\n'
        )
    }
    report = _analyze(overlay=overlay, cache_path=cache_path)
    c4 = [f for f in report.findings if f.rule == "C4"]
    assert any(f.detail == "kind:mystery_kind:unschema'd" for f in c4)


# -- F1/F2: fork safety ---------------------------------------------------


def test_lambda_submitted_to_pool_fires_f1(cache_path):
    overlay = {
        "src/repro/experiments/rogue_pool.py": (
            "from concurrent.futures import ProcessPoolExecutor\n\n\n"
            "def run() -> None:\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        pool.submit(lambda: 1)\n"
        )
    }
    report = _analyze(overlay=overlay, cache_path=cache_path)
    assert any(
        f.rule == "F1" and f.detail == "submit:lambda" for f in report.findings
    )


def test_smuggled_lock_fires_f2(cache_path):
    overlay = {
        "src/repro/experiments/rogue_pool.py": (
            "import threading\n"
            "from concurrent.futures import ProcessPoolExecutor\n\n\n"
            "def work(lock) -> None:\n"
            "    pass\n\n\n"
            "def run() -> None:\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        pool.submit(work, threading.Lock())\n"
        )
    }
    report = _analyze(overlay=overlay, cache_path=cache_path)
    assert any(
        f.rule == "F2" and "threading.Lock" in f.detail for f in report.findings
    )


# -- waivers --------------------------------------------------------------


def test_live_waiver_suppresses_and_counts(cache_path):
    source = _read(ENGINE_PATH) + (
        "\n\nimport time\n\n\n"
        "def _sanctioned_peek() -> float:\n"
        "    return time.time()  # analyzer: allow=P1 -- test fixture, proves waivers work\n"
    )
    report = _analyze(overlay={ENGINE_PATH: source}, cache_path=cache_path)
    assert "P1" not in _rules(report)
    assert report.waived.get("P1", 0) >= 1
    assert "W1" not in _rules(report)


def test_stale_waiver_fails_the_run(cache_path):
    source = _read(ENGINE_PATH) + (
        "\n\nHARMLESS = 1  # analyzer: allow=P1 -- nothing impure here anymore\n"
    )
    report = _analyze(overlay={ENGINE_PATH: source}, cache_path=cache_path)
    w1 = [f for f in report.findings if f.rule == "W1"]
    assert any(f.detail == "waiver:stale:P1" for f in w1)
    assert not report.ok


def test_waiver_without_rationale_fails_the_run(cache_path):
    source = _read(ENGINE_PATH) + (
        "\n\nimport time\n\n\n"
        "def _peek() -> float:\n"
        "    return time.time()  # analyzer: allow=P1\n"
    )
    report = _analyze(overlay={ENGINE_PATH: source}, cache_path=cache_path)
    assert any(
        f.rule == "W1" and f.detail == "waiver:no-rationale" for f in report.findings
    )
    # The rationale-less waiver still suppresses nothing: P1 survives.
    assert "P1" in _rules(report)


def test_waiver_example_in_docstring_is_not_a_waiver():
    report = analyze(
        [],
        overlay={
            "src/repro/example_doc.py": (
                '"""Docs quoting `# analyzer: allow=P1 -- like so`."""\n'
                "VALUE = 1\n"
            )
        },
    )
    assert "W1" not in _rules(report)


# -- baseline -------------------------------------------------------------


def _one_finding_report(cache_path):
    source = _read(PLAN_PATH).replace(
        '            "duration_ms": self.duration_ms,\n', ""
    )
    return _analyze(overlay={PLAN_PATH: source}, cache_path=cache_path)


def test_baseline_adopts_and_silences(cache_path):
    report = _one_finding_report(cache_path)
    baseline = write_baseline_payload(list(report.findings))
    source = _read(PLAN_PATH).replace(
        '            "duration_ms": self.duration_ms,\n', ""
    )
    silenced = _analyze(
        overlay={PLAN_PATH: source},
        cache_path=cache_path,
        baseline_text=baseline,
    )
    assert silenced.ok
    assert silenced.baselined.get("C1") == 1
    assert silenced.stale_baseline == []


def test_baseline_fingerprints_survive_line_renumbering(cache_path):
    report = _one_finding_report(cache_path)
    baseline = write_baseline_payload(list(report.findings))
    # Shift every line in the file down: the finding moves, the
    # fingerprint (no line numbers) still matches.
    source = "# a new leading comment line\n" + _read(PLAN_PATH).replace(
        '            "duration_ms": self.duration_ms,\n', ""
    )
    silenced = _analyze(
        overlay={PLAN_PATH: source},
        cache_path=cache_path,
        baseline_text=baseline,
    )
    assert silenced.ok
    assert silenced.baselined.get("C1") == 1


def test_baseline_entry_for_deleted_file_is_stale_not_fatal(cache_path):
    baseline = json.dumps(
        {
            "version": 1,
            "entries": [
                {
                    "rule": "P1",
                    "path": "src/repro/deleted/gone.py",
                    "key": "clock:time.time()",
                }
            ],
        }
    )
    report = _analyze(cache_path=cache_path, baseline_text=baseline)
    assert report.ok  # stale entries never fail the run
    assert report.stale_baseline == [
        {"rule": "P1", "path": "src/repro/deleted/gone.py", "key": "clock:time.time()"}
    ]


def test_malformed_baseline_fails_loudly():
    with pytest.raises(ValueError):
        load_baseline('{"entries": "not-a-list"}')
    with pytest.raises(ValueError):
        load_baseline('{"entries": [{"rule": "P1"}]}')


def test_apply_baseline_splits_matched_and_stale():
    finding = Finding(
        rule="P1", path="a.py", line=3, col=1, message="m", detail="clock:x"
    )
    entries = [
        baseline_entry(finding),
        {"rule": "P2", "path": "b.py", "key": "entropy:y"},
    ]
    kept, baselined, stale = apply_baseline([finding], entries)
    assert kept == []
    assert baselined == {"P1": 1}
    assert stale == [{"rule": "P2", "path": "b.py", "key": "entropy:y"}]


# -- SARIF ----------------------------------------------------------------


def test_sarif_round_trip_preserves_findings():
    findings = [
        Finding(
            rule="P1",
            path="src/repro/simcore/engine.py",
            line=10,
            col=5,
            message="wall-clock read",
            chain=("repro.simcore.engine:step", "repro.simcore.engine:_bad"),
            detail="clock:time.time()",
        ),
        Finding(rule="C1", path=PLAN_PATH, line=74, col=1, message="drift"),
    ]
    text = to_sarif(findings)
    payload = json.loads(text)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "odr-analyze"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert set(RULES) <= rule_ids
    assert findings_from_sarif(text) == findings


def test_sarif_of_clean_run_has_no_results(cache_path):
    report = _analyze(cache_path=cache_path)
    payload = json.loads(to_sarif(list(report.findings)))
    assert payload["runs"][0]["results"] == []


# -- cache ----------------------------------------------------------------


def test_warm_cache_hits_every_file_and_is_fast(tmp_path):
    path = str(tmp_path / "cache.json")
    cold = _analyze(cache_path=path)
    assert cold.cache_misses == cold.files_scanned
    started = time.perf_counter()  # analyzer: allow=P1 -- timing the analyzer, not sim state
    warm = _analyze(cache_path=path)
    elapsed = time.perf_counter() - started  # analyzer: allow=P1 -- timing the analyzer, not sim state
    assert warm.cache_hits == warm.files_scanned
    assert warm.cache_misses == 0
    assert warm.findings == cold.findings
    assert elapsed < 5.0, f"warm analyze took {elapsed:.2f}s"


def test_cache_invalidates_on_content_change(tmp_path):
    path = str(tmp_path / "cache.json")
    _analyze(cache_path=path)
    touched = _read(ENGINE_PATH) + "\n# trailing comment\n"
    second = _analyze(overlay={ENGINE_PATH: touched}, cache_path=path)
    assert second.cache_misses == 1
    assert second.cache_hits == second.files_scanned - 1


def test_corrupt_cache_file_runs_cold(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{ not json", encoding="utf-8")
    report = _analyze(cache_path=str(path))
    assert report.ok
    assert report.cache_hits == 0


def test_cache_written_at_an_older_version_runs_cold(tmp_path):
    # Facts from an older extractor lack the taints newer rules read, so
    # a version mismatch must re-extract every file, never reuse one.
    path = tmp_path / "cache.json"
    _analyze(cache_path=str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["version"] == CACHE_VERSION
    payload["version"] = CACHE_VERSION - 1
    path.write_text(json.dumps(payload), encoding="utf-8")
    report = _analyze(cache_path=str(path))
    assert report.ok
    assert report.cache_hits == 0
    assert report.cache_misses == report.files_scanned


# -- rule catalogue -------------------------------------------------------


def test_every_rule_has_an_explanation():
    for rule in RULES:
        text = explain(rule)
        assert text is not None and rule in text and len(text) > 80


def test_unknown_rule_explains_to_none():
    assert explain("Z9") is None


def test_report_json_is_sorted_and_complete(cache_path):
    report = _analyze(cache_path=cache_path)
    payload = json.loads(report.to_json())
    assert payload["files_scanned"] == report.files_scanned
    assert payload["findings"] == []
    assert isinstance(report, AnalyzerReport)


# -- per-file rules, on overlay snippets ----------------------------------


def _snippet(source, path="src/repro/obs/example.py", **kwargs):
    """Analyze one overlay file alone (no docs, no other modules)."""
    return analyze([], overlay={path: textwrap.dedent(source)}, docs={}, **kwargs)


def _snippet_rules(source, path="src/repro/obs/example.py", **kwargs):
    return [f.rule for f in _snippet(source, path, **kwargs).findings]


class TestEntropyP2:
    def test_random_module_use_fires(self):
        assert "P2" in _snippet_rules("import random\n\nX = random.random()\n")

    def test_from_random_import_use_fires(self):
        source = "from random import choice\n\nPICK = choice([1, 2])\n"
        assert "P2" in _snippet_rules(source)

    def test_numpy_random_attribute_fires(self):
        source = """
            import numpy as np

            def draw():
                return np.random.random()
            """
        assert "P2" in _snippet_rules(source)

    def test_default_rng_fires(self):
        source = """
            from numpy.random import default_rng

            GEN = default_rng(7)
            """
        assert "P2" in _snippet_rules(source)

    def test_rng_sanctuary_is_silent(self):
        source = "import random\n\nX = random.random()\n"
        assert "P2" not in _snippet_rules(source, path="src/repro/simcore/rng.py")

    def test_seeded_rng_use_is_silent(self):
        source = """
            from repro.simcore import SeededRng

            def draw(rng: SeededRng) -> float:
                return rng.uniform()
            """
        assert _snippet_rules(source) == []


class TestWallClockP1:
    def test_time_time_fires(self):
        source = """
            import time

            def stamp():
                return time.time()
            """
        assert "P1" in _snippet_rules(source)

    def test_perf_counter_alias_fires(self):
        source = """
            from time import perf_counter

            def stamp():
                return perf_counter()
            """
        assert "P1" in _snippet_rules(source)

    def test_datetime_now_fires(self):
        source = """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        assert "P1" in _snippet_rules(source)

    def test_uncalled_clock_reference_fires(self):
        source = """
            import time

            def make(clock=None):
                return clock or time.perf_counter
            """
        findings = _snippet(source).findings
        assert [f.rule for f in findings] == ["P1"]
        assert findings[0].detail == "clock:time.perf_counter"

    def test_probes_module_is_sanctioned(self):
        source = """
            import time

            def stamp():
                return time.perf_counter()
            """
        assert "P1" not in _snippet_rules(source, path="src/repro/obs/probes.py")

    def test_env_now_is_silent(self):
        source = """
            def stamp(env):
                return env.now
            """
        assert _snippet_rules(source) == []


class TestSetIterationP5:
    def test_for_over_set_literal_fires(self):
        source = """
            def f():
                for x in {1, 2, 3}:
                    print(x)
            """
        assert "P5" in _snippet_rules(source)

    def test_for_over_set_call_fires(self):
        source = """
            def f(items):
                for x in set(items):
                    print(x)
            """
        assert "P5" in _snippet_rules(source)

    def test_comprehension_over_set_union_fires(self):
        source = """
            def f(a, b):
                return [x for x in set(a) | set(b)]
            """
        assert "P5" in _snippet_rules(source)

    def test_sorted_set_is_silent(self):
        source = """
            def f(items):
                for x in sorted(set(items)):
                    print(x)
            """
        assert "P5" not in _snippet_rules(source)

    def test_list_iteration_is_silent(self):
        source = """
            def f(items):
                for x in list(items):
                    print(x)
            """
        assert _snippet_rules(source) == []


class TestEngineProcessesD1:
    def test_non_generator_process_fires(self):
        source = """
            def loop(env):
                return None

            def build(env):
                env.process(loop(env))
            """
        assert "D1" in _snippet_rules(source)

    def test_generator_process_is_silent(self):
        source = """
            def loop(env):
                yield env.timeout(1.0)

            def build(env):
                env.process(loop(env))
            """
        assert "D1" not in _snippet_rules(source)

    def test_method_generator_resolved_across_class(self):
        source = """
            class Stage:
                def run(self, env):
                    yield env.timeout(1.0)

                def build(self, env):
                    env.process(self.run(env))
            """
        assert "D1" not in _snippet_rules(source)

    def test_method_non_generator_fires(self):
        source = """
            class Stage:
                def run(self, env):
                    return 1

                def build(self, env):
                    env.process(self.run(env))
            """
        assert "D1" in _snippet_rules(source)

    def test_imported_non_generator_is_resolved_across_modules(self):
        report = analyze(
            [],
            overlay={
                "src/repro/pipeline/loops.py": "def loop(env):\n    return None\n",
                "src/repro/pipeline/build.py": (
                    "from repro.pipeline.loops import loop\n\n\n"
                    "def build(env):\n"
                    "    env.process(loop(env))\n"
                ),
            },
            docs={},
        )
        d1 = [f for f in report.findings if f.rule == "D1"]
        assert [f.path for f in d1] == ["src/repro/pipeline/build.py"]


class TestTimestampEqualityD2:
    def test_eq_on_timestamps_fires(self):
        source = """
            def f(frame, env):
                return frame.t_displayed == env.now
            """
        assert "D2" in _snippet_rules(source)

    def test_neq_on_ms_suffix_fires(self):
        source = """
            def f(deadline_ms, elapsed_ms):
                return deadline_ms != elapsed_ms
            """
        assert "D2" in _snippet_rules(source)

    def test_ordering_comparison_is_silent(self):
        source = """
            def f(deadline_ms, elapsed_ms):
                return elapsed_ms < deadline_ms
            """
        assert "D2" not in _snippet_rules(source)

    def test_non_timestamp_names_are_silent(self):
        source = """
            def f(count, total):
                return count == total
            """
        assert _snippet_rules(source) == []

    def test_is_none_check_is_silent(self):
        source = """
            def f(t_displayed):
                return t_displayed is None
            """
        assert _snippet_rules(source) == []


class TestModuleStateP6:
    def test_module_level_list_fires(self):
        assert "P6" in _snippet_rules("CACHE = []\n", path="src/repro/pipeline/example.py")

    def test_module_level_dict_fires(self):
        assert "P6" in _snippet_rules("REGISTRY = {}\n", path="src/repro/regulators/example.py")

    def test_outside_state_packages_is_silent(self):
        assert "P6" not in _snippet_rules("CACHE = []\n", path="src/repro/analysis/example.py")

    def test_dunder_all_exempt(self):
        source = '__all__ = ["f"]\n'
        assert "P6" not in _snippet_rules(source, path="src/repro/pipeline/example.py")

    def test_frozen_constants_are_silent(self):
        source = """
            LIMIT = 5
            NAMES = ("a", "b")
            KINDS = frozenset({"x"})
            """
        assert "P6" not in _snippet_rules(source, path="src/repro/core/example.py")

    def test_class_attributes_are_silent(self):
        source = """
            class Config:
                defaults = {"a": 1}
            """
        assert "P6" not in _snippet_rules(source, path="src/repro/pipeline/example.py")


class TestLineWaivers:
    def test_waiver_silences_rule(self):
        source = """
            def f():
                for x in {1, 2}:  # analyzer: allow=P5 -- order irrelevant
                    print(x)
            """
        report = _snippet(source)
        assert report.ok
        assert report.waived == {"P5": 1}

    def test_waiver_is_rule_specific(self):
        source = """
            def f(t_a, t_b):
                return t_a == t_b  # analyzer: allow=P5 -- wrong rule
            """
        rules = _snippet_rules(source)
        assert "D2" in rules
        assert "W1" in rules  # the P5 waiver suppresses nothing

    def test_waiver_covers_multiple_rules(self):
        source = """
            def f(t_a, t_b):
                return [t == t_b for t in {t_a, t_b}]  # analyzer: allow=P5, D2 -- fixture
            """
        report = _snippet(source)
        assert report.ok
        assert report.waived == {"D2": 1, "P5": 1}


class TestFileWaivers:
    def test_file_waiver_silences_rule_everywhere(self):
        source = """
            # analyzer: allow-file=D2 -- exact-timestamp asserts are the point
            def f(t_a, t_b):
                return t_a == t_b

            def g(t_c, t_d):
                return t_c != t_d
            """
        report = _snippet(source)
        assert report.ok
        assert report.waived == {"D2": 2}

    def test_file_waiver_is_rule_specific(self):
        source = """
            # analyzer: allow-file=D2 -- timestamps only
            import random

            def f(t_a, t_b):
                random.random()
                return t_a == t_b
            """
        rules = _snippet_rules(source)
        assert "P2" in rules
        assert "D2" not in rules

    def test_file_waiver_requires_rationale(self):
        source = """
            # analyzer: allow-file=D2
            def f(t_a, t_b):
                return t_a == t_b
            """
        findings = _snippet(source).findings
        assert "D2" in [f.rule for f in findings]
        assert any(f.detail == "waiver:no-rationale" for f in findings)

    def test_file_waiver_below_header_is_inert(self):
        source = """
            def f(t_a, t_b):
                return t_a == t_b

            # analyzer: allow-file=D2 -- too late, mid-file
            def g(t_c, t_d):
                return t_c == t_d
            """
        findings = _snippet(source).findings
        assert [f.rule for f in findings].count("D2") == 2
        assert any(f.detail == "waiver:misplaced-file" for f in findings)

    def test_stale_file_waiver_fails_the_run(self):
        source = """
            # analyzer: allow-file=D2 -- nothing compares timestamps anymore
            def f(count, total):
                return count == total
            """
        findings = _snippet(source).findings
        assert [f.detail for f in findings] == ["waiver:stale:D2"]


class TestHarness:
    def test_syntax_error_reported_not_raised(self):
        assert _snippet_rules("def broken(:\n") == ["E0"]

    def test_select_restricts_rules(self):
        source = "import random\nCACHE = []\nX = random.random()\n"
        rules = _snippet_rules(source, path="src/repro/pipeline/example.py", select=["P6"])
        assert rules == ["P6"]

    def test_unknown_select_rejected(self):
        with pytest.raises(ValueError):
            analyze([], select=["R99"])

    def test_missing_path_rejected(self):
        with pytest.raises(FileNotFoundError):
            analyze(["no/such/dir"])

    def test_findings_sorted_by_location(self):
        source = "import random\nimport time\n\ndef f():\n    return time.time() + random.random()\n"
        findings = _snippet(source, path="src/repro/pipeline/example.py").findings
        assert [f.sort_key() for f in findings] == sorted(f.sort_key() for f in findings)
        assert len(findings) == 2

    def test_finding_render_format(self):
        finding = Finding(rule="P1", path="a.py", line=3, col=5, message="m")
        assert finding.render() == "a.py:3:5: P1 m"

    def test_rules_catalogue_covers_every_determinism_hazard(self):
        # clocks, entropy, set order, shared module state, engine
        # processes, timestamp equality: one analyzer rule each.
        assert {"P1", "P2", "P5", "P6", "D1", "D2"} <= set(RULES)

    def test_analyze_paths_on_tree(self, tmp_path):
        (tmp_path / "clean.py").write_text("X = 5\n")
        (tmp_path / "dirty.py").write_text("import random\n\nX = random.random()\n")
        report = analyze([str(tmp_path)], docs={})
        assert report.files_scanned == 2
        assert not report.ok
        assert report.counts() == {"P2": 1}

    def test_repo_tree_is_clean(self, cache_path):
        # Only the determinism rules, over sources and tests together:
        # waivers for rules left out of the selection must not read as stale.
        determinism = ["P1", "P2", "P5", "P6", "D1", "D2"]
        report = analyze(["src/repro", "tests"], select=determinism, cache_path=cache_path)
        assert report.ok, "\n".join(f.render() for f in report.findings)
        assert report.files_scanned > _analyze(cache_path=cache_path).files_scanned


def test_ruff_owns_mutable_defaults():
    with open("pyproject.toml", "r", encoding="utf-8") as handle:
        pyproject = handle.read()
    select = pyproject.split("[tool.ruff.lint]", 1)[1].split("select = ", 1)[1]
    assert '"B006"' in select.splitlines()[0]


def test_mypy_strict_owns_annotations():
    # Annotation completeness of the sim packages is mypy --strict's job.
    with open(".github/workflows/ci.yml", "r", encoding="utf-8") as handle:
        ci = handle.read()
    typecheck = ci.rsplit("mypy --strict", 1)[1].split("\n\n", 1)[0]
    for package in (
        "repro.simcore",
        "repro.core",
        "repro.pipeline",
        "repro.multitenant",
        "repro.analysis",
    ):
        assert f"-p {package}" in typecheck, package


# -- the two-copy probe: one violation of every per-file hazard -----------

_PROBE = """\
import random
import time

CACHE = []


def _loop(env):
    return None


def probe(env, items=[]):
    started = time.perf_counter()
    jitter = random.random()
    for item in {1, 2, 3}:
        items.append(item)
    env.process(_loop(env))
    return env.now == started + jitter
"""

#: rule -> probe line it must be reported on.
_PROBE_LINES = {"P1": 12, "P2": 13, "P5": 14, "D1": 16, "D2": 17}


def test_probe_is_caught_reachable_and_unreachable(cache_path):
    reachable = "src/repro/pipeline/probe.py"
    unreachable = "src/repro/service/probe.py"
    executor = _read(EXECUTOR_PATH).replace(
        "def _chaos_hooks(spec: CellSpec) -> None:",
        "def _chaos_hooks(spec: CellSpec) -> None:\n"
        "    from repro.pipeline.probe import probe\n"
        "    probe(None)",
        1,
    )
    report = _analyze(
        overlay={EXECUTOR_PATH: executor, reachable: _PROBE, unreachable: _PROBE},
        cache_path=cache_path,
    )
    for path in (reachable, unreachable):
        found = {(f.rule, f.line) for f in report.findings if f.path == path}
        for rule, line in _PROBE_LINES.items():
            assert (rule, line) in found, (path, rule)
    assert ("P6", 4) in {(f.rule, f.line) for f in report.findings if f.path == reachable}
    assert all(f.rule != "P6" for f in report.findings if f.path == unreachable)
    for finding in report.findings:
        if finding.rule in ("P1", "P2"):
            if finding.path == reachable:
                assert any(h.endswith(":execute_cell") for h in finding.chain)
                assert finding.chain[-1] == "repro.pipeline.probe:probe"
            else:
                assert finding.chain == ()
    assert {f.path for f in report.findings} == {reachable, unreachable}
