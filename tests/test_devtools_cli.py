"""CLI-level tests for ``odr-sim analyze`` and ``odr-sim verify-determinism``."""

import json

import pytest

from repro.cli import main


def analyze(*args):
    # No facts cache: these runs must not leave files behind.
    return main(["analyze", *args, "--cache", "none"])


class TestAnalyzeCommand:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 5\n")
        code = analyze(str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_violation_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n\nX = random.random()\n")
        code = analyze(str(tmp_path))
        out = capsys.readouterr().out
        assert code == 1
        assert "P2" in out
        assert "bad.py" in out

    def test_repo_source_tree_analyzes_clean(self, capsys):
        assert analyze("src/repro", "tests") == 0
        capsys.readouterr()

    def test_seeded_violation_detected_in_repo_scan(self, tmp_path, capsys):
        """End-to-end guard: a planted violation flips the exit code."""
        bad = tmp_path / "planted.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        code = analyze("src/repro", str(bad))
        assert code == 1
        assert "P1" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\nCACHE = []\nX = random.random()\n")
        code = analyze(str(tmp_path), "--format", "json")
        out = capsys.readouterr().out
        assert code == 1
        payload = json.loads(out)
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {"P2": 1}
        assert payload["findings"][0]["rule"] == "P2"

    def test_select_filters_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n\nX = random.random()\n")
        assert analyze(str(tmp_path), "--select", "P1") == 0
        assert analyze(str(tmp_path), "--select", "P1,P2") == 1
        capsys.readouterr()

    def test_bad_select_is_usage_error(self, tmp_path, capsys):
        code = analyze(str(tmp_path), "--select", "R99")
        err = capsys.readouterr().err
        assert code == 2
        assert "R99" in err

    def test_missing_path_is_usage_error(self, capsys):
        code = analyze("no/such/dir.txt")
        assert code == 2
        assert "no/such/dir.txt" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        code = main(["analyze", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule in ("P1", "P6", "D1", "D2", "W1"):
            assert rule in out

    def test_no_cache_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--no-cache"])
        capsys.readouterr()


class TestVerifyDeterminismCommand:
    def test_deterministic_run_exits_zero(self, capsys):
        code = main(
            [
                "--seed", "3", "--duration", "800", "--warmup", "200",
                "verify-determinism", "--regulator", "NoReg",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "MATCH" in out

    def test_reports_both_digests(self, capsys):
        main(
            [
                "--duration", "500", "--warmup", "100",
                "verify-determinism", "--regulator", "NoReg",
            ]
        )
        out = capsys.readouterr().out
        assert "run 1:" in out and "run 2:" in out

    def test_unknown_regulator_rejected(self):
        with pytest.raises(ValueError):
            main(["--duration", "500", "verify-determinism",
                  "--regulator", "Bogus"])
