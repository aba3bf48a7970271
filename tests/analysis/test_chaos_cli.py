"""Tests for the ``chaos`` CLI subcommand on the fault-free ``steady``
scenario: the open-loop multi-tenant admission workload."""

import json

from repro.analysis.cli import main


class TestChaosSteadyCommand:
    def test_quick_smoke_prints_report(self, capsys):
        assert main(["chaos", "steady", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "p99" in out
        assert "fairness" in out
        assert "ARM preemptions" in out

    def test_check_determinism(self, capsys):
        assert main(["chaos", "steady", "--quick", "--check-determinism"]) == 0
        assert "determinism check passed" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "steady.json"
        assert main(["chaos", "steady", "--quick", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["scenario"] == "steady"
        assert doc["submitted"] == (doc["completed"] + doc["rejected"]
                                    + doc["aborted"] + doc["failed"]
                                    + doc["stuck"])
        assert "latency_p99_s" in doc
        assert 0.0 < doc["fairness"] <= 1.0
        assert doc["per_tenant"]
        assert doc["preemptions"] > 0

    def test_full_size_with_seed(self, capsys):
        assert main(["chaos", "steady", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "tenants 48" in out
        assert "seed 5" in out
