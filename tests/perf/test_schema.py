"""Benchmark JSON schema, speedup orientation, and the regression gate."""

import copy

import pytest

from repro.perf import (
    BENCHMARKS,
    BenchSchemaError,
    REGRESSION_GATES,
    SCHEMA,
    attach_baseline,
    check_regressions,
    speedup,
    validate_bench,
)


def _doc(**overrides):
    doc = {
        "schema": SCHEMA,
        "mode": "quick",
        "created": "2026-08-06T00:00:00Z",
        "host": {"python": "3.12"},
        "zero_copy": True,
        "benchmarks": {
            "engine_events": {"value": 1_000_000.0, "unit": "events/s",
                              "better": "higher", "wall_s": 0.05,
                              "detail": {"timeouts": 50_000}},
            "fig05_large": {"value": 0.25, "unit": "s",
                            "better": "lower", "wall_s": 0.25},
        },
    }
    doc.update(overrides)
    return doc


def test_valid_document_passes():
    validate_bench(_doc())


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d.update(schema="repro-perf/0"), "schema"),
    (lambda d: d.update(mode="fast"), "mode"),
    (lambda d: d.update(created=""), "created"),
    (lambda d: d.update(host=None), "host"),
    (lambda d: d.update(zero_copy="yes"), "zero_copy"),
    (lambda d: d.update(benchmarks={}), "benchmarks"),
    (lambda d: d["benchmarks"]["engine_events"].pop("value"), "value"),
    (lambda d: d["benchmarks"]["engine_events"].update(value="fast"),
     "number"),
    (lambda d: d["benchmarks"]["engine_events"].update(value=-1.0),
     "non-negative"),
    (lambda d: d["benchmarks"]["engine_events"].update(better="bigger"),
     "better"),
    (lambda d: d["benchmarks"]["engine_events"].update(unit=""), "unit"),
    (lambda d: d["benchmarks"]["engine_events"].update(detail="x"), "detail"),
    (lambda d: d.update(baseline={"benchmarks": {"x": "NaN-ish"}}),
     "baseline"),
    (lambda d: d.update(speedups={"engine_events": 0.0}), "speedups"),
])
def test_corrupted_documents_are_rejected(mutate, match):
    doc = _doc()
    mutate(doc)
    with pytest.raises(BenchSchemaError, match=match):
        validate_bench(doc)


def test_speedup_orientation():
    # higher-is-better: new 200 vs old 100 is a 2x improvement...
    assert speedup("higher", 200.0, 100.0) == pytest.approx(2.0)
    # ...and lower-is-better: new 0.5s vs old 1.0s is also 2x.
    assert speedup("lower", 0.5, 1.0) == pytest.approx(2.0)
    assert speedup("higher", 50.0, 100.0) == pytest.approx(0.5)
    with pytest.raises(BenchSchemaError):
        speedup("higher", 0.0, 100.0)


def test_attach_baseline_computes_oriented_speedups():
    doc = _doc()
    old = copy.deepcopy(_doc())
    old["benchmarks"]["engine_events"]["value"] = 500_000.0
    old["benchmarks"]["fig05_large"]["value"] = 1.0
    attach_baseline(doc, old, path="OLD.json")
    assert doc["baseline"]["path"] == "OLD.json"
    assert doc["speedups"]["engine_events"] == pytest.approx(2.0)
    assert doc["speedups"]["fig05_large"] == pytest.approx(4.0)
    validate_bench(doc)


def test_regression_gate_fails_only_beyond_tolerance():
    base = _doc()
    ok = copy.deepcopy(base)
    tolerance = REGRESSION_GATES["engine_events"]
    # Just inside the tolerance: no failure.
    ok["benchmarks"]["engine_events"]["value"] = (
        base["benchmarks"]["engine_events"]["value"] * (1.0 - tolerance + 0.02))
    assert check_regressions(ok, base) == []
    # Beyond it: one failure naming the benchmark.
    bad = copy.deepcopy(base)
    bad["benchmarks"]["engine_events"]["value"] = (
        base["benchmarks"]["engine_events"]["value"] * (1.0 - tolerance - 0.05))
    failures = check_regressions(bad, base)
    assert len(failures) == 1
    assert "engine_events" in failures[0]


def test_gate_ignores_missing_benchmarks():
    doc = _doc()
    base = copy.deepcopy(doc)
    del base["benchmarks"]["engine_events"]
    assert check_regressions(doc, base) == []


def test_registered_benchmarks_are_well_formed():
    names = [b.name for b in BENCHMARKS]
    assert len(names) == len(set(names))
    for bench in BENCHMARKS:
        assert bench.better in ("higher", "lower")
        assert bench.unit
    # Every gated benchmark exists and runs in quick mode (CI smoke).
    by_name = {b.name: b for b in BENCHMARKS}
    for name in REGRESSION_GATES:
        assert name in by_name
        assert by_name[name].quick


def test_suite_quick_run_produces_valid_document():
    """One real (tiny) suite invocation end to end."""
    from repro.perf import run_suite

    doc = run_suite(quick=True, only=["engine_events"])
    validate_bench(doc)
    bench = doc["benchmarks"]["engine_events"]
    assert bench["value"] > 0
    assert doc["mode"] == "quick"


def test_checked_in_baseline_is_schema_valid():
    import os

    from repro.perf import load_json

    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "benchmarks", "perf", "baseline.json")
    doc = load_json(path)
    assert doc["mode"] == "quick"
    for name in REGRESSION_GATES:
        assert name in doc["benchmarks"], (
            f"gated benchmark {name} missing from the checked-in baseline")


def test_older_document_with_retired_benchmarks_still_serves_as_baseline():
    """BENCH_PR10.json records benchmarks the suite no longer registers;
    it must keep working with ``--against`` / ``--check``: validates,
    speedups only for names both documents share, no gate on the rest."""
    import os

    from repro.perf import load_json

    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "BENCH_PR10.json")
    old = load_json(path)
    retired = set(old["benchmarks"]) - {b.name for b in BENCHMARKS}
    assert retired, "BENCH_PR10.json no longer carries retired benchmarks"

    doc = _doc()
    attach_baseline(doc, old, path=path)
    validate_bench(doc)
    assert set(doc["speedups"]) == set(doc["benchmarks"]) & set(old["benchmarks"])
    assert retired <= set(doc["baseline"]["benchmarks"])
    assert check_regressions(doc, old) == []
