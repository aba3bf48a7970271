"""BENCHMARK.json, the layer map and the workload table agree."""

import json
import pathlib
import re
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402

SPEC = json.loads((layers.REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_every_source_file_maps_to_exactly_one_named_layer():
    files = sorted(layers.SRC_ROOT.rglob("*.py"))
    assert len(files) > 100
    for path in files:
        rel = path.relative_to(layers.SRC_ROOT).as_posix()
        layer = layers.layer_of_source(rel)
        assert layer in layers.LAYERS and layer != "bench", rel
        assert layers.layer_of_file(str(path)) == layer, rel
    for rel in layers.KERNEL_FILES:
        assert (layers.SRC_ROOT / rel).is_file(), rel
    assert layers.layer_of_file(str(BENCH_DIR / "harness.py")) == "bench"
    assert layers.layer_of_file("~") is None


def test_names_and_units_are_well_formed_and_unique():
    rows = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [row["name"] for row in rows]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for row in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(row["unit"]), row
        assert row["better"] in ("lower", "higher"), row


def test_spec_meets_the_driver_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    for row in SPEC["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in SPEC["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in SPEC["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    setup = [r for r in SPEC["end_to_end"] if r["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(r["bound"] for r in SPEC["end_to_end"])


def test_spec_lists_the_harness_workloads_and_layers():
    text = (BENCH_DIR / "workloads.py").read_text()
    for row in SPEC["workloads"]:
        assert f'Workload("{row["name"]}"' in text, row["name"]
    assert text.count('Workload("') == len(SPEC["workloads"])
    per_layer = {row["name"] for row in SPEC["per_layer"]}
    for layer in layers.LAYERS:
        for suffix in ("self_s", "self_share", "calls"):
            assert f"{layer}.{suffix}" in per_layer


def test_harness_modules_escape_the_repo_pytest_patterns():
    for path in BENCH_DIR.glob("*.py"):
        assert not path.name.startswith(("bench_", "test_")), path.name
