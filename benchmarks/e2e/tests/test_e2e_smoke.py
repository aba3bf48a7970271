"""Every workload runs at smoke size and yields a comparable document."""

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((layers.REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [row["name"] for row in SPEC["workloads"]]
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def run(*args, cwd=layers.REPO_ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_size_is_fast_correct_and_comparable(workload, tmp_path):
    out = tmp_path / "doc.json"
    t0 = time.perf_counter()
    proc = run("--workload", workload, "--smoke", "--seconds", "0",
               "--out", str(out))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # Under 3 s per subprocess: three for the end-to-end pass, one traced.
    assert elapsed < 3.0 * 4, elapsed
    doc = json.loads(out.read_text())
    entry = doc["workloads"][workload]
    assert entry["timing"]["end_to_end"]["wall_s"]["value"] < 3.0
    assert entry["timing"]["errors"] == entry["trace"]["errors"] == []
    assert entry["trace"]["metrics"]["other.self_share"] < 0.02
    rows = compare.compare(doc, doc, SPEC)
    assert {row["metric"] for row in rows} >= {
        "setup_s", "wall_s", "peak_rss_mib", "virtual_s", "ops_failed_share"}
    assert {row["verdict"] for row in rows} <= {"same", "unresolved"}
    assert (BENCH_DIR / "results" / f"{workload}.trace.json").is_file()


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_result_line_matches_the_driver_contract(trace, section):
    proc = run("--workload", "ring_allreduce", "--smoke", "--seed", "3",
               "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [row["name"] for row in SPEC[section]]
    for row in SPEC[section]:
        assert result["metrics"][row["name"]]["unit"] == row["unit"]


def test_compare_flags_a_regression_and_an_unresolvable_row(tmp_path):
    out = tmp_path / "a.json"
    assert run("--workload", "qr_protocol", "--smoke", "--seconds", "0",
               "--trace", "0", "--out", str(out)).returncode == 0
    doc_a = json.loads(out.read_text())
    doc_b = json.loads(out.read_text())
    e2e_a = doc_a["workloads"]["qr_protocol"]["timing"]["end_to_end"]
    e2e_b = doc_b["workloads"]["qr_protocol"]["timing"]["end_to_end"]
    e2e_a["wall_s"].update(q1=e2e_a["wall_s"]["value"],
                           q3=e2e_a["wall_s"]["value"])
    e2e_b["wall_s"]["value"] *= 1.5
    e2e_b["peak_rss_mib"]["value"] *= 0.5
    doc_b["workloads"]["qr_protocol"]["timing"]["failed"] = 1
    verdicts = {row["metric"]: row["verdict"]
                for row in compare.compare(doc_a, doc_b, SPEC)}
    assert verdicts["wall_s"] == "worse"
    assert verdicts["peak_rss_mib"] == "better"
    assert verdicts["ops_failed_share"] == "worse"
    assert verdicts["virtual_s"] == "same"
    e2e_a["wall_s"].update(q1=0.5 * e2e_a["wall_s"]["value"],
                           q3=1.5 * e2e_a["wall_s"]["value"])
    verdicts = {row["metric"]: row["verdict"]
                for row in compare.compare(doc_a, doc_b, SPEC)}
    assert verdicts["wall_s"] == "unresolved"
    b_path = tmp_path / "b.json"
    b_path.write_text(json.dumps(doc_b))
    assert run("compare", str(out), str(b_path)).returncode == 1
    assert run("compare", str(out), str(out)).returncode == 0
    assert run("compare", str(out), str(tmp_path / "none.json")).returncode == 2


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(layers.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "qr_protocol", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
