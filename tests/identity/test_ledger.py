"""The identity contract as a file: regenerate ``ledger.json`` and compare.

``ledger.json`` holds, verbatim, every JSON document the CLI writes at
``--quick`` size (the 16 ``run <exp>`` series, ``jobs --compare``,
``chaos all --check``, ``collective`` allreduce and broadcast, each
harness document with ``--check-determinism``) and, per
``benchmarks/e2e`` workload at ``--smoke`` size and seeds 0 and 1, the
counters that repeat bit-for-bit.  A refactor leaves the file alone; a
sanctioned rebaseline is a reviewed diff to it, written by

    PYTHONPATH=src python tests/identity/test_ledger.py

The comparison is exact.  The ``jobs`` / ``chaos`` digests hash real
numerics, so the file records the interpreter and numpy that wrote it;
if another pair moves a digest, pin the job that runs this test to the
recorded pair rather than loosening the comparison.
"""

import importlib.metadata
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile

import pytest

from repro.analysis.cli import EXPERIMENTS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
LEDGER_PATH = pathlib.Path(__file__).with_name("ledger.json")
ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
       "PYTHONHASHSEED": "0"}

_HARNESS = ["--quick", "--check-determinism"]
CLI_DOCUMENTS = {
    **{f"run-{name}": ["run", name, "--quick"] for name in sorted(EXPERIMENTS)},
    "jobs": ["jobs", "--compare", *_HARNESS],
    "chaos": ["chaos", "all", "--check", "benchmarks/chaos_expectations.json",
              *_HARNESS],
    "collective": ["collective", *_HARNESS],
    "collective-broadcast": ["collective", "--op", "broadcast", *_HARNESS],
}

E2E_WORKLOADS = [row["name"] for row in json.loads(
    (REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]]
E2E_SEEDS = (0, 1)
E2E_COUNTERS = ("virtual_s", "sim.heap_pops", "netsim.messages_sent",
                "gpusim.dma_transfers", "core.requests", "buffers.cow_bytes",
                "obs.spans")


def _run(cmd: list[str]) -> None:
    proc = subprocess.run([sys.executable, *cmd], cwd=REPO_ROOT, env=ENV,
                          text=True, capture_output=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def cli_document(name: str, tmp: pathlib.Path) -> dict:
    """The document ``python -m repro <args> --json`` writes."""
    path = tmp / f"{name}.json"
    _run(["-m", "repro", *CLI_DOCUMENTS[name], "--json", str(path)])
    return json.loads(path.read_text())


def e2e_counters(workload: str, seed: int, tmp: pathlib.Path) -> dict:
    """Exact counters of the harness's traced pass at ``--smoke`` size.

    The traced pass is the one that counts heap pops (from its profile);
    ``ops_failed`` is its failed-or-refused operation total.
    """
    path = tmp / f"{workload}.{seed}.json"
    _run(["benchmarks/e2e/run.py", "--workload", workload, "--smoke",
          "--trace", "1", "--seconds", "0", "--seed", str(seed),
          "--out", str(path)])
    trace = json.loads(path.read_text())["workloads"][workload]["trace"]
    return {**{key: trace["metrics"][key] for key in E2E_COUNTERS},
            "ops_failed": trace["failed"]}


def leaves(doc, path=""):
    """Every ``(path, scalar)`` of a JSON value, depth first."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}/{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def moved_leaves(old, new) -> list[str]:
    """One line per leaf that differs, with its relative delta."""
    a, b = dict(leaves(old)), dict(leaves(new))
    lines = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key, "<absent>"), b.get(key, "<absent>")
        if x != y or type(x) is not type(y):
            numeric = all(isinstance(v, (int, float))
                          and not isinstance(v, bool) for v in (x, y))
            rel = f"  rel {abs(y - x) / abs(x):.2e}" if numeric and x else ""
            lines.append(f"  {key}: {x!r} -> {y!r}{rel}")
    return lines


def _provenance() -> dict:
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def _assert_unmoved(what: str, ledger: dict, old, new) -> None:
    moved = moved_leaves(old, new)
    assert not moved, (
        f"{what} moved against tests/identity/ledger.json "
        f"(ledger written with {ledger['generated_with']}, this run is "
        f"{_provenance()}):\n" + "\n".join(moved))


@pytest.fixture(scope="module")
def ledger() -> dict:
    return json.loads(LEDGER_PATH.read_text())


def test_ledger_covers_every_document_and_workload(ledger):
    assert sorted(ledger["cli"]) == sorted(CLI_DOCUMENTS)
    assert sorted(ledger["e2e_smoke"]) == [f"seed{s}" for s in E2E_SEEDS]
    for per_seed in ledger["e2e_smoke"].values():
        assert sorted(per_seed) == sorted(E2E_WORKLOADS)


def test_harness_documents_show_what_they_exist_to_show(ledger):
    """The gates of the harness documents, on the committed ledger, so a
    rebaseline cannot commit a document that fails one."""
    docs = ledger["cli"]
    jobs = docs["jobs"]
    assert jobs["digests_match"], "warm paths changed an outcome"
    assert jobs["speedup"] >= 1.5, jobs["speedup"]
    assert jobs["kernel_cache_hit_rate"] > 0 and jobs["alloc_cache_hit_rate"] > 0
    assert jobs["leases_reused"] > 0
    assert jobs["failed"] == jobs["cancelled"] == 0
    chaos = docs["chaos"]
    steady = chaos["steady"]
    assert steady["latency_p99_s"] > 0
    assert steady["per_tenant"], "per-tenant latency table is empty"
    assert all("p99_s" in row for row in steady["per_tenant"].values())
    assert 0.0 < steady["fairness"] <= 1.0, steady["fairness"]
    assert steady["preemptions"] > 0 and steady["recoveries"] > 0
    assert len(chaos) >= 6, sorted(chaos)
    for name, report in chaos.items():
        assert report["stuck"] == report["corrupted"] == 0, name
        assert {"recovery_latencies_s", "slo_violations"} <= set(report), name
    for name in ("collective", "collective-broadcast"):
        doc = docs[name]
        assert doc["identical"], f"{name}: P2P and staged contents diverged"
        assert doc["exact"], f"{name}: device contents differ from the oracle"
        assert doc["cn_bytes_staged"] >= 2 * doc["cn_bytes_p2p"], name
        assert doc["speedup"] > 1.0, (name, doc["speedup"])
        assert doc["max_ring_hops"] <= 2, (name, doc["ring_hops"])


@pytest.mark.parametrize("name", CLI_DOCUMENTS)
def test_cli_document_is_unmoved(name, ledger, tmp_path):
    _assert_unmoved(f"`repro {' '.join(CLI_DOCUMENTS[name])}`", ledger,
                    ledger["cli"][name], cli_document(name, tmp_path))


@pytest.mark.parametrize("seed", E2E_SEEDS)
@pytest.mark.parametrize("workload", E2E_WORKLOADS)
def test_e2e_smoke_counters_are_unmoved(workload, seed, ledger, tmp_path):
    _assert_unmoved(f"e2e {workload} --smoke --seed {seed}", ledger,
                    ledger["e2e_smoke"][f"seed{seed}"][workload],
                    e2e_counters(workload, seed, tmp_path))


def test_moved_leaves_names_each_leaf_with_its_relative_delta():
    old = {"a": [1.0, {"b": 2.0}], "digest": "x", "n": 4}
    new = {"a": [1.0, {"b": 2.5}], "digest": "y", "n": 4, "extra": 1}
    assert moved_leaves(old, new) == [
        "  /a[1]/b: 2.0 -> 2.5  rel 2.50e-01",
        "  /digest: 'x' -> 'y'",
        "  /extra: '<absent>' -> 1",
    ]
    assert moved_leaves(old, old) == []
    assert moved_leaves({"n": 1}, {"n": 1.0}) == [
        "  /n: 1 -> 1.0  rel 0.00e+00"]


def write_ledger() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        doc = {
            "about": "Identity ledger; see tests/identity/test_ledger.py.",
            "generated_with": _provenance(),
            "cli": {name: cli_document(name, tmp) for name in CLI_DOCUMENTS},
            "e2e_smoke": {
                f"seed{seed}": {w: e2e_counters(w, seed, tmp)
                                for w in E2E_WORKLOADS}
                for seed in E2E_SEEDS},
        }
    LEDGER_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    write_ledger()
