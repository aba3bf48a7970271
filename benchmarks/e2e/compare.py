"""Compare two result documents of ``run.py --out``.

    python3 benchmarks/e2e/run.py compare A.json B.json

One row per (workload, end-to-end metric).  A is the base: every ratio
is B / A and printed beside A's value.  Verdicts:

* ``unresolved`` — the spread between A's own quartiles is wider than
  the metric's bound, so the instrument cannot tell;
* ``worse`` / ``better`` — B's value differs from A's by more than the
  bound, in that direction;
* ``same`` — within the bound.

Host-clock metrics take their bounds from ``BENCHMARK.json``.  The
virtual-clock metrics and ``ops_failed_share`` are exact for a seed, so
they take the tight bounds below; the benchmark driver cannot carry them
(its runs use different seeds, and these metrics are identical across
repetitions by design), which is why they are checked here.

Exits 1 if any row is ``worse``, 2 if the documents cannot be compared.
"""

from __future__ import annotations

import json
import sys

from layers import SPEC_PATH

#: name -> (unit, better, bound).  A bound of 0 means "any increase".
EXACT_BOUNDS = {
    "virtual_s": ("s", "lower", 0.001),
    "virtual_op_p50_s": ("s", "lower", 0.001),
    "virtual_op_p99_s": ("s", "lower", 0.001),
    "ops_failed_share": ("ratio", "lower", 0.0),
}


class DocumentError(ValueError):
    """A result document is missing something ``compare`` needs."""


def first_difference(a: dict, b: dict) -> str | None:
    """Name and both values of the first entry that differs, or None."""
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{key}: {a.get(key)!r} != {b.get(key)!r}"
    return None


def end_to_end(entry: dict) -> dict[str, dict]:
    """The end-to-end metrics one workload entry carries, by name."""
    out: dict[str, dict] = {}
    if "timing" in entry:
        out.update(entry["timing"]["end_to_end"])
        out["virtual_s"] = {"value": entry["timing"]["exact"]["virtual_s"]}
        out["ops_failed_share"] = {"value": (entry["timing"]["failed"]
                                             / entry["timing"]["attempted"])}
    if "trace" in entry:
        # Zero means "this workload does not report it" for the latency
        # metrics (fewer than 1000 operations).
        metrics = entry["trace"]["metrics"]
        for name in EXACT_BOUNDS:
            if name not in out and (name == "ops_failed_share"
                                    or metrics.get(name, 0) > 0):
                out[name] = {"value": metrics[name]}
    return out


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """Verdict for one row and by how much B is worse (as a share of A)."""
    base, new = a["value"], b["value"]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = (sign * (new - base) / base if base
                else sign * (new - base))  # base 0: absolute difference
    spread = ((a["q3"] - a["q1"]) / base) if "q1" in a and base else 0.0
    if spread > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def compare(doc_a: dict, doc_b: dict, spec: dict) -> list[dict]:
    """Rows for every (workload, metric) present in both documents."""
    for doc in (doc_a, doc_b):
        if doc.get("schema") != "repro-e2e/1" or "workloads" not in doc:
            raise DocumentError("not a repro-e2e/1 result document")
    bounds = {row["name"]: (row["unit"], row["better"], row["bound"])
              for row in spec["end_to_end"]}
    bounds.update(EXACT_BOUNDS)
    rows = []
    for workload, entry_a in doc_a["workloads"].items():
        if workload not in doc_b["workloads"]:
            continue
        metrics_a = end_to_end(entry_a)
        metrics_b = end_to_end(doc_b["workloads"][workload])
        for name, (unit, better, bound) in bounds.items():
            if name not in metrics_a or name not in metrics_b:
                continue
            a, b = metrics_a[name], metrics_b[name]
            what, worse_by = verdict(a, b, better, bound)
            rows.append({"workload": workload, "metric": name, "unit": unit,
                         "a": a["value"], "b": b["value"], "bound": bound,
                         "worse_by": worse_by, "verdict": what})
    if not rows:
        raise DocumentError("the documents share no workload and metric")
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    try:
        docs = []
        for path in argv:
            with open(path) as fh:
                docs.append(json.load(fh))
        rows = compare(docs[0], docs[1], json.loads(SPEC_PATH.read_text()))
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc!r}", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<18} {'A (base)':>14} {'B':>14} "
          f"{'B/A':>8} {'bound':>7}  verdict")
    for row in rows:
        ratio = f"{row['b'] / row['a']:.4f}" if row["a"] else "n/a"
        print(f"{row['workload']:<16} {row['metric']:<18} "
              f"{row['a']:>14.6g} {row['b']:>14.6g} {ratio:>8} "
              f"{row['bound']:>7.3f}  {row['verdict']}"
              f"  ({row['unit']}, base A = {row['a']:.6g})")
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"{len(rows)} rows, {len(worse)} worse")
    return 1 if worse else 0
