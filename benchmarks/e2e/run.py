#!/usr/bin/env python3
"""The repository benchmark: seven end-to-end workloads, two clocks.

    python3 benchmarks/e2e/run.py                       # everything
    python3 benchmarks/e2e/run.py --workload bulk_copy --seed 1 --trace 0
    python3 benchmarks/e2e/run.py compare A.json B.json

Without ``--trace`` both passes run for each selected workload: the
end-to-end pass (tracing off; ``setup_s``, ``wall_s``, ``peak_rss_mib``)
and the traced pass (harness spans + cProfile; every per-layer metric).
Every metric is printed by name with its unit and clock, outputs are
verified, and the exit status is non-zero on a wrong result or on a
virtual-clock metric that failed to repeat exactly.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed`` = wrong operations, ``metrics``) for whoever drives the
benchmark; ``--out`` writes the full result document that ``compare``
reads.

Each workload runs in its own subprocess with BLAS pinned to one thread.
README.md in this directory explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import compare
from compare import first_difference
from layers import BENCH_DIR, REPO_ROOT, SPEC_PATH

SRC_DIR = REPO_ROOT / "src"

#: The end-to-end pass splits its repetitions over this many fresh
#: processes: set-up is sampled once per process (one sample of imports
#: and first touch is too noisy), and a process's memory layout shifts
#: all of its repetitions together, which pooling averages out.
PROCESSES = 3

#: A workload subprocess that runs longer than this is killed.
CHILD_TIMEOUT_S = 170

#: Pinned for the workload subprocesses and recorded in the document.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def clock_of(name: str, unit: str) -> str:
    """Which clock a metric is read from: host, virtual, or neither."""
    if "virtual" in name or name.startswith("model."):
        return "virtual"
    if unit in ("s", "us", "MiB") or name.endswith(
            (".self_share", "overhead_ratio")):
        return "host"
    return "-"


def spawn_child(workload: str, args, *, trace: bool,
                seconds: float = 0.0) -> dict:
    """Run one workload subprocess and return its result document."""
    env = {**os.environ, **CHILD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(int(trace)),
           "--t-spawn", repr(time.time())]
    if args.smoke:
        cmd.append("--smoke")
    # subprocess.run kills the child and waits for it on a timeout.
    proc = subprocess.run(cmd, env=env, cwd=REPO_ROOT, text=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: subprocess exited with status "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child(args) -> int:
    import harness  # imports repro; only the subprocess pays for it
    doc = harness.child_main(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke, args.t_spawn)
    print(json.dumps(doc))
    return 0


def timing_pass(workload: str, args) -> dict:
    """End-to-end pass: tracing off, repetitions pooled over processes."""
    docs = [spawn_child(workload, args, trace=False,
                        seconds=args.seconds / PROCESSES)
            for _ in range(PROCESSES)]
    walls = [w for d in docs for w in d["rep_wall_s"]]
    q1, median, q3 = statistics.quantiles(walls, n=4)
    setups = [d["setup_s"] for d in docs]
    peaks = [d["peak_rss_mib"] for d in docs]
    errors = [e for d in docs for e in d["errors"]]
    for d in docs[1:]:
        diff = first_difference(docs[0]["exact"], d["exact"])
        if diff and not errors:
            errors.append(f"two processes disagree on {diff}")
    return {
        "end_to_end": {
            "setup_s": {"value": statistics.median(setups),
                        "samples": setups,
                        "raw_samples": [d["setup_raw_s"] for d in docs]},
            "wall_s": {"value": median, "q1": q1, "q3": q3,
                       "n": len(walls),
                       "samples": [d["rep_wall_s"] for d in docs],
                       "raw_samples": [d["rep_wall_raw_s"] for d in docs],
                       "calibration_s": [d["rep_cal_s"] for d in docs]},
            "peak_rss_mib": {"value": statistics.median(peaks),
                             "samples": peaks},
        },
        "loop": docs[0]["loop"],
        "exact": docs[0]["exact"],
        "setup_phases": [d["setup_phases"] for d in docs],
        "rep_phases": [d["rep_phases"] for d in docs],
        "errors": errors,
        **{key: sum(d[key] for d in docs)
           for key in ("attempted", "failed", "wrong")},
    }


def report(workload: str, part: dict, metrics: dict, spec_rows: list,
           out) -> None:
    """Print one pass of one workload, one metric per line."""
    for row in spec_rows:
        name, unit = row["name"], row["unit"]
        entry = metrics[name]
        value = entry["value"] if isinstance(entry, dict) else entry
        extra = ""
        if isinstance(entry, dict) and "n" in entry:
            extra = (f"  (median of {entry['n']}; q1 {entry['q1']:.4f} "
                     f"q3 {entry['q3']:.4f})")
        elif isinstance(entry, dict) and "samples" in entry:
            extra = f"  (median of {len(entry['samples'])})"
        out.write(f"{workload:<16} {name:<32} {value:>18.6g} {unit:<6} "
                  f"{clock_of(name, unit):<8}{extra}\n")
    out.write(f"{workload:<16} {'operations':<32} "
              f"{part['attempted']:>18d} count  -        "
              f"({part['loop']} loop; failed or refused {part['failed']}, "
              f"wrong {part['wrong']})\n")
    for error in part["errors"]:
        out.write(f"{workload:<16} ERROR {error}\n")


def provenance(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "child_env": CHILD_ENV,
            "git_commit": commit, "seed": args.seed,
            "seconds": args.seconds, "processes": PROCESSES,
            "smoke": args.smoke}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0,
                    help="the only source of randomness (hold-out: 1)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="timed repetitions run until this much wall time")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end pass, 1: traced pass; default both")
    ap.add_argument("--out", help="write the result document here")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the harness self-tests only")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--t-spawn", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC_DIR / "repro").is_dir():
        print(f"error: {SRC_DIR / 'repro'} not found; the benchmark runs "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    if args.child:
        return child(args)

    out = sys.stdout
    doc = {"schema": "repro-e2e/1", "provenance": provenance(args),
           "workloads": {}}
    passes = (0, 1) if args.trace is None else (args.trace,)
    for workload in ([args.workload] if args.workload else names):
        entry = doc["workloads"][workload] = {}
        if 0 in passes:
            part = entry["timing"] = timing_pass(workload, args)
            report(workload, part, part["end_to_end"], spec["end_to_end"],
                   out)
        if 1 in passes:
            part = entry["trace"] = spawn_child(workload, args, trace=True)
            for row in spec["per_layer"]:
                part["metrics"].setdefault(row["name"], 0.0)
            report(workload, part, part["metrics"], spec["per_layer"], out)
    out.write("open loop: arrivals are drawn up front from the seed and "
              "latency counts from the scheduled arrival; generator "
              "lateness is 0 by construction on a virtual clock.\n")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    parts = [part for entry in doc["workloads"].values()
             for part in entry.values()]
    correct = all(p["wrong"] == 0 and not p["errors"] for p in parts)
    metrics: dict[str, dict] = {}
    if args.workload and args.trace is not None:
        rows = spec["per_layer"] if args.trace else spec["end_to_end"]
        entry = doc["workloads"][args.workload]
        values = (entry["trace"]["metrics"] if args.trace
                  else {k: v["value"]
                        for k, v in entry["timing"]["end_to_end"].items()})
        metrics = {row["name"]: {"value": values[row["name"]],
                                 "unit": row["unit"]} for row in rows}
    print(json.dumps({"correct": correct,
                      "attempted": sum(p["attempted"] for p in parts),
                      "failed": sum(p["wrong"] for p in parts),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
