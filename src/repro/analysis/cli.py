"""Command-line entry point: regenerate paper figures from the shell.

Usage::

    python -m repro list
    python -m repro run fig05 [--quick] [--json out.json]
    python -m repro run all --quick
    python -m repro trace fig05 [--quick] [--out trace.json] [--timeline]
                                [--check-identity]
    python -m repro jobs [--seed S] [--compare] [--quick] [--json out.json]
                         [--check-determinism]
    python -m repro chaos <scenario|all|list> [--quick] [--seed S]
                          [--json out.json] [--check-determinism]
                          [--check EXPECTATIONS.json]
    python -m repro collective [--op OP] [--seed S] [--quick]
                               [--json out.json] [--check-determinism]

``trace`` runs one experiment with span tracing enabled and exports the
result as Chrome trace-event JSON (load it in ``chrome://tracing`` or
https://ui.perfetto.dev) and/or an ASCII timeline.  ``--check-identity``
re-runs the experiment untraced and asserts both produce identical
numbers — tracing must never perturb virtual time.

``chaos`` replays one (or every) scenario from the chaos library
(:mod:`repro.chaos`) against the discovery-driven cluster and prints the
recovery-latency / SLO-violation scores, ARM preemptions, and per-tenant
latency and fairness; ``steady`` injects no fault, so it is the open-loop
multi-tenant admission workload alone.  ``--check-determinism`` runs
each scenario twice and asserts bit-identical trace digests;
``--check`` gates the scores against checked-in expectation bounds
(``benchmarks/chaos_expectations.json``; generated with ``--quick``,
seed 0) — the identity ledger's ``chaos`` document is written exactly
that way.

``jobs`` drives a seeded Pegasus-style ensemble (priorities, tenants,
DAG dependencies, verified numerics) through the job-service front door
(:mod:`repro.jobs`) and prints virtual jobs/s, warm-path cache rates,
and the outcome digest.  ``--compare`` also runs the cold baseline
(coalescing and caching off) on the same seed, reports the warm-path
speedup, and asserts the two runs' outcome digests are identical — the
identity ledger holds that document and gates on the ≥1.5× speedup.

``collective`` runs one seeded ring collective (allreduce or broadcast)
over eight devices twice — over the P2P device-direct data plane and
over the historical staged path through the compute node — on a 2x2
torus of switches, and
prints per-mode virtual wall-clock, compute-node endpoint bytes, trunk
bytes, and the bit-identity verdict.  ``--check-determinism`` reruns the
comparison and asserts the same digest — the identity ledger holds
that document and gates on the ≥2× compute-node byte reduction.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing as _t

from . import experiments as _exp

#: Experiment name -> module with run()/check().
EXPERIMENTS: dict[str, _t.Any] = {
    name: getattr(_exp, name) for name in _exp.__all__
}

DESCRIPTIONS = {
    "fig05": "H2D bandwidth of the copy protocols",
    "fig06": "D2H bandwidth of the copy protocols",
    "fig07": "H2D: node-attached vs network-attached GPU",
    "fig08": "D2H: node-attached vs network-attached GPU",
    "fig09": "multi-GPU QR factorization GFlop/s",
    "fig10": "multi-GPU Cholesky factorization GFlop/s",
    "fig11": "MP2C wall time, local vs dynamic",
    "ext_tcp": "MPI vs rCUDA-style TCP remoting",
    "ext_blocksize": "pipeline block-size ablation",
    "ext_utilization": "static vs dynamic cluster job scheduling",
    "ext_contention": "fabric contention vs accelerator streams",
    "ext_faults": "accelerator failure and recovery",
    "ext_gpudirect": "GPUDirect on/off ablation",
    "ext_lookahead": "QR panel-lookahead ablation",
    "ext_batch": "mixed batch workload on the live cluster",
    "ext_async": "batched control frames vs per-op RPC round trips",
}


def list_experiments(out: _t.TextIO | None = None) -> None:
    out = out if out is not None else sys.stdout
    for name in sorted(EXPERIMENTS):
        out.write(f"{name:<18} {DESCRIPTIONS.get(name, '')}\n")


def _experiment(name: str) -> _t.Any:
    mod = EXPERIMENTS.get(name)
    if mod is None:
        raise SystemExit(
            f"unknown experiment {name!r}; try: {', '.join(sorted(EXPERIMENTS))}")
    return mod


def run_experiment(name: str, quick: bool = False,
                   json_path: str | None = None,
                   out: _t.TextIO | None = None) -> None:
    out = out if out is not None else sys.stdout
    mod = _experiment(name)
    fig = mod.run(quick=quick)
    out.write(fig.render() + "\n")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(fig.to_dict(), fh, indent=1)
        out.write(f"series written to {json_path}\n")
    mod.check(fig)
    out.write(f"{fig.fig_id}: shape check passed\n")


def trace_experiment(name: str, quick: bool = False,
                     out_path: str | None = None, timeline: bool = False,
                     check_identity: bool = False,
                     out: _t.TextIO | None = None) -> None:
    """Run one experiment traced; export and validate the Chrome trace."""
    from ..obs import trace_session, validate_chrome_trace
    out = out if out is not None else sys.stdout
    mod = _experiment(name)
    with trace_session() as session:
        fig = mod.run(quick=quick)
    out.write(fig.render() + "\n")
    out.write(f"traced {session.span_count()} spans across "
              f"{len(session.collectors)} engine(s)\n")
    trace = session.to_chrome_trace()
    validate_chrome_trace(trace)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(trace, fh, indent=1)
        out.write(f"chrome trace written to {out_path} "
                  f"({len(trace['traceEvents'])} events; open in "
                  f"chrome://tracing or ui.perfetto.dev)\n")
    if timeline:
        out.write(session.render_timeline() + "\n")
    if check_identity:
        untraced = mod.run(quick=quick)
        if fig.to_dict() != untraced.to_dict():
            raise SystemExit(
                f"{name}: traced and untraced runs diverged — tracing "
                f"perturbed the virtual timeline")
        out.write("identity check passed: traced run is bit-identical "
                  "to the untraced run\n")


def run_jobs(args: argparse.Namespace,
             out: _t.TextIO | None = None) -> int:
    """The ``jobs`` subcommand: the ensemble job-service front door."""
    from ..workloads import ensemble as _ensemble
    out = out if out is not None else sys.stdout
    cfg = _ensemble.EnsembleConfig(n_jobs=64 if args.quick else 96,
                                   seed=args.seed)
    report = _ensemble.run(cfg)
    out.write(_ensemble.format_report(report) + "\n")
    if args.check_determinism:
        again = _ensemble.run(cfg)
        if again.digest != report.digest:
            raise SystemExit("jobs: same seed produced a different outcome "
                             "digest — run is not deterministic")
        out.write("determinism check passed: same seed, same digest\n")
    baseline = None
    if args.compare:
        baseline = _ensemble.run(dataclasses.replace(
            cfg, coalescing=False, caching=False))
        speedup = (report.jobs_per_s / baseline.jobs_per_s
                   if baseline.jobs_per_s else 0.0)
        out.write(f"baseline (no coalescing, no caching): "
                  f"{baseline.jobs_per_s:.0f} jobs/s  "
                  f"warm-path speedup {speedup:.2f}x\n")
        if baseline.digest != report.digest:
            raise SystemExit("jobs: warm paths changed job outcomes — "
                             "on/off digests differ")
        out.write("identity check passed: warm paths on/off produce "
                  "bit-identical outcomes\n")
    if args.json_path:
        doc = {
            "config": dataclasses.asdict(cfg),
            "submitted": report.submitted,
            "done": report.done,
            "failed": report.failed,
            "cancelled": report.cancelled,
            "duration_s": report.duration_s,
            "jobs_per_s": report.jobs_per_s,
            "utilization": report.utilization,
            "latency_p50_s": report.latency_p50_s,
            "latency_p99_s": report.latency_p99_s,
            "per_tenant": report.per_tenant,
            "coalesce": report.coalesce,
            "kernel_cache_hits": report.kernel_cache_hits,
            "kernel_cache_misses": report.kernel_cache_misses,
            "kernel_cache_hit_rate": report.kernel_cache_hit_rate,
            "alloc_cache_hits": report.alloc_cache_hits,
            "alloc_cache_misses": report.alloc_cache_misses,
            "alloc_cache_hit_rate": report.alloc_cache_hit_rate,
            "leases_reused": report.leases_reused,
            "leases_cold": report.leases_cold,
            "leases_evicted": report.leases_evicted,
            "leases_expired": report.leases_expired,
            "digest": report.digest,
        }
        if baseline is not None:
            doc["baseline_jobs_per_s"] = baseline.jobs_per_s
            doc["speedup"] = (report.jobs_per_s / baseline.jobs_per_s
                              if baseline.jobs_per_s else 0.0)
            doc["digests_match"] = baseline.digest == report.digest
        with open(args.json_path, "w") as fh:
            json.dump(doc, fh, indent=1)
        out.write(f"report written to {args.json_path}\n")
    return 0


def run_chaos(args: argparse.Namespace,
              out: _t.TextIO | None = None) -> int:
    """The ``chaos`` subcommand: seeded elasticity/failure scenarios."""
    from .. import chaos as _chaos
    out = out if out is not None else sys.stdout
    if args.scenario == "list":
        for name, sc in _chaos.SCENARIOS.items():
            out.write(f"{name:<18} {sc.description}\n")
        return 0
    names = (list(_chaos.SCENARIOS) if args.scenario == "all"
             else [args.scenario])
    for name in names:
        if name not in _chaos.SCENARIOS:
            raise SystemExit(
                f"unknown scenario {name!r}; "
                f"try: {', '.join(_chaos.SCENARIOS)}, all, list")
    if args.quick:
        cfg = _chaos.ChaosConfig(n_tenants=24, window_s=10e-3,
                                 seed=args.seed)
    else:
        cfg = _chaos.ChaosConfig(seed=args.seed)
    bounds = None
    if args.check_path:
        with open(args.check_path) as fh:
            bounds = json.load(fh)
    problems: list[str] = []
    docs: dict[str, dict] = {}
    for name in names:
        report = _chaos.run(name, cfg)
        out.write(_chaos.format_report(report) + "\n")
        if args.check_determinism:
            again = _chaos.run(name, cfg)
            if (again.digest != report.digest
                    or again.buffer_digests != report.buffer_digests):
                raise SystemExit(
                    f"chaos {name}: same seed produced a different trace "
                    f"digest — run is not deterministic")
            out.write("determinism check passed: same seed, same digest\n")
        if bounds is not None:
            problems.extend(
                _chaos.check_expectations(report, bounds.get(name, {})))
        docs[name] = report.to_dict()
        out.write("\n")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(docs if len(names) > 1 else docs[names[0]], fh,
                      indent=1)
        out.write(f"report written to {args.json_path}\n")
    if problems:
        for problem in problems:
            out.write(problem + "\n")
        raise SystemExit(
            f"chaos: {len(problems)} expectation bound(s) violated")
    if bounds is not None:
        out.write("expectation bounds check passed\n")
    return 0


def run_collective(args: argparse.Namespace,
                   out: _t.TextIO | None = None) -> int:
    """The ``collective`` subcommand: P2P vs staged ring collectives."""
    from ..workloads import collective as _coll
    out = out if out is not None else sys.stdout
    cfg = _coll.CollectiveConfig(chunk_elements=2048 if args.quick else 65536,
                                 op=args.op, seed=args.seed)
    report = _coll.run(cfg)
    out.write(_coll.format_report(report) + "\n")
    if args.check_determinism:
        again = _coll.run(cfg)
        if again.digest != report.digest:
            raise SystemExit("collective: same seed produced a different "
                             "digest — run is not deterministic")
        out.write("determinism check passed: same seed, same digest\n")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(report.to_doc(), fh, indent=1)
        out.write(f"report written to {args.json_path}\n")
    if not report.identical:
        raise SystemExit("collective: P2P and staged transports produced "
                         "different device contents")
    return 0


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate figures of 'A Dynamic Accelerator-Cluster "
                    "Architecture' (ICPP 2012) on the simulated cluster.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("experiment", help="fig05..fig11, ext_*, or 'all'")
    runp.add_argument("--quick", action="store_true",
                      help="coarser sweeps for a fast look")
    runp.add_argument("--json", dest="json_path", default=None,
                      help="also write the series as JSON")
    tracep = sub.add_parser(
        "trace", help="run one experiment with span tracing on")
    tracep.add_argument("experiment", help="fig05..fig11 or ext_*")
    tracep.add_argument("--quick", action="store_true",
                        help="coarser sweeps for a fast look")
    tracep.add_argument("--out", dest="out_path", default=None,
                        help="write Chrome trace-event JSON here")
    tracep.add_argument("--timeline", action="store_true",
                        help="print an ASCII span timeline")
    tracep.add_argument("--check-identity", action="store_true",
                        help="re-run untraced and assert identical results")
    jobsp = sub.add_parser(
        "jobs", help="run the ensemble job-service front door")
    jobsp.add_argument("--seed", type=int, default=0,
                       help="RNG seed (default 0)")
    jobsp.add_argument("--compare", action="store_true",
                       help="also run the cold baseline and report the "
                            "warm-path speedup (asserts identical outcomes)")
    jobsp.add_argument("--quick", action="store_true",
                       help="64 jobs instead of 96 (CI smoke)")
    jobsp.add_argument("--json", dest="json_path", default=None,
                       help="also write the report as JSON")
    jobsp.add_argument("--check-determinism", action="store_true",
                       help="run twice and assert bit-identical digests")
    chaosp = sub.add_parser(
        "chaos", help="run a chaos scenario on the discovered pool")
    chaosp.add_argument("scenario",
                        help="scenario name, 'all', or 'list'")
    chaosp.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default 0)")
    chaosp.add_argument("--quick", action="store_true",
                        help="smaller population for a fast look (CI smoke)")
    chaosp.add_argument("--json", dest="json_path", default=None,
                        help="also write the report(s) as JSON")
    chaosp.add_argument("--check-determinism", action="store_true",
                        help="run each scenario twice and assert "
                             "bit-identical digests")
    chaosp.add_argument("--check", dest="check_path", default=None,
                        help="expectation-bounds JSON to gate scores "
                             "against (CI smoke)")
    collp = sub.add_parser(
        "collective", help="ring collective: P2P vs staged transport")
    collp.add_argument("--op", choices=("allreduce", "broadcast"),
                       default="allreduce",
                       help="collective operation (default allreduce)")
    collp.add_argument("--seed", type=int, default=0,
                       help="RNG seed (default 0)")
    collp.add_argument("--quick", action="store_true",
                       help="2048-element chunks instead of 65536 (CI smoke)")
    collp.add_argument("--json", dest="json_path", default=None,
                       help="also write the report as JSON")
    collp.add_argument("--check-determinism", action="store_true",
                       help="run twice and assert bit-identical digests")
    args = parser.parse_args(argv)

    if args.cmd == "list":
        list_experiments()
        return 0
    if args.cmd == "jobs":
        return run_jobs(args)
    if args.cmd == "chaos":
        return run_chaos(args)
    if args.cmd == "collective":
        return run_collective(args)
    if args.cmd == "trace":
        trace_experiment(args.experiment, quick=args.quick,
                         out_path=args.out_path, timeline=args.timeline,
                         check_identity=args.check_identity)
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        run_experiment(name, quick=args.quick,
                       json_path=args.json_path if len(names) == 1 else None)
    return 0
