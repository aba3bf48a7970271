"""Deterministic-simulation test harness.

Runs one randomly generated accelerator program — a seeded sequence of
alloc / upload / kernel / download / free instructions — through three
independent execution paths:

* the synchronous ``ac*`` API on a :class:`RemoteAccelerator`,
* the same program with its control ops sent as batch frames
  (``control_run``) on a :class:`RemoteAccelerator`,
* the node-attached :class:`~repro.baselines.local.LocalAccelerator`
  baseline (no network at all),

and returns, per path, the downloaded result arrays plus the virtual-time
event trace.  The three paths must produce **bit-identical** numerics
(they execute the same float ops in the same order), every trace must be
monotone in virtual time, and re-running the same seed must reproduce the
same trace bit for bit — the oracle future performance PRs are tested
against: an optimization may change *times*, never *values* or
determinism.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.cluster import Cluster, paper_testbed
from repro.core import Op, TenantSpec

#: Element counts the generator draws from.  A small set keeps it likely
#: that two live buffers share a length, which daxpy needs.
SIZES = (16, 32, 64, 128)

#: Kernels a generated program may launch.
KERNELS = ("dscal", "daxpy", "fill")


@dataclasses.dataclass(frozen=True)
class Instr:
    """One abstract instruction; ``args`` depend on ``op``.

    ===========  ===========================================
    op           args
    ===========  ===========================================
    ``alloc``    (buf, n)        — n float64 elements
    ``h2d``      (buf, data)     — upload the given array
    ``dscal``    (buf, alpha)
    ``daxpy``    (src, dst, alpha) — dst += alpha * src
    ``fill``     (buf, value)
    ``d2h``      (buf,)          — download + record result
    ``free``     (buf,)
    ===========  ===========================================
    """

    op: str
    args: tuple


def generate_program(seed: int, n_ops: int = 40) -> list[Instr]:
    """A random but well-formed program (every touched buffer is live).

    The generator is pure in ``seed``: equal seeds give equal programs.
    Every program ends by downloading and freeing all live buffers, so
    each run yields at least one result to compare.
    """
    rng = np.random.default_rng(seed)
    prog: list[Instr] = []
    live: dict[int, int] = {}  # buf id -> length
    next_buf = 0

    def alloc():
        nonlocal next_buf
        buf, n = next_buf, int(rng.choice(SIZES))
        next_buf += 1
        live[buf] = n
        prog.append(Instr("alloc", (buf, n)))
        prog.append(Instr("h2d", (buf, rng.standard_normal(n))))
        return buf

    alloc()  # never start with an empty working set
    for _ in range(n_ops):
        choice = rng.random()
        if choice < 0.2 or not live:
            alloc()
        elif choice < 0.5:
            buf = int(rng.choice(sorted(live)))
            kind = rng.choice(KERNELS)
            if kind == "dscal":
                prog.append(Instr("dscal", (buf, float(rng.uniform(0.5, 2.0)))))
            elif kind == "fill":
                prog.append(Instr("fill", (buf, float(rng.normal()))))
            else:
                peers = [b for b, n in live.items() if n == live[buf] and b != buf]
                if peers:
                    src = int(rng.choice(sorted(peers)))
                    prog.append(Instr("daxpy",
                                      (src, buf, float(rng.uniform(-1, 1)))))
                else:
                    prog.append(Instr("dscal", (buf, float(rng.uniform(0.5, 2.0)))))
        elif choice < 0.7:
            buf = int(rng.choice(sorted(live)))
            prog.append(Instr("h2d", (buf, rng.standard_normal(live[buf]))))
        elif choice < 0.85:
            buf = int(rng.choice(sorted(live)))
            prog.append(Instr("d2h", (buf,)))
        elif len(live) > 1:
            buf = int(rng.choice(sorted(live)))
            prog.append(Instr("d2h", (buf,)))
            prog.append(Instr("free", (buf,)))
            del live[buf]
        else:
            alloc()
    for buf in sorted(live):
        prog.append(Instr("d2h", (buf,)))
        prog.append(Instr("free", (buf,)))
    return prog


def expected_results(program: list[Instr]) -> list[np.ndarray]:
    """Evaluate the program on plain host arrays (the numeric oracle)."""
    bufs: dict[int, np.ndarray] = {}
    results: list[np.ndarray] = []
    for ins in program:
        if ins.op == "alloc":
            buf, n = ins.args
            bufs[buf] = np.zeros(n)
        elif ins.op == "h2d":
            buf, data = ins.args
            bufs[buf] = data.copy()
        elif ins.op == "dscal":
            buf, alpha = ins.args
            bufs[buf] *= alpha
        elif ins.op == "daxpy":
            src, dst, alpha = ins.args
            bufs[dst] += alpha * bufs[src]
        elif ins.op == "fill":
            buf, value = ins.args
            bufs[buf][:] = value
        elif ins.op == "d2h":
            results.append(bufs[ins.args[0]].copy())
        elif ins.op == "free":
            del bufs[ins.args[0]]
    return results


def _kernel_params(ins: Instr, addr: _t.Callable[[int], _t.Any],
                   lengths: dict[int, int]) -> tuple[str, dict]:
    """Wire name + params for a kernel instruction.

    ``addr`` maps a buffer id to its device address.
    """
    if ins.op == "dscal":
        buf, alpha = ins.args
        return "dscal", {"x": addr(buf), "n": lengths[buf], "alpha": alpha}
    if ins.op == "daxpy":
        src, dst, alpha = ins.args
        return "daxpy", {"x": addr(src), "y": addr(dst),
                         "n": lengths[dst], "alpha": alpha}
    buf, value = ins.args
    return "fill", {"dst": addr(buf), "n": lengths[buf], "value": value}


@dataclasses.dataclass
class RunOutcome:
    """What one execution path produced."""

    results: list[np.ndarray]
    trace: list[tuple[float, str]]

    def assert_monotonic(self) -> None:
        times = [t for t, _ in self.trace]
        assert times == sorted(times), "virtual-time trace went backwards"
        assert all(t >= 0 for t in times)


def run_sync(engine, ac, program: list[Instr]):
    """Drive the program through the synchronous ``ac*`` API (generator)."""
    addrs: dict[int, int] = {}
    lengths: dict[int, int] = {}
    results: list[np.ndarray] = []
    trace: list[tuple[float, str]] = []
    for name in KERNELS:
        yield from ac.kernel_create(name)
    for ins in program:
        if ins.op == "alloc":
            buf, n = ins.args
            lengths[buf] = n
            addrs[buf] = yield from ac.mem_alloc(n * 8)
        elif ins.op == "h2d":
            buf, data = ins.args
            yield from ac.memcpy_h2d(addrs[buf], data)
        elif ins.op in ("dscal", "daxpy", "fill"):
            name, params = _kernel_params(ins, addrs.__getitem__, lengths)
            yield from ac.kernel_run(name, params)
        elif ins.op == "d2h":
            buf = ins.args[0]
            out = yield from ac.memcpy_d2h(addrs[buf], lengths[buf] * 8)
            results.append(np.asarray(out, dtype=np.float64).copy())
        elif ins.op == "free":
            yield from ac.mem_free(addrs.pop(ins.args[0]))
        trace.append((engine.now, ins.op))
    return RunOutcome(results, trace)


def _named_buffers(ins: Instr) -> tuple:
    """The buffers an instruction names (an alloc names the new one)."""
    return ins.args[:2] if ins.op == "daxpy" else ins.args[:1]


def run_batched(engine, ac, program: list[Instr], sync_every: int = 0):
    """Drive the program with its control ops in batch frames (generator).

    Allocations, launches and frees gather into an open run that
    :meth:`~repro.core.api.RemoteAccelerator.control_run` sends.  The run
    is flushed before every bulk copy, before an op that names a buffer
    allocated in it (its address comes back with the frame) and, with
    ``sync_every > 0``, after every ``sync_every`` instructions.
    """
    addrs: dict[int, int] = {}
    lengths: dict[int, int] = {}
    results: list[np.ndarray] = []
    trace: list[tuple[float, str]] = []
    run = [(Op.KERNEL_CREATE, {"name": name}) for name in KERNELS]
    fresh: dict[int, int] = {}      # buffer -> its alloc's place in the run

    def flush():
        values = yield from ac.control_run(run)
        for buf, i in fresh.items():
            addrs[buf] = values[i]
        run.clear()
        fresh.clear()

    for i, ins in enumerate(program):
        if (ins.op in ("h2d", "d2h")
                or not fresh.keys().isdisjoint(_named_buffers(ins))):
            yield from flush()
        if ins.op == "alloc":
            buf, n = ins.args
            lengths[buf] = n
            fresh[buf] = len(run)
            run.append((Op.MEM_ALLOC, {"nbytes": n * 8}))
        elif ins.op == "h2d":
            buf, data = ins.args
            yield from ac.memcpy_h2d(addrs[buf], data)
        elif ins.op in ("dscal", "daxpy", "fill"):
            name, params = _kernel_params(ins, addrs.__getitem__, lengths)
            run.append((Op.KERNEL_RUN,
                        {"name": name, "params": params, "real": True}))
        elif ins.op == "d2h":
            buf = ins.args[0]
            out = yield from ac.memcpy_d2h(addrs[buf], lengths[buf] * 8)
            results.append(np.asarray(out, dtype=np.float64).copy())
        elif ins.op == "free":
            run.append((Op.MEM_FREE, {"addr": addrs.pop(ins.args[0])}))
        if sync_every and (i + 1) % sync_every == 0:
            yield from flush()
            trace.append((engine.now, f"sync@{i + 1}"))
    yield from flush()
    trace.append((engine.now, "sync"))
    return RunOutcome(results, trace)


def make_remote_rig():
    """A fresh 1-CN/1-AC cluster with a RemoteAccelerator front-end."""
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=1))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=1))
    return cluster, sess, cluster.remote(0, handles[0])


def make_local_rig():
    """A fresh engine with a node-attached LocalAccelerator."""
    from repro.baselines import LocalAccelerator
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=0,
                                    local_gpus=True))
    node = cluster.compute_nodes[0]
    local = LocalAccelerator(cluster.engine, node.local_gpu, node.cpu)
    return cluster, cluster.session(), local


def run_all_paths(seed: int, n_ops: int = 40):
    """Execute one seeded program on all three paths.

    Returns ``(expected, outcomes, requests)``: ``outcomes`` maps path
    name to :class:`RunOutcome`, ``requests`` maps each remote path to
    the request frames its daemon served.
    """
    program = generate_program(seed, n_ops)
    expected = expected_results(program)
    outcomes: dict[str, RunOutcome] = {}
    requests: dict[str, int] = {}
    for path, drive in (("sync", run_sync), ("batched", run_batched)):
        cluster, sess, ac = make_remote_rig()
        outcomes[path] = sess.call(drive(cluster.engine, ac, program))
        requests[path] = cluster.daemons[ac.handle.ac_id].stats.requests

    cluster_l, sess_l, ac_l = make_local_rig()
    outcomes["local"] = sess_l.call(run_sync(cluster_l.engine, ac_l, program))

    return expected, outcomes, requests


def assert_equivalent(expected: list[np.ndarray],
                      outcomes: dict[str, RunOutcome]) -> None:
    """All paths bit-identical to each other and to the host oracle."""
    for name, out in outcomes.items():
        assert len(out.results) == len(expected), (
            f"{name}: {len(out.results)} results, expected {len(expected)}")
        for i, (got, want) in enumerate(zip(out.results, expected)):
            assert got.shape == want.shape, f"{name}[{i}]: shape mismatch"
            assert (got == want).all(), (
                f"{name}[{i}]: numerics diverged "
                f"(max |delta| = {np.abs(got - want).max()})")
        out.assert_monotonic()


# ---------------------------------------------------------------------------
# Memcpy-heavy programs: the zero-copy data plane's A/B identity oracle.
#
# These programs exercise only the copy path — no kernels — but with every
# payload shape the plane must handle: real arrays (uint8 and float64),
# raw ``bytes``, timing-only Phantoms and offset windows.  The same
# seeded program is run twice, zero-copy on and off, and both the
# downloaded bytes *and* the traced span timeline must be
# bit-identical: the optimization may only change host wall time.
# ---------------------------------------------------------------------------

#: Buffer byte sizes for memcpy programs.  Deliberately spans sub-block
#: (one chunk) and multi-block pipeline transfers, plus one size that is
#: not a multiple of the pipeline block so the tail block is short.
MEMCPY_SIZES = (512, 4096, 24_576, 65_536, 200_000)


def generate_memcpy_program(seed: int, n_ops: int = 24) -> list[Instr]:
    """A random but well-formed copy-only program (pure in ``seed``).

    ===============  ====================================================
    op               args
    ===============  ====================================================
    ``alloc_raw``    (buf, nbytes, real) — phantom buffer when not real
    ``h2d_raw``      (buf, payload, offset)
    ``d2h_raw``      (buf, offset, nbytes)
    ``free_raw``     (buf,)
    ===============  ====================================================
    """
    from repro.mpisim import Phantom

    rng = np.random.default_rng(seed)
    prog: list[Instr] = []
    live: dict[int, tuple[int, bool]] = {}  # buf -> (nbytes, real)
    next_buf = 0

    def payload_for(nbytes: int, real: bool) -> _t.Any:
        if not real:
            return Phantom(nbytes)
        raw = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
        kind = int(rng.integers(3))
        if kind == 0:
            return raw
        if kind == 1 and nbytes % 8 == 0:
            return raw.view(np.float64)
        return raw.tobytes()

    def alloc() -> int:
        nonlocal next_buf
        buf = next_buf
        next_buf += 1
        nbytes = int(rng.choice(MEMCPY_SIZES))
        real = bool(rng.random() < 0.7)
        live[buf] = (nbytes, real)
        prog.append(Instr("alloc_raw", (buf, nbytes, real)))
        # Fully populate right away so offset reads are always defined.
        prog.append(Instr("h2d_raw",
                          (buf, payload_for(nbytes, real), 0)))
        return buf

    def window(nbytes: int) -> tuple[int, int]:
        """A random non-empty (offset, length) window within ``nbytes``."""
        if nbytes <= 1 or rng.random() < 0.5:
            return 0, nbytes
        offset = int(rng.integers(0, nbytes - 1))
        length = int(rng.integers(1, nbytes - offset + 1))
        return offset, length

    alloc()
    for _ in range(n_ops):
        choice = rng.random()
        if choice < 0.2 or not live:
            alloc()
        elif choice < 0.55:
            buf = int(rng.choice(sorted(live)))
            nbytes, real = live[buf]
            offset, length = window(nbytes)
            prog.append(Instr("h2d_raw",
                              (buf, payload_for(length, real), offset)))
        elif choice < 0.85:
            buf = int(rng.choice(sorted(live)))
            nbytes, _real = live[buf]
            offset, length = window(nbytes)
            prog.append(Instr("d2h_raw", (buf, offset, length)))
        elif len(live) > 1:
            buf = int(rng.choice(sorted(live)))
            nbytes, _real = live[buf]
            prog.append(Instr("d2h_raw", (buf, 0, nbytes)))
            prog.append(Instr("free_raw", (buf,)))
            del live[buf]
        else:
            alloc()
    for buf in sorted(live):
        nbytes, _real = live[buf]
        prog.append(Instr("d2h_raw", (buf, 0, nbytes)))
        prog.append(Instr("free_raw", (buf,)))
    return prog


def _payload_bytes(payload: _t.Any) -> bytes:
    if isinstance(payload, np.ndarray):
        return payload.tobytes()
    return bytes(payload)


def expected_memcpy_results(program: list[Instr]) -> list:
    """Byte-level host oracle: each d2h yields ``bytes`` or a phantom tag."""
    from repro.mpisim import Phantom

    bufs: dict[int, bytearray | None] = {}
    results: list = []
    for ins in program:
        if ins.op == "alloc_raw":
            buf, nbytes, real = ins.args
            bufs[buf] = bytearray(nbytes) if real else None
        elif ins.op == "h2d_raw":
            buf, payload, offset = ins.args
            if not isinstance(payload, Phantom):
                data = _payload_bytes(payload)
                bufs[buf][offset:offset + len(data)] = data
        elif ins.op == "d2h_raw":
            buf, offset, nbytes = ins.args
            backing = bufs[buf]
            if backing is None:
                results.append(("phantom", nbytes))
            else:
                results.append(bytes(backing[offset:offset + nbytes]))
        elif ins.op == "free_raw":
            del bufs[ins.args[0]]
    return results


def run_memcpy(engine, ac, program: list[Instr]):
    """Drive a memcpy program through the sync API (generator).

    Results are normalized to ``bytes`` (or ``("phantom", n)`` tags) so
    outcomes compare bit-for-bit regardless of the dtype the download
    path reconstructed.
    """
    from repro.mpisim import Phantom

    addrs: dict[int, int] = {}
    results: list = []
    trace: list[tuple[float, str]] = []
    for ins in program:
        if ins.op == "alloc_raw":
            buf, nbytes, _real = ins.args
            addrs[buf] = yield from ac.mem_alloc(nbytes)
        elif ins.op == "h2d_raw":
            buf, payload, offset = ins.args
            yield from ac.memcpy_h2d(addrs[buf], payload, offset=offset)
        elif ins.op == "d2h_raw":
            buf, offset, nbytes = ins.args
            out = yield from ac.memcpy_d2h(addrs[buf], nbytes, offset=offset)
            if isinstance(out, Phantom):
                results.append(("phantom", out.nbytes))
            else:
                results.append(np.asarray(out).tobytes())
        elif ins.op == "free_raw":
            yield from ac.mem_free(addrs.pop(ins.args[0]))
        trace.append((engine.now, ins.op))
    return RunOutcome(results, trace)


def span_timeline(session) -> list[tuple]:
    """The traced span timeline as comparable (name, phase, ts, dur) rows."""
    events = session.to_chrome_trace()["traceEvents"]
    return [(ev.get("name"), ev.get("ph"), ev.get("ts"), ev.get("dur"))
            for ev in events]


def run_memcpy_traced(seed: int, n_ops: int = 24):
    """One traced memcpy run.

    Returns ``(outcome, timeline)``.  The rig is built inside the trace
    session so every engine's spans are captured.
    """
    from repro.obs import trace_session

    program = generate_memcpy_program(seed, n_ops)
    with trace_session() as session:
        cluster, sess, ac = make_remote_rig()
        outcome = sess.call(run_memcpy(cluster.engine, ac, program))
    return outcome, span_timeline(session)


# ---------------------------------------------------------------------------
# Chaos op programs: seeded injection sequences over the discovered pool.
#
# The chaos analog of generate_program(): a random but well-formed sequence
# of membership/fault injections (joins, leaves, flaps, stragglers,
# partitions, slow links, upgrades), pure in the seed, composed into an
# ad-hoc Scenario and run under offered tenant load.  The determinism
# oracle: the same seed replayed twice must produce a bit-identical trace
# digest, membership log, and per-session payload digests — real payloads
# survive failover replay byte-for-byte no matter what the program did to
# the pool underneath.
# ---------------------------------------------------------------------------

#: Small-but-churny run shape for harness/CI chaos replays.
CHAOS_QUICK = dict(n_tenants=16, window_s=8e-3)


def generate_chaos_program(seed: int, n_injections: int = 6,
                           n_accelerators: int = 6, initial: int = 4,
                           window_s: float = 8e-3):
    """A random, well-formed chaos injection program (pure in ``seed``).

    Injections land at increasing times inside the arrival window and
    respect membership: joins target dormant nodes, everything else
    targets active ones (leaves and upgrades track the active set, so a
    later join can resurrect a leaver).
    """
    import random as _random

    from repro.chaos import Injection

    rng = _random.Random(seed)
    active = set(range(initial))
    dormant = set(range(initial, n_accelerators))
    program: list = []
    times = sorted(rng.uniform(0.1 * window_s, 0.8 * window_s)
                   for _ in range(n_injections))
    for at in times:
        kinds = ["slow", "flap", "partition", "slow-link", "upgrade"]
        if dormant:
            kinds.append("join")
        if len(active) > 1:
            kinds.append("leave")
        kind = rng.choice(kinds)
        span = rng.uniform(0.1 * window_s, 0.3 * window_s)
        if kind == "join":
            ac = rng.choice(sorted(dormant))
            dormant.discard(ac)
            active.add(ac)
            program.append(Injection("join", at, ac_id=ac))
        elif kind == "leave":
            ac = rng.choice(sorted(active))
            active.discard(ac)
            dormant.add(ac)
            program.append(Injection(
                "leave", at, ac_id=ac,
                reason=rng.choice(["departed", None])))
        elif kind == "flap":
            ac = rng.choice(sorted(active))
            program.append(Injection("flap", at, ac_id=ac,
                                     until_s=at + span,
                                     half_period_s=span / 3.0))
        elif kind == "slow":
            ac = rng.choice(sorted(active))
            program.append(Injection("slow", at, ac_id=ac,
                                     factor=rng.uniform(5.0, 25.0),
                                     until_s=at + span))
        elif kind == "partition":
            ac = rng.choice(sorted(active))
            program.append(Injection("partition", at, ac_id=ac,
                                     until_s=at + span))
        elif kind == "slow-link":
            ac = rng.choice(sorted(active))
            program.append(Injection("slow-link", at, ac_id=ac,
                                     extra_s=rng.uniform(1e-4, 4e-4),
                                     until_s=at + span))
        else:  # upgrade
            ac = rng.choice(sorted(active))
            program.append(Injection("upgrade", at, ac_id=ac,
                                     version=f"v{rng.randint(2, 9)}"))
    return program


def chaos_scenario_from_program(seed: int, **kwargs):
    """Wrap a generated injection program as an ad-hoc Scenario."""
    from repro.chaos import Scenario

    program = generate_chaos_program(seed, **kwargs)
    return Scenario(
        name=f"generated-{seed}",
        description=f"seeded chaos op program (seed {seed})",
        recovery_path="whatever the generated injections require",
        injections=lambda cfg: program)


def run_chaos_scenario(scenario, seed: int = 0, **overrides):
    """One harness-shaped chaos run (small population, real payloads)."""
    from repro.chaos import ChaosConfig, run as _run_chaos

    cfg = ChaosConfig(seed=seed, **{**CHAOS_QUICK, **overrides})
    return _run_chaos(scenario, cfg)


def assert_chaos_replay_identical(scenario, seed: int = 0, **overrides):
    """The chaos determinism oracle: same seed, bit-identical everything.

    Runs the scenario twice and asserts the trace digests, the ARM's
    membership logs, and every verified session's returned payload bytes
    (their sha256 digests) match exactly.  Returns the first report for
    further scenario-specific assertions.
    """
    first = run_chaos_scenario(scenario, seed, **overrides)
    second = run_chaos_scenario(scenario, seed, **overrides)
    assert first.digest == second.digest, (
        f"{first.scenario}: same seed produced different trace digests")
    assert first.pool_events == second.pool_events, (
        f"{first.scenario}: membership logs diverged between replays")
    assert first.buffer_digests == second.buffer_digests, (
        f"{first.scenario}: downloaded payload bytes diverged — replay "
        f"is not bit-identical")
    assert first.corrupted == 0, (
        f"{first.scenario}: {first.corrupted} verified payload(s) came "
        f"back corrupted")
    counts = ("submitted", "completed", "rejected", "aborted", "failed",
              "stuck", "recoveries", "slo_violations")
    for field in counts:
        assert getattr(first, field) == getattr(second, field), (
            f"{first.scenario}: {field} diverged between replays")
    return first


# ---------------------------------------------------------------------------
# Peer-transfer programs: the P2P data plane's A/B identity oracle.
#
# A seeded sequence of uploads and whole-buffer device→device transfers,
# run twice — once over the direct daemon→daemon ``peer_put`` path and
# once over the staged two-hop path through the compute node.  Both must
# produce bit-identical downloaded bytes (and match a plain byte-level
# host oracle); the P2P plane may only change *times*, never values.
# ---------------------------------------------------------------------------

#: Buffer byte sizes for peer programs: sub-block and multi-block
#: pipeline transfers (peer forwarding reuses the H2D pipeline).
PEER_SIZES = (512, 4096, 24_576, 65_536)


def generate_peer_program(seed: int, n_ops: int = 16,
                          n_devices: int = 3) -> list[Instr]:
    """A random, well-formed peer-transfer program (pure in ``seed``).

    ==============  ====================================================
    op              args
    ==============  ====================================================
    ``alloc_peer``  (dev, buf, nbytes)
    ``h2d_peer``    (dev, buf, payload)
    ``put``         (src_dev, src_buf, dst_dev, dst_buf, nbytes)
    ``d2h_peer``    (dev, buf, nbytes)
    ==============  ====================================================

    Transfers move whole buffers between equal-size allocations (the
    daemon's ``PEER_PUT`` path copies allocations from offset 0), and
    every buffer is uploaded before it can be a transfer source, so the
    byte oracle is always defined.
    """
    rng = np.random.default_rng(seed)
    prog: list[Instr] = []
    #: (dev, buf) -> nbytes, for buffers with defined contents.
    live: dict[tuple[int, int], int] = {}
    next_buf = 0

    def alloc() -> tuple[int, int]:
        nonlocal next_buf
        dev = int(rng.integers(n_devices))
        buf = next_buf
        next_buf += 1
        nbytes = int(rng.choice(PEER_SIZES))
        prog.append(Instr("alloc_peer", (dev, buf, nbytes)))
        payload = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
        prog.append(Instr("h2d_peer", (dev, buf, payload)))
        live[(dev, buf)] = nbytes
        return dev, buf

    alloc()
    alloc()
    for _ in range(n_ops):
        choice = rng.random()
        if choice < 0.25:
            alloc()
        elif choice < 0.75:
            src = sorted(live)[int(rng.integers(len(live)))]
            peers = [k for k, n in live.items()
                     if n == live[src] and k != src and k[0] != src[0]]
            if peers:
                dst = peers[int(rng.integers(len(peers)))]
            else:  # no equal-size peer elsewhere: make one
                dev = int((src[0] + 1 + rng.integers(n_devices - 1))
                          % n_devices)
                buf = next_buf
                next_buf += 1
                prog.append(Instr("alloc_peer", (dev, buf, live[src])))
                live[(dev, buf)] = live[src]
                dst = (dev, buf)
            prog.append(Instr("put", (src[0], src[1], dst[0], dst[1],
                                      live[src])))
        else:
            dev, buf = sorted(live)[int(rng.integers(len(live)))]
            prog.append(Instr("d2h_peer", (dev, buf, live[(dev, buf)])))
    for dev, buf in sorted(live):
        prog.append(Instr("d2h_peer", (dev, buf, live[(dev, buf)])))
    return prog


def expected_peer_results(program: list[Instr]) -> list[bytes]:
    """Byte-level host oracle for a peer program."""
    bufs: dict[tuple[int, int], bytearray] = {}
    results: list[bytes] = []
    for ins in program:
        if ins.op == "alloc_peer":
            dev, buf, nbytes = ins.args
            bufs[(dev, buf)] = bytearray(nbytes)
        elif ins.op == "h2d_peer":
            dev, buf, payload = ins.args
            bufs[(dev, buf)][:] = _payload_bytes(payload)
        elif ins.op == "put":
            sd, sb, dd, db, nbytes = ins.args
            bufs[(dd, db)][:nbytes] = bufs[(sd, sb)][:nbytes]
        elif ins.op == "d2h_peer":
            dev, buf, nbytes = ins.args
            results.append(bytes(bufs[(dev, buf)][:nbytes]))
    return results


def run_peer_program(engine, acs, program: list[Instr], mode: str):
    """Drive a peer program over the chosen transport (generator).

    ``mode="p2p"`` transfers via :meth:`peer_put`; ``mode="staged"``
    stages every transfer through the host (D2H then H2D) — the oracle
    path the P2P plane must match bit for bit.
    """
    addrs: dict[tuple[int, int], int] = {}
    results: list[bytes] = []
    trace: list[tuple[float, str]] = []
    for ins in program:
        if ins.op == "alloc_peer":
            dev, buf, nbytes = ins.args
            addrs[(dev, buf)] = yield from acs[dev].mem_alloc(nbytes)
        elif ins.op == "h2d_peer":
            dev, buf, payload = ins.args
            yield from acs[dev].memcpy_h2d(addrs[(dev, buf)], payload)
        elif ins.op == "put":
            sd, sb, dd, db, nbytes = ins.args
            if mode == "p2p":
                yield from acs[sd].peer_put(addrs[(sd, sb)], nbytes,
                                            acs[dd], addrs[(dd, db)])
            else:
                data = yield from acs[sd].memcpy_d2h(addrs[(sd, sb)], nbytes)
                yield from acs[dd].memcpy_h2d(addrs[(dd, db)], data)
        elif ins.op == "d2h_peer":
            dev, buf, nbytes = ins.args
            out = yield from acs[dev].memcpy_d2h(addrs[(dev, buf)], nbytes)
            results.append(np.asarray(out).tobytes())
        trace.append((engine.now, ins.op))
    return RunOutcome(results, trace)


def run_peer_modes(seed: int, n_ops: int = 16, n_devices: int = 3,
                   topology=None):
    """One seeded peer program over both transports on fresh clusters.

    Returns ``(expected, {"p2p": RunOutcome, "staged": RunOutcome})``.
    ``topology`` is an optional :class:`~repro.netsim.TopologySpec`, so
    the same oracle covers single-switch and multi-switch fabrics.
    """
    from repro.cluster import ClusterSpec

    program = generate_peer_program(seed, n_ops, n_devices)
    expected = expected_peer_results(program)
    outcomes: dict[str, RunOutcome] = {}
    for mode in ("p2p", "staged"):
        cluster = Cluster(ClusterSpec(n_compute=1, n_accelerators=n_devices,
                                      topology=topology))
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=n_devices))
        acs = [cluster.remote(0, h) for h in handles]
        outcomes[mode] = sess.call(
            run_peer_program(cluster.engine, acs, program, mode))
    return expected, outcomes


def register_tenants(cluster, *tenant_ids: str, **spec) -> None:
    """Register tenants the way every workload does: straight with the
    ARM's admission controller (``spec`` is the rest of a
    :class:`~repro.core.TenantSpec`, shared by all of them)."""
    for tenant_id in tenant_ids:
        cluster.arm.admission.register(TenantSpec(tenant_id, **spec))
