"""Property-style randomized tests over the deterministic harness.

Each seed generates a random alloc/copy/launch/free program and runs it
through the sync API, with its control ops in batch frames, and on the
local baseline.  The properties under test:

* **equivalence** — all three paths produce results bit-identical to the
  host oracle (an optimization may change times, never values);
* **monotonicity** — every virtual-time trace is non-decreasing;
* **determinism** — re-running a seed reproduces the identical program,
  results, and event trace (the DES regression property);
* **economy** — the batched path's daemon serves fewer request frames
  than the sync path's, which sends one per op (batching can only save
  round trips).
"""

import numpy as np
import pytest

from .harness import (
    RunOutcome,
    assert_equivalent,
    expected_results,
    generate_program,
    make_remote_rig,
    run_all_paths,
    run_batched,
    run_sync,
)

#: ≥ 20 seeds, per the acceptance criteria.
SEEDS = list(range(20)) + [101, 202, 12345]


@pytest.mark.parametrize("seed", SEEDS)
def test_all_paths_equivalent(seed):
    expected, outcomes, requests = run_all_paths(seed, n_ops=30)
    assert expected, "program produced no results to compare"
    assert_equivalent(expected, outcomes)
    # Batching can only remove round trips, never add them; the prologue's
    # kernel creates always share a frame.
    assert requests["batched"] < requests["sync"]


@pytest.mark.parametrize("seed", [3, 11, 17])
def test_same_seed_reproduces_identical_trace(seed):
    """Two fresh simulations of one seed are indistinguishable."""
    exp_a, out_a, _ = run_all_paths(seed, n_ops=30)
    exp_b, out_b, _ = run_all_paths(seed, n_ops=30)
    for a, b in zip(exp_a, exp_b):
        assert (a == b).all()
    for path in out_a:
        assert out_a[path].trace == out_b[path].trace, (
            f"{path}: virtual-time trace diverged between identical runs")
        for ra, rb in zip(out_a[path].results, out_b[path].results):
            assert (ra == rb).all()


def test_generate_program_is_pure_in_seed():
    a = generate_program(42, n_ops=25)
    b = generate_program(42, n_ops=25)
    assert len(a) == len(b)
    for ia, ib in zip(a, b):
        assert ia.op == ib.op
        for xa, xb in zip(ia.args, ib.args):
            if isinstance(xa, np.ndarray):
                assert (xa == xb).all()
            else:
                assert xa == xb


def test_programs_differ_across_seeds():
    assert [i.op for i in generate_program(1)] != \
        [i.op for i in generate_program(2)]


def test_oracle_matches_numpy_by_construction():
    prog = generate_program(9, n_ops=20)
    res = expected_results(prog)
    assert all(isinstance(r, np.ndarray) for r in res)
    assert all(r.dtype == np.float64 for r in res)


@pytest.mark.parametrize("sync_every", [1, 5])
def test_stream_with_periodic_barriers_still_equivalent(sync_every):
    """Flushing the open run at barriers must not change numerics or
    ordering."""
    prog = generate_program(13, n_ops=30)
    expected = expected_results(prog)
    cluster, sess, ac = make_remote_rig()
    out = sess.call(run_batched(cluster.engine, ac, prog,
                                sync_every=sync_every))
    assert_equivalent(expected, {"batched": out})
    # A barrier after every op forbids batching beyond the prologue (the
    # three kernel_creates plus the first instruction, an alloc).
    if sync_every == 1:
        stats = cluster.daemons[ac.handle.ac_id].stats
        assert (stats.mbatches, stats.mbatched_ops) == (1, 4)


def test_sync_trace_is_strictly_within_run():
    """The sync path's trace covers every instruction, in order."""
    prog = generate_program(4, n_ops=20)
    cluster, sess, ac = make_remote_rig()
    out = sess.call(run_sync(cluster.engine, ac, prog))
    assert isinstance(out, RunOutcome)
    assert len(out.trace) == len(prog)
    out.assert_monotonic()
