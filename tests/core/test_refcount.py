"""The bulk-copy loop frees what it is done with by refcount alone.

A D2H read-back is a view of the device backing it was read from; the
next H2D into the same buffer detaches that backing (copy-on-write), so
the backing lives exactly as long as the read-back.  Nothing on the
path — a process, a message, a DMA copy, a landing — may keep it longer
through a reference cycle: with the cyclic collector off (its
collections are what a cycle would wait for), each detached backing is
freed as soon as the application drops its read-back.
"""

import gc
import weakref

import numpy as np

from repro.units import KiB


def test_detached_backings_die_with_their_read_backs(cluster, sess):
    client = cluster.arm_client(0)
    ac = cluster.remote(0, sess.call(client.alloc(count=1))[0])
    nbytes = 256 * KiB
    ptr = sess.call(ac.mem_alloc(nbytes))
    alloc = cluster.accelerator_for_handle(ac.handle).gpu.memory.allocation(
        ptr)
    backings = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        out = None
        for i in range(4):
            payload = np.full(nbytes, i, dtype=np.uint8)
            # As bulk_copy does: the previous read-back is still held
            # while the next write lands.
            sess.call(ac.memcpy_h2d(ptr, payload))
            out = sess.call(ac.memcpy_d2h(ptr, nbytes))
            assert out.tobytes() == payload.tobytes()
            backings.append(weakref.ref(alloc.data))
            # Every backing before the one this read-back views is dead.
            assert [b() is None for b in backings] == [True] * i + [False]
        # With the last read-back dropped nothing holds a view of the
        # backing, so the next write lands in place: no detach.
        del out
        sess.call(ac.memcpy_h2d(ptr, payload))
        assert alloc.data is backings[-1]()
    finally:
        if was_enabled:
            gc.enable()
