"""Shared helper for the fabric tests."""


def send(fabric, src, dst, nbytes, **kwargs):
    """Start a transfer; returns it and an event fired at its delivery.

    The transmission itself fires at injection; its delivery is seen
    through ``on_delivered``, which fires the event in place (no heap
    entry, so event-budget counts are unaffected).
    """
    delivered = fabric.engine.event()
    tx = fabric.transfer(src, dst, nbytes, on_delivered=delivered.fire,
                         **kwargs)
    return tx, delivered
