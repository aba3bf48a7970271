"""Shared helpers for the engine tests."""

from repro.sim.engine import _Sleep


def newest_sleep(eng):
    """The sleep timer armed last: right after ``race()``, its deadline.

    The race owns that timer; a test reads it from the heap only to
    check what the race did with it.
    """
    return max((entry for entry in eng._heap if type(entry[2]) is _Sleep),
               key=lambda entry: entry[1])[2]
