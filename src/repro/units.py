"""Unit constants and helpers.

The whole library works in **bytes** for sizes and **seconds** for time.
Bandwidths are bytes per second.  The paper reports bandwidth in MiB/s and
message sizes in KiB, so conversion helpers are provided for the benchmark
harness and tables.
"""

from __future__ import annotations

#: One kibibyte in bytes.
KiB = 1024
#: One mebibyte in bytes.
MiB = 1024 * 1024
#: One gibibyte in bytes.
GiB = 1024 * 1024 * 1024

#: One microsecond in seconds.
USEC = 1e-6
#: One millisecond in seconds.
MSEC = 1e-3

#: One gigaflop (10^9 floating point operations).
GFLOP = 1e9


def mib_per_s(bytes_per_s: float) -> float:
    """Convert a bandwidth from bytes/s to MiB/s."""
    return bytes_per_s / MiB


def bytes_per_s(mib_s: float) -> float:
    """Convert a bandwidth from MiB/s to bytes/s."""
    return mib_s * MiB


def gflops(flops: float, seconds: float) -> float:
    """Achieved GFlop/s for ``flops`` operations in ``seconds``."""
    if seconds <= 0.0:
        raise ValueError(f"non-positive duration: {seconds!r}")
    return flops / seconds / GFLOP


def fmt_time(seconds: float) -> str:
    """Human-readable duration with an appropriate unit."""
    if seconds >= 60.0:
        return f"{seconds / 60.0:.2f} min"
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.2f} us"
