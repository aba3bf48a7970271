"""Layer attribution: map source files to layers and fold a cProfile run.

A *layer* is one of this repository's packages (plus the numpy kernel
bodies, the harness itself, and ``other``).  Host self time of a layer
is the ``tottime`` of the functions whose file lies in it, plus the
``tottime`` of every frame that is not repository code — C builtins
(numpy, ``heapq``, buffer copies) and library Python (numpy's ``.py``
wrappers, ``contextlib``, ``random``) — charged to its callers through
the profiler's caller table: exactly for an immediate repository caller,
and onward in proportion to caller-table time when the caller is itself
library code.
"""

from __future__ import annotations

import os
import pathlib
import pstats

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"

LAYERS = ("sim", "mpisim", "netsim", "gpusim", "kernels", "buffers", "core",
          "jobs", "cluster", "obs", "chaos", "workloads", "bench", "other")

#: The numpy kernel bodies: what a real accelerator would execute.
KERNEL_FILES = frozenset({
    "gpusim/stdkernels.py",
    "workloads/linalg/kernels.py",
    "workloads/linalg/panel.py",
    "workloads/mp2c/kernels.py",
})

_PACKAGES = frozenset(LAYERS) - {"kernels", "bench", "other"}


def layer_of_source(rel: str) -> str:
    """Layer of a file given its path relative to ``src/repro``."""
    if rel in KERNEL_FILES:
        return "kernels"
    head = rel.split("/", 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in _PACKAGES else "other"


def layer_of_file(filename: str) -> str | None:
    """Layer of a profiled frame's file; None for non-repository code."""
    if not filename.endswith(".py"):
        return None  # "~" (C builtins), "<string>", frozen importlib
    path = pathlib.Path(os.path.realpath(filename))
    if path.is_relative_to(SRC_ROOT):
        return layer_of_source(path.relative_to(SRC_ROOT).as_posix())
    if path.is_relative_to(BENCH_DIR):
        return "bench"
    return None


def _is_heap_call(func: tuple, which: str) -> bool:
    return func[0] == "~" and func[2] == f"<built-in method _heapq.{which}>"


def fold_profile(profile) -> dict:
    """Fold a ``cProfile.Profile`` into per-layer self time and calls.

    Returns ``{"layers": {layer: {"self_s", "calls"}}, "heap_pushes",
    "heap_pops", "top": [...]}``; ``top`` lists the ten largest
    functions by self time for the trace file.  Calls are attributed
    from call counts alone (never from times), so they repeat exactly.
    """
    stats = pstats.Stats(profile).stats
    own = {func: layer_of_file(func[0]) for func in stats}
    share_memo: dict[tuple, dict[str, float]] = {}
    owner_memo: dict[tuple, str] = {}

    def callers_of(func: tuple) -> dict:
        return stats[func][4] if func in stats else {}

    def shares(func: tuple, depth: int = 0) -> dict[str, float]:
        """Fractions of a frame's self time owed to each layer."""
        if own.get(func) is not None:
            return {own[func]: 1.0}
        if func in share_memo:
            return share_memo[func]
        callers = callers_of(func)
        if not callers or depth > 16:
            return {"other": 1.0}
        share_memo[func] = {"other": 1.0}  # cycle guard while resolving
        weight = {c: row[2] for c, row in callers.items()}
        if sum(weight.values()) <= 0.0:
            weight = {c: float(row[0]) for c, row in callers.items()}
        total = sum(weight.values())
        out: dict[str, float] = {}
        for caller, w in weight.items():
            for layer, frac in shares(caller, depth + 1).items():
                out[layer] = out.get(layer, 0.0) + frac * w / total
        share_memo[func] = out
        return out

    def call_owner(func: tuple, depth: int = 0) -> str:
        """Layer a library frame's outgoing calls are counted under: the
        layer of its most frequent caller (ties by sorted frame key)."""
        if own.get(func) is not None:
            return own[func]
        if func in owner_memo:
            return owner_memo[func]
        callers = callers_of(func)
        if not callers or depth > 16:
            return "other"
        owner_memo[func] = "other"  # cycle guard while resolving
        busiest = max(sorted(callers), key=lambda c: callers[c][0])
        owner_memo[func] = call_owner(busiest, depth + 1)
        return owner_memo[func]

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    heap = {"heappush": 0, "heappop": 0}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = own[func]
        if layer is not None or not callers:
            self_s[layer or "other"] += tt
            calls[layer or "other"] += nc
            continue
        for caller, (c_nc, _c_cc, c_tt, _c_ct) in callers.items():
            for lay, frac in shares(caller).items():
                self_s[lay] += c_tt * frac
            calls[call_owner(caller)] += c_nc
            for which in heap:
                if _is_heap_call(func, which) and own.get(caller) == "sim":
                    heap[which] += c_nc

    top = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:10]
    return {
        "layers": {lay: {"self_s": self_s[lay], "calls": calls[lay]}
                   for lay in LAYERS},
        "heap_pushes": heap["heappush"],
        "heap_pops": heap["heappop"],
        "top": [{"file": f[0], "line": f[1], "function": f[2],
                 "self_s": row[2], "calls": row[1]} for f, row in top],
    }
