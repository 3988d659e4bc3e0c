"""Per-layer tracing of `dcsf solve` from outside the package.

Each traced function is replaced, in the module where its callers look it
up, by a wrapper that records a span (name, start, end, parent span, solve
id) and adds the call's total and self time to per-name counters. Nothing
under `src/` changes. Spans are kept in memory and written out by `save`.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute), from the bottom of the stack to the top.
LAYERS = (
    ("channel", "sum_user_rate"),
    ("beamforming", "pairwise_sinc_sum"),
    ("beamforming", "cluster_snr"),
    ("semantic", "semantic_similarity"),
    ("energy", "total_flight_energy"),
    ("problem", "cluster_semantic_terms"),
    ("problem", "evaluate"),
    ("solver", "merge_clusters"),
    ("solver", "nondominated_sort"),
    ("solver", "select_best"),
    ("solver", "nsga2_generation"),
    ("solver", "gso_step"),
    ("solver", "gca_step"),
    ("solver", "run"),
    ("advisor", "advise"),
    ("metrics", "hypervolume"),
    ("cli", "_cmd_solve"),
)

# Spans beyond this many are counted in the per-name totals but not stored,
# which bounds the trace's memory at about 60 MB.
MAX_SPANS = 2_000_000


def _cluster_count(population):
    try:
        return sum(ind.assignment.n_clusters for ind in population)
    except (AttributeError, TypeError):
        return None


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr in LAYERS]
        self.stats = {name: [0, 0.0, 0.0] for name in self.names}  # calls, total_s, self_s
        self.absent: list[str] = []
        self.merges_applied = 0
        self.solve_id = -1
        self.dropped = 0
        self._stack: list[list] = []  # [span id, time spent in child spans]
        self._name = array("i")
        self._parent = array("i")
        self._solve = array("i")
        self._start = array("d")
        self._end = array("d")
        self._restore: list[tuple] = []

    def install(self) -> None:
        """Wrap every name of LAYERS that exists; record the others as absent."""
        for idx, (mod, attr) in enumerate(LAYERS):
            try:
                module = importlib.import_module(f"dcsf.{mod}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(self.names[idx])
                continue
            inner = self._count_merges(fn) if attr == "gca_step" else fn
            setattr(module, attr, self._wrap(idx, inner))
            self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _count_merges(self, fn):
        """GCA applies a merge by dropping one cluster; count the drop across the call."""
        def gca_step(population, *args, **kwargs):
            before = _cluster_count(population)
            out = fn(population, *args, **kwargs)
            after = _cluster_count(population)
            if before is not None and after is not None:
                self.merges_applied += before - after
            return out
        return gca_step

    def _wrap(self, idx: int, fn):
        stats = self.stats[self.names[idx]]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = self._open(idx, stack[-1][0] if stack else -1)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span >= 0:
                    self._start[span] = start
                    self._end[span] = end

        return functools.wraps(fn)(traced)

    def _open(self, idx: int, parent: int) -> int:
        if len(self._name) >= MAX_SPANS:
            self.dropped += 1
            return -1
        self._name.append(idx)
        self._parent.append(parent)
        self._solve.append(self.solve_id)
        self._start.append(0.0)
        self._end.append(0.0)
        return len(self._name) - 1

    @property
    def merges_scored(self) -> int:
        return self.stats["solver.merge_clusters"][0]

    def save(self, path) -> None:
        """Write the spans as arrays (name index, parent span, solve id, start,
        end); a span whose parent was not stored has parent -1."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            absent=np.array(self.absent, dtype=str),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            solve=np.frombuffer(self._solve, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            dropped=np.array(self.dropped),
        )
