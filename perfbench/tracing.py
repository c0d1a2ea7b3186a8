"""In-memory span tracing for the benchmark's traced runs.

The traced run wraps public entry points of the program where they are
imported (a class attribute, or the module attribute a caller looks the
name up in) and records one span per call: its metric stem, its layer,
start, end and parent. Spans stay in memory; the run writes them out
when it ends. Untraced runs install nothing: they never construct a
:class:`Tracer`, only the no-op :data:`NO_TRACE`.

A span's *self* time is its duration minus the time its child spans
cover. Every traced iteration runs under one root span of layer
``bench``, so the self times of all spans add up to the iteration's
wall time exactly; the root's own self time is the benchmark's share
(the untraced remainder).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Entry points the traced run wraps: (metric stem, "module:attribute
#: path"). The stem's first component is the layer its self time is
#: charged to. Several targets share a stem when one entry point is
#: reached through several import sites or subclasses.
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("storage.create_index", "repro.storage.catalog:Database.create_index"),
    ("storage.clone", "repro.storage.catalog:Database.clone"),
    ("storage.logical_state", "repro.storage.catalog:Database.logical_state"),
    ("storage.logical_state", "repro.cluster.runtime:ClusterTx.logical_state"),
    ("core.profile", "repro.core.profiler:BulkProfiler.profile"),
    ("core.compute_ranks", "repro.core.profiler:compute_ranks"),
    ("core.compute_ranks", "repro.core.strategies.tpl:compute_ranks"),
    ("core.tdg_build", "repro.core.tdg:TDependencyGraph.build"),
    ("engine.execute_bulk", "repro.core.engine:GPUTx.execute_bulk"),
    ("backends.launch_wave",
     "repro.core.backends.base:InterpretedBackend.launch_wave"),
    ("backends.launch_wave",
     "repro.core.backends.vectorized:VectorizedBackend.launch_wave"),
    ("backends.launch_partitions",
     "repro.core.backends.base:InterpretedBackend.launch_partitions"),
    ("backends.launch_partitions",
     "repro.core.backends.vectorized:VectorizedBackend.launch_partitions"),
    ("backends.launch_locked",
     "repro.core.backends.base:InterpretedBackend.launch_locked"),
    ("backends.launch_locked",
     "repro.core.backends.vectorized:VectorizedBackend.launch_locked"),
    ("backends.lockstep", "repro.core.backends.vectorized:run_locked_schedule"),
    ("backends.replay", "repro.core.backends.vectorized:replay_kernel"),
    ("backends.replay", "repro.core.backends.lockstep:replay_kernel"),
    ("gpu.simt_launch", "repro.gpu.simt:SIMTEngine.launch"),
    ("serve.run", "repro.serve.runtime:ServeRuntime.run"),
    ("serve.offer_batch", "repro.serve.admission:AdmissionController.offer_batch"),
    ("cluster.partition", "repro.cluster.runtime:partition_database"),
    ("cluster.execute_bulk", "repro.cluster.runtime:ClusterTx.execute_bulk"),
    ("cluster.coordinator",
     "repro.cluster.coordinator:CrossShardCoordinator.execute_parallel"),
    ("cluster.coordinator",
     "repro.cluster.coordinator:CrossShardCoordinator.conflict_groups"),
    ("cluster.wal_append", "repro.cluster.durability.wal:ShardWAL.append"),
    ("cluster.checkpoint",
     "repro.cluster.durability.checkpoint:CheckpointManager.take"),
    ("cluster.recover", "repro.cluster.runtime:ClusterTx.recover_shard"),
    ("cpu.oracle", "repro.cpu.engine:CpuEngine.execute"),
)

#: Layers in report order; ``bench`` is the benchmark's own code.
LAYERS = (
    "storage", "core", "engine", "backends", "gpu", "serve", "cluster",
    "cpu", "scenarios", "bench",
)


@dataclass
class Span:
    stem: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    #: No enclosing span has the same stem, so summing the durations of
    #: outermost spans never counts a nested re-entry twice.
    outermost: bool = True

    @property
    def layer(self) -> str:
        return self.stem.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class _NoTrace:
    """Stand-in for untraced runs: spans cost one attribute lookup."""

    @contextlib.contextmanager
    def span(self, stem: str) -> Iterator[None]:
        yield


NO_TRACE = _NoTrace()


class Tracer:
    """Records nested spans around wrapped entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._open: Counter = Counter()
        self._installed: List[Tuple[Any, str, Any]] = []
        #: Per-stem hooks ``hook(args, result, outermost)``, called after
        #: each wrapped call; they count what ran (strategies, rows).
        self.observers: Dict[str, Callable[[tuple, Any, bool], None]] = {}

    # -- spans ---------------------------------------------------------
    def _begin(self, stem: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(stem, time.perf_counter(), parent,
                 outermost=self._open[stem] == 0)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[stem] += 1
        return index

    def _end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.stem] -= 1
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    @contextlib.contextmanager
    def span(self, stem: str) -> Iterator[None]:
        index = self._begin(stem)
        try:
            yield
        finally:
            self._end(index)

    # -- wrappers ------------------------------------------------------
    def _wrapped(self, stem: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self._begin(stem)
            try:
                result = func(*args, **kwargs)
            finally:
                self._end(index)
            observer = self.observers.get(stem)
            if observer is not None:
                observer(args, result, self.spans[index].outermost)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS`."""
        for stem, target in ENTRY_POINTS:
            module_name, path = target.split(":")
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new: Any = classmethod(self._wrapped(stem, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrapped(stem, raw.__func__))
            else:
                new = self._wrapped(stem, raw)
            setattr(owner, attr, new)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- aggregation ---------------------------------------------------
    def stem_totals(self) -> Dict[str, Tuple[float, int]]:
        """``stem -> (seconds, calls)`` over outermost spans."""
        out: Dict[str, Tuple[float, int]] = {}
        for span in self.spans:
            if span.outermost:
                seconds, calls = out.get(span.stem, (0.0, 0))
                out[span.stem] = (seconds + span.duration, calls + 1)
        return out

    def self_by_layer(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            out[span.layer] = out.get(span.layer, 0.0) + span.self_s
        return out

    def dump(self) -> List[Dict[str, Any]]:
        return [
            {
                "stem": s.stem,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "self_s": s.self_s,
            }
            for s in self.spans
        ]
