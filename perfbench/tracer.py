"""Timing hooks the benchmark installs around the simulator's layers.

Everything here wraps public functions of the ``repro`` subpackages from
the benchmark's own files; the simulator itself is unchanged.  Wrappers
go on component classes and module functions only, never on
``ProtocolEngine`` or its instances: the engine's fast paths
(``make_fast_access``, ``supports_replica_batching``) test
``self.__dict__`` and method identity, and a wrapper there would
silently drop the run onto the generic path.

Two kinds of boundary are recorded:

* coarse spans (``point``, ``simulate``, ``build``, ``store``, ``pull``,
  ``wait`` and producer-thread ``decode``) are kept individually, each
  with a name, start, end, its thread's CPU time, parent span and
  run-point id;
* hot per-access boundaries (mesh, cache arrays, classifier, sharer
  sets, DRAM) keep only a call count and a time total per layer and per
  parent ``simulate`` span, so a traced run stays within memory.  A call
  made while its own layer is already active (``LLCSlice.insert`` calling
  ``SetAssociativeCache.insert``) counts once, as the outer call.

``light`` hooks (the ``simulate`` wrapper, a producer counter and a
timestamp per streamed chunk) are installed in every run; they cost a
few calls per simulated point or chunk.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import threading
import time

#: Layers timed at their per-access boundary, in report order.
HOT_LAYERS = ("network", "cache", "core", "coherence", "dram")


class SetupReached(BaseException):
    """Raised at the first ``simulate`` call of a set-up probe.

    A ``BaseException`` so the workload's per-point error handling
    (``except Exception``) does not swallow it.
    """


class _Acc:
    """Hot-boundary totals under one parent span."""

    __slots__ = ("calls", "busy", "outer", "victim_calls")

    def __init__(self) -> None:
        self.calls = [0] * len(HOT_LAYERS)
        self.busy = [0.0] * len(HOT_LAYERS)
        #: time in calls that were not nested in any other hot call
        self.outer = 0.0
        self.victim_calls = 0


class Tracer:
    """Collects spans, hot-boundary totals and simulated counters."""

    def __init__(self, full: bool = False, profile: bool = False,
                 stop_at_first_sim: bool = False) -> None:
        self.full = full
        self.profile = profile
        self.stop_at_first_sim = stop_at_first_sim
        self._ids = itertools.count(1)
        self.spans: list[list] = []
        self._span_stack: list[int] = []
        self._point: "str | None" = None
        self.acc: dict = {None: _Acc()}
        self.cur = self.acc[None]
        self._active = [0] * len(HOT_LAYERS)
        self._depth = [0]
        self._profiler = None
        #: ``perf_counter`` bounds of the timed phase
        self.phase_start: "float | None" = None
        self.phase_end: "float | None" = None
        #: ``perf_counter`` at the end of every ``simulate`` call and at
        #: every chunk the main thread receives from a producer
        self.marks: list[float] = []
        # -- light counters -------------------------------------------------
        self.first_sim: "float | None" = None
        self.sim_calls = 0
        self.records = 0
        self.kernel: "str | None" = None
        self.producers = 0
        self.miss_status = [0, 0, 0, 0]  # MissStatus order
        self.invalidations = 0
        self.flits = 0
        self.store_gets = 0
        self.store_hits = 0

    # -- coarse spans -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, point: "str | None" = None):
        span_id = next(self._ids)
        parent = self._span_stack[-1] if self._span_stack else None
        outer_point = self._point
        if point is not None:
            self._point = point
        self._span_stack.append(span_id)
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._span_stack.pop()
            self.spans.append([span_id, name, start, end, time.thread_time() - cpu,
                               parent, self._point, "MainThread"])
            self._point = outer_point

    def _thread_span(self, name: str, start: float, cpu: float, parent) -> None:
        """Record a span that started at ``start`` (and at thread CPU time
        ``cpu``) on the calling thread and ends now."""
        self.spans.append([next(self._ids), name, start, time.perf_counter(),
                           time.thread_time() - cpu, parent, self._point,
                           threading.current_thread().name])

    @contextlib.contextmanager
    def phase(self):
        """The timed simulation phase (cProfile runs only inside it)."""
        if self.profile:
            import cProfile

            self._profiler = cProfile.Profile()
            self._profiler.enable()
        self.phase_start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_end = time.perf_counter()
            if self._profiler is not None:
                self._profiler.disable()

    def segments(self) -> list:
        """The timed phase cut at every mark: the end of each ``simulate``
        call and each streamed chunk received.

        Segment *i* runs from mark *i - 1* (or the phase start) to mark
        *i*; the time after the last mark goes to the last segment, so
        the segments add up to the phase.  Points run in the sequential
        executor's fixed order and a stream consumes its chunks in a
        fixed order, so segment *i* is the same work in every pass of a
        workload and seed."""
        if self.phase_start is None or self.phase_end is None:
            return []
        marks = sorted(m for m in self.marks
                       if self.phase_start <= m <= self.phase_end)
        cuts = [self.phase_start] + marks[:-1] + [self.phase_end]
        return [b - a for a, b in zip(cuts, cuts[1:])]

    # -- installation -------------------------------------------------------------
    def install(self) -> None:
        import repro.experiments.runner as runner
        import repro.sim.simulator as simulator

        wrapped = self._wrap_simulate(simulator.simulate)
        simulator.simulate = wrapped
        runner.simulate = wrapped
        self._wrap_producer()
        if self.full:
            self._install_coarse()
            self._install_hot()

    def _wrap_simulate(self, simulate):
        from repro.common.types import MissStatus

        statuses = (MissStatus.L1_HIT, MissStatus.LLC_REPLICA_HIT,
                    MissStatus.LLC_HOME_HIT, MissStatus.OFF_CHIP_MISS)
        tracer = self

        @functools.wraps(simulate)
        def traced_simulate(engine, traces, kernel=None):
            if tracer.first_sim is None:
                tracer.first_sim = time.monotonic()
                tracer.kernel = _kernel_name(kernel)
            if tracer.stop_at_first_sim:
                raise SetupReached
            if getattr(traces, "is_streaming", False):
                tracer.records += traces.total_records
            else:
                tracer.records += sum(len(core) for core in traces.cores)
            tracer.sim_calls += 1
            with tracer.span("simulate") as span_id:
                acc = tracer.acc[span_id] = _Acc()
                tracer.cur = acc
                try:
                    stats = simulate(engine, traces, kernel)
                finally:
                    tracer.cur = tracer.acc[None]
            tracer.marks.append(time.perf_counter())
            for i, status in enumerate(statuses):
                tracer.miss_status[i] += stats.miss_status[status]
            tracer.invalidations += (stats.counters["invalidations_sent"]
                                     + stats.counters["back_invalidations"])
            tracer.flits += engine.mesh.total_flits
            return stats

        return traced_simulate

    def _wrap_producer(self) -> None:
        from repro.workloads.streaming import SegmentProducer

        tracer = self
        init = SegmentProducer.__init__

        @functools.wraps(init)
        def __init__(producer, segments, depth=None):
            tracer.producers += 1
            if tracer.full:
                parent = tracer._span_stack[-1] if tracer._span_stack else None
                segments = tracer._timed_decode(segments, parent)
            init(producer, segments, depth)

        SegmentProducer.__init__ = __init__
        iterate = SegmentProducer.__iter__

        @functools.wraps(iterate)
        def __iter__(producer):
            for item in iterate(producer):
                tracer.marks.append(time.perf_counter())
                yield item

        SegmentProducer.__iter__ = __iter__

    def _timed_decode(self, segments, parent):
        """Iterate ``segments`` on the producer thread, one span a chunk."""
        iterator = iter(segments)
        while True:
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                item = next(iterator)
            except StopIteration:
                return
            self._thread_span("decode", start, cpu, parent)
            yield item

    def _install_coarse(self) -> None:
        import repro.experiments.runner as runner
        import repro.experiments.spec as spec
        from repro.experiments.store import ResultStore
        from repro.workloads.streaming import (
            ArraySegmentSource, CaptureSegmentSource, SegmentProducer,
        )

        tracer = self
        run_one = spec.run_one

        @functools.wraps(run_one)
        def traced_run_one(setup, scheme_label, benchmark, *args, **kwargs):
            with tracer.span("point", point=f"{benchmark}/{scheme_label}"):
                return run_one(setup, scheme_label, benchmark, *args, **kwargs)

        spec.run_one = traced_run_one
        runner.build_trace = self._spanned("build", runner.build_trace)
        ResultStore.key_for = self._spanned("store", ResultStore.key_for)
        ResultStore.put = self._spanned("store", ResultStore.put)
        get = ResultStore.get

        @functools.wraps(get)
        def traced_get(store, key):
            with tracer.span("store"):
                result = get(store, key)
            tracer.store_gets += 1
            tracer.store_hits += result is not None
            return result

        ResultStore.get = traced_get
        for source in (ArraySegmentSource, CaptureSegmentSource):
            source.pull = self._spanned("pull", source.pull)
        iterate = SegmentProducer.__iter__

        def __iter__(producer):
            iterator = iterate(producer)
            parent = tracer._span_stack[-1] if tracer._span_stack else None
            while True:
                start, cpu = time.perf_counter(), time.thread_time()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                tracer._thread_span("wait", start, cpu, parent)
                yield item

        SegmentProducer.__iter__ = __iter__

    def _spanned(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return spanned

    def _install_hot(self) -> None:
        from repro.cache.array import SetAssociativeCache
        from repro.cache.l1 import L1Cache
        from repro.cache.llc import LLCSlice
        from repro.coherence.sharers import AckwiseSharers, FullMapSharers
        from repro.core.classifier import (
            CompleteClassifier, LimitedClassifier, LocalityClassifier,
        )
        from repro.dram.controller import DramSystem
        from repro.network.mesh import Mesh

        public = lambda name: not name.startswith("_")  # noqa: E731
        layers = {
            "network": ([Mesh], lambda name: name == "send"),
            "cache": ([SetAssociativeCache, L1Cache, LLCSlice], public),
            "core": ([LocalityClassifier, CompleteClassifier, LimitedClassifier],
                     lambda name: name.startswith("on_")),
            "coherence": ([FullMapSharers, AckwiseSharers],
                          lambda name: name in ("add", "remove",
                                                "invalidation_targets")),
            "dram": ([DramSystem], lambda name: name in ("read", "write")),
        }
        for layer, (classes, wanted) in layers.items():
            index = HOT_LAYERS.index(layer)
            for cls in classes:
                for name, value in list(vars(cls).items()):
                    if inspect.isfunction(value) and wanted(name):
                        if cls is SetAssociativeCache and name == "victim_for":
                            value = self._count_victims(value)
                        setattr(cls, name, self._hot(value, index))

    def _count_victims(self, fn):
        tracer = self

        @functools.wraps(fn)
        def victim_for(*args, **kwargs):
            tracer.cur.victim_calls += 1
            return fn(*args, **kwargs)

        return victim_for

    def _hot(self, fn, index: int):
        tracer = self
        active = self._active
        depth = self._depth
        perf = time.perf_counter

        @functools.wraps(fn)
        def hot(*args, **kwargs):
            if active[index]:
                return fn(*args, **kwargs)
            active[index] = 1
            depth[0] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                depth[0] -= 1
                active[index] = 0
                acc = tracer.cur
                acc.calls[index] += 1
                acc.busy[index] += elapsed
                if not depth[0]:
                    acc.outer += elapsed

        return hot

    # -- results ------------------------------------------------------------------
    def profile_shares(self) -> dict:
        """cProfile self time by ``repro`` subpackage, as shares of all
        main-thread self time in the phase (``other`` = outside repro)."""
        import pstats

        totals: dict = {}
        for (filename, _line, _func), row in pstats.Stats(self._profiler).stats.items():
            package = _subpackage(filename)
            totals[package] = totals.get(package, 0.0) + row[2]  # self time
        whole = sum(totals.values()) or 1.0
        return {name: value / whole for name, value in sorted(totals.items())}

    def summary(self) -> dict:
        """Spans and per-parent hot totals, JSON-ready."""
        keys = ("id", "name", "start", "end", "cpu_s", "parent", "point", "thread")
        return {
            "spans": [dict(zip(keys, span)) for span in self.spans],
            "hot": {
                str(parent): {
                    "calls": dict(zip(HOT_LAYERS, acc.calls)),
                    "busy_s": dict(zip(HOT_LAYERS, acc.busy)),
                    "outer_s": acc.outer,
                    "victim_calls": acc.victim_calls,
                }
                for parent, acc in self.acc.items()
            },
            "store_gets": self.store_gets,
            "store_hits": self.store_hits,
        }


def _kernel_name(kernel: "str | None") -> str:
    """The kernel a ``simulate(kernel=...)`` call resolves to by name."""
    from repro.sim.kernel import resolve_kernel

    try:
        return resolve_kernel(kernel).name
    except ValueError:  # "auto" resolves per trace
        return str(kernel or "auto")


def _subpackage(filename: str) -> str:
    marker = "/repro/"
    if marker not in filename:
        return "other"
    rest = filename.rsplit(marker, 1)[1]
    return rest.split("/", 1)[0] if "/" in rest else "repro"
