"""In-memory spans at the program's layer boundaries.

Nothing under ``src/`` knows about these spans: :func:`install` rebinds
the public functions each layer exposes (the alias-pipeline stages,
placement, the engine factory, the golden model, the result cache and
the sweep executor) to wrappers that time every call, and
:func:`uninstall` puts the originals back.  A span records its name,
start, end, parent span and the task or request it belongs to; a few
carry counts read from the layer's outputs (simulated events, cache
hits, compiler labels).

Pool workers are forked while the executor span is open, so they
inherit the hooks and the open-span stack.  A worker attaches the spans
of each task to the task's result object, which the pipe carries back;
the executor wrapper in the parent moves them into its own list.  All
times are ``time.perf_counter`` readings, a clock shared by every
process on the host, so worker spans line up with the parent's.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Attribute a pool worker uses to send a task's spans home with its result.
_CARRY = "_perfbench_spans"


class Tracer:
    """Spans kept in memory until the benchmark writes them out."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.pid = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, key: Optional[str] = None, **attrs: Any) -> Iterator[dict]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": f"{os.getpid()}.{next(self._ids)}",
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent["id"] if parent else None,
            "key": key if key is not None else (parent["key"] if parent else None),
            "attrs": attrs,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def adopt(self, spans: List[dict]) -> None:
        with self._lock:
            self.spans.extend(spans)

    def _wrap(self, fn: Callable, name: str,
              attrs_of: Optional[Callable[..., Dict[str, Any]]] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    record["attrs"].update(attrs_of(result, *args, **kwargs))
                return result

        return wrapper

    def _rebind(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import repro.compiler.pipeline as pipeline
        import repro.experiments.common as common
        import repro.obs.runner as runner
        import repro.runtime.executor as executor
        import repro.serve.batcher as batcher
        from repro.compiler.labels import AliasLabel
        from repro.runtime.cache import ResultCache

        for fn_name, span_name in (
            ("analyze_stage1", "compiler.stage1"),
            ("refine_stage2", "compiler.stage2"),
            ("refine_stage4", "compiler.stage4"),
            ("refine_stage5", "compiler.stage5"),
            ("prune_stage3", "compiler.stage3"),
            ("retain_all", "compiler.stage3"),
            ("insert_mdes", "compiler.mde"),
        ):
            self._rebind(pipeline, fn_name,
                         self._wrap(getattr(pipeline, fn_name), span_name))

        def pipeline_counts(result, *_args, **_kwargs):
            stats = result.stage5_stats
            return {
                "pairs": result.total_pairs,
                "may_pairs": result.final_labels.count(AliasLabel.MAY),
                "may_mdes": len(result.may_mdes),
                "must_mdes": len(result.must_mdes),
                "stage5_resolved": stats.resolved if stats is not None else 0,
            }

        self._rebind(pipeline.AliasPipeline, "run", self._wrap(
            pipeline.AliasPipeline.run, "compiler.pipeline", pipeline_counts))
        self._rebind(runner, "resolve_workload",
                     self._wrap(runner.resolve_workload, "workloads.build"))
        self._rebind(common, "place_region",
                     self._wrap(common.place_region, "cgra.place"))
        self._rebind(common, "golden_execute",
                     self._wrap(common.golden_execute, "sim.golden"))
        self._rebind(common, "make_engine", self._engine_factory(common.make_engine))
        self._rebind(ResultCache, "get", self._wrap(
            ResultCache.get, "runtime.cache_get",
            lambda value, *_a, **_k: {"hit": value is not ResultCache.MISS}))
        self._rebind(ResultCache, "put",
                     self._wrap(ResultCache.put, "runtime.cache_put"))
        self._rebind(executor, "_execute", self._task_runner(executor._execute))
        run_tasks = self._executor(executor.run_tasks_detailed)
        self._rebind(executor, "run_tasks_detailed", run_tasks)
        self._rebind(batcher, "run_tasks_detailed", run_tasks)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def _engine_factory(self, make_engine: Callable) -> Callable:
        tracer = self

        @functools.wraps(make_engine)
        def factory(graph, placement, hierarchy, backend, *args, **kwargs):
            engine = make_engine(graph, placement, hierarchy, backend, *args, **kwargs)
            run = engine.run

            def traced_run(invocations, *run_args, **run_kwargs):
                invocations = list(invocations)
                with tracer.span("sim.run", system=backend.name) as record:
                    sim = run(invocations, *run_args, **run_kwargs)
                stats = sim.backend_stats
                record["attrs"].update(
                    ops=len(graph) * len(invocations),
                    cycles=sim.cycles,
                    comparator_checks=stats.comparator_checks,
                    cam_checks=stats.cam_checks,
                    order_waits=stats.order_waits,
                    bloom_hits=stats.bloom_hits,
                    bloom_probes=stats.bloom_probes,
                    l1_hits=hierarchy.l1.stats.hits,
                    l1_misses=hierarchy.l1.stats.misses,
                    l2_hits=hierarchy.l2.stats.hits,
                    l2_misses=hierarchy.l2.stats.misses,
                    energy_events=sum(sim.energy.counts.values()),
                )
                return sim

            engine.run = traced_run
            return engine

        return factory

    def _task_runner(self, execute: Callable) -> Callable:
        tracer = self

        @functools.wraps(execute)
        def run_task(task):
            mark = len(tracer.spans)
            with tracer.span("runtime.task",
                             key=f"{task.workload.name}/{task.system}"):
                run = execute(task)
            if os.getpid() != tracer.pid:  # a pool worker: ship spans home
                with tracer._lock:
                    setattr(run, _CARRY, tracer.spans[mark:])
                    del tracer.spans[mark:]
            return run

        return run_task

    def _executor(self, run_tasks_detailed: Callable) -> Callable:
        tracer = self

        @functools.wraps(run_tasks_detailed)
        def run_tasks(tasks, *args, **kwargs):
            with tracer.span("runtime.run_tasks") as record:
                outcome = run_tasks_detailed(tasks, *args, **kwargs)
                record["attrs"]["retries"] = outcome.retries
            for run in outcome.results:
                carried = getattr(run, "__dict__", {}).pop(_CARRY, None)
                if carried:
                    tracer.adopt(carried)
            return outcome

        return run_tasks


class NullTracer:
    """The untraced run: same call shape, records nothing."""

    enabled = False
    spans: Tuple[dict, ...] = ()

    def span(self, name: str, key: Optional[str] = None, **attrs: Any):
        return nullcontext({"attrs": {}})
