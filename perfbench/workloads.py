"""The four benchmark workloads: set-up, measured window, output checks.

Every workload takes its seed from the command line and hands the
program only generated inputs: the suite regions in a seeded order for
the sweeps and the compiler, and a seeded request sequence for the
service.

A workload measures in *passes*.  A sweep pass is one
``sweep_comparisons`` call over 81 tasks, a compile pass is 135 regions,
and the serve window is one pass.  Per-item output checks (the golden
model, coverage gaps, in-process payloads, per-item digests) run after
the timed region of each pass and count a mismatch as a failed item.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import speed
from perfbench.stats import median

#: Paper systems every sweep task and serve request runs (Section III).
SYSTEMS = ("opt-lsq", "nachos-sw", "nachos")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def build_regions(seed: int, top_k: int, tracer) -> list:
    """The hottest *top_k* paths of every suite region, in a seeded order.

    The seed only orders the regions: every seed compiles and simulates
    the same work, so run-to-run spread is the host's, not the inputs'.
    """
    from repro.workloads.suite import build_suite_workloads

    with tracer.span("workloads.build"):
        regions = build_suite_workloads(top_k)
    random.Random(seed).shuffle(regions)
    return regions


def _digest(parts: Any) -> str:
    blob = json.dumps(parts, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def sim_digest(sim) -> str:
    """Every simulated statistic of one run, hashed."""
    return _digest([
        sim.region, sim.backend, sim.invocations, sim.cycles,
        sim.per_invocation_cycles, sim.backend_stats.as_dict(rates=False),
        sorted((e.name, n) for e, n in sim.energy.counts.items()),
        sim.l1_hits, sim.l1_misses,
    ])


@dataclass
class Pass:
    """One measured pass: its wall time, items and per-item results."""

    start: float
    end: float
    latencies: List[float]
    digests: Dict[str, str]
    failed: int = 0
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Host-speed probes around the pass and inside it (see perfbench/speed.py).
    probes: List[float] = field(default_factory=list)
    #: Seconds spent probing inside ``start..end``, not part of the work.
    probe_s: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start - self.probe_s

    @property
    def scale(self) -> float:
        """Factor taking this pass's raw seconds to reference-host seconds
        (1.0 for a pass reported as measured, without probes)."""
        return speed.scale(self.probes) if self.probes else 1.0

    @property
    def scaled_wall(self) -> float:
        """``wall`` at the reference host speed."""
        return self.wall * self.scale


class Workload:
    """Base: ``setup`` once, then ``run_pass`` until the window closes."""

    name = ""
    #: Percentile reported as ``tail_ms`` (falls back to the maximum when
    #: the window holds too few items for it).
    tail_q = 99.0
    #: How many times ``setup`` builds the inputs (its time is the median).
    setup_builds = 1

    def __init__(self, seed: int, work: Path, tracer) -> None:
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.jobs = nproc()
        self.reference: Dict[str, str] = {}
        self.errors: List[str] = []
        self.regions: list = []

    def setup(self) -> Tuple[float, float]:
        """Set the workload up; (raw, reference-host) seconds it took."""
        raise NotImplementedError

    def run_pass(self, index: int) -> Pass:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def window(self, seconds: float, min_passes: int) -> List[Pass]:
        passes: List[Pass] = []
        deadline = time.perf_counter() + seconds
        before = speed.measure()
        while len(passes) < min_passes or time.perf_counter() < deadline:
            p = self.run_pass(len(passes))
            after = speed.measure()
            p.probes = [before, *p.probes, after]
            before = after
            p.failed += self._compare(p.digests)
            passes.append(p)
        return passes

    def _compare(self, digests: Dict[str, str]) -> int:
        """Per-item digests must equal the first ones seen for that item."""
        bad = 0
        for item, digest in digests.items():
            ref = self.reference.setdefault(item, digest)
            if ref != digest:
                bad += 1
                self.errors.append(f"{item}: digest {digest} != {ref}")
        return bad

    def _build(self, top_k: int) -> Tuple[float, float]:
        """Build the seeded regions ``setup_builds`` times: median seconds,
        raw and at the reference host speed."""
        before = speed.measure()
        times = []
        for _ in range(self.setup_builds):
            t0 = time.perf_counter()
            self.regions = build_regions(self.seed, top_k, self.tracer)
            times.append(time.perf_counter() - t0)
        raw = median(times)
        return raw, raw * speed.scale([before, speed.measure()])


# ----------------------------------------------------------------------
# sweep-cold / sweep-warm
# ----------------------------------------------------------------------
#: A sweep's work runs in pool workers, so they probe the host speed
#: themselves: before every this many tasks each, outside the task.
PROBE_TASKS = 4
#: Attribute a worker's probe times travel home on, with the task result.
_PROBES = "_perfbench_probes"


def _probing(execute):
    """Wrap the executor's task runner to probe before every
    ``PROBE_TASKS``-th task a process runs (workers are forked with it)."""
    tasks = itertools.count()

    def run_task(task):
        probe = None
        if next(tasks) % PROBE_TASKS == 0:
            t0 = time.perf_counter()
            probe = (speed.measure(repeats=1), time.perf_counter() - t0)
        run = execute(task)
        if probe is not None:
            setattr(run, _PROBES, [probe])
        return run

    return run_task


class Sweep(Workload):
    """81 tasks (27 hottest regions x 3 systems) through ``sweep_comparisons``."""

    setup_builds = 5

    def __init__(self, seed: int, work: Path, tracer, warm: bool) -> None:
        super().__init__(seed, work, tracer)
        self.warm = warm
        self.name = "sweep-warm" if warm else "sweep-cold"
        self._golden: Dict[str, Any] = {}

    def setup(self) -> Tuple[float, float]:
        raw, scaled = self._build(1)
        if self.warm:
            # One cold pass fills the on-disk cache every measured pass reads.
            fill = self._sweep(self.work / "cache-warm", "fill")
            fill.failed += self._compare(fill.digests)
            if fill.failed:
                raise RuntimeError(f"{fill.failed} tasks failed while filling the cache")
            raw += fill.wall
            scaled += fill.scaled_wall
        return raw, scaled

    def run_pass(self, index: int) -> Pass:
        if self.warm:
            return self._sweep(self.work / "cache-warm", f"pass{index}")
        root = self.work / f"cache-cold-{index}"
        try:
            return self._sweep(root, f"pass{index}")
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _sweep(self, root: Path, label: str) -> Pass:
        import repro.runtime.executor as executor
        from repro.experiments.common import clear_memos
        from repro.runtime.cache import configure_cache, get_cache
        from repro.runtime.sweep import sweep_comparisons

        cache = get_cache()
        if cache.root != root:
            cache.flush_stats()
            cache = configure_cache(root=root, enabled=True)
        clear_memos()
        h0, m0 = cache.hits, cache.misses
        execute = executor._execute
        executor._execute = _probing(execute)
        try:
            with self.tracer.span("bench.pass", key=label):
                start = time.perf_counter()
                results = sweep_comparisons(self.regions, jobs=self.jobs)
                end = time.perf_counter()
        finally:
            executor._execute = execute
        hits, misses = cache.hits - h0, cache.misses - m0
        probes = [probe for cmp in results for run in cmp.runs.values()
                  for probe in run.__dict__.pop(_PROBES, ())]
        # Workers probe in parallel, so the wall lost to probing is their
        # probing time shared out over the workers.
        probe_s = sum(s for _, s in probes) / self.jobs
        p = Pass(start=start, end=end, latencies=[end - start - probe_s], digests={},
                 probes=[t for t, _ in probes], probe_s=probe_s,
                 notes={"items": len(self.regions) * len(SYSTEMS),
                        "cache_hits": hits, "cache_misses": misses,
                        "disk_hit_share": hits / max(1, hits + misses),
                        "disk_hit_share_base": hits + misses})
        self._check(results, p)
        return p

    def _check(self, results: list, p: Pass) -> None:
        """Each task's own flag and the golden model must agree it is correct."""
        from repro.experiments.common import DEFAULT_INVOCATIONS
        from repro.sim.oracle import golden_execute

        for cmp in results:
            name = cmp.workload.name
            golden = self._golden.get(name)
            if golden is None:
                envs = cmp.workload.invocations(DEFAULT_INVOCATIONS)
                golden = self._golden[name] = golden_execute(cmp.workload.graph, envs)
            for system in SYSTEMS:
                run = cmp.runs[system]
                item = f"{name}/{system}"
                if not (run.correct and golden.matches(run.sim.load_values,
                                                       run.sim.memory_image)):
                    p.failed += 1
                    self.errors.append(f"{item}: simulated values differ from golden_execute")
                p.digests[item] = sim_digest(run.sim)

    def close(self) -> None:
        from repro.runtime.cache import get_cache

        get_cache().flush_stats()


# ----------------------------------------------------------------------
# compile-allpaths
# ----------------------------------------------------------------------
#: A compile pass lasts seconds, so the host speed is also probed
#: before every this many regions (outside their timed calls).
PROBE_EVERY = 9


class CompileAllPaths(Workload):
    """135 regions (27 x top-5 paths): full alias pipeline, then coverage."""

    name = "compile-allpaths"
    tail_q = 95.0
    setup_builds = 3

    def setup(self) -> Tuple[float, float]:
        return self._build(5)

    def run_pass(self, index: int) -> Pass:
        from repro.compiler.coverage import check_sync_coverage
        from repro.compiler.labels import AliasLabel
        from repro.compiler.pipeline import AliasPipeline, PipelineConfig

        latencies: List[float] = []
        outputs = []
        probes: List[float] = []
        probe_s = 0.0
        with self.tracer.span("bench.pass", key=f"pass{index}"):
            start = time.perf_counter()
            for i, w in enumerate(self.regions):
                if i and i % PROBE_EVERY == 0:
                    t0 = time.perf_counter()
                    probes.append(speed.measure())
                    probe_s += time.perf_counter() - t0
                t0 = time.perf_counter()
                with self.tracer.span("bench.region", key=w.name):
                    result = AliasPipeline(PipelineConfig.full()).run(w.graph.clone())
                    with self.tracer.span("compiler.coverage"):
                        report = check_sync_coverage(result.graph)
                latencies.append(time.perf_counter() - t0)
                outputs.append((w.name, result, report))
            end = time.perf_counter()
        p = Pass(start=start, end=end, latencies=latencies, digests={},
                 probes=probes, probe_s=probe_s)
        pairs = may = 0
        for name, result, report in outputs:
            if report.gaps:
                p.failed += 1
                self.errors.append(f"{name}: {len(report.gaps)} coverage gaps")
            pairs += result.total_pairs
            may += result.final_labels.count(AliasLabel.MAY)
            p.digests[name] = _digest([
                [sorted((label.name, n) for label, n in m.counts().items())
                 for m in (result.stage1, result.stage2, result.stage4,
                           result.stage5, result.final_labels)],
                len(result.may_mdes), len(result.must_mdes),
                report.required, report.covered,
            ])
        p.notes.update(items=len(outputs), may_pair_share=may / max(1, pairs),
                       may_pair_share_base=pairs)
        return p


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
# No record of real traffic exists in the repository (the serve load
# generator in benchmarks/ replays a few fixed requests), so the mix
# below is an assumption built on "mostly repeats, a minority never
# seen"; each number's reason is given with it.

#: Set-up warms every suite region with the default request (all three
#: systems) at this invocation count.  Repeats of those 27 requests are
#: the hits, picked uniformly: every one is a retained request record in
#: the daemon, so a skew would not change what a hit costs.  A small
#: count keeps warming the 81 hot tasks to a few seconds.
HOT_INVOCATIONS = 4
#: Requests come in seeded blocks of this many ...
BLOCK = 40
#: ... of which this many are never-seen requests that need compute: one
#: in 20, so that p99 (``tail_ms``) lands on compute queued behind hits
#: (with under 1% it would land on a hit), and a 10 s window holds over a
#: hundred of them for ``serve.miss_p50_ms``.
FRESH_PER_BLOCK = 2
#: ... and this many are never-seen requests for a proper subset of the
#: systems of a hot request.  Their tasks were computed in set-up, so
#: they measure the read-through path: a default daemon hands them to its
#: batcher and worker pool, where ``run_system`` finds them in its memo
#: or on-disk cache.  A hot repeat never gets past the request record.
#: There are 27 x 6 such subsets, and one in 40 keeps a 10 s window
#: within them up to ~600 requests/s.
READS_PER_BLOCK = 1
#: Fresh requests walk seeded permutations of every (region, system)
#: pair; the k-th walk uses the k-th invocation count, so none repeats.
#: A window gets through one to three walks, and the counts alternate
#: around HOT_INVOCATIONS so the mean cost of what it reaches stays near
#: that of a hot request's tasks.
FRESH_INVOCATIONS = (5, 3, 6, 2, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)


class ServeMix(Workload):
    """A closed loop of ``nproc`` clients against one ``nachos-serve`` daemon.

    Its times are reported as measured, not scaled by host-speed probes:
    a request's time goes to system calls, sockets and wake-ups more than
    to interpreter work.  Over ten runs its raw throughput moved by 13%
    while the probe kernel's speed moved by 60%, so scaling made it worse.
    """

    name = "serve-mix"
    tail_q = 99.0

    def __init__(self, seed: int, work: Path, tracer) -> None:
        super().__init__(seed, work, tracer)
        from repro.workloads.suite import benchmark_names

        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self.span_file = work / "serve-spans.json"
        self._rng = random.Random(seed)
        self.hot = [(r, SYSTEMS, HOT_INVOCATIONS) for r in benchmark_names()]
        self._pairs = [(r, (s,)) for r in benchmark_names() for s in SYSTEMS]
        self._reads = [(r, sub, HOT_INVOCATIONS) for r in benchmark_names()
                       for n in (1, 2) for sub in itertools.combinations(SYSTEMS, n)]
        self._rng.shuffle(self._reads)
        self._fresh: List[Tuple[str, Tuple[str, ...], int]] = []
        self._walks = 0
        self._sequence: List[Tuple[str, Tuple[str, ...], int, str]] = []
        self._lock = threading.Lock()
        self._warm_records: List[tuple] = []
        self._verified: Dict[Tuple[str, str, int], dict] = {}

    # -- daemon lifetime -------------------------------------------------
    def _boot(self) -> None:
        from repro.serve.client import ServeClient

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        env["NACHOS_CACHE_DIR"] = str(self.work / "serve-cache")
        ready_file = self.work / "serve-ready.json"
        if self.tracer.enabled:
            cmd = [sys.executable, str(root / "perfbench" / "traced_daemon.py"),
                   str(self.span_file)]
        else:
            cmd = [sys.executable, "-m", "repro.serve"]
        self.proc = subprocess.Popen(
            cmd + ["--port", "0", "--ready-file", str(ready_file), "--quiet"],
            env=env, cwd=str(root), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon died on boot: {self.proc.stderr.read()}")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became ready")
            try:
                ready = json.loads(ready_file.read_text())
                break
            except (OSError, ValueError):
                time.sleep(0.02)
        self.client = ServeClient(host=ready["host"], port=ready["port"], timeout=120)

    def setup(self) -> Tuple[float, float]:
        t0 = time.perf_counter()
        self._boot()
        for region, systems, inv in self.hot:
            response = self._submit(region, systems, inv)
            self._warm_records.append(("warm", 0.0, response["results"],
                                       region, systems, inv))
        raw = time.perf_counter() - t0
        return raw, raw

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            self.client.shutdown()
            self.proc.wait(timeout=30)
        except Exception:  # a daemon that will not stop is killed
            self.proc.kill()
        finally:
            self.proc.wait(timeout=10)
            self.proc.stderr.close()
            self.proc = None

    def daemon_spans(self) -> List[dict]:
        try:
            return json.loads(self.span_file.read_text())
        except (OSError, ValueError):
            self.errors.append("traced daemon wrote no spans")
            return []

    # -- load --------------------------------------------------------------
    def _submit(self, region: str, systems, inv: int) -> dict:
        response = self.client.submit(region, systems=list(systems),
                                      invocations=inv, wait=True,
                                      wait_timeout=120.0)
        if response.get("status") != "done":
            raise RuntimeError(f"{region}: request not done: {response}")
        return response

    def _request(self, i: int) -> Tuple[str, Tuple[str, ...], int, str]:
        """The i-th request of the seeded sequence, with its kind: ``hit``
        (a hot repeat), ``read`` (read-through) or ``fresh`` (compute)."""
        with self._lock:
            while len(self._sequence) <= i:
                special = self._rng.sample(range(BLOCK), FRESH_PER_BLOCK + READS_PER_BLOCK)
                fresh, reads = special[:FRESH_PER_BLOCK], special[FRESH_PER_BLOCK:]
                for j in range(BLOCK):
                    if j in fresh:
                        self._sequence.append((*self._next_fresh(), "fresh"))
                    elif j in reads and self._reads:
                        self._sequence.append((*self._reads.pop(), "read"))
                    else:
                        hot = self.hot[self._rng.randrange(len(self.hot))]
                        self._sequence.append((*hot, "hit"))
            return self._sequence[i]

    def _next_fresh(self) -> Tuple[str, Tuple[str, ...], int]:
        if not self._fresh:
            walk = self._walks
            self._walks += 1
            inv = (FRESH_INVOCATIONS[walk] if walk < len(FRESH_INVOCATIONS)
                   else FRESH_INVOCATIONS[-1] + walk)
            pairs = list(self._pairs)
            self._rng.shuffle(pairs)
            self._fresh = [(r, systems, inv) for r, systems in pairs]
        return self._fresh.pop()

    def window(self, seconds: float, min_passes: int) -> List[Pass]:
        """One time-bounded closed-loop window (``min_passes`` is moot)."""
        before = self.client.metrics()
        records: List[tuple] = []
        lock = threading.Lock()
        issued = [0]
        deadline = time.perf_counter() + seconds

        def client_loop() -> None:
            while time.perf_counter() < deadline:
                with lock:
                    i = issued[0]
                    issued[0] += 1
                region, systems, inv, kind = self._request(i)
                t0 = time.perf_counter()
                try:
                    with self.tracer.span("serve.request", key=f"req{i}", kind=kind):
                        results = self._submit(region, systems, inv)["results"]
                except Exception as exc:  # a failed request counts, never aborts
                    results = None
                    with lock:
                        self.errors.append(f"req{i} {region}: {exc}")
                with lock:
                    records.append((kind, time.perf_counter() - t0, results,
                                    region, systems, inv))

        threads = [threading.Thread(target=client_loop) for _ in range(self.jobs)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        end = time.perf_counter()
        after = self.client.metrics()

        p = Pass(start=start, end=end, latencies=[r[1] for r in records], digests={})
        p.failed += sum(1 for r in records if r[2] is None)
        for _kind, _lat, results, region, systems, inv in self._warm_records + records:
            if results is None:
                continue
            for system in systems:
                key = (region, system, inv)
                if results.get(system) != self._in_process(key):
                    p.failed += 1
                    self.errors.append(f"{region}/{system}/{inv}: payload differs "
                                       "from in-process run_system")
                    break
                p.digests[f"{region}/{system}/{inv}"] = _digest(results[system])
        self._warm_records = []
        p.failed += self._compare(p.digests)
        p.notes.update(_serve_deltas(before, after))
        # Hits end at the daemon's request record; read-through and fresh
        # requests hand every task to the batcher.
        reads = [r for r in records if r[0] == "read" and r[2] is not None]
        batched = sum(len(r[4]) for r in records if r[0] != "hit")
        if p.notes["tasks_submitted"] != batched:
            p.failed += 1
            self.errors.append(f"daemon batched {p.notes['tasks_submitted']:g} tasks, "
                               f"not the {batched} of the read-through and fresh requests")

        def latencies(kind: str) -> List[float]:
            return [r[1] for r in records if r[0] == kind and r[2] is not None]

        p.notes.update(
            items=len(records),
            hit_latencies=latencies("hit"),
            read_latencies=latencies("read"),
            miss_latencies=latencies("fresh"),
            fresh_share=sum(1 for r in records if r[0] == "fresh") / max(1, len(records)),
            fresh_share_base=len(records),
            read_share=len(reads) / max(1, len(records)),
            read_share_base=len(records),
        )
        return [p]

    def _in_process(self, key: Tuple[str, str, int]) -> dict:
        """The payload ``run_system`` gives in this process (no cache)."""
        cached = self._verified.get(key)
        if cached is not None:
            return cached
        from repro.experiments.common import run_system
        from repro.obs.runner import resolve_workload
        from repro.runtime.cache import configure_cache, get_cache
        from repro.serve.protocol import run_payload

        if get_cache().enabled:
            configure_cache(enabled=False)
        region, system, inv = key
        payload = run_payload(run_system(resolve_workload(region), system,
                                         invocations=inv))
        self._verified[key] = payload
        return payload


def _serve_deltas(before: dict, after: dict) -> Dict[str, float]:
    """Per-window daemon counters from two ``/metrics`` snapshots."""

    def value(snap: dict, name: str, key: str = "value") -> float:
        return float(snap.get(name, {}).get(key, 0) or 0)

    def delta(name: str) -> float:
        return value(after, name) - value(before, name)

    n0 = value(before, "serve.batch_size", "count")
    n1 = value(after, "serve.batch_size", "count")
    s0 = value(before, "serve.batch_size", "mean") * n0
    s1 = value(after, "serve.batch_size", "mean") * n1
    requests = delta("serve.requests")
    hits, misses = delta("cache.hits"), delta("cache.misses")
    return {
        "tasks_submitted": delta("serve.tasks_submitted"),
        "batch_size_mean": (s1 - s0) / (n1 - n0) if n1 > n0 else 0.0,
        "dedup_share": delta("serve.requests_deduped") / requests if requests else 0.0,
        "cache_hits": hits,
        "cache_misses": misses,
        "disk_hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "disk_hit_share_base": hits + misses,
        "dedup_share_base": requests,
        "retries": delta("serve.pool_retries"),
    }


WORKLOADS = {
    "sweep-cold": lambda seed, work, tracer: Sweep(seed, work, tracer, warm=False),
    "sweep-warm": lambda seed, work, tracer: Sweep(seed, work, tracer, warm=True),
    "compile-allpaths": CompileAllPaths,
    "serve-mix": ServeMix,
}
