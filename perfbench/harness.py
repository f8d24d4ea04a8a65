"""Measurement plumbing shared by every workload: spans, op loop, stats.

Nothing here imports the simulator; ``workloads.py`` does.  The op loop
times each op with ``time.perf_counter``, checks its output, and feeds
the op's simulated outputs into an order-sensitive digest.
"""

from __future__ import annotations

import bisect
import ctypes
import hashlib
import json
import os
import re
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

#: End-to-end metrics (printed with ``--trace 0``), name -> unit.
END_TO_END = {
    "throughput": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics (printed with ``--trace 1``), name -> unit.  Every
#: workload prints all of them; a layer the workload bypasses reads 0.
#: ``sim.*`` come from the cost model's simulated clock and are
#: deterministic for a given seed.
PER_LAYER = {
    "ipu.poptorch.lower_ms": "ms",
    "ipu.graph.vertices": "count",
    "ipu.graph.edges": "count",
    "ipu.graph.compute_sets": "count",
    "ipu.compiler.compile_ms": "ms",
    "ipu.compiler.planned_compile_ms": "ms",
    "ipu.executor.estimate_ms": "ms",
    "ipu.host_us_per_vertex": "us",
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.optim_ms": "ms",
    "nn.step_ms.baseline": "ms",
    "nn.step_ms.butterfly": "ms",
    "nn.step_ms.fastfood": "ms",
    "nn.step_ms.circulant": "ms",
    "nn.step_ms.lowrank": "ms",
    "nn.step_ms.pixelfly": "ms",
    "serve.generate_ms": "ms",
    "serve.run_ms": "ms",
    "serve.summary_ms": "ms",
    "serve.host_us_per_request": "us",
    "bench.parallel.run_grid_ms": "ms",
    "grid.cell_work_ms": "ms",
    "grid.overhead_ratio": "ratio",
    "guard.retries": "count",
    "guard.quarantined": "count",
    "guard.pool_rebuilds": "count",
    "guard.timeouts": "count",
    "import_s": "s",
    "sim.compute_s": "sim_s",
    "sim.exchange_s": "sim_s",
    "sim.sync_s": "sim_s",
    "sim.exchange_bytes": "bytes",
    "sim.peak_tile_bytes": "bytes",
    "sim.plan_saving_fraction": "fraction",
    "sim.goodput_rps": "req/sim_s",
    "sim.p99_ms": "sim_ms",
    "sim.replicas": "count",
    "sim.digest": "hash",
    "trace.overhead_frac": "fraction",
}

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


# -- tracing -----------------------------------------------------------------


class Tracer:
    """In-memory spans: ``[name, start_s, end_s, parent index]``."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        Self time is the span's duration minus the time its direct
        children cover.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_s):
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return out


class NullTracer:
    """Tracing off: ``span`` is a shared no-op context."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = NullTracer()


# -- digests and statistics --------------------------------------------------


def canonical(obj) -> str:
    """Exact, key-ordered JSON text (floats keep every digit)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint(obj) -> str:
    """Hash of :func:`canonical` text."""
    return hashlib.blake2b(canonical(obj).encode(), digest_size=16).hexdigest()


class Digest:
    """Order-sensitive hash over a sequence of op fingerprints."""

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)

    def update(self, text: str) -> None:
        self._hash.update(text.encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def value(self) -> int:
        """The first 52 bits as an integer (exact in a JSON double)."""
        return int(self.hexdigest()[:13], 16)


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the highest percentile
    with at least :data:`TAIL_BEYOND` samples beyond it.

    With too few samples the maximum is reported, with 0 beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, (
        TAIL_BEYOND
    )


# -- environment -------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, queried from the library."""
    try:
        with open("/proc/self/maps") as maps:
            paths = set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read()))
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_info() -> str:
    """One line: core count, BLAS threads, Python and numpy versions."""
    import numpy as np

    cores = len(os.sched_getaffinity(0))
    return (
        f"nproc={cores} blas_threads={blas_threads()} "
        f"omp_num_threads={os.environ.get('OMP_NUM_THREADS')} "
        f"python={sys.version.split()[0]} numpy={np.__version__}"
    )


def stop_children() -> None:
    """Stop and reap every process this one started.

    A ``spawn`` worker makes ``multiprocessing`` start a resource
    tracker process that would otherwise outlive this one, unreaped.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    for child in mp.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host speed --------------------------------------------------------------

#: Probes nearest an op in time whose median sets the op's host speed:
#: the one just before it and the one just after.
PROBE_WINDOW = 2
#: Probes right after set-up whose median sets set-up's host speed.
SETUP_WINDOW = 40
#: Python-loop iterations in one probe.
PROBE_LOOP = 10_000
#: Random reads in one probe, from an array of this many float32s.
PROBE_GATHER = 8_000
PROBE_GATHER_FROM = 1 << 22
#: Median seconds of one probe on a 2-core x86-64 VM in its faster
#: phases: the speed timings are scaled to.
REFERENCE_PROBE_S = 0.0012


class HostSpeed:
    """Host speed, from a fixed CPU probe timed before every op.

    On a shared host the same code runs up to 40% slower in phases from
    under a second to minutes long, and the Python interpreter and BLAS
    slow down alike.  :meth:`scale` puts a time measured at *t* on the
    reference host: it multiplies by the ratio of
    :data:`REFERENCE_PROBE_S` to the median of the probes nearest *t*.
    The probe touches none of the simulator, so a change to the program
    moves the scaled times as much as the measured ones.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._matrix = rng.random((256, 256), dtype=np.float32)
        self._big = rng.random(PROBE_GATHER_FROM, dtype=np.float32)
        self._where = rng.integers(PROBE_GATHER_FROM, size=PROBE_GATHER)
        #: ``(start, seconds)`` of every probe, in time order.
        self.samples: list[tuple[float, float]] = []

    def _probe(self) -> None:
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        self._matrix @ self._matrix
        self._big[self._where].sum()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self._probe()  # the timed call then finds warm caches
            start = perf_counter()
            self._probe()
            self.samples.append((start, perf_counter() - start))

    def probe_s(self, t: float, window: int = PROBE_WINDOW) -> float:
        """Median seconds of the *window* probes nearest *t*."""
        starts = [start for start, _ in self.samples]
        i = bisect.bisect(starts, t)
        lo = max(0, min(i - window // 2, len(starts) - window))
        return statistics.median(
            seconds for _, seconds in self.samples[lo:lo + window])

    def scale(self, seconds: float, t: float,
              window: int = PROBE_WINDOW) -> float:
        return seconds * REFERENCE_PROBE_S / self.probe_s(t, window)


# -- the op loop -------------------------------------------------------------


@dataclass
class OpLedger:
    """Every op attempted in one run and how it went."""

    attempted: int = 0
    failed: int = 0
    digest: Digest = field(default_factory=Digest)
    #: op key -> fingerprint of its first execution.
    seen: dict = field(default_factory=dict)
    #: ``(start, seconds, ok)`` of every op.
    timed: list[tuple[float, float, bool]] = field(default_factory=list)
    #: Probed between ops when set; see :class:`HostSpeed`.
    host: HostSpeed | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)


def run_pass(workload, ops, tracer, ledger: OpLedger, first: bool,
             plant_index: int | None = None) -> float:
    """Run *ops* once; returns the seconds spent inside ops.

    A raised exception or a failed check counts the op as failed; the
    run goes on.  On the *first* pass every op's simulated outputs go
    into the digest.  An op whose key was seen before must reproduce
    the first execution's fingerprint exactly.
    """
    spent = 0.0
    for index, op in enumerate(ops):
        ledger.attempted += 1
        if ledger.host is not None:
            ledger.host.sample()
        start = perf_counter()
        try:
            with tracer.span("op"):
                out = workload.run(op, tracer)
        except Exception:
            elapsed = perf_counter() - start
            spent += elapsed
            ledger.timed.append((start, elapsed, False))
            ledger.fail(f"op {index} {op!r} raised\n{traceback.format_exc()}")
            continue
        elapsed = perf_counter() - start
        spent += elapsed
        ledger.timed.append((start, elapsed, True))
        if index == plant_index:
            out = workload.plant(out)
        error = workload.check(op, out)
        printed = fingerprint(workload.sim_outputs(out))
        key = workload.key(op)
        if error is None and key is not None:
            if ledger.seen.setdefault(key, printed) != printed:
                error = "a repeat of this op gave different simulated outputs"
        if first:
            ledger.digest.update(printed)
            workload.observe(op, out)
        if error is not None:
            ledger.timed[-1] = (start, elapsed, False)
            ledger.fail(f"op {index} {op!r}: {error}")
            continue
    return spent
