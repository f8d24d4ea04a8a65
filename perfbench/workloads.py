"""The four benchmark workloads.

Each workload builds a fixed seeded list of ops (one *pass*), runs them
through the simulator's public API, and checks every op's output.  The
simulator is imported in :meth:`Workload.setup`, so import time counts
toward set-up; op-list generation, model construction, pool compiles and
warm-up happen there too.

A workload's ``run(op, tracer)`` is the timed call.  With tracing on it
wraps each layer call in a span (``ipu.poptorch.lower``,
``nn.forward``, ``serve.run``, ...); the per-layer metrics are read from
those spans.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from time import perf_counter

from harness import NULL_TRACER

# -- base --------------------------------------------------------------------


class SetupError(RuntimeError):
    """A set-up check failed: the program is wrong before any op runs."""


class Workload:
    name = ""
    #: Host seconds one pass takes on a 2-core x86-64 VM.  ``--seconds``
    #: is turned into a whole number of passes with it, so two commits
    #: run the same op sequence however fast each one is.
    nominal_pass_s = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list = []
        self.import_s = 0.0

    def rng(self, stream: int):
        import numpy as np

        return np.random.default_rng(
            np.random.SeedSequence([self.seed, stream])
        )

    def setup(self) -> None:
        start = perf_counter()
        import repro.__main__  # noqa: F401  (the CLI's full import graph)

        self.import_s = perf_counter() - start
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, op, tracer):
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        """``None`` when *out* is right, else what is wrong with it."""
        raise NotImplementedError

    def sim_outputs(self, out):
        """The op's simulated outputs, as JSON-able data."""
        return out

    def key(self, op):
        """Ops with equal keys must give identical fingerprints."""
        return op

    def observe(self, op, out) -> None:
        """Accumulate simulated statistics (first pass only)."""

    def final_check(self) -> str | None:
        return None

    def plant(self, out):
        """Return a corrupted copy of *out* (the smoke test's wrong result)."""
        raise NotImplementedError

    def per_layer(self, summary: dict, passes: int) -> dict[str, float]:
        raise NotImplementedError


def span_ms(summary: dict, name: str, per: int | None = None) -> float:
    """Milliseconds in span *name*, per call (or per *per* ops)."""
    row = summary.get(name)
    if row is None:
        return 0.0
    return 1e3 * row["total_s"] / (per or row["calls"])


# -- cold-compile ------------------------------------------------------------

FAMILIES = ("dense", "butterfly", "pixelfly", "fastfood", "circulant",
            "lowrank")
DIMS = (256, 512, 1024, 2048)
SMALL_BATCH = 16


def build_layer(family: str, dim: int, seed: int):
    from repro import nn

    if family == "dense":
        return nn.Linear(dim, dim, bias=False, seed=seed)
    if family == "butterfly":
        return nn.ButterflyLinear(dim, dim, bias=False, seed=seed)
    if family == "pixelfly":
        return nn.PixelflyLinear(
            dim, block_size=32, butterfly_size=4, rank=1, bias=False,
            seed=seed,
        )
    if family == "fastfood":
        return nn.FastfoodLinear(dim, bias=False, seed=seed)
    if family == "circulant":
        return nn.CirculantLinear(dim, bias=False, seed=seed)
    if family == "lowrank":
        return nn.LowRankLinear(dim, dim, rank=1, bias=False, seed=seed)
    raise ValueError(f"unknown family {family!r}")


class ColdCompile(Workload):
    """One op costs one model cold: lower -> compile -> estimate.

    A pass is a stratified seeded draw: every family x dim x batch cell
    appears twice unplanned and once with ``plan_memory=True`` (a third
    of the ops), in seeded order, on models with seeded weights.
    """

    name = "cold-compile"
    nominal_pass_s = 6.9

    def prepare(self) -> None:
        from repro.cache import NULL_CACHE
        from repro.ipu.compiler import compile_graph
        from repro.ipu.executor import Executor
        from repro.ipu.machine import GC200
        from repro.ipu.poptorch import lower_model

        self._lower, self._compile = lower_model, compile_graph
        self._executor, self._spec, self._cache = Executor, GC200, NULL_CACHE
        rng = self.rng(0xC0)
        cells = [(f, d, b) for f in FAMILIES for d in DIMS
                 for b in (SMALL_BATCH, d)]
        ops = [c + (False,) for c in cells] * 2 + [c + (True,) for c in cells]
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        model_seed = int(rng.integers(2**31))
        self.models = {
            (f, d): build_layer(f, d, model_seed) for f in FAMILIES
            for d in DIMS
        }
        self._peaks: dict = {}
        self.totals = dict.fromkeys(
            ("vertices", "edges", "compute_sets", "compute_s", "exchange_s",
             "sync_s", "exchange_bytes", "peak_tile_bytes", "saving", "planned"),
            0.0,
        )
        for family in FAMILIES:  # warm-up: one small model per family
            self.run((family, DIMS[0], SMALL_BATCH, True), NULL_TRACER)

    def run(self, op, tracer):
        family, dim, batch, planned = op
        with tracer.span("ipu.poptorch.lower"):
            graph, _ = self._lower(self.models[family, dim], self._spec,
                                   batch, dim)
        with tracer.span("ipu.compiler.planned_compile" if planned
                         else "ipu.compiler.compile"):
            compiled = self._compile(graph, self._spec, check_fit=False,
                                     cache=self._cache, plan_memory=planned)
        with tracer.span("ipu.executor.estimate"):
            report = self._executor(compiled).estimate()
        memory, parts = compiled.memory, compiled.memory.breakdown
        return {
            "vertices": graph.n_vertices,
            "edges": graph.n_edges,
            "compute_sets": graph.n_compute_sets,
            "total_bytes": memory.total_bytes,
            "peak_tile_bytes": memory.peak_tile_bytes,
            "no_reuse_peak_tile_bytes": memory.no_reuse_peak_tile_bytes,
            "plan_saving_fraction": memory.plan_saving_fraction,
            "breakdown": [parts.variables, parts.vertex_state,
                          parts.edge_code, parts.control_code,
                          parts.codelet_code, parts.exchange_buffers],
            "compute_s": report.compute_s,
            "exchange_s": report.exchange_s,
            "sync_s": report.sync_s,
            "host_s": report.host_s,
            "total_s": report.total_s,
            "exchange_bytes": report.exchange_bytes,
            "steps": len(report.steps),
        }

    def check(self, op, out):
        parts = math.fsum(out["breakdown"])
        if not math.isclose(parts, out["total_bytes"], rel_tol=1e-9):
            return (f"memory breakdown sums to {parts!r} B but the per-tile "
                    f"total is {out['total_bytes']!r} B")
        peak = out["peak_tile_bytes"]
        if peak > out["no_reuse_peak_tile_bytes"] * (1 + 1e-12):
            return "planned peak tile bytes exceed the no-reuse peak"
        times = [out[k] for k in ("compute_s", "exchange_s", "sync_s",
                                  "total_s")]
        if not all(math.isfinite(t) and t >= 0 for t in times) or (
            out["compute_s"] <= 0
        ):
            return f"simulated times are not finite and positive: {times}"
        peaks = self._peaks.setdefault(op[:3], {})
        peaks.setdefault(op[3], peak)
        if len(peaks) == 2 and peaks[True] > peaks[False] * (1 + 1e-12):
            return (f"planned peak {peaks[True]!r} B exceeds the unplanned "
                    f"peak {peaks[False]!r} B")
        return None

    def observe(self, op, out):
        t = self.totals
        for k in ("vertices", "edges", "compute_sets", "compute_s",
                  "exchange_s", "sync_s", "exchange_bytes"):
            t[k] += out[k]
        t["peak_tile_bytes"] = max(t["peak_tile_bytes"], out["peak_tile_bytes"])
        if op[3]:
            t["saving"] += out["plan_saving_fraction"]
            t["planned"] += 1

    def plant(self, out):
        return dict(out, total_bytes=out["total_bytes"] * 1.5)

    def per_layer(self, summary, passes):
        t = self.totals
        return {
            "ipu.poptorch.lower_ms": span_ms(summary, "ipu.poptorch.lower"),
            "ipu.graph.vertices": t["vertices"],
            "ipu.graph.edges": t["edges"],
            "ipu.graph.compute_sets": t["compute_sets"],
            "ipu.compiler.compile_ms": span_ms(summary,
                                               "ipu.compiler.compile"),
            "ipu.compiler.planned_compile_ms": span_ms(
                summary, "ipu.compiler.planned_compile"),
            "ipu.executor.estimate_ms": span_ms(summary,
                                                "ipu.executor.estimate"),
            "ipu.host_us_per_vertex": (
                1e6 * summary["op"]["total_s"] / (t["vertices"] * passes)
                if t["vertices"] else 0.0
            ),
            "sim.compute_s": t["compute_s"],
            "sim.exchange_s": t["exchange_s"],
            "sim.sync_s": t["sync_s"],
            "sim.exchange_bytes": t["exchange_bytes"],
            "sim.peak_tile_bytes": t["peak_tile_bytes"],
            "sim.plan_saving_fraction": (
                t["saving"] / t["planned"] if t["planned"] else 0.0
            ),
        }


# -- shl-train ---------------------------------------------------------------

#: Table 4 method name -> metric suffix.
SHL_METHODS = {
    "Baseline": "baseline",
    "Butterfly": "butterfly",
    "Fastfood": "fastfood",
    "Circulant": "circulant",
    "Low-rank": "lowrank",
    "Pixelfly": "pixelfly",
}
SHL_DIM = 1024
SHL_MINIBATCHES = 8


class ShlTrain(Workload):
    """One op is one ``Trainer.train_step`` of each Table 4 model on one
    seeded minibatch of synthetic CIFAR-10."""

    name = "shl-train"
    nominal_pass_s = 0.71

    def prepare(self) -> None:
        from repro import nn
        from repro.datasets import load_cifar10
        from repro.experiments.config import TABLE3, shl_model

        self._nn = nn
        rng = self.rng(0x5E)
        batch = TABLE3.batch_size
        train, _ = load_cifar10(n_train=SHL_MINIBATCHES * batch,
                                n_test=batch, seed=int(rng.integers(2**31)))
        self.minibatches = [
            (train.x[i * batch:(i + 1) * batch],
             train.y[i * batch:(i + 1) * batch])
            for i in range(SHL_MINIBATCHES)
        ]
        self.ops = [int(i) for i in rng.permutation(SHL_MINIBATCHES)]
        model_seed = int(rng.integers(2**31))
        self.trainers = {}
        for method in SHL_METHODS:
            model = shl_model(method, dim=SHL_DIM, seed=model_seed)
            optimizer = nn.SGD(model.parameters(), lr=TABLE3.learning_rate,
                               momentum=TABLE3.momentum)
            self.trainers[method] = nn.Trainer(model, optimizer)
        error = self.final_check()
        if error is not None:
            raise SetupError(error)
        self.run(self.ops[0], NULL_TRACER)  # warm-up step of every model

    def run(self, op, tracer):
        x, y = self.minibatches[op]
        if not tracer.enabled:
            return [list(t.train_step(x, y)) for t in self.trainers.values()]
        # The same steps as Trainer.train_step, one span per layer call.
        nn = self._nn
        out = []
        for method, trainer in self.trainers.items():
            with tracer.span(f"nn.step.{SHL_METHODS[method]}"):
                trainer.model.train()
                with tracer.span("nn.optim"):
                    trainer.optimizer.zero_grad()
                with tracer.span("nn.forward"):
                    logits = trainer.model(nn.Tensor(x))
                    loss = trainer.loss_fn(logits, y)
                with tracer.span("nn.backward"):
                    loss.backward()
                with tracer.span("nn.optim"):
                    trainer.optimizer.step()
                out.append([loss.item(), nn.accuracy(logits, y)])
        return out

    def key(self, op):
        return None  # training state moves on, so repeats differ

    def check(self, op, out):
        for method, (loss, acc) in zip(SHL_METHODS, out):
            if not math.isfinite(loss) or not 0.0 <= acc <= 1.0:
                return f"{method}: loss {loss!r}, accuracy {acc!r}"
        return None

    def final_check(self):
        """Each structured hidden layer's forward matches ``weight_dense()``."""
        import numpy as np

        nn = self._nn
        x = self.minibatches[0][0]
        for method, trainer in self.trainers.items():
            layer = trainer.model[0]
            if not hasattr(layer, "weight_dense"):
                continue  # the dense baseline has no factorisation
            with nn.no_grad():
                got = layer(nn.Tensor(x)).data
            weight = layer.weight_dense()
            want = x @ weight.T
            if layer.bias is not None:
                want = want + layer.bias.data
            # Rounding bound: a few ulps of the input dtype times the
            # largest possible output magnitude.
            bound = (4 * np.finfo(x.dtype).eps * np.abs(x).max()
                     * np.abs(weight).sum(axis=1).max())
            err = float(np.abs(got - want).max())
            if not err <= bound:
                return (f"{method}: forward differs from weight_dense() "
                        f"by {err!r} (bound {bound!r})")
        return None

    def plant(self, out):
        return [[math.nan, acc] for _, acc in out]

    def per_layer(self, summary, passes):
        ops = len(self.ops) * passes
        metrics = {
            "nn.forward_ms": span_ms(summary, "nn.forward", ops),
            "nn.backward_ms": span_ms(summary, "nn.backward", ops),
            "nn.optim_ms": span_ms(summary, "nn.optim", ops),
        }
        for suffix in SHL_METHODS.values():
            metrics[f"nn.step_ms.{suffix}"] = span_ms(
                summary, f"nn.step.{suffix}", ops)
        return metrics


# -- serve-sim ---------------------------------------------------------------

SERVE_METHODS = ("dense", "butterfly", "pixelfly")
SERVE_DIM = 1024
SERVE_BATCH_ROWS = 8
SERVE_BUDGET_BYTES = 96 * 2**20
SERVE_REQUESTS = 3000
SERVE_ROWS = (1, 4)
#: Offered load as a multiple of a pool's nominal capacity.
SERVE_LOADS = {"below": 0.5, "near": 1.0, "above": 2.0}
SERVE_ARRIVALS = ("poisson", "burst")


class ServeSim(Workload):
    """One op is one ``serve.simulate`` of a few thousand requests.

    The dense/butterfly/pixelfly pools are compiled once in set-up.  A
    pass covers every pool x load x arrival process; the seed jitters
    each load by up to 10% and seeds each request stream.
    """

    name = "serve-sim"
    nominal_pass_s = 2.15

    def prepare(self) -> None:
        from repro import serve

        self._serve = serve
        self.pools = {
            m: serve.build_pool(m, SERVE_DIM, SERVE_BATCH_ROWS,
                                SERVE_BUDGET_BYTES)
            for m in SERVE_METHODS
        }
        error = self.final_check()
        if error is not None:
            raise SetupError(error)
        rng = self.rng(0x5E7)
        mean_rows = sum(SERVE_ROWS) / 2
        ops, self.scenarios = [], {}
        for method in SERVE_METHODS:
            pool = self.pools[method]
            capacity = (pool.n_replicas * SERVE_BATCH_ROWS / mean_rows
                        / pool.service_s)
            for load, factor in SERVE_LOADS.items():
                for arrival in SERVE_ARRIVALS:
                    rate = capacity * factor * float(rng.uniform(0.9, 1.1))
                    stream = int(rng.integers(2**31))
                    op = (method, load, arrival)
                    ops.append(op)
                    self.scenarios[op] = self._scenario(
                        pool, rate, arrival, stream)
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.goodput, self.p99 = [], []
        for method in SERVE_METHODS:  # warm-up: one short run per pool
            spec, config = self.scenarios[method, "near", "poisson"]
            self._simulate(self.pools[method],
                           dataclasses.replace(spec, n_requests=200), config,
                           NULL_TRACER)

    def _scenario(self, pool, rate, arrival, stream):
        serve = self._serve
        spec = serve.WorkloadSpec(
            seed=stream, n_requests=SERVE_REQUESTS, rate_rps=rate,
            arrival=arrival, rows_min=SERVE_ROWS[0], rows_max=SERVE_ROWS[1],
            slo_s=5e-4,
        )
        config = serve.ServeConfig(
            batch_policy=serve.BatchPolicy(max_batch_rows=SERVE_BATCH_ROWS,
                                           max_delay_s=5e-5),
            queue_max_requests=32,
            deaths=serve.death_schedule(stream, pool.n_replicas, 1,
                                        SERVE_REQUESTS / rate),
        )
        return spec, config

    def run(self, op, tracer):
        return self._simulate(self.pools[op[0]], *self.scenarios[op], tracer)

    def _simulate(self, pool, spec, config, tracer):
        serve = self._serve
        fresh = dataclasses.replace(
            pool, replicas=[serve.Replica(index=i)
                            for i in range(pool.n_replicas)])
        if not tracer.enabled:
            return serve.simulate(fresh, spec, config).as_dict()
        # The same calls as serve.simulate, one span per layer call.
        with tracer.span("serve.generate"):
            requests = serve.generate_requests(spec)
        with tracer.span("serve.run"):
            result = serve.Server(pool=fresh, config=config).run(requests)
        with tracer.span("serve.summary"):
            return result.as_dict()

    def check(self, op, out):
        accounted = out["completed"] + sum(out["shed"].values()) + out["failed"]
        if out["requests"] != SERVE_REQUESTS or accounted != out["requests"]:
            return (f"completed + shed + failed = {accounted}, "
                    f"requests = {out['requests']}")
        if not 0 <= out["on_time"] <= out["completed"]:
            return f"on_time {out['on_time']} outside [0, completed]"
        if out["n_replicas"] != self.pools[op[0]].n_replicas:
            return "replica count differs from the pool's"
        return None

    def observe(self, op, out):
        self.goodput.append(out["goodput_rps"])
        self.p99.append(out["latency_s"]["p99"])

    def final_check(self):
        n = {m: pool.n_replicas for m, pool in self.pools.items()}
        if not n["butterfly"] >= n["pixelfly"] > n["dense"]:
            return f"replica counts break butterfly >= pixelfly > dense: {n}"
        return None

    def plant(self, out):
        return dict(out, completed=out["completed"] + 1)

    def per_layer(self, summary, passes):
        requests = SERVE_REQUESTS * len(self.ops) * passes
        return {
            "serve.generate_ms": span_ms(summary, "serve.generate"),
            "serve.run_ms": span_ms(summary, "serve.run"),
            "serve.summary_ms": span_ms(summary, "serve.summary"),
            "serve.host_us_per_request": (
                1e6 * summary["op"]["total_s"] / requests if requests
                else 0.0
            ),
            "sim.goodput_rps": sum(self.goodput) / max(len(self.goodput), 1),
            "sim.p99_ms": 1e3 * sum(self.p99) / max(len(self.p99), 1),
            "sim.replicas": sum(
                self.pools[m].n_replicas for m in SERVE_METHODS),
        }


# -- guarded-grid ------------------------------------------------------------

GRID_SIZES = (128, 256, 512)
GRID_JOBS = 2


class GuardedGrid(Workload):
    """One op is ``run_grid`` over two Fig 6 IPU cells with ``jobs=2``
    under a ``GuardPolicy``; a pass covers every ordered pair of sizes,
    in seeded order."""

    name = "guarded-grid"
    nominal_pass_s = 3.6

    def prepare(self) -> None:
        from repro.bench.parallel import run_grid
        from repro.experiments.fig6 import layer_times
        from repro.guard import GuardPolicy, reporting

        from gridcell import fig6_ipu_cell

        self._run_grid, self._reporting = run_grid, reporting
        self._cell = fig6_ipu_cell
        # A deadline arms the supervisor's watchdog, as in a guarded
        # ``python -m repro fig6 --cell-timeout`` run.
        self._policy = GuardPolicy(cell_timeout_s=120.0, retries=1)
        # Serial in-process reference, timed on a second call.
        self.reference, self.work_s = {}, {}
        for n in GRID_SIZES:
            first = layer_times("ipu", n)
            start = perf_counter()
            self.reference[n] = layer_times("ipu", n)
            self.work_s[n] = perf_counter() - start
            if self.reference[n] != first:
                raise SetupError(f"fig6 cell {n} is not deterministic")
        pairs = list(itertools.permutations(GRID_SIZES, 2))
        self.ops = [pairs[i] for i in self.rng(0x96).permutation(len(pairs))]
        self.guard = dict.fromkeys(
            ("retries", "quarantined", "pool_rebuilds", "timeouts"), 0)
        error = self.check(self.ops[0], self.run(self.ops[0], NULL_TRACER))
        if error is not None:  # warm-up grid
            raise SetupError(error)

    def run(self, op, tracer):
        with self._reporting() as reports:
            with tracer.span("bench.parallel.run_grid"):
                results = self._run_grid(
                    self._cell, list(op), jobs=GRID_JOBS, guard=self._policy,
                    name="perfbench",
                )
        return {"results": results, "report": reports[-1]}

    def sim_outputs(self, out):
        return [dataclasses.asdict(r) if r is not None else None
                for r in out["results"]]

    def check(self, op, out):
        # Also tallies the supervisor's counters over every op of the run.
        report = out["report"]
        self.guard["retries"] += report.total_retries
        self.guard["quarantined"] += report.n_quarantined
        self.guard["pool_rebuilds"] += report.pool_rebuilds
        self.guard["timeouts"] += report.total_timeouts
        if not report.ok:
            return f"cells failed under supervision:\n{report.render()}"
        if out["results"] != [self.reference[n] for n in op]:
            return "grid results differ from the serial in-process reference"
        return None

    def plant(self, out):
        first = out["results"][0]
        results = [dataclasses.replace(first, linear_s=first.linear_s * 2)]
        return dict(out, results=results + out["results"][1:])

    def per_layer(self, summary, passes):
        work_ms = 1e3 * sum(
            sum(self.work_s[n] for n in op) for op in self.ops) / len(self.ops)
        grid_ms = span_ms(summary, "bench.parallel.run_grid")
        metrics = {
            "bench.parallel.run_grid_ms": grid_ms,
            "grid.cell_work_ms": work_ms,
            "grid.overhead_ratio": grid_ms / work_ms if work_ms else 0.0,
        }
        metrics.update({f"guard.{k}": v for k, v in self.guard.items()})
        return metrics


WORKLOADS = {w.name: w for w in (ColdCompile, ShlTrain, ServeSim,
                                 GuardedGrid)}
