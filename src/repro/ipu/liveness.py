"""Variable liveness analysis for compiled IPU graphs.

The base compiler (:mod:`repro.ipu.compiler`) charges every variable as
always-live — a safe over-approximation.  Real Poplar reuses the storage of
dead temporaries, which matters for layer pipelines whose staging buffers
live for one superstep each.  This module computes per-program-step live
sets from def/use positions and reports the *peak* live footprint, giving a
tighter memory bound and a way to quantify how much reuse is on the table.
The memory planner (:mod:`repro.ipu.memplan`) turns these intervals into
actual slot assignments.

Definitions
-----------
A variable is *defined* at a step that writes it (a vertex output edge, a
copy destination, a host write) and *used* at a step that reads it (vertex
input, copy source, host read).  Its live interval spans first definition to
last use.  Variables never written inside the program (weights, inputs fed
via :meth:`Executor.run`) are conservatively live for the whole program.

A variable *used before its first in-program def* must hold externally
supplied data at program start, so its interval starts at step 0 — not at
the first def — and it is flagged ``upward_exposed``.  The planner never
places such a variable into a reused slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ipu.graph import Graph
from repro.utils import format_bytes

__all__ = ["LiveInterval", "LivenessReport", "compute_liveness"]


@dataclass(frozen=True)
class LiveInterval:
    """Live range of one variable in program-step indices (inclusive)."""

    var: str
    start: int
    end: int
    nbytes: int
    #: Read before its first in-program def: holds external data at step 0.
    upward_exposed: bool = False
    #: First def writes every element (safe to read nothing older).
    fully_defined: bool = True
    #: First def strictly precedes the first use (or the var is never
    #: read) — no step observes pre-def contents.
    def_before_use: bool = True
    home_tile: int = 0
    tile_span: int = 1

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def live_at(self, step: int) -> bool:
        return self.start <= step <= self.end


@dataclass
class LivenessReport:
    """Per-step live bytes and the peak footprint."""

    intervals: list[LiveInterval]
    per_step_bytes: np.ndarray
    always_live_bytes: int
    #: Intervals for never-written variables (live for the whole program).
    always_live: list[LiveInterval] = field(default_factory=list)
    #: Peak live bytes per tile over all steps (None if not computed).
    per_tile_peak_bytes: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return len(self.per_step_bytes)

    @property
    def peak_bytes(self) -> float:
        """Largest simultaneous live footprint over the program."""
        if len(self.per_step_bytes) == 0:
            return float(self.always_live_bytes)
        return float(self.per_step_bytes.max())

    @property
    def peak_step(self) -> int:
        """Program step where the peak occurs."""
        if len(self.per_step_bytes) == 0:
            return 0
        return int(self.per_step_bytes.argmax())

    @property
    def total_bytes(self) -> int:
        """Sum of all variable sizes (the no-reuse upper bound)."""
        return self.always_live_bytes + sum(
            iv.nbytes for iv in self.intervals
        )

    @property
    def peak_tile_bytes(self) -> float:
        """Largest per-tile peak (0.0 when per-tile data was not computed)."""
        if self.per_tile_peak_bytes is None or not len(
            self.per_tile_peak_bytes
        ):
            return 0.0
        return float(self.per_tile_peak_bytes.max())

    @property
    def reuse_saving(self) -> float:
        """Fraction of the no-reuse footprint that liveness reclaims."""
        total = self.total_bytes
        if total == 0:
            return 0.0
        return 1.0 - self.peak_bytes / total

    def __str__(self) -> str:
        return (
            f"LivenessReport(peak={format_bytes(self.peak_bytes)} at step "
            f"{self.peak_step}/{self.n_steps}, no-reuse total="
            f"{format_bytes(self.total_bytes)}, saving="
            f"{self.reuse_saving:.0%})"
        )


def compute_liveness(graph: Graph) -> LivenessReport:
    """Compute variable live ranges over *graph*'s program order."""
    n_steps = len(graph.program)
    first_def: dict[str, int] = {}
    first_use: dict[str, int] = {}
    last_use: dict[str, int] = {}
    # Elements written to each variable at its first defining step.
    coverage: dict[str, int] = {}

    def note_def(var: str, step: int, n_elements: int) -> None:
        if var not in first_def:
            first_def[var] = step
            coverage[var] = 0
        if first_def[var] == step:
            coverage[var] += n_elements
        last_use[var] = max(last_use.get(var, step), step)

    def note_use(var: str, step: int) -> None:
        if var not in first_use:
            first_use[var] = step
        last_use[var] = max(last_use.get(var, step), step)

    for step_idx, step in enumerate(graph.program):
        if step.kind == "compute":
            cs = graph.compute_sets[step.ref]
            for vertex in graph.vertices_in(cs):
                for edge in vertex.inputs:
                    note_use(edge.var, step_idx)
                for edge in vertex.outputs:
                    note_def(edge.var, step_idx, edge.n_elements)
        elif step.kind == "copy":
            src, dst = step.ref
            note_use(src, step_idx)
            note_def(dst, step_idx, graph.variables[dst].n_elements)
        elif step.kind == "host_write":
            note_def(
                step.ref, step_idx, graph.variables[step.ref].n_elements
            )
        elif step.kind == "host_read":
            note_use(step.ref, step_idx)

    intervals: list[LiveInterval] = []
    always_live_ivs: list[LiveInterval] = []
    always_live = 0
    last_step = max(n_steps - 1, 0)
    for name, var in graph.variables.items():
        if name not in first_def:
            # Never written inside the program: an external input or a
            # parameter — conservatively live throughout.
            always_live += var.total_bytes
            always_live_ivs.append(
                LiveInterval(
                    var=name,
                    start=0,
                    end=last_step,
                    nbytes=var.total_bytes,
                    upward_exposed=True,
                    fully_defined=False,
                    def_before_use=False,
                    home_tile=var.home_tile,
                    tile_span=var.tile_span,
                )
            )
            continue
        upward_exposed = first_use.get(name, n_steps) < first_def[name]
        # Used before its first def: it must already hold external data,
        # so the footprint exists from program start.
        start = 0 if upward_exposed else first_def[name]
        end = last_use.get(name, first_def[name])
        intervals.append(
            LiveInterval(
                var=name,
                start=start,
                end=end,
                nbytes=var.total_bytes,
                upward_exposed=upward_exposed,
                fully_defined=coverage[name] >= var.n_elements,
                def_before_use=first_use.get(name, n_steps + 1)
                > first_def[name],
                home_tile=var.home_tile,
                tile_span=var.tile_span,
            )
        )

    per_step = np.full(n_steps, float(always_live))
    for iv in intervals:
        per_step[iv.start : iv.end + 1] += iv.nbytes

    # Per-tile peaks via a 2D difference array over (step, tile): each
    # interval spreads nbytes/tile_span uniformly over its tile range.
    n_tiles = graph.n_tiles
    rows = max(n_steps, 1)
    diff = np.zeros((rows + 1, n_tiles + 1))
    for iv in intervals + always_live_ivs:
        share = iv.nbytes / iv.tile_span
        t0, t1 = iv.home_tile, iv.home_tile + iv.tile_span
        diff[iv.start, t0] += share
        diff[iv.start, t1] -= share
        diff[iv.end + 1, t0] -= share
        diff[iv.end + 1, t1] += share
    grid = diff.cumsum(axis=0).cumsum(axis=1)[:rows, :n_tiles]
    per_tile_peak = grid.max(axis=0) if rows else np.zeros(n_tiles)

    return LivenessReport(
        intervals=intervals,
        per_step_bytes=per_step,
        always_live_bytes=always_live,
        always_live=always_live_ivs,
        per_tile_peak_bytes=per_tile_peak,
    )
