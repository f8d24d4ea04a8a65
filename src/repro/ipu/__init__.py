"""Tile-level IPU simulator (Graphcore GC200 stand-in).

Substitutes for the paper's hardware: a BSP machine model
(:mod:`repro.ipu.machine`), the distance-free exchange fabric
(:mod:`repro.ipu.exchange`), a Poplar-like dataflow graph
(:mod:`repro.ipu.graph`) with codelets (:mod:`repro.ipu.vertices`), a
compiler that accounts tile memory structurally (:mod:`repro.ipu.compiler`),
a BSP executor (:mod:`repro.ipu.executor`), poplin/popsparse planners,
and a PopTorch-style bridge for :mod:`repro.nn` models
(:mod:`repro.ipu.poptorch`).
"""

from repro.ipu.machine import IPUSpec, GC200, GC2
from repro.ipu.exchange import ExchangeModel, TransferMeasurement
from repro.ipu.graph import Graph, Variable, Vertex, Edge, ComputeSet
from repro.ipu.compiler import (
    compile_graph,
    CompiledGraph,
    MemoryReport,
    GraphProfile,
    IPUOutOfMemoryError,
)
from repro.ipu.memplan import MemoryPlan, MemorySlot, plan_memory
from repro.ipu.executor import Executor, ExecutionReport, StepTiming
from repro.ipu.poplin import (
    MatMulPlan,
    choose_grid,
    emit_matmul,
    build_matmul_graph,
    build_blocked_matmul_graph,
    matmul_report,
    poptorch_matmul_report,
)
from repro.ipu.popsparse import build_spmm_graph, spmm_report
from repro.ipu.poptorch import IPUModule, lower_model
from repro.ipu.multi import (
    IPULinkSpec,
    M2000,
    allreduce_time,
    DataParallelReport,
    data_parallel_step,
    StreamingReport,
    streaming_step,
)

__all__ = [
    "IPUSpec",
    "GC200",
    "GC2",
    "ExchangeModel",
    "TransferMeasurement",
    "Graph",
    "Variable",
    "Vertex",
    "Edge",
    "ComputeSet",
    "compile_graph",
    "CompiledGraph",
    "MemoryReport",
    "GraphProfile",
    "IPUOutOfMemoryError",
    "MemoryPlan",
    "MemorySlot",
    "plan_memory",
    "Executor",
    "ExecutionReport",
    "StepTiming",
    "MatMulPlan",
    "choose_grid",
    "emit_matmul",
    "build_matmul_graph",
    "build_blocked_matmul_graph",
    "matmul_report",
    "poptorch_matmul_report",
    "build_spmm_graph",
    "spmm_report",
    "IPUModule",
    "lower_model",
    "IPULinkSpec",
    "M2000",
    "allreduce_time",
    "DataParallelReport",
    "data_parallel_step",
    "StreamingReport",
    "streaming_step",
]
