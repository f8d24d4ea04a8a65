"""The compiled graph is the one record of a compile.

Receive bytes per superstep and the graph's structural counts are
measured once, while compiling; estimating and profiling read them back
instead of walking the graph again.
"""

import pytest

from repro import nn
from repro.cache import CompilationCache
from repro.ipu.compiler import cached_compile, compile_graph
from repro.ipu.executor import Executor
from repro.ipu.graph import Graph, Vertex
from repro.ipu.machine import GC200
from repro.ipu.poplin import build_matmul_graph, matmul_provenance
from repro.ipu.poptorch import lower_model


def _lowered(layer, dim=256, batch=16):
    return lower_model(layer, GC200, batch, dim)[0]


def _raise(*args, **kwargs):
    raise AssertionError("walked the graph for a fact the compile measured")


@pytest.mark.parametrize(
    "layer, exclude_tiles",
    [
        (nn.ButterflyLinear(256, 256, bias=False, seed=0), None),
        (
            nn.PixelflyLinear(256, block_size=32, butterfly_size=4, seed=0),
            {0, 5, 77},
        ),
    ],
    ids=["butterfly", "pixelfly-degraded"],
)
def test_estimate_reads_the_receive_table(monkeypatch, layer, exclude_tiles):
    compiled = compile_graph(
        _lowered(layer), GC200, check_fit=False, exclude_tiles=exclude_tiles
    )
    before = Executor(compiled).estimate().steps
    monkeypatch.setattr(Vertex, "remote_input_bytes", _raise)
    assert Executor(compiled).estimate().steps == before
    assert any(step.exchange_bytes > 0 for step in before)


def test_receive_table_covers_every_compute_set():
    graph = _lowered(nn.ButterflyLinear(256, 256, bias=False, seed=0))
    compiled = compile_graph(graph, GC200, check_fit=False)
    assert len(compiled.cs_recv) == graph.n_compute_sets
    for cs, recv in zip(graph.compute_sets, compiled.cs_recv):
        tiles = sorted({v.tile for v in graph.vertices_in(cs)})
        assert list(recv) == tiles
        assert sum(recv.values()) == sum(
            v.remote_input_bytes() for v in graph.vertices_in(cs)
        )


def test_profile_reads_the_measured_counts(monkeypatch):
    graph = _lowered(nn.ButterflyLinear(256, 256, bias=False, seed=0))
    edges = graph.n_edges
    compiled = compile_graph(graph, GC200, check_fit=False)
    monkeypatch.setattr(Graph, "n_edges", property(_raise))
    profile = compiled.profile()
    assert profile.n_edges == edges
    assert profile.n_vertices == graph.n_vertices


def test_warm_cached_compile_hit_profiles_but_cannot_execute():
    cache = CompilationCache()

    def build():
        return build_matmul_graph(GC200, 64, 64, 64)[0]

    args = (matmul_provenance(64, 64, 64), build, GC200)
    cold = cached_compile(*args, check_fit=False, cache=cache)
    warm = cached_compile(*args, check_fit=False, cache=cache)
    assert cold.graph is not None and warm.graph is None
    assert warm.profile() == cold.profile()
    assert warm.counts == cold.counts
    with pytest.raises(ValueError, match="carries no program"):
        Executor(warm)
