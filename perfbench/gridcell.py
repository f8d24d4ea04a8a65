"""The ``guarded-grid`` cell, in a module of its own.

Spawned grid workers import the worker function by module path; this
module imports nothing at load time, so a worker pays only for what the
cell itself needs.
"""


def fig6_ipu_cell(n: int, seed_seq=None):
    """One Fig 6 IPU panel cell: three layer forward times at size *n*."""
    from repro.experiments.fig6 import layer_times

    return layer_times("ipu", n)
