"""Smoke test of the benchmark itself.

Runs every workload with a tiny op count and checks the result line
against ``BENCHMARK.json``.  Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-compile", "shl-train", "serve-sim", "guarded-grid")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--ops", "2",
                       "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert (out["attempted"], out["failed"]) == (2, 0)
    printed = {k: v["unit"] for k, v in out["metrics"].items()}
    assert printed == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_printed_with_units(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--ops", "2",
                       "--trace", "1"))
    assert out["correct"] is True
    # Each op runs once untraced and once traced.
    assert (out["attempted"], out["failed"]) == (4, 0)
    printed = {k: v["unit"] for k, v in out["metrics"].items()}
    assert printed == declared("per_layer")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_result_counts_as_a_failed_op(workload):
    done = bench("--workload", workload, "--seed", "3", "--ops", "2",
                 "--trace", "1", "--plant", "1")
    out = result(done)
    assert out["correct"] is False
    assert (out["attempted"], out["failed"]) == (4, 1)
    assert "FAILED: op 1" in done.stderr


def digest(seed: int) -> float:
    out = result(bench("--workload", "cold-compile", "--seed", str(seed),
                       "--ops", "4", "--trace", "1"))
    return out["metrics"]["sim.digest"]["value"]


def test_digest_repeats_for_a_seed_and_differs_across_seeds():
    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "cold-compile", "--seed", "1",
                 cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout


LEFTOVER_PROBE = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
done = subprocess.run(sys.argv[1:], capture_output=True)
assert done.returncode == 0, done.stderr
me = str(os.getpid())
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read().rsplit(")", 1)[1].split()
    except OSError:
        continue
    if stat[1] == me:
        print(pid, stat[0])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs PR_SET_CHILD_SUBREAPER")
def test_spawning_workload_leaves_no_process_behind():
    # guarded-grid spawns workers and, through them, multiprocessing's
    # resource tracker; the set-up probes are processes too.  Orphans are
    # re-parented to the probe below, which lists any still there.
    done = subprocess.run(
        [sys.executable, "-c", LEFTOVER_PROBE, sys.executable,
         os.path.join(HERE, "run.py"), "--workload", "guarded-grid",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""


def test_host_speed_scales_by_the_probes_around_an_op():
    sys.path.insert(0, HERE)
    import harness

    host = harness.HostSpeed()
    ref = harness.REFERENCE_PROBE_S
    # The host runs at half speed from t=2 to t=4.
    host.samples = [(0.0, ref), (1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref),
                    (4.0, ref)]
    assert host.scale(1.0, 0.5) == 1.0
    assert host.scale(1.0, 2.5) == 0.5
    assert host.scale(1.0, 9.0) == 2 / 3  # after the last probe
