"""Host wall-clock benchmark of the IPU simulator.

Run from the repository root::

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 14 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``cold-compile``,
``shl-train``, ``serve-sim`` and ``guarded-grid``.  Each runs a fixed
seeded list of ops (one pass) ``round(seconds / nominal pass time)``
times, so two commits run identical op sequences, and checks every op's
output.

``--trace 0`` prints the end-to-end metrics with tracing off:
``throughput`` (ops per second spent in ops), ``op_p50_ms``,
``op_tail_ms`` (the highest percentile with at least 10 samples beyond
it), ``setup_s`` (process start to first timed op; the median of this
process's set-up and two more set-ups in fresh processes) and
``peak_rss_mib``.  Its times are scaled to a reference host speed
(``harness.HostSpeed``): a fixed CPU probe is timed before every op and
after set-up, and each time is multiplied by the reference probe time
over the probe time measured around it.  The times as measured are
printed beside them in brackets.  ``--trace 1`` runs a quarter of the passes (at least
one), each once untraced and once with spans around every layer call,
and prints the per-layer metrics, each span's self time, and
``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS and OpenMP
are pinned to one thread before numpy is imported.
"""

from time import perf_counter

T0 = perf_counter()  # set-up is measured from here

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median, quantiles  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(1, SRC)

#: Extra set-ups in fresh processes; ``setup_s`` is the median of these
#: and the measuring process's own.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 150


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0,
                        help="nominal measuring time; sets the pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run one pass of only the first N ops (smoke)")
    parser.add_argument("--plant", type=int, default=None,
                        help="corrupt the output of op K (smoke)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(args) -> tuple[float, float]:
    """Set-up seconds of the workload in a fresh process: scaled to the
    reference host speed, and as measured."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    # A session of its own, so a probe that hangs is killed together
    # with any process it started.
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as probe:
        try:
            stdout, stderr = probe.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(probe.pid, signal.SIGKILL)
            probe.communicate()
            raise
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{stderr}")
    probed = json.loads(stdout.splitlines()[-1])
    return probed["setup_s"], probed["raw_s"]


def emit(ledger, metrics: dict[str, tuple[float, str]]) -> None:
    failed = min(ledger.failed, ledger.attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def end_to_end(args, workload, ops, passes, setup, host) -> int:
    import harness

    ledger = harness.OpLedger(host=host)
    for index in range(passes):
        harness.run_pass(workload, ops, harness.NULL_TRACER, ledger,
                         first=index == 0,
                         plant_index=args.plant if index == 0 else None)
    host.sample()  # the last op's probe after it
    error = workload.final_check()
    if error is not None:
        ledger.fail(f"end-of-run check: {error}")
    rss = harness.peak_rss_mib()
    setups = [setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    setup_s = median(scaled for scaled, _ in setups)

    raw = [seconds for _, seconds, ok in ledger.timed if ok]
    raw_busy_s = sum(seconds for _, seconds, _ in ledger.timed)
    scaled = [(host.scale(seconds, start), ok)
              for start, seconds, ok in ledger.timed]
    latencies = [seconds for seconds, ok in scaled if ok]
    busy_s = sum(seconds for seconds, _ in scaled)
    if latencies:
        throughput = len(latencies) / busy_s
        p50 = 1e3 * median(latencies)
        tail, pct, beyond = harness.tail(latencies)
        tail *= 1e3
    else:
        throughput = p50 = tail = pct = 0.0
        beyond = 0
    n = len(latencies)
    probes = sorted(seconds for _, seconds in host.samples)
    units = harness.END_TO_END
    print("# times below are scaled to the reference host speed; "
          "as measured in brackets")
    print(f"host probe   median {1e3 * median(probes):.4f} ms, quartiles "
          f"{', '.join(f'{1e3 * q:.4f}' for q in quantiles(probes, n=4))} "
          f"(n={len(probes)}, reference "
          f"{1e3 * harness.REFERENCE_PROBE_S:.4f} ms)")
    print(f"throughput   {throughput:.4f} {units['throughput']} "
          f"({n} ops in {busy_s:.3f} s) "
          f"[{len(raw) / raw_busy_s if raw else 0.0:.4f}]")
    print(f"op_p50_ms    {p50:.4f} ms (n={n}) "
          f"[{1e3 * median(raw) if raw else 0.0:.4f}]")
    print(f"op_tail_ms   {tail:.4f} ms (p{pct:.2f}, {beyond} samples beyond, "
          f"n={n}) [{1e3 * harness.tail(raw)[0] if raw else 0.0:.4f}]")
    print(f"setup_s      {setup_s:.4f} s (median of {len(setups)}: "
          f"{', '.join(f'{s:.3f} [{r:.3f}]' for s, r in setups)})")
    print(f"peak_rss_mib {rss:.1f} MiB")
    print(f"ops          {ledger.attempted} attempted, {ledger.failed} failed")
    print(f"sim.digest   {ledger.digest.hexdigest()}")
    values = {
        "throughput": throughput,
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "setup_s": setup_s,
        "peak_rss_mib": rss,
    }
    emit(ledger, {k: (v, units[k]) for k, v in values.items()})
    return 0


def per_layer(args, workload, ops, passes) -> int:
    import harness

    ledger = harness.OpLedger()
    tracer = harness.Tracer()
    plain_s = traced_s = 0.0
    for index in range(passes):
        plain_s += harness.run_pass(
            workload, ops, harness.NULL_TRACER, ledger, first=index == 0,
            plant_index=args.plant if index == 0 else None)
        traced_s += harness.run_pass(workload, ops, tracer, ledger,
                                     first=False)
    error = workload.final_check()
    if error is not None:
        ledger.fail(f"end-of-run check: {error}")

    summary = tracer.summary()
    print(f"{'span':34s} {'calls':>6s} {'total_ms':>11s} {'self_ms':>11s}")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["total_s"]):
        print(f"{name:34s} {row['calls']:6d} {1e3 * row['total_s']:11.2f} "
              f"{1e3 * row['self_s']:11.2f}")
    values = dict.fromkeys(harness.PER_LAYER, 0.0)
    values.update(workload.per_layer(summary, passes))
    values["import_s"] = workload.import_s
    values["sim.digest"] = ledger.digest.value()
    values["trace.overhead_frac"] = traced_s / plain_s - 1 if plain_s else 0.0
    for name, value in values.items():
        print(f"{name:34s} {value:.6g} {harness.PER_LAYER[name]}")
    print(f"ops          {ledger.attempted} attempted, {ledger.failed} failed")
    print(f"sim.digest   {ledger.digest.hexdigest()}")
    emit(ledger, {k: (v, harness.PER_LAYER[k]) for k, v in values.items()})
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        import harness

        harness.stop_children()


def run(argv) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    args = parse_args(argv)
    import harness
    from workloads import WORKLOADS, SetupError

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
    except SetupError as exc:
        print(f"perfbench: set-up check failed: {exc}", file=sys.stderr)
        return 1
    raw_setup_s = perf_counter() - T0
    host = harness.HostSpeed()
    host.sample(harness.SETUP_WINDOW)
    setup = (host.scale(raw_setup_s, perf_counter(), harness.SETUP_WINDOW),
             raw_setup_s)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup[0], "raw_s": setup[1]}))
        return 0

    ops = workload.ops if args.ops is None else workload.ops[:args.ops]
    passes = 1 if args.ops is not None else max(
        1, round(args.seconds / workload.nominal_pass_s))
    if args.trace:
        passes = max(1, passes // 4)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} ops/pass={len(ops)} | {harness.run_info()}")
    if args.trace:
        return per_layer(args, workload, ops, passes)
    return end_to_end(args, workload, ops, passes, setup, host)


if __name__ == "__main__":
    sys.exit(main())
