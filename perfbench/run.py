"""Benchmark of the preproj package, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout, never from an
installed copy.  Everything runs in this one process, on one thread,
with the package's default ``jobs=1``.

``--trace 0`` sets up several times (median ``setup_s``), then runs whole
passes over the seed's pool of inputs until about ``--seconds`` have gone
by, and reports the other end-to-end metrics from each input's median op
time over the passes.  These times are calibrated (see ``calibrate``).
``--trace 1`` sets up the same way, runs one untraced pass and one traced
pass, reports the per-layer metrics and writes the spans to
``perfbench/out/``.

Every op checks what it computed and compares a digest of its results
with the frozen digest of its input (``perfbench/frozen/``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine and the inputs.  If any op fails, ``metrics`` is empty and the
exit code is 1.
"""

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from types import SimpleNamespace

from calibrate import Clock
from layers import Tracer
from workloads import WORKLOADS, CheckFailed, digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FROZEN = os.path.join(HERE, "frozen")
OUT = os.path.join(HERE, "out")
PACKAGE = (
    "fields", "linalg", "quiver", "module", "homext", "flags",
    "verify", "serialize", "randgen", "d4", "cli",
)
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def import_package():
    """Import every preproj module afresh from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "preproj", "__init__.py")):
        raise BenchError(f"no preproj package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "preproj" or n.startswith("preproj.")]:
        del sys.modules[name]
    P = SimpleNamespace(
        **{name: importlib.import_module(f"preproj.{name}") for name in PACKAGE}
    )
    origin = os.path.dirname(os.path.abspath(P.cli.__file__))
    if origin != os.path.join(SRC, "preproj"):
        raise BenchError(f"preproj was imported from {origin}, not {SRC}")
    return P


def load_frozen(name):
    path = os.path.join(FROZEN, f"{name}.json")
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise BenchError(f"missing frozen digests {path}") from None


def select_pool(frozen, seed):
    """One member of every stratum, chosen and ordered by the seed."""
    rng = random.Random(seed)
    pool = [rng.choice(stratum) for stratum in frozen["strata"]]
    rng.shuffle(pool)
    return pool


def setup(workload, pool):
    """Import the package, build the seed's inputs and the D4 zoo."""
    P = import_package()
    P.d4.zoo()
    return P, [(i, workload.generate(P, i)) for i in pool]


def check_inputs(P, workload, inputs, frozen):
    """Failure reasons of members whose inputs differ from the frozen ones."""
    return {
        i: f"member {i}: input differs from the frozen input"
        for i, data in inputs
        if digest(workload.input_data(P, data)) != frozen["members"][str(i)]["input"]
    }


def run_op(P, workload, index, inputs, expected, tracer=None):
    """One op: (seconds, failure reason or None, info)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            material, info = workload.op(P, inputs)
        else:
            material, info = tracer.run_op(index, workload.op, P, inputs)
    except CheckFailed as err:
        return time.perf_counter() - start, f"member {index}: {err}", {}
    except Exception as err:  # the op's failure is the measurement
        reason = f"member {index}: raised {type(err).__name__}: {err}"
        return time.perf_counter() - start, reason, {}
    seconds = time.perf_counter() - start
    if digest(material) != expected:
        return seconds, f"member {index}: results differ from the frozen digest", info
    return seconds, None, info


def run_pass(P, workload, inputs, frozen, clock=None, tracer=None):
    """Every op of the pool once: ({member: seconds}, failure reasons, infos).

    With a ``clock`` every op is recorded on it, and in place of its
    seconds comes the index that ``clock.calibrated`` takes.
    """
    durations, failures, infos = {}, [], {}
    for index, data in inputs:
        expected = frozen["members"][str(index)]["output"]
        seconds, reason, info = run_op(P, workload, index, data, expected, tracer)
        durations[index] = seconds if clock is None else clock.record(seconds)
        infos[index] = info
        if reason is not None:
            failures.append(reason)
    return durations, failures, infos


def measure(P, workload, inputs, frozen, seconds, clock):
    """Whole passes until the one ending nearest to ``seconds``.

    Returns the clock's index of every op of each member, in pass order.
    """
    times = {index: [] for index, _ in inputs}
    failures, passes = [], 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        done, failed, infos = run_pass(P, workload, inputs, frozen, clock)
        for index, seconds_taken in done.items():
            times[index].append(seconds_taken)
        failures += failed
        passes += 1
        now = time.perf_counter()
        if failures or (now - start) + (now - pass_start) / 2 >= seconds:
            return times, failures, infos, passes, now - start


def machine():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def describe(P, workload, inputs, infos):
    return [
        dict({"member": i}, **workload.describe(P, data), **infos.get(i, {}))
        for i, data in inputs
    ]


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_passes(P, workload, inputs, frozen, seconds, clock):
    """Every end-to-end metric but ``setup_s``, and the run's info.

    The time metrics rest on each member's median calibrated op time over
    the passes, so every member weighs the same however often it ran.
    """
    records, failures, infos, passes, elapsed = measure(
        P, workload, inputs, frozen, seconds, clock
    )
    times = {i: [clock.calibrated(k) for k in ks] for i, ks in records.items()}
    durations = [t for member in times.values() for t in member]
    typical = [statistics.median(member) for member in times.values()]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": metric(len(typical) / sum(typical), "1/s"),
        "op_p50_s": metric(statistics.median(typical), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    info = {
        "passes": passes,
        "elapsed_s": elapsed,
        "member_op_s": typical,
        "wall_ops_per_s": len(durations) / elapsed,
        "reference_s": statistics.quantiles(clock.probes, n=4),
    }
    if len(durations) >= 100:
        info["op_p90_s"] = statistics.quantiles(durations, n=10)[-1]
    return durations, failures, infos, metrics, info


def traced_passes(P, workload, inputs, frozen):
    """One untraced pass, then one traced pass: metrics from the tracer."""
    start = time.perf_counter()
    plain, failures, _ = run_pass(P, workload, inputs, frozen)
    plain_wall = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(P)
    start = time.perf_counter()
    try:
        traced, failed, infos = run_pass(P, workload, inputs, frozen, tracer=tracer)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    metrics = {key: metric(*value) for key, value in tracer.layer_metrics().items()}
    metrics["trace_overhead_ratio"] = metric(wall / plain_wall - 1, "ratio")
    metrics["trace.uncovered_ratio"] = metric(
        (wall - tracer.covered_s()) / wall, "ratio"
    )
    info = {"passes": 2, "traced_wall_s": wall, "untraced_wall_s": plain_wall}
    durations = list(plain.values()) + list(traced.values())
    return durations, failures + failed, infos, metrics, info, tracer


def bench(name, seed, seconds, trace):
    """Run one benchmark; returns (info, result) as printed."""
    workload = WORKLOADS[name]
    frozen = load_frozen(name)
    pool = select_pool(frozen, seed)
    clock, setups = Clock(), []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        P, inputs = setup(workload, pool)
        setups.append(clock.record(time.perf_counter() - start))
    bad_inputs = check_inputs(P, workload, inputs, frozen)
    if bad_inputs:
        durations, failures = [0.0] * len(inputs), list(bad_inputs.values())
        infos, metrics, extra = {}, {}, {}
    elif trace:
        durations, failures, infos, metrics, extra, tracer = traced_passes(
            P, workload, inputs, frozen
        )
    else:
        durations, failures, infos, metrics, extra = timed_passes(
            P, workload, inputs, frozen, seconds, clock
        )
    setup_times = [clock.calibrated(k) for k in setups]
    if not trace:
        metrics["setup_s"] = metric(statistics.median(setup_times), "s")
    info = {
        "machine": machine(),
        "workload": name,
        "seed": seed,
        "trace": trace,
        "pool": describe(P, workload, inputs, infos),
        "setup_s": setup_times,
        "ops": len(durations),
        "op_s": durations,
        "failed_ratio": len(failures) / len(durations),
        "failures": failures,
        **extra,
    }
    if trace and not bad_inputs:
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl")
        info["spans_file"] = os.path.relpath(path, ROOT)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(path, dict(info, metrics=metrics))
    result = {
        "correct": not failures,
        "attempted": len(durations),
        "failed": len(failures),
        "metrics": {} if failures else metrics,
    }
    return info, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
