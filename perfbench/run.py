"""Run one mebagg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports mebagg from ``src/``. Set-up
builds every input from ``--seed``; then one client runs checked
operations in a closed loop for ``--seconds``, cycling through the inputs
at least once. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs untraced for half the time, then one traced pass
over the inputs, and reports the per-layer metrics. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and a
full result with machine information are written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from importlib import metadata
from pathlib import Path

# One BLAS/OpenMP thread for this process and every subprocess it starts;
# set before numpy loads.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
SETUP_REFERENCES = 50  # reference chunks timed after each set-up
# reference_chunk's input, and its time on an uncontended Intel Xeon vCPU at
# 2.1 GHz; run times are scaled to that speed.
REFERENCE_POINTS = np.random.default_rng(0).standard_normal((12, 3))
REFERENCE_S = 0.3e-3
LOCAL_REFERENCES = 25  # reference chunks on either side of an op that scale its time
IMPORT_PROBE = "import time; s = time.perf_counter(); import mebagg; print(time.perf_counter() - s)"


def _pin_cpu() -> int:
    """Run this process and every subprocess it starts on one CPU, the last
    one it may use, so that ops, ``cli`` subprocesses and the reference
    chunk all meet the same contention."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _use_sources() -> None:
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info() -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _import_seconds() -> float:
    """Time to import mebagg in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def timed_setup(workload, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times; return the last inputs and the median time.

    One set-up is a fresh interpreter's import of mebagg plus instance
    generation and input files for the whole run. Each one is scaled by the
    host factor of the reference chunks timed right after it.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        took = imported + time.perf_counter() - start
        times.append(took / host_factor([timed_reference() for _ in range(SETUP_REFERENCES)]))
    return inputs, statistics.median(times)


def reference_chunk() -> None:
    """Fixed small-array numpy and Python work that does not touch mebagg."""
    c = REFERENCE_POINTS.mean(axis=0)
    for _ in range(40):
        dist = np.linalg.norm(REFERENCE_POINTS - c, axis=1)
        c = c + 0.1 * (REFERENCE_POINTS[int(np.argmax(dist))] - c)


def timed_reference() -> float:
    start = time.perf_counter()
    reference_chunk()
    return time.perf_counter() - start


def host_factor(reference_times: list[float]) -> float:
    """How much slower than nominal the host ran: mean reference time over
    REFERENCE_S. Other tenants of a shared host slow mebagg and the
    reference chunk alike, so times divided by this factor stay steady from
    run to run, while a change to mebagg still moves them in full."""
    return statistics.fmean(reference_times) / REFERENCE_S


class Loop:
    """Outcome of one closed-loop stretch over a fixed list of inputs.

    An input fails when any of its runs raised or failed its check, so
    ``failed`` counts inputs and repeats exactly for a seed, however many
    times the loop went round. A failed op counts as missing any latency
    limit, and its time does not count as time spent on passing ops.
    """

    def __init__(self):
        self.latencies: list[float] = []  # op times in s, as measured; inf if it failed
        self.reference: list[float] = []  # reference chunk time after each op
        self.failure: dict[int, str] = {}  # input index -> first failure type
        self.first_traceback: dict[str, str] = {}
        self.checks_failed = 0
        self.ops_ok = 0
        self.elapsed = 0.0

    @property
    def host_factor(self) -> float:
        return host_factor(self.reference)

    @property
    def scaled_latencies(self) -> list[float]:
        """Each op's time over the host factor of the reference chunks timed
        within LOCAL_REFERENCES ops of it, so that a burst of contention
        scales the ops it slowed and no others."""
        total = list(itertools.accumulate(self.reference, initial=0.0))
        out = []
        for i, latency in enumerate(self.latencies):
            lo = max(0, i - LOCAL_REFERENCES)
            hi = min(len(self.reference), i + LOCAL_REFERENCES + 1)
            out.append(latency / ((total[hi] - total[lo]) / (hi - lo) / REFERENCE_S))
        return out

    @property
    def ops_per_s(self) -> float:
        """Ops that passed per second of their (scaled) op time."""
        return self.ops_ok / sum(x for x in self.scaled_latencies if x < math.inf)


def run_loop(workload, inputs: list, seconds: float, min_ops: int, lay, tracer=None) -> Loop:
    """One client, closed loop: the next op starts when the last one ends.

    The loop cycles through the inputs for ``seconds`` and at least
    ``min_ops`` ops. An op fails when it raises or when its correctness
    check returns False; either way the loop records it and goes on.
    """
    loop = Loop()
    begin = time.perf_counter()
    i = 0
    while True:
        k = i % len(inputs)
        if tracer is not None:
            tracer.op_id = i
        error = None
        start = time.perf_counter()
        try:
            if not workload.op(inputs[k], lay):
                error = "CheckFailed"
        except Exception as exc:  # a failed op is counted, not fatal
            error = type(exc).__name__
            loop.first_traceback.setdefault(error, traceback.format_exc())
        end = time.perf_counter()
        loop.reference.append(timed_reference())
        if tracer is not None:
            tracer.record_op(i, start, end, error)
        if error is None:
            loop.latencies.append(end - start)
            loop.ops_ok += 1
        else:
            loop.latencies.append(math.inf)
            loop.failure.setdefault(k, error)
            loop.checks_failed += error == "CheckFailed"
        i += 1
        now = time.perf_counter()
        if now - begin >= seconds and i >= min_ops:
            loop.elapsed = now - begin
            return loop


def end_to_end(loop: Loop, setup_s: float, workload_name: str) -> dict:
    lat_ms = sorted(x * 1e3 for x in loop.scaled_latencies)
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return {
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (lat_ms[math.ceil(0.9 * len(lat_ms)) - 1], "ms"),  # nearest rank
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _declared_metrics(key: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mebagg" / "__init__.py").is_file():
        print(f"error: no mebagg sources under {SRC}", file=sys.stderr)
        return 2
    _use_sources()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    info = {**machine_info(), "pinned_cpu": _pin_cpu()}
    inputs, setup_s = timed_setup(workload, args.seed, workdir)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={len(inputs)}")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items() if k != "threads")
          + " blas_threads=1")

    if args.trace:
        # Untraced for half the time, then exactly one traced pass, so that
        # the traced calls and counts repeat for a seed.
        plain = run_loop(workload, inputs, args.seconds / 2, 1, spans.Layers())
        tracer = spans.Tracer()
        traced = run_loop(workload, inputs, 0, len(inputs), spans.Layers(tracer), tracer)
        loops = (plain, traced)
        metrics = spans.per_layer(tracer.spans, plain.ops_per_s, traced.ops_per_s,
                                  traced.host_factor)
        declared = _declared_metrics("per_layer")
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
        accounted = sum(v for k, (v, _) in metrics.items()
                        if k.endswith(".share")) + metrics["bench.self_share"][0]
        print(f"# traced ops={len(traced.latencies)}; layer shares + bench.self_share = "
              f"{accounted:.6f}; host_factor={traced.host_factor:.4f}")
    else:
        loop = run_loop(workload, inputs, args.seconds, len(inputs), spans.Layers())
        loops = (loop,)
        metrics = end_to_end(loop, setup_s, args.workload)
        declared = _declared_metrics("end_to_end")
        beyond = sum(1 for x in loop.scaled_latencies if x * 1e3 > metrics["latency_p90_ms"][0])
        print(f"# ops={len(loop.latencies)} over {len(inputs)} inputs in {loop.elapsed:.3f} s; "
              f"{beyond} samples beyond p90; mean host_factor={loop.host_factor:.4f}")

    failure = {}
    for lp in loops:
        for k, error in lp.failure.items():
            failure.setdefault(k, error)
    attempted = len(inputs)
    failures = Counter(failure.values())
    failed = len(failure)
    print(f"{'failed_ratio':<44} {failed / attempted:.6f} ratio "
          f"({failed} of {attempted} inputs; by type: {dict(failures) or 'none'})")
    if set(declared) != set(metrics):
        print(f"error: metrics {sorted(set(declared) ^ set(metrics))} are not both "
              "declared in BENCHMARK.json and measured", file=sys.stderr)
        return 3
    for name in declared:
        value, unit = metrics[name]
        print(f"{name:<44} {value:.6g} {unit}")

    tracebacks = {}
    for lp in loops:
        tracebacks.update(lp.first_traceback)
    result = {
        # an exception leaves no output to judge; only a failed check is wrong
        "correct": all(lp.checks_failed == 0 for lp in loops),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }
    (workdir / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "machine": info,
         "host_factor": [lp.host_factor for lp in loops], "failures": dict(failures),
         "tracebacks": tracebacks}, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
