"""Layered benchmark for quatrot.

    python3 perfbench/run.py --workload scalar_mix|batch_stream|cli_pipeline|all
                             --seconds S [--seed N] [--trace 0|1]

Runs one workload against the quatrot sources under ``src/`` of the
checkout that holds this file, checks every output against the
benchmark's own reference answers, and prints each metric by name with
its unit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of the named workload, measured with
tracing off. With ``--trace 1`` they are the per-layer ones, from one
traced pass over every workload whichever is named, and the spans are
saved under ``perfbench/out/``. ``--seconds`` has no default: the run
length lives in ``BENCHMARK.json`` (``run_seconds``). The exit code is 1
when any check failed and 2 when quatrot cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("scalar_mix", "batch_stream", "cli_pipeline")
SETUP_RUNS = 5  # fresh processes whose set-up time gives setup_s
HARD_LIMIT_S = 120  # a loop stops here whatever its request count
MIN_BEYOND_TAIL = 10

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p75_us": "us",
    "latency_tail_us": "us",
    "peak_rss_mb": "MB",
}

def _cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


# --- the closed loop ---------------------------------------------------------

class Loop:
    """Requests of one loop: the latency (ns), kind and items passing their
    checks of each request, failures and complete cycles."""

    def __init__(self, name: str):
        self.name = name
        self.latencies: list = []
        self.kinds: list = []
        self.items_by_request: list = []
        self.failed = 0
        self.cycles = 0

    @property
    def busy_ns(self) -> int:
        return sum(self.latencies)


def run_loop(wl, chk, seconds: float, min_requests: int, tracer=None) -> Loop:
    """Repeat whole cycles of wl's requests until `seconds` have passed and
    at least `min_requests` were sent."""
    loop = Loop(wl.name)
    counters = dict.fromkeys(wl.mix, 0)
    start = time.perf_counter()
    while True:
        for kind in wl.cycle:
            index = counters[kind]
            counters[kind] = index + 1
            if tracer is not None:
                tracer.begin_request(f"{loop.name}.{kind}")
            began = time.perf_counter_ns()
            try:
                ns, items, ok = wl.request(kind, index, chk)
            except Exception as exc:  # a request that raised where it should answer fails
                ns, items, ok = time.perf_counter_ns() - began, 0, False
                chk.note(f"{loop.name} {kind}: raised {exc!r}")
            if tracer is not None:
                tracer.end_request(failed=not ok)
            loop.latencies.append(ns)
            loop.kinds.append(kind)
            loop.items_by_request.append(items)
            loop.failed += not ok
        loop.cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S:
            break
        if elapsed >= seconds and len(loop.latencies) >= min_requests:
            break
    return loop


def setup(workloads, name: str, seed: int):
    """Inputs, references and a warm-up: what setup_s measures."""
    wl = workloads.make(name, seed, str(ROOT))
    scratch = workloads.Checker()
    if name == "cli_pipeline":
        wl.request("parse_error", 0, scratch)
    else:
        run_loop(wl, scratch, 0, 0)
    return wl


def setup_times(name: str, seed: int) -> list:
    """Wall time from spawning a fresh benchmark process until it is ready
    to send its first request, SETUP_RUNS times."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
            "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed with exit code {probe.returncode}")
        times.append(elapsed)
    return times


# --- metrics -------------------------------------------------------------------

def _percentile(values, q: int) -> float:
    """The q-th percentile, interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def weighted_p75_us(wl, loop: Loop) -> float:
    """Each request kind's p75 latency, combined as a geometric mean
    weighted by the kinds' shares of the cycle.

    Unlike a quantile of all requests, it does not depend on how the kinds
    are ordered by latency, and a kind that gets s times slower moves it
    by s to the power of its share, whether that kind is fast or slow.
    p75 rather than p50: on a machine that switches between a fast and a
    slow phase, a kind's p50 jumps from one phase's mode to the other's
    whenever the fast phase fills about half of a run; p75 stays in the
    slow phase's mode unless the fast one fills three quarters."""
    by_kind: dict = {}
    for ns, kind in zip(loop.latencies, loop.kinds):
        by_kind.setdefault(kind, []).append(ns)
    total = sum(wl.mix.values())
    log_ns = sum(count * math.log(_percentile(by_kind[kind], 75)) for kind, count in wl.mix.items())
    return math.exp(log_ns / total) / 1e3


def end_to_end(wl, loop: Loop, setups: list, rss_mb: float) -> dict:
    lat_us = [ns / 1e3 for ns in loop.latencies]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": sum(loop.items_by_request) / (loop.busy_ns / 1e9),
        "latency_p75_us": weighted_p75_us(wl, loop),
        "latency_tail_us": _percentile(lat_us, wl.tail_percentile),
        "peak_rss_mb": rss_mb,
    }


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus that of its largest child so far."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def cli_floors(env: dict) -> dict:
    """Median wall time (ms) of a bare interpreter and of importing the CLI."""
    out = {}
    for key, code in (("interpreter", "pass"), ("import", "import quatrot.cli")):
        times = []
        for _ in range(SETUP_RUNS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60)
            times.append((time.perf_counter() - start) * 1e3)
        out[key] = statistics.median(times)
    return out


# --- environment record -----------------------------------------------------

def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown"


def environment(nproc: int) -> dict:
    import hashlib
    import platform

    import numpy as np
    from quatrot import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "kernels_backend": getattr(kernels, "BACKEND", "n/a"),
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


# --- entry points ---------------------------------------------------------

def run_workload(args, nproc: int) -> int:
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import quatrot  # part of set-up; fails fast without the sources
    except ImportError as exc:
        print(f"perfbench: cannot import quatrot from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(quatrot.__file__).resolve().parent != src / "quatrot":
        print(f"perfbench: quatrot came from {quatrot.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench import layers, tracing, workloads

    wl = None if args.trace else setup(workloads, args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    env = environment(nproc)
    chk = workloads.Checker()
    if args.trace:
        loops, metrics = traced_run(workloads, tracing, layers, chk, args, env)
        units = layers.UNITS
    else:
        loops = [run_loop(wl, chk, args.seconds, wl.min_requests)]
        rss = peak_rss_mb(with_children=args.workload == "cli_pipeline")
        metrics = end_to_end(wl, loops[0], setup_times(args.workload, args.seed), rss)
        units = END_TO_END
    attempted = sum(len(x.latencies) for x in loops)
    failed = sum(x.failed for x in loops)
    report(wl, args, env, loops[0], metrics, units, attempted, failed, chk)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def traced_run(workloads, tracing, layers, chk, args, env):
    """One pass that reaches every layer, a quarter of the run each:
    scalar_mix untraced (the baseline of trace.overhead_frac), then traced
    scalar_mix, batch_stream and the CLI's requests through ``cli.main``
    in this process. Returns the loops, untraced first, and the per-layer
    metrics."""
    scalar, batch, cli_main = (workloads.make(n, args.seed, str(ROOT)) for n in ("scalar_mix", "batch_stream", "cli_main"))
    share = args.seconds / 4
    run_loop(scalar, workloads.Checker(), 0, 0)  # warm-up
    base = run_loop(scalar, chk, share, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [run_loop(wl, chk, share, 0, tracer) for wl in (scalar, batch, cli_main)]
    finally:
        tracer.uninstall()
    floors = cli_floors(cli_main.env)
    overhead = (traced[0].busy_ns / traced[0].cycles) / (base.busy_ns / base.cycles) - 1.0
    metrics = layers.measure(tracing.Spans(tracer), traced, chk, floors, overhead)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-seed{args.seed}.npz", {"env": env, "seed": args.seed})
    return [base] + traced, metrics


def report(wl, args, env, loop, metrics, units, attempted, failed, chk) -> None:
    """Human-readable lines before the JSON result."""
    print(f"perfbench {wl.name if wl else 'traced pass'}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"closed loop, 1 client: {attempted} requests, {failed} failed")
    if not args.trace:
        lat_us = [ns / 1e3 for ns in loop.latencies]
        beyond = sum(x > metrics["latency_tail_us"] for x in lat_us)
        notes = {
            "setup_s": f"median of {SETUP_RUNS} fresh set-ups",
            "latency_p75_us": f"per-kind p75s, geometric mean weighted by the mix, n={len(lat_us)}",
            "latency_tail_us": f"p{wl.tail_percentile}, {beyond} samples beyond"
            + ("" if beyond >= MIN_BEYOND_TAIL else f" (fewer than {MIN_BEYOND_TAIL})"),
        }
        for name, value in metrics.items():
            print(f"  {name:<18} {value:>14.6g} {units[name]:<4} {notes.get(name, '')}")
        print(f"  {'latency_p50_us':<18} {_percentile(lat_us, 50):>14.6g} {'us':<4} all requests, not gated")
        print(f"  {'error_rate':<18} {failed / attempted:>14.6g} {'':<4} {failed} of {attempted} failed")
        by_kind: dict = {}
        for ns, kind in zip(loop.latencies, loop.kinds):
            by_kind.setdefault(kind, []).append(ns / 1e3)
        for kind, values in by_kind.items():
            print(f"    {kind:<28} n={len(values):<7} p50 {statistics.median(values):12.1f} us")
    else:
        for name, value in metrics.items():
            print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for message in chk.messages:
        print(f"  FAILED CHECK: {message}")


def run_all(args) -> int:
    """Each workload untraced in its own process; a combined JSON line at the end."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    nproc = _cap_blas_threads()
    if args.workload == "all" and not args.trace:
        return run_all(args)
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
