"""ern benchmark: one closed-loop workload per run, outputs checked against the float oracle.

    python3 perfbench/run.py --workload erns18-256-stream --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; ern is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of an outside-in trace (see ``layers.py``) and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 170

E2E_UNITS = {
    "images_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "artifact_bytes": "B",
}
# printed by name on the workloads they apply to, with no bound (see README.md)
EXTRA_UNITS = {"compile_s": "s", "verify_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("gmac_per_s"):
        return "GMAC/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("gmacs"):
        return "GMAC"
    if name.endswith(("_frac", "_util")):
        return "frac"
    return "count"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    With fewer than 11 samples no percentile has ten beyond it, and the
    slowest request (p100) is reported instead.
    """
    s = sorted(latencies)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def closed_loop(request, seconds: float):
    """Send requests one after another until the next would end past ``seconds``.

    Returns (outputs, latencies, wall seconds); a request that raises
    yields its exception as output.
    """
    outputs, lat = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        try:
            out = request(len(outputs))
        except Exception as e:  # counted as a failed operation by the checks
            out = e
        lat.append(perf_counter() - t0)
        outputs.append(out)
        if perf_counter() - start + statistics.median(lat) > seconds:
            return outputs, lat, perf_counter() - start


def setup_probe(args) -> int:
    """Child process: time import + model load + one warm-up request."""
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload](Path(args.setup_probe), args.seed)
    wl.setup()
    out = wl.warmup()
    setup_s = perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "ok": wl.exited_ok(out)}))
    return 0


def setup_samples(args, work: Path) -> tuple[list[float], list[str]]:
    samples, fails = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(work)]
    for i in range(SETUP_SAMPLES):
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if p.returncode != 0:
            fails.append(f"setup probe {i}: exit {p.returncode}: {p.stderr.strip()[-500:]}")
            continue
        res = json.loads(p.stdout.splitlines()[-1])
        samples.append(res["setup_s"])
        if not res["ok"]:
            fails.append(f"setup probe {i}: warm-up request exited non-zero")
    return samples, fails


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
    }


def end_to_end(args, wl, work: Path) -> tuple[dict, dict, int, list[str], dict]:
    wl.prepare()
    samples, fails = setup_samples(args, work)
    if not samples:
        raise RuntimeError("every setup probe failed:\n" + "\n".join(fails))
    wl.setup()
    # the untimed tracemalloc pass doubles as this process's warm-up request
    tracemalloc.start()
    wl.request(0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    gc.collect()

    outputs, lat, wall = closed_loop(wl.request, args.seconds)
    fails += wl.check(outputs)
    t_val, t_pct, t_n = tail(lat)
    metrics = {
        "images_per_s": wl.images_per_request * len(outputs) / wall,
        "latency_ms_p50": statistics.median(lat) * 1e3,
        "latency_ms_tail": t_val * 1e3,
        "setup_s": statistics.median(samples),
        "peak_mem_mb": peak / 1e6,
        "artifact_bytes": wl.artifact_bytes(),
    }
    notes = {
        "latency_ms_tail": f"p{t_pct:.0f} of n={t_n}",
        "setup_s": f"median of {len(samples)} fresh processes",
        "peak_mem_mb": "tracemalloc peak, separate untimed request",
        "compile_s": f"median of {len(outputs)} cycles",
        "verify_s": f"median of {len(outputs)} cycles",
    }
    attempted = len(outputs) * wl.ops_per_request + SETUP_SAMPLES
    return metrics, wl.extra_metrics(outputs), attempted, fails, notes


def traced(args, wl, work: Path) -> tuple[dict, dict, int, list[str], dict]:
    import layers

    wl.prepare()
    wl.setup()
    wl.request(0)  # warm-up
    gc.collect()
    tracer = layers.Tracer()
    untraced: list[float] = []
    traced_lat: list[float] = []
    outputs: list = []

    def one(on: bool) -> None:
        i = len(outputs)
        t0 = perf_counter()
        try:
            if on:
                with tracer.installed(), tracer.request(i):
                    out = wl.request(i)
            else:
                out = wl.request(i)
        except Exception as e:  # counted as a failed operation by the checks
            out = e
        (traced_lat if on else untraced).append(perf_counter() - t0)
        outputs.append(out)

    # untraced/traced pairs; the order alternates so drift hits both sides alike
    start = perf_counter()
    while True:
        for on in ((False, True) if len(outputs) % 4 == 0 else (True, False)):
            one(on)
        pair = statistics.median(untraced) + statistics.median(traced_lat)
        if perf_counter() - start + pair > args.seconds:
            break
    fails = wl.check(outputs)
    tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")

    metrics = layers.layer_metrics(tracer)
    metrics.update(layers.section_bytes(wl.loaded_model()))
    plain = statistics.fmean(untraced)
    metrics["trace.untraced_request_s"] = plain
    metrics["trace.overhead_frac"] = metrics["trace.request_s"] / plain - 1.0
    notes = {
        "tensor.pack_bytes": "computed from tensor sizes",
        "kernels.conv_bytes": "computed from tensor sizes",
        "kernels.conv_gmacs": "computed from tensor sizes",
        "kernels.lane_util": "computed from tensor sizes",
        "trace.overhead_frac": f"{len(traced_lat)} traced vs {len(untraced)} untraced requests",
    }
    return metrics, {}, len(outputs) * wl.ops_per_request, fails, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "ern" / "__init__.py").is_file():
        print(f"perfbench: no ern sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # BLAS (oracle matmuls) gets no more threads than cores
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed)
        run = traced if args.trace else end_to_end
        metrics, extra, attempted, fails, notes = run(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = E2E_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    for name, value in [*metrics.items(), *extra.items()]:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {value:16.6f} {units.get(name) or EXTRA_UNITS[name]}{note}")
    print(f"  {'failed_frac':28s} {len(fails) / attempted:16.6f} frac"
          f"  ({len(fails)} failed / {attempted} attempted)")
    for f in fails:
        print(f"FAIL {f}")
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
