"""Benchmark of the coinwalk CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload table|walk|graph|verify|all \\
        --seed N --seconds S --trace 0|1

Measures set-up time in fresh interpreters, makes the workload's inputs from
the seed, then runs the workload in a fresh worker process (worker.py)
against the package under ``src/``. Prints each metric as
``name value unit`` and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The full record of the run (machine, every sample, the spans
of a traced run) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 5  # before and again after the worker, so two moments of host load are sampled
RUN_TIMEOUT_S = 170.0
BLAS_THREADS = 1  # one client thread; no BLAS helper threads

SETUP_PROBE = (
    "import coinwalk.cli as c\n"
    "build = getattr(c, 'build_parser', None)\n"
    "build and build()\n"
    "print('ready', flush=True)\n"
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("COINWALK_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds from starting an interpreter until coinwalk.cli is imported and its parser built."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=30) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed: coinwalk.cli did not import")
    return samples


def prepare_inputs(name: str, seed: int, trace: bool, workdir: Path, sizes: wl.Sizes) -> None:
    """Write the seeded graph input (and for the graph workload its reference walk)."""
    if name != "graph" and not trace:
        return
    edges, marked = wl.generate_graph(seed, sizes.graph_vertices, sizes.graph_edges, sizes.graph_marked)
    wl.write_graph_files(workdir, edges, marked)
    if name == "graph":
        ref = wl.reference_graph_walk(sizes.graph_vertices, edges, marked, sizes.graph_horizon)
        (workdir / "graph_ref.json").write_text(json.dumps(ref))


# ---------------------------------------------------------------------------
# machine record


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def git_sha() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(str(ROOT / ".git" / ref))
        if not sha:
            for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown (not a git checkout)"


def machine_record() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level, kind = _read(base + "/level"), _read(base + "/type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(base + "/size")
    # The largest workload array: the n=200 table grid, float64 (n, n, 4).
    # The graph workload's arc array (1.6e5 float64) is the same size.
    largest = 4 * 200 * 200 * 8
    l2 = caches.get("L2", "")
    fits = l2[:-1].isdigit() and l2.endswith("K") and largest <= int(l2[:-1]) * 1024
    return {
        "git_sha": git_sha(),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "blas_threads": BLAS_THREADS,
        "largest_workload_array_bytes": largest,
        "note": "bytes_per_step and ops_per_byte are computed from array sizes, not measured. "
                + ("Every workload array fits in L2, so no bandwidth ratio or roofline is reported."
                   if fits else "The largest workload array does not fit in L2 here."),
    }


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated within the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: dict, setup: list[float]) -> dict:
    op_s = result["op_s"]
    return {
        "wall_s": statistics.median(op_s),
        "setup_s": statistics.median(setup),
        "arc_steps_per_s": statistics.median(result["arc_steps_per_op"] / s for s in op_s),
        "op_ms_p50": statistics.median(result["inv_ms"]),
        "op_ms_p90": quantile(result["inv_ms"], 90),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, deadline: float) -> dict:
    env = child_env()
    sizes = wl.Sizes()
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup = measure_setup(env)
        prepare_inputs(name, seed, trace, workdir, sizes)
        result_path = workdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seconds", str(seconds),
               "--trace", str(int(trace)), "--workdir", str(workdir), "--result", str(result_path)]
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()))
        result = json.loads(result_path.read_text())
        setup += measure_setup(env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    kind = "per_layer" if trace else "end_to_end"
    values = result["per_layer"] if trace else end_to_end(result, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind] if m["name"] in values}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_record(), "setup_s_samples": setup, "metrics": metrics, "worker": result}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(f"# {name} seed={seed} trace={int(trace)} machine={json.dumps(record['machine'])}")
    for metric, v in metrics.items():
        print(f"{name}.{metric} {v['value']:.6g} {v['unit']}")
    if not trace:  # not gated: on single-invocation workloads they repeat wall_s
        print(f"{name}.op_ms_p50 {values['op_ms_p50']:.6g} ms")
        print(f"{name}.op_ms_p90 {values['op_ms_p90']:.6g} ms ({len(result['inv_ms'])} samples)")
    print(f"{name}.fail_ratio {result['failed'] / result['attempted']:.6g} ratio"
          f" ({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"# failed: {problem}", file=sys.stderr)
    for missing in result.get("absent", []):
        print(f"# absent: {missing} (layer function missing or changed)", file=sys.stderr)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the coinwalk CLI.")
    ap.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "coinwalk" / "cli.py").is_file():
        print(f"error: no coinwalk sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_TIMEOUT_S * len(names)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec, deadline) for n in names}
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
