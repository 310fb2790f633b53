"""One benchmark run in a fresh interpreter; started by run.py.

Untraced (``--trace 0``): calls ``coinwalk.cli.main`` for each invocation of
the workload, one at a time, and repeats the whole workload until
``--seconds`` have passed. Every output is checked after its operation,
outside the timed region.

Traced (``--trace 1``): runs the workload once untraced, once under the
tracer with its layer replay, then the layer probes (see layers.py).

Writes one JSON document to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads as wl


def run_once(workload: wl.Workload, main) -> tuple[float, list[float], list[str]]:
    """One operation: (seconds, per-invocation ms, failure messages)."""
    outputs, inv_ms = [], []
    start = time.perf_counter()
    for inv in workload.invocations:
        t0 = time.perf_counter()
        result = wl.call(main, inv.argv)
        inv_ms.append(1e3 * (time.perf_counter() - t0))
        outputs.append(result)
    op_s = time.perf_counter() - start
    problems = [p for inv, res in zip(workload.invocations, outputs) if (p := wl.judge(inv, *res))]
    return op_s, inv_ms, problems


def measure(workload: wl.Workload, seconds: float) -> dict:
    """Closed loop, one client: repeat the workload until ``seconds`` have passed."""
    from coinwalk.cli import main

    op_s, inv_ms, problems = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        s, ms, bad = run_once(workload, main)
        op_s.append(s)
        inv_ms.extend(ms)
        problems.extend(bad)
        if time.perf_counter() >= deadline:
            break
    return {
        "op_s": op_s,
        "inv_ms": inv_ms,
        "attempted": len(inv_ms),
        "failed": len(problems),
        "problems": problems[:5],
        "arc_steps_per_op": sum(inv.arc_steps for inv in workload.invocations),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def traced(name: str, workload: wl.Workload, sizes: wl.Sizes, workdir: Path) -> dict:
    """Untraced operation, traced replay, then the layer probes."""
    import layers
    from coinwalk.cli import main

    untraced_s, _ms, problems = run_once(workload, main)
    tr = layers.Tracer()
    counts = layers.replay(tr, name, workload, sizes, workdir, problems)
    traced_s = sum(s.duration for s in tr.spans if s.name == "cli.main")
    child = tr.child_time()
    cli_self = sum(s.duration - c for s, c in zip(tr.spans, child) if s.name == "cli.main")

    probes = layers.Probes(tr, sizes, workdir)
    probes.all()
    per_layer = dict(probes.metrics)
    replayed = {
        "grid.step_calls": counts.grid_step_calls,
        "runner.steps": counts.runner_steps,
        "stationary.constructions": counts.constructions,
        "cli.bytes_written": counts.bytes_written,
        "cli.self_ms": 1e3 * cli_self,
        "trace.overhead_s": traced_s - untraced_s,
        **{f"self_s.{layer}": v for layer, v in tr.self_times().items()},
    }
    absent = list(probes.absent)
    if counts.complete:
        per_layer.update(replayed)
    else:
        absent.extend(replayed)
    attempted = 2 * len(workload.invocations)
    return {
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:5],
        "per_layer": per_layer,
        "absent": absent,
        "self_s_replay": tr.self_times("replay"),
        "spans": tr.dump(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    sizes = wl.Sizes()
    graph_ref = None
    if args.workload == "graph":
        graph_ref = json.loads((args.workdir / "graph_ref.json").read_text())
    workload = wl.build_workload(args.workload, args.workdir, sizes, graph_ref)
    if args.trace:
        result = traced(args.workload, workload, sizes, args.workdir)
    else:
        result = measure(workload, args.seconds)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
