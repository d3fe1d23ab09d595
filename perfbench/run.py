#!/usr/bin/env python3
"""Layer-attributed end-to-end benchmark of the DDR reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload intransit_lbm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
wraps each layer's functions and reports the per-layer metrics of
``perfbench/ledger.json``.  Both check every output against an oracle.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Earlier lines name every metric with its unit
and sample count, the host facts and the ``DDR_*`` variables cleared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("intransit_lbm", "tiff_volume", "serve_fanout", "ddr_timestep")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
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


def host_facts(cleared: dict[str, str]) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "ddr_env_cleared": cleared,
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        worst = max(worst, done.returncode)
    return worst


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # The program reads DDR_BACKEND, DDR_EXECUTOR, DDR_TRANSPORT, DDR_TRACE,
    # DDR_MEM_BUDGET_MB, ...: clear them all so every run measures the defaults.
    cleared = {
        name: os.environ.pop(name) for name in sorted(os.environ) if name.startswith("DDR_")
    }
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import workloads
    from spans import Tracer

    tracer = Tracer()
    workloads.register_sites(tracer)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        ctx = workloads.Context(args.seed, args.seconds, bool(args.trace), tracer, workdir)
        out = workloads.WORKLOADS[args.workload](ctx)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host_facts(cleared), sort_keys=True))
    for message in out.errors[:20]:
        print(f"FAIL {message}")

    if args.trace:
        calls = tracer.calls()
        gaps = layers.heavy_gaps(args.workload, calls)
        for gap in gaps:
            out.fail(0, f"heavy layer span recorded no call: {gap}")
            print(f"FAIL heavy layer span recorded no call: {gap}")
        metrics = layers.layer_metrics(
            tracer.spans, workloads.ROOT_SPANS, out.traced_ops, out.layer_extra,
            layers.overhead(out.traced_op_s, out.op_s),
        )
        if args.workload == "tiff_volume" and metrics["imaging.slices_read"] != workloads.TIFF_D:
            out.fail(0, f"read {metrics['imaging.slices_read']} slices per load, "
                        f"want {workloads.TIFF_D}")
            print(f"FAIL {out.errors[-1]}")
        units = {entry["name"]: entry["unit"] for entry in layers.LEDGER["per_layer"]}
        print("calls " + json.dumps(calls, sort_keys=True))
        for name, value in metrics.items():
            print(f"layer {name} = {value:.6g} {units[name]}")
        print(f"layer traced operations = {out.traced_ops}")
        result_metrics = {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        }
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = {
            "setup_s": (statistics.median(out.setup_s), "s", f"n={len(out.setup_s)}"),
            "op_ms_p50": (1e3 * statistics.median(out.op_s), "ms", f"n={len(out.op_s)}"),
            "peak_rss_mb": (peak_mb, "MB", "n=1"),
        }
        ratio = out.failed / out.attempted if out.attempted else 1.0
        named = {**out.named, "fail_ratio": (ratio, "ratio", f"n={out.attempted}")}
        for name, (value, unit, samples) in {**e2e, **named}.items():
            print(f"e2e {name} = {value:.6g} {unit} ({samples})")
        result_metrics = {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in e2e.items()
        }

    correct = not out.errors and out.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
