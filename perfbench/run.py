#!/usr/bin/env python3
"""dwspectral benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {baseline,sweep,sweep-2t,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/``; the
run exits with code 2 and prints no result when the sources are missing.
BLAS is pinned to one thread, ``DWSPECTRAL_THREADS`` to the workload's
thread count and malloc to one arena before numpy loads (see
``envrecord.pin``). ``sweep-2t`` runs the sweep with two harness threads; it
and ``baseline`` are not among the workloads BENCHMARK.json gates, because
their run-to-run spread exceeds the bounds, but ``summary.py`` reports them.

A run sets up ``setup_repeats`` times, runs one warm-up iteration, then
loops over the workload for at least ``--seconds`` seconds (and at least
``MIN_ITERATIONS`` iterations, so every noise level is covered) and checks
every iteration's outputs, the warm-up's too, against golden.json.
``wall_s``, ``cells_per_s`` and ``mpix_per_s`` are means over the timed
iterations (total time and work), not medians: the host's speed switches
between a fast and a slow state, and a median jumps from one to the other
where a mean follows the share of time spent in each. Every time metric
is then scaled to reference seconds by the host-speed probe of
``speed.py``, timed around the set-ups and after each iteration; the raw
values stay in the result file. The last line of standard output is one
JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from spans around the
calls each layer makes) with ``--trace 1``. The full result, with each
timing's median, tail percentile and sample count and the environment
record, goes to ``perfbench/out/results/``; a traced run also writes its
spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
HARNESS_THREADS = {"baseline": 1, "sweep": 1, "sweep-2t": 2, "cli": 1}
MIN_ITERATIONS = 4
SETUP_PASSES = 3  # reference passes before and after each set-up


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(HARNESS_THREADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import dwspectral from this checkout's ``src`` and nowhere else."""
    if not (SRC / "dwspectral" / "__init__.py").is_file():
        raise ImportError(f"no dwspectral sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dwspectral

    where = Path(dwspectral.__file__).resolve().parent
    if where != (SRC / "dwspectral").resolve():
        raise ImportError(f"dwspectral imported from {where}, not {SRC}")


def run(args):
    """Set up, loop, check; returns the full result and the tracer."""
    import envrecord
    import golden
    import layers
    import pctl
    import spans
    import speed
    import workloads

    threads = HARNESS_THREADS[args.workload]
    cls = workloads.WORKLOADS[args.workload]
    work = OUT / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    calls = workloads.Calls()
    workload = cls(args.seed, work, calls, SRC)
    pinned = golden.load().get(workload.section, {})
    tracer = spans.Tracer()
    if args.trace:
        layers.install(tracer, workloads)
    probe = speed.SpeedProbe()

    failed, errors = 0, []
    walls, cells, pixels, kappas = [], 0, 0, {}
    try:
        setups = []
        probe.sample(SETUP_PASSES)
        for k in range(workload.setup_repeats):
            with tracer.root("setup") as sp:
                workload.setup(k)
            setups.append(sp.duration)
            probe.sample(SETUP_PASSES)
        setup_passes, probe.passes = probe.passes, []

        i = 0
        while i <= MIN_ITERATIONS or time.perf_counter() - start < args.seconds:
            if i == 1:  # iteration 0 warmed up; time from here
                calls.steps.clear()
                start = time.perf_counter()
            try:
                with tracer.root("iteration") as sp:
                    outcome = workload.iterate(i)
            except Exception as exc:  # count it, keep measuring
                probe.sample()
                traceback.print_exc()
                failed += 1
                errors.append(f"iteration {i}: {exc!r}")
                i += 1
                continue
            record = workload.record(outcome)
            problems = golden.compare(pinned.get(outcome.key), record)
            if problems:
                failed += 1
                errors.append(f"iteration {i} ({outcome.key}): " + "; ".join(problems[:5]))
            if i:
                walls.append(sp.duration)
                cells += outcome.cells
                pixels += outcome.pixels
            kappas.update(record["kappa"])
            probe.sample()
            i += 1
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    if not walls:
        raise RuntimeError("no iteration completed: " + "; ".join(errors[:3]))

    steps_ms = [s * 1e3 for s in calls.steps]
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),
        "cells_per_s": cells / sum(walls),
        "mpix_per_s": pixels / sum(walls) / 1e6,
        "step_p50_ms": pctl.percentile(steps_ms, 50),
        "step_p90_ms": pctl.percentile(steps_ms, 90),
    }
    f = speed.factor(probe.passes)  # to reference seconds; rates divide by it
    e2e = {
        "setup_s": (raw["setup_s"] * speed.factor(setup_passes), "s"),
        "wall_s": (raw["wall_s"] * f, "s"),
        "cells_per_s": (raw["cells_per_s"] / f, "1/s"),
        "mpix_per_s": (raw["mpix_per_s"] / f, "Mpx/s"),
        "step_p50_ms": (raw["step_p50_ms"] * f, "ms"),
        "step_p90_ms": (raw["step_p90_ms"] * f, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1.0 - failed / calls.attempted, "fraction"),
        "kappa_median": (statistics.median(kappas.values()), "kappa"),
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": i,
        "attempted": calls.attempted,
        "failed": failed,
        "failed_frac": failed / calls.attempted,
        "errors": errors[:20],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "raw": raw,
        "speed": {
            "ref_pass_s": speed.REF_PASS_S,
            "setup_mean_pass_s": speed.trimmed_mean(setup_passes),
            "setup_factor": speed.factor(setup_passes),
            "mean_pass_s": speed.trimmed_mean(probe.passes),
            "passes": len(probe.passes),
            "factor": f,
        },
        "timings": {
            "setup_s": pctl.summary(setups),
            "wall_s": pctl.summary(walls),
            "step_ms": pctl.summary(steps_ms),
        },
        "samples": {"setup_s": setups, "wall_s": walls, "step_ms": steps_ms},
        "environment": envrecord.environment(),
    }
    if args.trace:
        result["per_layer"] = {
            k: {"value": v, "unit": layers.unit(k)}
            for k, v in layers.metrics(tracer, threads).items()
        }
        result["mlp_epochs_by_seed"] = layers.mlp_epochs_by_seed(tracer)
        result["cell_shares"] = layers.cell_shares(tracer)
    return result, tracer


def report(result) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  iterations {result['iterations']}")
    sp = result["speed"]
    print(f"  reference pass {sp['mean_pass_s'] * 1e3:.4g} ms (trimmed mean of {sp['passes']}): "
          f"times scaled by {sp['factor']:.4g}, set-up by {sp['setup_factor']:.4g}, "
          f"to a {sp['ref_pass_s'] * 1e3:g} ms host")
    for name, m in result["end_to_end"].items():
        raw = result["raw"].get(name)
        raw = f"   raw {raw:.6g}" if raw is not None else ""
        print(f"  {name:<14} {m['value']:>14.6g} {m['unit']:<8}{raw}")
    print(f"  {'failed_frac':<14} {result['failed_frac']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print("  raw timings:")
    for name, s in result["timings"].items():
        tail = (f"p{s['tail_pct']:g} {s['tail']:.6g}" if "tail_pct" in s
                else "no percentile with 10 samples beyond it")
        print(f"  {name:<14} median {s['median']:.6g}, {tail}, n={s['n']}")
    for line in result["errors"]:
        print(f"  error: {line}")


def main() -> int:
    args = parse_args(sys.argv[1:])
    import envrecord

    if envrecord.pin(HARNESS_THREADS[args.workload]):
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, tracer = run(args)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        tracer.dump(results / f"{stem}-spans.json")
    report(result)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
