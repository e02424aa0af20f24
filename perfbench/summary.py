#!/usr/bin/env python3
"""Run every workload untraced and traced, and print the whole benchmark.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Prints each end-to-end metric by name and unit for every workload (timings
with median, tail percentile and sample count), the tracing overhead
(traced minus untraced wall_s), every per-layer metric with the end-to-end
metric it should move, and three findings: the shares of a sweep cell, the
MLP epochs run per seed, and sweep-2t's cells_per_s against sweep's. Besides
the workloads BENCHMARK.json declares it runs ``baseline`` (training-heavy,
too noisy on a shared host to gate) and ``sweep-2t``, the sweep with two
harness threads, for the last finding.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "out" / "results"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} (trace {trace}) exited with {proc.returncode}")
    return json.loads((RESULTS / f"{name}-seed{seed}-trace{trace}.json").read_text())


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args(argv)

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import layers

    names = [w["name"] for w in bench["workloads"]]
    names += [n for n in ("baseline", "sweep-2t") if n not in names]
    plain, traced = {}, {}
    for name in names:
        plain[name] = run_workload(name, args.seed, args.seconds, 0)
        traced[name] = run_workload(name, args.seed, args.seconds, 1)

    env = plain[names[0]]["environment"]
    print(f"environment: {json.dumps(env)}")
    print(f"\nend-to-end metrics (seed {args.seed}, {args.seconds:g} s per run; "
          "times in reference seconds, see speed.py)")
    print(f"{'metric':<14} {'unit':<9}" + "".join(f"{n:>14}" for n in names))
    for m in bench["end_to_end"]:
        row = "".join(f"{plain[n]['end_to_end'][m['name']]['value']:>14.5g}" for n in names)
        print(f"{m['name']:<14} {m['unit']:<9}{row}")
    row = "".join(f"{plain[n]['failed_frac']:>14.5g}" for n in names)
    print(f"{'failed_frac':<14} {'fraction':<9}{row}")
    for n in names:
        for t, s in plain[n]["timings"].items():
            tail = f"p{s['tail_pct']:g} {s['tail']:.5g}" if "tail_pct" in s else "no tail"
            print(f"  {n:<9} {t:<8} median {s['median']:.5g}, {tail}, n={s['n']}")

    print("\ntracing overhead: traced wall_s - untraced wall_s")
    for n in names:
        a = plain[n]["end_to_end"]["wall_s"]["value"]
        b = traced[n]["end_to_end"]["wall_s"]["value"]
        print(f"  {n:<9} {b - a:+.4f} s ({(b - a) / a:+.1%} of {a:.4f} s)")

    print("\nper-layer metrics (traced run, per set-up plus one iteration)")
    print(f"{'metric':<42}" + "".join(f"{n:>11}" for n in names) + "  should move")
    for m in bench["per_layer"]:
        row = "".join(f"{traced[n]['per_layer'][m['name']]['value']:>11.4g}" for n in names)
        print(f"{m['name']:<42}{row}  {layers.target(m['name'])}")

    print("\nfindings")
    if "sweep" in traced:
        print("  (a) share of a sweep cell's work, one harness thread:")
        for group, share in traced["sweep"]["cell_shares"].items():
            print(f"      {group:<16} {share:6.1%}")
    epochs = {}
    for n in names:
        epochs.update(traced[n].get("mlp_epochs_by_seed", {}))
    listing = ", ".join(f"seed {s}: {e}" for s, e in sorted(epochs.items(), key=lambda x: int(x[0])))
    print(f"  (b) MLP epochs run per training seed: {listing}")
    if "sweep" in plain and "sweep-2t" in plain:
        one = plain["sweep"]["end_to_end"]["cells_per_s"]["value"]
        two = plain["sweep-2t"]["end_to_end"]["cells_per_s"]["value"]
        print(f"  (c) cells_per_s: sweep {one:.4g}, sweep-2t {two:.4g}, "
              f"ratio {two / one:.3f} (2 threads against 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
