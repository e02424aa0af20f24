"""The benchmark's workloads.

Each is a closed loop with one caller: the next call into dwspectral starts
when the previous one has returned. A workload's inputs follow from the
run's ``--seed`` ``n`` through the seed pool: seed ``POOL[n % len(POOL)]``
and pair ``(POOL[n % len(POOL)], POOL[(n + 1) % len(POOL)])``. golden.json
pins the outputs of every input the pool can produce.

- ``baseline``: ``run_baseline`` on the default 128x128x20 config; call i
  uses seed pair n + i. Training-heavy, no noise work.
- ``sweep`` / ``sweep-2t``: set-up renders the phantom and trains every
  classifier for seed pair n; call i times ``run_sweep`` on noise level
  ``LEVELS[i % 4]`` for both seeds (two cells), with one or two harness
  threads. Classify, noise and ADC do the work.
- ``cli``: set-up runs ``phantom`` and ``train`` for all four methods with
  seed n; iteration i runs ``noise``, ``adc``, four ``classify`` and four
  ``eval`` calls of ``cli.main`` for every slice at level ``LEVELS[i % 4]``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from dwspectral.cli import main as cli_main
from dwspectral.harness import (
    BaselineResult,
    ExperimentConfig,
    run_baseline,
    run_sweep,
    train_models,
)
from dwspectral.physics import render_phantom

import golden

LEVELS = (0.01, 0.07, 0.14, 0.20)  # spans the paper's xi_max range
POOL = tuple(range(1, 11))
CLI_METHODS = {"PO": "po", "MLP": "mlp", "KO": "ko", "KO-ADC": "ko-adc"}


def pool_seed(n: int) -> int:
    return POOL[n % len(POOL)]


def seed_pair(n: int) -> tuple[int, int]:
    return (pool_seed(n), pool_seed(n + 1))


def cell_key(classifier: str, xi: float, seed: int) -> str:
    return f"{classifier}/{xi!r}/{seed}"


def _voxels(cfg: ExperimentConfig) -> int:
    return cfg.phantom.width * cfg.phantom.height * cfg.phantom.slices


def _outputs(directory: Path) -> Path:
    """An output directory the iterations overwrite in place. Deleting and
    re-creating hundreds of files per iteration made the file system, not
    the program, dominate the run-to-run spread. Consecutive iterations use
    different inputs, so a file left over from the previous iteration fails
    the golden comparison unless its content does not depend on them."""
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _cell_kappas(cells) -> dict:
    return {cell_key(c.classifier, c.xi_max, c.seed): c.report.kappa for c in cells}


@dataclass
class Outcome:
    """What one loop iteration produced: the golden key of its inputs, the
    sweep cells (all classifiers over the whole volume) and pixel
    classifications it delivered, and what ``record`` needs to check it."""

    key: str
    cells: int
    pixels: int
    detail: object = None


class Calls:
    """Times and counts every call the benchmark makes into dwspectral."""

    def __init__(self):
        self.steps: list[float] = []
        self.attempted = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.steps.append(time.perf_counter() - t0)


class Baseline:
    section = "baseline"
    setup_repeats = 5

    def __init__(self, seed: int, work: Path, calls: Calls, src: Path):
        self.seed, self.work, self.calls, self.src = seed, work, calls, src

    def setup(self, k: int) -> None:
        """Start a fresh interpreter that imports dwspectral and builds the
        default config: the cost a user pays before ``run_baseline`` runs."""
        self.calls.attempted += 1
        subprocess.run(
            [sys.executable, "-c",
             "import dwspectral.harness as h; h.ExperimentConfig()"],
            check=True,
            timeout=120,
            cwd=self.work,
            env={**os.environ, "PYTHONPATH": str(self.src)},
        )

    def iterate(self, i: int) -> Outcome:
        pair = seed_pair(self.seed + i)
        cfg = ExperimentConfig(seeds=pair)
        out = _outputs(self.work / "baseline")
        result = self.calls(run_baseline, cfg, out_dir=out)
        return Outcome(
            "%d-%d" % pair, len(pair), len(result.cells) * _voxels(cfg), (out, result)
        )

    def record(self, outcome: Outcome) -> dict:
        out, result = outcome.detail
        names = sorted(p.name for p in out.iterdir())
        return {
            "files": golden.file_digests(out, names),
            "kappa": _cell_kappas(result.cells),
        }


class Sweep:
    section = "sweep"
    setup_repeats = 5

    def __init__(self, seed: int, work: Path, calls: Calls, src: Path):
        self.seed, self.work, self.calls = seed, work, calls
        self.pair = None
        self.prepared = None

    def setup(self, k: int) -> None:
        """Render and train for seed pair n + k; the loop uses set-up 0."""
        pair = seed_pair(self.seed + k)
        cfg = ExperimentConfig(seeds=pair)
        stacks, truth = self.calls(render_phantom, cfg.phantom, cfg.acquisition)
        models = self.calls(train_models, cfg, stacks, truth)
        if k == 0:
            self.pair = pair
            self.prepared = BaselineResult([], models, stacks, truth, [])

    def iterate(self, i: int) -> Outcome:
        level = LEVELS[i % len(LEVELS)]
        cfg = ExperimentConfig(seeds=self.pair, noise_levels=(level,))
        out = _outputs(self.work / "sweep")
        result = self.calls(run_sweep, cfg, out_dir=out, baseline=self.prepared)
        cells = len(cfg.seeds) * len(cfg.noise_levels)
        key = "%d-%d@%r" % (*self.pair, level)
        return Outcome(key, cells, len(result.cells) * _voxels(cfg), (out, result))

    record = Baseline.record


class Cli:
    section = "cli"
    setup_repeats = 5

    def __init__(self, seed: int, work: Path, calls: Calls, src: Path):
        self.seed, self.work, self.calls = seed, work, calls
        self.spec = ExperimentConfig().phantom
        self.run_seed = None
        self.vol = self.models = None

    def cli(self, *argv) -> None:
        argv = [str(a) for a in argv]
        rc = self.calls(cli_main, argv)
        if rc != 0:
            raise RuntimeError(f"dwspectral {' '.join(argv)} exited with {rc}")

    def setup(self, k: int) -> None:
        """``phantom`` plus ``train`` of every method for seed n + k; the
        loop uses set-up 0."""
        seed = pool_seed(self.seed + k)
        base = self.work / f"setup{k}"
        vol, models = base / "vol", base / "models"
        self.cli("phantom", "--out", vol)
        train_slice = ExperimentConfig().training_slice
        for method in CLI_METHODS.values():
            self.cli(
                "train", "--method", method,
                "--stack", vol / f"slice_{train_slice:02d}_manifest.json",
                "--labels", vol / f"truth_{train_slice:02d}.pgm",
                "--seed", seed, "--out", models / f"{method}.json",
            )
        if k == 0:
            self.run_seed, self.vol, self.models = seed, vol, models

    def iterate(self, i: int) -> Outcome:
        level = LEVELS[i % len(LEVELS)]
        out = _outputs(self.work / "pass")
        for z in range(self.spec.slices):
            noisy = out / f"noisy_{z:02d}"
            manifest = noisy / "noisy_manifest.json"
            adc = out / f"adc_{z:02d}"
            self.cli(
                "noise", "--stack", self.vol / f"slice_{z:02d}_manifest.json",
                "--xi", repr(level), "--seed", self.run_seed, "--out", noisy,
            )
            self.cli("adc", "--stack", manifest, "--out", adc)
            for name, method in CLI_METHODS.items():
                image = (
                    ("--adc", adc.with_suffix(".adc"))
                    if name == "KO-ADC"
                    else ("--stack", manifest)
                )
                self.cli(
                    "classify", "--model", self.models / f"{method}.json", *image,
                    "--out", out / f"pred_{method}_{z:02d}.pgm",
                )
            for method in CLI_METHODS.values():
                self.cli(
                    "eval", "--pred", out / f"pred_{method}_{z:02d}.pgm",
                    "--truth", self.vol / f"truth_{z:02d}.pgm",
                    "--out", out / f"eval_{method}_{z:02d}.json",
                )
        pixels = len(CLI_METHODS) * self.spec.slices * self.spec.width * self.spec.height
        return Outcome("%d@%r" % (self.run_seed, level), 1, pixels, (out, level))

    def record(self, outcome: Outcome) -> dict:
        out, level = outcome.detail
        slices = range(self.spec.slices)
        preds, evals, kappa = [], [], {}
        for name, method in CLI_METHODS.items():
            preds += [out / f"pred_{method}_{z:02d}.pgm" for z in slices]
            reports = [out / f"eval_{method}_{z:02d}.json" for z in slices]
            evals += reports
            pooled = [[0] * 3 for _ in range(3)]
            for path in reports:
                cm = json.loads(path.read_text())["metrics"]["confusion_matrix"]
                for r in range(3):
                    for c in range(3):
                        pooled[r][c] += cm[r][c]
            kappa[cell_key(name, level, self.run_seed)] = golden.pooled_kappa(pooled)
        return {
            "files": {
                "pred": golden.sha256_files(preds),
                "eval": golden.sha256_files(evals),
            },
            "kappa": kappa,
        }


WORKLOADS = {"baseline": Baseline, "sweep": Sweep, "sweep-2t": Sweep, "cli": Cli}
