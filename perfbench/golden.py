"""Output-correctness gate against reference outputs pinned in golden.json.

Each workload operation yields a record ``{"files": {name: sha256},
"kappa": {cell: kappa}}`` under a key naming its inputs. The gate compares
it with the pinned record for that key: every file digest and every
per-cell kappa must match exactly. ``pin.py`` rewrites golden.json; run it
only when a change alters the outputs on purpose.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def sha256_files(paths) -> str:
    """One digest over the bytes of several files, in the given order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def file_digests(directory, names) -> dict:
    return {name: sha256_files([Path(directory) / name]) for name in names}


def pooled_kappa(counts) -> float:
    """Cohen's kappa of a square confusion matrix given as nested lists."""
    total = sum(map(sum, counts))
    k = len(counts)
    p_o = sum(counts[i][i] for i in range(k)) / total
    rows = [sum(r) for r in counts]
    cols = [sum(counts[i][j] for i in range(k)) for j in range(k)]
    p_e = sum(r * c for r, c in zip(rows, cols)) / (total * total)
    return (p_o - p_e) / (1.0 - p_e)


def load(path=GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare(expected: dict | None, actual: dict) -> list[str]:
    """Human-readable mismatches between a pinned and a measured record."""
    if expected is None:
        return ["no pinned reference for these inputs"]
    problems = []
    for section in ("files", "kappa"):
        want, got = expected.get(section, {}), actual.get(section, {})
        for key in sorted(set(want) | set(got)):
            if key not in got:
                problems.append(f"{section} {key}: missing")
            elif key not in want:
                problems.append(f"{section} {key}: not pinned")
            elif want[key] != got[key]:
                problems.append(f"{section} {key}: expected {want[key]!r}, got {got[key]!r}")
    return problems
