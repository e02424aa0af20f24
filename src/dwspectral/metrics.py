"""Confusion matrix, overall accuracy, Cohen's kappa, class volumes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_image import ClassLabel, LabelMap
from .errors import ValidationError

N = len(ClassLabel)


@dataclass(frozen=True)
class ConfusionMatrix:
    """3x3 counts; rows index the true class, columns the predicted class."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (N, N):
            raise ValidationError(f"confusion matrix must be {N}x{N}, got {c.shape}")
        if np.any(c < 0):
            raise ValidationError("confusion matrix counts must be non-negative")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class MetricsReport:
    matrix: ConfusionMatrix
    phi: float
    kappa: float

    def to_json(self) -> dict:
        return {
            "confusion_matrix": self.matrix.counts.tolist(),
            "overall_accuracy": self.phi,
            "kappa": self.kappa,
        }


@dataclass(frozen=True)
class VolumeReport:
    """Percentage volume per class; fluid_matter_rate is v1/v2, None when no
    matter was predicted."""

    v1: float
    v2: float
    v3: float
    fluid_matter_rate: float | None

    def to_json(self) -> dict:
        return {
            "v1": self.v1,
            "v2": self.v2,
            "v3": self.v3,
            "fluid_matter_rate": self.fluid_matter_rate,
        }


def confusion(pred: LabelMap, truth: LabelMap) -> ConfusionMatrix:
    if (pred.width, pred.height) != (truth.width, truth.height):
        raise ValidationError(
            f"prediction {pred.width}x{pred.height} does not match "
            f"truth {truth.width}x{truth.height}"
        )
    # uint8 codes 1..3 (LabelMap), so the index stays below 16 in uint8.
    idx = truth.labels.ravel() * (N + 1)
    idx += pred.labels.ravel()
    counts = np.bincount(idx, minlength=(N + 1) ** 2).reshape(N + 1, N + 1)
    return ConfusionMatrix(counts[1:, 1:])


def merge_confusions(matrices) -> ConfusionMatrix:
    """Pool several slice-level matrices into one volume-level matrix."""
    matrices = list(matrices)
    if not matrices:
        raise ValidationError("cannot merge an empty list of confusion matrices")
    return ConfusionMatrix(sum(m.counts for m in matrices))


def overall_accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ValidationError("overall accuracy undefined for an empty matrix")
    return float(np.trace(cm.counts)) / cm.total


def kappa(cm: ConfusionMatrix) -> float:
    """Cohen's kappa: (p_o - p_e) / (1 - p_e) with marginal chance agreement
    p_e = sum_k row_k * col_k / total^2."""
    total = cm.total
    if total == 0:
        raise ValidationError("kappa undefined for an empty matrix")
    p_o = float(np.trace(cm.counts)) / total
    rows = cm.counts.sum(axis=1)
    cols = cm.counts.sum(axis=0)
    p_e = float(rows @ cols) / (total * total)
    if p_e >= 1.0:
        raise ValidationError(
            "kappa undefined: chance agreement p_e = 1 (single truth/pred cell)"
        )
    return (p_o - p_e) / (1.0 - p_e)


def metrics_report(pred: LabelMap, truth: LabelMap) -> MetricsReport:
    return report_from_confusion(confusion(pred, truth))


def report_from_confusion(cm: ConfusionMatrix) -> MetricsReport:
    return MetricsReport(cm, overall_accuracy(cm), kappa(cm))


def volumes(cm: ConfusionMatrix) -> VolumeReport:
    """Percentage of pixels predicted as each class: the column shares of
    ``cm``, pooled over every slice it counts."""
    total = cm.total
    if total == 0:
        raise ValidationError("volumes undefined for an empty matrix")
    v1, v2, v3 = (100.0 * float(n) / total for n in cm.counts.sum(axis=0))
    return VolumeReport(v1, v2, v3, v1 / v2 if v2 > 0 else None)
