import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dwspectral.core_image import LabelMap
from dwspectral.errors import ValidationError
from dwspectral.metrics import (
    ConfusionMatrix,
    confusion,
    kappa,
    merge_confusions,
    metrics_report,
    overall_accuracy,
    report_from_confusion,
    volumes,
)


def cm(rows):
    return ConfusionMatrix(np.array(rows, dtype=np.int64))


class TestKappa:
    def test_worked_example(self):
        # p_o = 0.70, p_e = (0.4*0.5 + 0.6*0.5) = 0.50 -> kappa = 0.40
        m = cm([[30, 10, 0], [20, 40, 0], [0, 0, 0]])
        assert overall_accuracy(m) == pytest.approx(0.70)
        assert kappa(m) == pytest.approx(0.40)

    def test_perfect_agreement(self):
        assert kappa(cm([[10, 0, 0], [0, 20, 0], [0, 0, 30]])) == 1.0

    def test_chance_level_is_zero(self):
        assert kappa(cm([[25, 25, 0], [25, 25, 0], [0, 0, 0]])) == pytest.approx(0.0)

    def test_degenerate_marginals_rejected(self):
        # everything is truth 2 and predicted 2: p_e = 1
        with pytest.raises(ValidationError, match="p_e = 1"):
            kappa(cm([[0, 0, 0], [0, 50, 0], [0, 0, 0]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            kappa(cm([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.int64, (3, 3), elements=st.integers(0, 500)))
    def test_bounded_above_by_one(self, counts):
        m = ConfusionMatrix(counts)
        if counts.sum() == 0:
            return
        try:
            k = kappa(m)
        except ValidationError as exc:  # only p_e = 1 may be skipped
            assert "p_e = 1" in str(exc)
            return
        assert k <= 1.0 + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.int64, (3, 3), elements=st.integers(0, 200)),
        st.integers(2, 7),
    )
    def test_invariant_under_integer_scaling(self, counts, factor):
        if counts.sum() == 0:
            return
        try:
            base = kappa(ConfusionMatrix(counts))
        except ValidationError as exc:  # only p_e = 1 may be skipped
            assert "p_e = 1" in str(exc)
            return
        assert kappa(ConfusionMatrix(counts * factor)) == pytest.approx(base)


class TestConfusion:
    def _maps(self, truth, pred):
        truth = np.array(truth)
        return (
            LabelMap(np.array(pred)),
            LabelMap(truth),
        )

    def test_counts_by_truth_row_pred_column(self):
        pred, truth = self._maps([[1, 1, 2], [3, 2, 2]], [[1, 2, 2], [3, 2, 1]])
        m = confusion(pred, truth)
        assert m.counts.tolist() == [[1, 1, 0], [1, 2, 0], [0, 0, 1]]

    def test_transpose_swaps_roles(self):
        pred, truth = self._maps([[1, 2, 3], [2, 2, 1]], [[2, 2, 3], [1, 2, 3]])
        a = confusion(pred, truth)
        b = confusion(truth, pred)
        np.testing.assert_array_equal(a.counts.T, b.counts)

    def test_merge_adds_counts(self):
        a = cm([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        b = cm([[4, 1, 0], [0, 0, 0], [2, 0, 0]])
        merged = merge_confusions([a, b])
        assert merged.counts.tolist() == [[5, 1, 0], [0, 2, 0], [2, 0, 3]]


class TestReport:
    def test_report_fields_consistent(self):
        m = cm([[30, 10, 0], [20, 40, 0], [0, 0, 0]])
        report = report_from_confusion(m)
        assert report.phi == pytest.approx(0.70)
        assert report.kappa == pytest.approx(0.40)
        doc = report.to_json()
        assert doc["confusion_matrix"] == m.counts.tolist()

    def test_report_from_maps_identity(self):
        labels = np.array([[1, 2], [3, 2]])
        lm = LabelMap(labels)
        report = metrics_report(lm, lm)
        assert report.phi == 1.0
        assert report.kappa == 1.0


class TestVolumes:
    def _scored(self, pred, truth=None):
        """The confusion matrix of ``pred`` against ``truth`` (default:
        itself)."""
        pred = LabelMap(np.array(pred))
        return confusion(pred, pred if truth is None else LabelMap(np.array(truth)))

    def test_all_matter(self):
        rep = volumes(self._scored([[2, 2], [2, 2]]))
        assert (rep.v1, rep.v2, rep.v3) == (0.0, 100.0, 0.0)
        assert rep.fluid_matter_rate == 0.0

    def test_mixed_percentages(self):
        labels = [[1] * 10, [2] * 10, [2] * 10, [3] * 10, [3] * 10,
                  [3] * 10, [3] * 10, [3] * 10, [3] * 10, [3] * 10]
        rep = volumes(self._scored(labels))
        assert (rep.v1, rep.v2, rep.v3) == (10.0, 20.0, 70.0)
        assert rep.fluid_matter_rate == pytest.approx(0.5)

    def test_no_matter_gives_undefined_rate(self):
        rep = volumes(self._scored([[1, 3], [3, 3]]))
        assert rep.fluid_matter_rate is None

    def test_pooled_over_slices(self):
        rep = volumes(merge_confusions([self._scored([[1, 1]]), self._scored([[2, 2]])]))
        assert (rep.v1, rep.v2, rep.v3) == (50.0, 50.0, 0.0)
        assert rep.fluid_matter_rate == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.integers(1, 3)))
    def test_percentages_sum_to_hundred(self, labels):
        rep = volumes(self._scored(labels))
        assert rep.v1 + rep.v2 + rep.v3 == pytest.approx(100.0, abs=1e-9)

    def test_predicted_classes_counted_not_true_ones(self):
        rep = volumes(self._scored([[2, 2], [2, 3]], truth=[[1, 1], [1, 1]]))
        assert (rep.v1, rep.v2, rep.v3) == (0.0, 75.0, 25.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError, match="volumes undefined for an empty matrix"):
            volumes(cm(np.zeros((3, 3))))
