import json
from fractions import Fraction

import pytest

from botlstm.metrics import (
    BOT,
    HUMAN,
    compute_metrics,
    predicted_label,
    report_json,
    tally,
)


def test_predicted_label_counts_a_tie_as_bot():
    assert predicted_label(0.5) == BOT
    assert predicted_label(1.0) == BOT
    assert predicted_label(0.49999999999999994) == HUMAN
    assert predicted_label(0.0) == HUMAN


class TestTally:
    def test_perfect_tiny_case(self):
        assert tally([BOT, HUMAN], [BOT, HUMAN]) == {"tp": 1, "tn": 1, "fp": 0, "fn": 0}

    def test_inverse_case(self):
        assert tally([BOT, BOT], [HUMAN, HUMAN]) == {"tp": 0, "tn": 0, "fp": 2, "fn": 0}

    def test_hand_tally(self):
        c = tally([BOT, HUMAN, BOT], [BOT, BOT, HUMAN])
        assert c == {"tp": 1, "tn": 0, "fp": 1, "fn": 1}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tally([BOT], [BOT, HUMAN])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            tally([], [])

    def test_total_matches_input_size(self):
        c = tally([BOT, HUMAN, BOT, HUMAN], [HUMAN, HUMAN, BOT, BOT])
        assert sum(c.values()) == 4


class TestComputeMetrics:
    def test_perfect_classifier(self):
        r = compute_metrics(tp=5, tn=5, fp=0, fn=0)
        assert r["precision"] == r["recall"] == r["specificity"] == r["accuracy"] == 1.0
        assert r["f_measure"] == 1.0
        assert r["mcc"] == 1.0
        assert r["degenerate_metrics"] == []

    def test_balanced_random(self):
        r = compute_metrics(tp=5, tn=5, fp=5, fn=5)
        assert r["accuracy"] == 0.5
        assert r["mcc"] == 0.0

    def test_inverted_classifier(self):
        r = compute_metrics(tp=0, tn=0, fp=7, fn=3)
        assert r["mcc"] == -1.0

    def test_worked_example(self):
        r = compute_metrics(tp=40, fn=10, tn=30, fp=20)
        assert abs(r["precision"] - 2 / 3) < 1e-12
        assert abs(r["recall"] - 0.8) < 1e-12
        assert abs(r["specificity"] - 0.6) < 1e-12
        assert abs(r["accuracy"] - 0.7) < 1e-12
        assert abs(r["f_measure"] - Fraction(8, 11)) < 1e-4  # 0.7273
        assert abs(r["mcc"] - 0.4082) < 1e-4

    def test_zero_denominators_flagged(self):
        r = compute_metrics(tp=0, tn=3, fp=0, fn=0)
        assert r["precision"] == 0.0
        assert r["recall"] == 0.0
        assert r["f_measure"] == 0.0
        assert r["mcc"] == 0.0
        assert set(r["degenerate_metrics"]) == {"precision", "recall", "f_measure", "mcc"}

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="zero evaluated accounts"):
            compute_metrics(tp=0, tn=0, fp=0, fn=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            compute_metrics(tp=-1, tn=0, fp=0, fn=0)


class TestProperties:
    def test_label_swap_symmetry(self):
        # swapping the positive class maps precision onto the negative
        # predictive value and leaves accuracy and |MCC| unchanged
        cases = [(3, 4, 2, 1), (5, 0, 2, 3), (1, 1, 1, 1), (9, 2, 0, 4)]
        for tp, tn, fp, fn in cases:
            r = compute_metrics(tp=tp, tn=tn, fp=fp, fn=fn)
            swapped = compute_metrics(tp=tn, tn=tp, fp=fn, fn=fp)
            if tn + fn:
                assert abs(swapped["precision"] - tn / (tn + fn)) < 1e-12
            assert abs(swapped["accuracy"] - r["accuracy"]) < 1e-12
            assert abs(abs(swapped["mcc"]) - abs(r["mcc"])) < 1e-12

    def test_f_measure_between_precision_and_recall(self):
        for tp, tn, fp, fn in [(3, 4, 2, 1), (8, 1, 1, 5), (2, 2, 6, 1)]:
            r = compute_metrics(tp=tp, tn=tn, fp=fp, fn=fn)
            assert min(r["precision"], r["recall"]) - 1e-12 <= r["f_measure"]
            assert r["f_measure"] <= max(r["precision"], r["recall"]) + 1e-12

    def test_accuracy_times_total_is_exact(self):
        for tp, tn, fp, fn in [(3, 4, 2, 1), (5, 0, 2, 3), (7, 7, 0, 0)]:
            r = compute_metrics(tp=tp, tn=tn, fp=fp, fn=fn)
            total = r["tp"] + r["tn"] + r["fp"] + r["fn"]
            acc = Fraction(r["tp"] + r["tn"], total)
            assert acc * total == r["tp"] + r["tn"]
            assert r["accuracy"] == float(acc)

    def test_ranges(self):
        import itertools

        for tp, tn, fp, fn in itertools.product(range(4), repeat=4):
            if tp + tn + fp + fn == 0:
                continue
            r = compute_metrics(tp=tp, tn=tn, fp=fp, fn=fn)
            for value in (r["precision"], r["recall"], r["specificity"], r["accuracy"],
                          r["f_measure"]):
                assert 0.0 <= value <= 1.0
            assert -1.0 <= r["mcc"] <= 1.0


class TestReportJson:
    def test_shape_and_keys(self):
        payload = json.loads(report_json(compute_metrics(tp=4, tn=3, fp=2, fn=1)))
        assert list(payload) == [
            "precision", "recall", "specificity", "accuracy", "f_measure",
            "mcc", "tp", "tn", "fp", "fn", "degenerate_metrics",
        ]
        assert payload["tp"] == 4
        assert payload["degenerate_metrics"] == []

    def test_deterministic(self):
        r = compute_metrics(tp=4, tn=3, fp=2, fn=1)
        assert report_json(r) == report_json(r)

    def test_bytes(self):
        # the exact metrics.json text: key order, float repr, indent, newline
        assert report_json(compute_metrics(tp=4, tn=3, fp=2, fn=1)) == (
            '{\n'
            '  "precision": 0.6666666666666666,\n'
            '  "recall": 0.8,\n'
            '  "specificity": 0.6,\n'
            '  "accuracy": 0.7,\n'
            '  "f_measure": 0.7272727272727272,\n'
            '  "mcc": 0.408248290463863,\n'
            '  "tp": 4,\n'
            '  "tn": 3,\n'
            '  "fp": 2,\n'
            '  "fn": 1,\n'
            '  "degenerate_metrics": []\n'
            '}\n'
        )
