import math

import numpy as np
import pytest
from helpers import parse_history_csv, parse_report

from fedransom import metrics
from fedransom.errors import LengthMismatch
from fedransom.metrics import ConfusionMatrix, confusion, precision_recall_f1


def test_confusion_perfect_predictions():
    cm = confusion([0, 1, 0, 1], [0, 1, 0, 1])
    assert (cm.tn, cm.fp, cm.fn, cm.tp) == (2, 0, 0, 2)


def test_confusion_all_misses():
    cm = confusion([0] * 5, [1] * 5)
    assert (cm.tn, cm.fp, cm.fn, cm.tp) == (0, 0, 5, 0)


def test_confusion_cells_partition_the_samples():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        assert confusion(preds, labels).total == n


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion([0, 1], [0])


def test_f1_formula_reproduces_reference_rows():
    # 2PR/(P+R): 0.81/0.90 -> 0.85263...; 0.90/0.80 -> 0.84706...
    good = metrics.f1_score(0.81, 0.90)
    ransom = metrics.f1_score(0.90, 0.80)
    assert good == pytest.approx(2 * 0.81 * 0.90 / (0.81 + 0.90), abs=1e-7)
    assert ransom == pytest.approx(2 * 0.90 * 0.80 / (0.90 + 0.80), abs=1e-7)
    assert math.ceil(100 * good) == 86
    assert math.ceil(100 * ransom) == 85


def test_perfect_matrix_gives_all_ones():
    report = precision_recall_f1(ConfusionMatrix(tn=30, fp=0, fn=0, tp=30))
    assert report.precision == (1.0, 1.0)
    assert report.recall == (1.0, 1.0)
    assert report.f1 == (1.0, 1.0)
    assert report.accuracy == 1.0
    assert report.degenerate == ()


def test_degenerate_cells_flagged_not_nan():
    # nothing predicted ransomware and none present: precision/recall 0/0
    report = precision_recall_f1(ConfusionMatrix(tn=10, fp=0, fn=0, tp=0))
    assert report.precision[1] == 0.0
    assert report.recall[1] == 0.0
    assert report.f1[1] == 0.0
    assert "precision/1" in report.degenerate
    assert "recall/1" in report.degenerate
    assert "f1/1" in report.degenerate


def _brute_force(preds, labels):
    out = {}
    for c in (0, 1):
        predicted_c = sum(1 for p in preds if p == c)
        actual_c = sum(1 for a in labels if a == c)
        correct_c = sum(1 for p, a in zip(preds, labels) if p == a == c)
        p = correct_c / predicted_c if predicted_c else 0.0
        r = correct_c / actual_c if actual_c else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        out[c] = (p, r, f)
    acc = sum(1 for p, a in zip(preds, labels) if p == a) / len(preds)
    return out, acc


def test_metrics_match_brute_force_counting():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        preds = rng.integers(0, 2, n).tolist()
        labels = rng.integers(0, 2, n).tolist()
        report = precision_recall_f1(confusion(preds, labels))
        expected, acc = _brute_force(preds, labels)
        for c in (0, 1):
            assert report.precision[c] == pytest.approx(expected[c][0], abs=1e-6)
            assert report.recall[c] == pytest.approx(expected[c][1], abs=1e-6)
            assert report.f1[c] == pytest.approx(expected[c][2], abs=1e-6)
        assert report.accuracy == pytest.approx(acc, abs=1e-6)
        assert report.accuracy == pytest.approx(float(np.mean(
            np.asarray(preds) == np.asarray(labels))), abs=1e-6)


def test_f1_is_a_harmonic_mean():
    rng = np.random.default_rng(2)
    for _ in range(100):
        cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 40, 4)))
        report = precision_recall_f1(cm)
        for c in (0, 1):
            p, r, f = report.precision[c], report.recall[c], report.f1[c]
            if f"f1/{c}" in report.degenerate:
                continue
            assert min(p, r) - 1e-6 <= f <= max(p, r) + 1e-6
            if abs(p - r) < 1e-9:
                assert f == pytest.approx(p, abs=1e-6)


def _sample_report():
    report = precision_recall_f1(ConfusionMatrix(tn=40, fp=5, fn=3, tp=52))
    rows = [metrics.history_row(0, 0.5, 0.4), metrics.history_row(1, 0.875, None)]
    return metrics.with_history(report, rows)


def test_json_report_round_trip(tmp_path):
    report = _sample_report()
    path = tmp_path / "report.json"
    metrics.emit_report(report, path, "json")
    assert parse_report(path) == report


def test_json_report_round_trip_with_empty_history(tmp_path):
    report = precision_recall_f1(ConfusionMatrix(tn=1, fp=2, fn=3, tp=4))
    path = tmp_path / "report.json"
    metrics.emit_report(report, path, "json")
    assert parse_report(path) == report


def test_csv_history_round_trip_and_header(tmp_path):
    report = _sample_report()
    path = tmp_path / "history.csv"
    metrics.emit_report(report, path, "csv")
    first = path.read_text().splitlines()[0]
    assert first == "index,train_accuracy,val_accuracy"
    assert parse_history_csv(path) == report.history


def test_csv_with_no_history_is_just_the_header(tmp_path):
    report = precision_recall_f1(ConfusionMatrix(tn=1, fp=0, fn=0, tp=1))
    path = tmp_path / "history.csv"
    metrics.emit_report(report, path, "csv")
    assert path.read_text().strip() == "index,train_accuracy,val_accuracy"
    assert parse_history_csv(path) == ()


def test_report_reals_survive_nine_digit_serialization(tmp_path):
    # 2/3 and friends need all 9 significant digits to round-trip
    report = precision_recall_f1(ConfusionMatrix(tn=2, fp=1, fn=1, tp=2))
    path = tmp_path / "r.json"
    metrics.emit_report(report, path, "json")
    parsed = parse_report(path)
    assert parsed.precision == report.precision
    assert parsed.f1 == report.f1
