"""Confusion matrix, per-class precision/recall/F1, and report files.

Report reals carry single precision and are serialized with 9 significant
digits, which round-trips each value exactly. Degenerate 0/0 cells are
reported as 0.0 and flagged by name so files stay machine-readable.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import LengthMismatch

CSV_HEADER = ("index", "train_accuracy", "val_accuracy")
CLASS_NAMES = ("normal", "ransomware")


def _f32(x: float) -> float:
    return float(np.float32(x))


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[actual][predicted] for the two classes."""

    tn: int
    fp: int
    fn: int
    tp: int

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


@dataclass(frozen=True)
class HistoryRow:
    index: int
    train_accuracy: Optional[float]
    val_accuracy: Optional[float]
    train_loss: Optional[float] = None  # an epoch's mean batch loss; no report file holds it


@dataclass(frozen=True)
class EvalReport:
    confusion: ConfusionMatrix
    precision: tuple[float, float]  # per class (normal, ransomware)
    recall: tuple[float, float]
    f1: tuple[float, float]
    accuracy: float
    degenerate: tuple[str, ...]
    history: tuple[HistoryRow, ...] = ()


def confusion(predictions: Sequence[int], labels: Sequence[int]) -> ConfusionMatrix:
    """Standard 2x2 tally of (actual, predicted) pairs."""
    preds = np.asarray(predictions)
    actual = np.asarray(labels)
    if preds.shape != actual.shape:
        raise LengthMismatch(f"{preds.shape} predictions vs {actual.shape} labels")
    return ConfusionMatrix(
        tn=int(((actual == 0) & (preds == 0)).sum()),
        fp=int(((actual == 0) & (preds == 1)).sum()),
        fn=int(((actual == 1) & (preds == 0)).sum()),
        tp=int(((actual == 1) & (preds == 1)).sum()),
    )


def _ratio(num: int, den: int, flag: str, degenerate: list[str]) -> float:
    if den == 0:
        degenerate.append(flag)
        return 0.0
    return num / den


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean 2PR / (P + R); 0 when both inputs are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def precision_recall_f1(cm: ConfusionMatrix) -> EvalReport:
    """Per-class precision, recall, and F1 = 2PR / (P + R)."""
    degenerate: list[str] = []
    correct = (cm.tn, cm.tp)
    predicted = (cm.tn + cm.fn, cm.tp + cm.fp)
    actual = (cm.tn + cm.fp, cm.tp + cm.fn)
    precision = []
    recall = []
    f1 = []
    for c in range(2):
        p = _ratio(correct[c], predicted[c], f"precision/{c}", degenerate)
        r = _ratio(correct[c], actual[c], f"recall/{c}", degenerate)
        if p + r == 0.0:
            degenerate.append(f"f1/{c}")
        f = f1_score(p, r)
        precision.append(_f32(p))
        recall.append(_f32(r))
        f1.append(_f32(f))
    acc = _ratio(cm.tn + cm.tp, cm.total, "accuracy", degenerate)
    return EvalReport(
        confusion=cm,
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        accuracy=_f32(acc),
        degenerate=tuple(degenerate),
    )


def history_row(index: int, train_accuracy: Optional[float], val_accuracy: Optional[float],
                train_loss: Optional[float] = None) -> HistoryRow:
    return HistoryRow(
        index=index,
        train_accuracy=None if train_accuracy is None else _f32(train_accuracy),
        val_accuracy=None if val_accuracy is None else _f32(val_accuracy),
        train_loss=train_loss,
    )


def with_history(report: EvalReport, rows: Sequence[HistoryRow]) -> EvalReport:
    return replace(report, history=tuple(rows))


def _fmt(x: Optional[float]):
    return None if x is None else float(f"{x:.9g}")


def emit_report(report: EvalReport, path, fmt: str = "json") -> None:
    """Write a report file.

    json carries the full report; csv carries only the accuracy history,
    one (index, train_accuracy, val_accuracy) row per epoch or round.
    """
    path = Path(path)
    if fmt == "json":
        doc = {
            "confusion": {"tn": report.confusion.tn, "fp": report.confusion.fp,
                          "fn": report.confusion.fn, "tp": report.confusion.tp},
            "precision": [_fmt(v) for v in report.precision],
            "recall": [_fmt(v) for v in report.recall],
            "f1": [_fmt(v) for v in report.f1],
            "accuracy": _fmt(report.accuracy),
            "degenerate": list(report.degenerate),
            "history": [
                [row.index, _fmt(row.train_accuracy), _fmt(row.val_accuracy)]
                for row in report.history
            ],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
    elif fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for row in report.history:
                writer.writerow([
                    row.index,
                    "" if row.train_accuracy is None else f"{row.train_accuracy:.9g}",
                    "" if row.val_accuracy is None else f"{row.val_accuracy:.9g}",
                ])
    else:
        raise ValueError(f"unknown report format {fmt!r}")
