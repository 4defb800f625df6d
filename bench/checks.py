"""Reference computations the benchmark checks the program against.

Everything here is written from the documented formats and formulas,
not by calling the code under test.
"""

from __future__ import annotations

import hashlib

import numpy as np

N_FILTERS = 32
FRAME_HEADER = 5        # u32 payload length + u8 type
BLOB_HEADER = 8         # u32 round + u32 n_samples
HELLO_HEADER = 4        # u32 n_samples
TENSORS = (("conv_kernels", 4), ("conv_bias", 1), ("dense_weights", 2), ("dense_bias", 1))


def param_count(side: int) -> int:
    """Shape law: 32*9 + 32 conv, then 2 * 32 * side**2 + 2 dense."""
    return N_FILTERS * 9 + N_FILTERS + 2 * N_FILTERS * side * side + 2


def checkpoint_size(side: int) -> int:
    """FRWM bytes: magic, u16 version, u16 count, then per tensor a u16 name
    length, the name, u8 rank, u32 dims and float32 data."""
    head = 4 + 2 + 2
    names = sum(2 + len(name) + 1 + 4 * rank for name, rank in TENSORS)
    return head + names + 4 * param_count(side)


def wire_bytes(side: int, client_ids: list[str], rounds: int) -> int:
    """Bytes of every frame one loopback federation sends, both directions:
    a HELLO per client, a GLOBAL and an UPDATE per client per round, a FIN
    per client."""
    blob = FRAME_HEADER + BLOB_HEADER + checkpoint_size(side)
    hellos = sum(FRAME_HEADER + HELLO_HEADER + len(c.encode()) for c in client_ids)
    return hellos + 2 * rounds * len(client_ids) * blob + FRAME_HEADER * len(client_ids)


def digest(params) -> str:
    h = hashlib.sha256()
    for name, arr in params.named().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def generator_label(rel_path: str) -> int:
    """The synthetic generator writes benign files under benign/ and
    ransomware-like files under ransom/."""
    top = rel_path.split("/", 1)[0]
    if top not in ("benign", "ransom"):
        raise ValueError(f"{rel_path} is not a generator path")
    return int(top == "ransom")


def tally(predicted, actual) -> dict[str, int]:
    p = [int(x) for x in predicted]
    a = [int(x) for x in actual]
    return {
        "tn": sum(1 for x, y in zip(p, a) if y == 0 and x == 0),
        "fp": sum(1 for x, y in zip(p, a) if y == 0 and x == 1),
        "fn": sum(1 for x, y in zip(p, a) if y == 1 and x == 0),
        "tp": sum(1 for x, y in zip(p, a) if y == 1 and x == 1),
    }


def accuracy_and_f1(counts: dict[str, int]) -> tuple[float, tuple[float, float]]:
    """Accuracy and per-class F1 = 2tp / (2tp + fp + fn), class 0 then 1."""
    tn, fp, fn, tp = counts["tn"], counts["fp"], counts["fn"], counts["tp"]
    total = tn + fp + fn + tp
    f1_pos = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
    f1_neg = 2 * tn / (2 * tn + fn + fp) if tn + fn + fp else 0.0
    return (tn + tp) / total, (f1_neg, f1_pos)


def eval_probs_f64(params, images: np.ndarray) -> np.ndarray:
    """Eval-mode forward in float64: 3x3 same conv, ReLU, dense, softmax."""
    k = params.conv_kernels.astype(np.float64)[:, 0]          # (32, 3, 3)
    b = params.conv_bias.astype(np.float64)
    w = params.dense_weights.astype(np.float64)
    d = params.dense_bias.astype(np.float64)
    n, _, h, wd = images.shape
    padded = np.zeros((n, h + 2, wd + 2))
    padded[:, 1:-1, 1:-1] = images[:, 0]
    probs = np.empty((n, 2))
    for s in range(n):
        act = np.empty((N_FILTERS, h, wd))
        for f in range(N_FILTERS):
            acc = np.full((h, wd), b[f])
            for i in range(3):
                for j in range(3):
                    acc += k[f, i, j] * padded[s, i:i + h, j:j + wd]
            act[f] = np.maximum(acc, 0.0)
        logits = w @ act.reshape(-1) + d
        e = np.exp(logits - logits.max())
        probs[s] = e / e.sum()
    return probs
