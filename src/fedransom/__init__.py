"""Ransomware-vs-benign binary triage with a federated CNN.

Binaries become fixed-size grayscale images (one byte per pixel), a small
convolutional network trained from scratch separates the classes, and
federated averaging trains that network across data owners, either
in-process or over a framed TCP protocol.
"""

from .corpus import Manifest, build_corpus, split, synth_benign, synth_ransomlike
from .data import Dataset
from .fedavg import ClientShard, ClientUpdate, FedConfig, aggregate, partition, run_federation
from .imaging import bytes_to_image
from .metrics import ConfusionMatrix, EvalReport, confusion, precision_recall_f1
from .nn import ModelParams, TrainConfig, fit, init_params, predict

__version__ = "0.1.0"

__all__ = [
    "Manifest", "build_corpus", "split", "synth_benign", "synth_ransomlike",
    "Dataset",
    "ClientShard", "ClientUpdate", "FedConfig", "aggregate", "partition", "run_federation",
    "bytes_to_image",
    "ConfusionMatrix", "EvalReport", "confusion", "precision_recall_f1",
    "ModelParams", "TrainConfig", "fit", "init_params", "predict",
    "__version__",
]
