"""Federated orchestration: shard, train locally, average by sample count.

Every client trains on its own shard each round, and the server replaces
the global model with the sample-count-weighted mean of the client
results. run_rounds is the round loop of both engines: run_federation's
clients train in a pool of threads, fedwire.serve's over TCP. Weighting,
summation order, and per-client random streams are all pinned, so
finishing order changes nothing: runs are reproducible bit for bit, a
single-client federation replays centralized training exactly, and a
loopback wire federation replays the in-process engine.
"""

from __future__ import annotations

import re
import zlib
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .data import Dataset
from .errors import (EmptyShard, EmptyUpdateSet, RoundMismatch, ShapeMismatch,
                     TooFewSamples)
from .metrics import EvalReport, confusion, history_row, precision_recall_f1, with_history
from .nn import ModelParams, TrainConfig, _usable_cores, accuracy, fit, init_params, predict

_MIX_CLIENT = 0x9E3779B97F4A7C15
_MIX_ROUND = 0xC2B2AE3D27D4EB4F
_MASK64 = (1 << 64) - 1
_BLOCK = 1 << 16  # aggregate's block: 512 KiB of float64


@dataclass(frozen=True)
class FedConfig:
    n_clients: int = 3
    n_rounds: int = 30
    local_epochs: int = 30
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clients < 1 or self.n_rounds < 1 or self.local_epochs < 1:
            raise ValueError("n_clients, n_rounds, and local_epochs must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


@dataclass(frozen=True)
class ClientShard:
    client_id: str
    samples: Dataset

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class ClientUpdate:
    client_id: str
    round_index: int
    params: ModelParams
    n_samples: int


def client_id_bytes(client_id: str) -> bytes:
    """The UTF-8 bytes of *client_id*, as HELLO carries them and its stream seed hashes them."""
    try:
        return client_id.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"client id {client_id!r} is not valid UTF-8") from None


def client_stream_seed(seed: int, client_id: str, round_index: int) -> int:
    """Seed of a client's random stream (shuffles and dropout) in one round.

    "client-<k>", as partition names its shards (k in ASCII digits, no leading
    zero, below 10**9), is client k; any other id is 2**32 plus the crc32 of its
    UTF-8 bytes. Only the mix is masked to 64 bits, so client 0 at round 0 keeps
    any base seed and a one-client federation replays centralized training.
    """
    match = re.fullmatch(r"client-(0|[1-9][0-9]{0,8})", client_id)
    ordinal = int(match[1]) if match else (1 << 32) + zlib.crc32(client_id_bytes(client_id))
    return seed ^ ((ordinal * _MIX_CLIENT + round_index * _MIX_ROUND) & _MASK64)


def partition_indices(n: int, n_clients: int, seed: int) -> list[np.ndarray]:
    """Shuffle 0..n-1, cut into contiguous blocks (the first n % n_clients one longer), sort each.

    Sorting each shard back into dataset order makes membership the only
    thing the shuffle decides.
    """
    if n < n_clients:
        raise TooFewSamples(f"{n} samples cannot cover {n_clients} clients")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(block) for block in np.array_split(perm, n_clients)]


def partition(dataset: Dataset, n_clients: int, seed: int) -> list[ClientShard]:
    """IID shuffle and near-equal split of the dataset across clients."""
    blocks = partition_indices(len(dataset), n_clients, seed)
    return [ClientShard(f"client-{k}", dataset.subset(block))
            for k, block in enumerate(blocks)]


def local_train(global_params: ModelParams, shard: ClientShard, config: TrainConfig,
                round_index: int = 0, cores: Optional[int] = None) -> ClientUpdate:
    """One client's round: copy the global model, fit on the shard only, on *cores*.

    The round's reports are computed on the aggregate, so the client skips
    fit's per-epoch accuracy passes.
    """
    if len(shard) == 0:
        raise EmptyShard(f"client {shard.client_id} has no samples")
    rng = np.random.default_rng(client_stream_seed(config.seed, shard.client_id, round_index))
    params, _ = fit(global_params, shard.samples, config, rng, score_train=False, cores=cores)
    return ClientUpdate(client_id=shard.client_id, round_index=round_index,
                        params=params, n_samples=len(shard))


def aggregate(updates: Sequence[ClientUpdate]) -> ModelParams:
    """Sample-count-weighted mean of the client parameters.

    Updates are summed in sorted client_id order and accumulated in double
    precision before casting back, so the result is order independent and
    identical inputs aggregate to themselves exactly. Each tensor is summed
    in blocks of _BLOCK elements through two small float64 buffers and each
    block is cast straight into the output, so the only large allocation is
    the result; every element sees the same operations as a whole-tensor sum.
    """
    if not updates:
        raise EmptyUpdateSet("no client updates to aggregate")
    ordered = sorted(updates, key=lambda u: u.client_id)
    rounds = {u.round_index for u in ordered}
    if len(rounds) != 1:
        raise RoundMismatch(f"updates span rounds {sorted(rounds)}")
    names = ordered[0].params.named()
    for u in ordered[1:]:
        for name, arr in u.params.named().items():
            if arr.shape != names[name].shape:
                raise ShapeMismatch(f"update {u.client_id} has {name} of shape {arr.shape}")
    total = sum(u.n_samples for u in ordered)
    weights = [u.n_samples / total for u in ordered]
    acc, tmp = np.empty(_BLOCK), np.empty(_BLOCK)
    merged = {}
    for name, first in names.items():
        merged[name] = np.empty(first.shape, first.dtype)
        out = merged[name].reshape(-1)
        sources = [u.params.named()[name].reshape(-1) for u in ordered]
        for start in range(0, out.size, _BLOCK):
            stop = min(start + _BLOCK, out.size)
            a, t = acc[: stop - start], tmp[: stop - start]
            np.multiply(sources[0][start:stop], weights[0], out=a, dtype=np.float64)
            for src, w in zip(sources[1:], weights[1:]):
                a += np.multiply(src[start:stop], w, out=t, dtype=np.float64)
            np.add(a, 0.0, out=out[start:stop])  # + 0.0: a sum of signed zeros is +0.0
    return ModelParams(**merged)


def evaluate_model(params: ModelParams, dataset: Dataset,
                   threshold: float = 0.5) -> EvalReport:
    """Confusion matrix and derived metrics of the model on a dataset."""
    labels, _ = predict(params, dataset.images, threshold)
    return precision_recall_f1(confusion(labels, dataset.labels))


def run_federation(dataset: Dataset, fed_config: FedConfig,
                   train_config: TrainConfig,
                   val_set: Optional[Dataset] = None,
                   ) -> tuple[ModelParams, list[EvalReport]]:
    """Broadcast, train locally on every client, aggregate; one report per round.

    A round's clients train at the same time in a pool of min(K, 2 * usable
    cores) threads, up to two per core, and each client's local_train is
    passed max(1, cores // threads) cores, which its fit takes its lanes
    from: on two cores, three clients train at once on one lane each.
    numpy releases the GIL in the matmuls and ufuncs that do the work. The
    first failing client, in shard order, raises once every client of the
    round has finished.

    The global model is seeded from train_config.seed; the shard layout from
    fed_config.seed. Reports are computed on val_set when given, otherwise
    on the training data itself.
    """
    local_cfg = replace(train_config, epochs=fed_config.local_epochs,
                        batch_size=fed_config.batch_size,
                        learning_rate=fed_config.learning_rate)
    shards = partition(dataset, fed_config.n_clients, fed_config.seed)
    cores = _usable_cores()
    workers = min(len(shards), 2 * cores)  # the cap bounds the live fits' buffers
    share = max(1, cores // workers)
    with ThreadPoolExecutor(workers) as pool:
        return run_rounds(
            init_params(train_config.side, train_config.seed), fed_config.n_rounds,
            lambda params, r: [pool.submit(local_train, params, s, local_cfg, r, share)
                               for s in shards],
            dataset, val_set)


def run_rounds(global_params: ModelParams, n_rounds: int,
               start_round: Callable[[ModelParams, int], list[Future]],
               train_set: Optional[Dataset] = None, val_set: Optional[Dataset] = None,
               ) -> tuple[ModelParams, list[EvalReport]]:
    """FedAvg from *global_params*; start_round(params, round_index) starts
    the round's client updates and returns their futures in client order.

    Holding no model meanwhile, each round waits for every update, raises
    the first failure in client order (cancelling nothing), aggregates, and
    reports when a train or a val set is given.
    """
    reports: list[EvalReport] = []
    for round_index in range(n_rounds):
        updates = start_round(global_params, round_index)
        del global_params  # the clients hold the model for as long as they need it
        wait(updates)
        global_params = aggregate([update.result() for update in updates])
        del updates  # the futures would keep the updates alive
        if train_set or val_set:
            reports.append(round_report(global_params, round_index, train_set, val_set))
    return global_params, reports


def round_report(params: ModelParams, round_index: int, train_set: Optional[Dataset],
                 val_set: Optional[Dataset]) -> EvalReport:
    """Report on val_set when it has samples, else on train_set, whose one
    predict pass then also gives the train accuracy; None without a train
    set. A set with no samples is false, so it counts as not given."""
    if val_set:
        train_acc = accuracy(params, train_set) if train_set else None
        report = evaluate_model(params, val_set)
        val_acc = report.accuracy
    else:
        report = evaluate_model(params, train_set)
        train_acc, val_acc = report.accuracy, None
    return with_history(report, [history_row(round_index, train_acc, val_acc)])
