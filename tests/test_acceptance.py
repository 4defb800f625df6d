"""Release criteria, one test per criterion, at their stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. The desk-scale fixtures (600-sample synthetic corpus at side
64, 3 clients, 10 rounds x 3 local epochs, batch 16, lr 0.006) are shared
across the slower criteria.
"""

import math
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import (hinge_safe_bias, make_loss_fn, max_relative_error,
                     numeric_gradients, params_equal, random_params, shannon_entropy)

from fedransom import checkpoint, corpus, fedavg, fedwire, metrics, nn
from fedransom.data import one_hot
from fedransom.imaging import bytes_to_image


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL  {description}")
        raise
    print(f"criterion {number} PASS  {description}")


DESK_SEED = 42
DESK_SIDE = 64
DESK_FED = fedavg.FedConfig(n_clients=3, n_rounds=10, local_epochs=3,
                            batch_size=16, learning_rate=0.006, seed=DESK_SEED)
DESK_TRAIN = nn.TrainConfig(learning_rate=0.006, batch_size=16, epochs=3,
                            side=DESK_SIDE, seed=DESK_SEED)


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    t0 = time.perf_counter()
    out = tmp_path_factory.mktemp("desk")
    manifest = corpus.build_corpus(300, (4096, 8192), seed=DESK_SEED, out_dir=out)
    train_m, val_m, test_m = corpus.split(manifest, DESK_SEED)
    sets = {
        "train": corpus.load_dataset(train_m, DESK_SIDE),
        "val": corpus.load_dataset(val_m, DESK_SIDE),
        "test": corpus.load_dataset(test_m, DESK_SIDE),
        "elapsed": time.perf_counter() - t0,
    }
    assert (len(sets["train"]), len(sets["val"]), len(sets["test"])) == (480, 60, 60)
    return sets


@pytest.fixture(scope="module")
def desk_federation(desk_corpus):
    t0 = time.perf_counter()
    params, reports = fedavg.run_federation(
        desk_corpus["train"], DESK_FED, DESK_TRAIN, desk_corpus["val"])
    return {"params": params, "reports": reports,
            "elapsed": time.perf_counter() - t0}


def test_criterion_1_gradient_oracle():
    with criterion(1, "analytic gradients match central finite differences"):
        t0 = time.perf_counter()
        side, batch_size = 12, 4
        cfg = nn.TrainConfig(side=side, dropout_rate=0.25)
        rng = np.random.default_rng(1011)
        batch = rng.random((batch_size, 1, side, side))
        labels = one_hot(rng.integers(0, 2, batch_size)).astype(np.float64)
        params = nn.init_params(side, 11).astype(np.float64)
        # keep every pre-activation farther from the ReLU hinge than the
        # finite-difference step can reach, so the sweep stays smooth
        params = hinge_safe_bias(params, batch, margin=2e-3)
        loss_at = make_loss_fn(params, batch, labels, cfg, mask_seed=2011)

        trace = nn.forward(params, batch, cfg, np.random.default_rng(2011), training=True)
        _, analytic = nn.loss_and_grad(trace, labels, params)
        numeric = numeric_gradients(loss_at, params, delta=1e-3)
        worst = max_relative_error(analytic, numeric)
        elapsed = time.perf_counter() - t0
        assert worst < 1e-3, f"max relative error {worst:.2e}"
        assert elapsed < 60.0, f"gradient check took {elapsed:.0f}s"


def test_criterion_2_reference_shapes():
    with criterion(2, "side-300 flatten width 2,880,000 and parameter counts"):
        params = nn.init_params(300, 0)
        assert params.dense_weights.shape[1] == 2_880_000
        assert params.conv_kernels.size + params.conv_bias.size == 320
        assert params.dense_weights.size + params.dense_bias.size == 5_760_002
        assert params.count() == 320 + 5_760_002
        trace = nn.forward(params, np.zeros((1, 1, 300, 300), dtype=np.float32),
                           nn.TrainConfig(side=300))
        assert trace.flat.shape == (1, 2_880_000)


def test_criterion_3_single_client_equivalence(desk_corpus):
    with criterion(3, "one-client federation replays centralized training bit for bit"):
        t0 = time.perf_counter()
        train = desk_corpus["train"]
        fed = fedavg.FedConfig(n_clients=1, n_rounds=1,
                               local_epochs=DESK_TRAIN.epochs,
                               batch_size=DESK_TRAIN.batch_size,
                               learning_rate=DESK_TRAIN.learning_rate, seed=DESK_SEED)
        fed_params, _ = fedavg.run_federation(train, fed, DESK_TRAIN)
        central, _ = nn.fit(nn.init_params(DESK_SIDE, DESK_SEED), train, DESK_TRAIN,
                            np.random.default_rng(DESK_SEED))
        elapsed = time.perf_counter() - t0
        assert params_equal(fed_params, central)
        assert elapsed < 120.0, f"equivalence check took {elapsed:.0f}s"


def test_criterion_4_transport_transparency(desk_corpus, desk_federation):
    with criterion(4, "loopback federation bit-identical to the in-process run"):
        t0 = time.perf_counter()
        shards = fedavg.partition(desk_corpus["train"], DESK_FED.n_clients, DESK_FED.seed)
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()
        holder = {}

        def server():
            try:
                holder["result"] = fedwire.serve(
                    ("ignored", 0), DESK_FED, DESK_TRAIN, listener=listener,
                    accept_timeout=60.0)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                holder["error"] = exc

        local_cfg = DESK_TRAIN  # epochs already equal the per-round local epochs
        threads = [threading.Thread(target=server)]
        threads += [threading.Thread(target=fedwire.client_join,
                                     args=(address, shard, local_cfg))
                    for shard in shards]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=280)
        elapsed = time.perf_counter() - t0
        assert "error" not in holder, holder.get("error")
        wire_params, _ = holder["result"]
        assert params_equal(wire_params, desk_federation["params"])
        assert elapsed < 300.0, f"wire run took {elapsed:.0f}s"


def test_criterion_5_desk_scale_learning(desk_corpus, desk_federation):
    with criterion(5, "desk-scale federation reaches 0.95 accuracy / 0.90 F1"):
        report = fedavg.evaluate_model(desk_federation["params"], desk_corpus["test"])
        total = desk_corpus["elapsed"] + desk_federation["elapsed"]
        assert report.accuracy >= 0.95, f"test accuracy {report.accuracy:.3f}"
        assert report.f1[0] >= 0.90, f"normal-class F1 {report.f1[0]:.3f}"
        assert report.f1[1] >= 0.90, f"ransomware-class F1 {report.f1[1]:.3f}"
        assert total < 900.0, f"desk pipeline took {total:.0f}s"

        # the converged model labels unseen synthetic files correctly
        params = desk_federation["params"]
        fresh_ransom = bytes_to_image(corpus.synth_ransomlike(987654, 6000), DESK_SIDE)
        fresh_benign = bytes_to_image(corpus.synth_benign(987654, 6000), DESK_SIDE)
        labels, _ = nn.predict(params, np.stack(
            [fresh_ransom, fresh_benign])[:, None])
        assert labels.tolist() == [1, 0]


def test_criterion_6_f1_formula_reproduces_reference_table():
    with criterion(6, "F1 of (0.81, 0.90) and (0.90, 0.80) round to 86% and 85%"):
        goodware = metrics.f1_score(0.81, 0.90)
        ransomware = metrics.f1_score(0.90, 0.80)
        assert goodware == pytest.approx(0.8526315789, abs=1e-9)
        assert ransomware == pytest.approx(0.8470588235, abs=1e-9)
        # the reference table carries these as whole percents, 86 and 85
        assert math.ceil(100 * goodware) == 86
        assert math.ceil(100 * ransomware) == 85


def test_criterion_7_fedavg_properties():
    with criterion(7, "fixed point, convexity, permutation invariance on 1000 sets"):
        rng = np.random.default_rng(777)
        side = 8
        for case in range(1000):
            k = int(rng.integers(1, 5))
            counts = [int(rng.integers(1, 100)) for _ in range(k)]
            updates = [
                fedavg.ClientUpdate(f"client-{i}", 0, random_params(side, 1000 + case * 7 + i),
                                    counts[i])
                for i in range(k)
            ]
            merged = fedavg.aggregate(updates)
            for name, arr in merged.named().items():
                stack = np.stack([u.params.named()[name] for u in updates])
                assert (arr >= stack.min(axis=0)).all(), f"convexity low, case {case}"
                assert (arr <= stack.max(axis=0)).all(), f"convexity high, case {case}"

            shuffled = [updates[i] for i in rng.permutation(k)]
            assert params_equal(fedavg.aggregate(shuffled), merged), f"order, case {case}"

            shared = updates[0].params
            clones = [fedavg.ClientUpdate(u.client_id, 0, shared, u.n_samples)
                      for u in updates]
            assert params_equal(fedavg.aggregate(clones), shared), f"fixed point, case {case}"


def test_criterion_8_codec_round_trips():
    with criterion(8, "checkpoint and frame codecs are bit-exact on 1000 instances each"):
        for seed in range(1000):
            params = random_params(side=8, seed=seed)
            again = checkpoint.params_from_bytes(checkpoint.params_to_bytes(params))
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(params.named().values(), again.named().values()))

        rng = np.random.default_rng(88)
        types = sorted(fedwire._KNOWN_TYPES)
        reader, writer = socket.socketpair()
        with reader, writer:
            reader.settimeout(5.0)
            for _ in range(1000):
                msg_type = types[int(rng.integers(len(types)))]
                payload = rng.bytes(int(rng.integers(0, 2048)))
                writer.sendall(fedwire.encode_frame(msg_type, payload))
                frame = fedwire.read_frame(reader)
                assert frame.msg_type == msg_type
                assert frame.payload == payload


def test_criterion_9_corpus_separability_and_split_laws(tmp_path):
    with criterion(9, "entropy gap over 100 seeds and exact split laws at 6000"):
        benign = np.array([shannon_entropy(corpus.synth_benign(s, 65_536))
                           for s in range(100)])
        ransom = np.array([shannon_entropy(corpus.synth_ransomlike(s, 65_536))
                           for s in range(100)])
        gap = ransom.mean() - benign.mean()
        assert gap >= 1.0, f"mean entropy gap {gap:.2f}"

        entries = []
        for label in (0, 1):
            for i in range(3000):
                entries.append(corpus.ManifestEntry(f"{label}/{i}", label, 4096, f"{label}-{i}"))
        manifest = corpus.Manifest(tuple(entries), tmp_path)
        train, val, test = corpus.split(manifest, 1)
        assert (len(train), len(val), len(test)) == (4800, 600, 600)
        for part in (train, val, test):
            labels = part.labels()
            assert abs(int((labels == 0).sum()) - int((labels == 1).sum())) <= 1
        seen = [e.path for part in (train, val, test) for e in part.entries]
        assert len(seen) == len(set(seen)) == 6000
        assert set(seen) == {e.path for e in manifest.entries}
