"""One workload in its own process: set up, run timed cycles, check outputs.

run.py starts this script once per run (and once more, traced, with
--trace 1); it is not meant to be run by hand:

    python3 bench/child.py --workload desk-fed --seed 1 --seconds 25 \
        --data DIR --work DIR --out result.json [--spans spans.json]

A cycle is one unit of user-visible work: for desk-fed a federation plus
the triage of every file, for wire-300 a loopback federation, for
ref-step one reference-scale fit. Cycles repeat until the next one would
end after --seconds (the first always runs); a traced run does exactly
one cycle, so its per-layer figures cover a fixed amount of work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import socket
import statistics
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

LR = 0.006
DROPOUT = 0.25

DESK_SIDE = 64
DESK_CLIENTS = 3
DESK_ROUNDS = 3
DESK_LOCAL_EPOCHS = 3
DESK_BATCH = 16

WIRE_SIDE = 300
WIRE_CLIENTS = 2        # one client thread per core of the 2-core reference machine
WIRE_ROUNDS = 5
WIRE_BATCH = 64

REF_SIDE = 300
REF_BATCH = 64
REF_EPOCHS = 1

EXTRA_SETUPS = 2        # more set-up samples for workloads with few cycles
JOIN_TIMEOUT_S = 120.0

now = time.perf_counter


class Run:
    """State of one workload run: inputs, timings, counts and checks."""

    def __init__(self, args, fr, tracer):
        self.args = args
        self.seed = args.seed
        self.data = Path(args.data)
        self.work = Path(args.work)
        self.fr = fr
        self.tracer = tracer
        self.setups: list[float] = []
        self.round_s: list[float] = []
        self.epoch_s: list[float] = []
        self.triage_rate: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.checks: dict[str, bool] = {}
        self.notes: list[str] = []
        self.extra: dict = {}
        self.wire_bytes = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.notes.append(f"check {name} failed: {detail}")

    def cycles(self, cycle, operations: int, warmup: bool = False) -> None:
        """Repeat *cycle* until the next one would overrun --seconds.

        A cycle that raises a FedransomError counts all of its
        *operations* as failed; the run goes on with the next cycle. With
        *warmup*, the run first does one cycle whose timings are dropped
        (its outputs are still checked). A traced run wraps the layers
        after the warm-up and does exactly one cycle.
        """
        FedransomError = self.fr.errors.FedransomError
        if warmup:
            self.attempted += operations
            cycle()
            for timings in (self.setups, self.round_s, self.epoch_s, self.triage_rate):
                del timings[:]
        if self.tracer is not None:
            self.tracer.install()
        start = now()
        while True:
            began = now()
            self.attempted += operations
            try:
                cycle()
            except FedransomError as exc:
                self.failed += operations
                self.notes.append(f"cycle failed: {type(exc).__name__}: {exc}")
            if self.tracer is not None:
                return
            took = now() - began
            if now() - start + took > self.args.seconds:
                return

    @contextlib.contextmanager
    def untraced(self):
        """Lift the wrappers while the benchmark's own checks call the program."""
        active = self.tracer is not None and self.tracer.installed
        if active:
            self.tracer.uninstall()
        try:
            yield
        finally:
            if active:
                self.tracer.install()


def desk_fed(run: Run) -> None:
    """The desk pipeline: load the 80/10/10 split at side 64, federate in
    process with per-round validation, save the checkpoint, triage all files."""
    fr, data = run.fr, run.data
    from checks import accuracy_and_f1, digest, generator_label, tally

    def setup():
        t = now()
        train = fr.corpus.load_dataset(
            fr.corpus.read_manifest(data / "manifest.train.jsonl"), DESK_SIDE)
        val = fr.corpus.load_dataset(
            fr.corpus.read_manifest(data / "manifest.val.jsonl"), DESK_SIDE)
        run.setups.append(now() - t)
        return train, val

    if run.tracer is None:
        for _ in range(EXTRA_SETUPS):
            setup()

    fed_cfg = fr.fedavg.FedConfig(
        n_clients=DESK_CLIENTS, n_rounds=DESK_ROUNDS, local_epochs=DESK_LOCAL_EPOCHS,
        batch_size=DESK_BATCH, learning_rate=LR, seed=run.seed)
    train_cfg = fr.nn.TrainConfig(
        learning_rate=LR, batch_size=DESK_BATCH, epochs=DESK_LOCAL_EPOCHS,
        dropout_rate=DROPOUT, side=DESK_SIDE, seed=run.seed)
    ckpt = run.work / "desk.frwm"
    everything = data / "manifest.jsonl"

    def cycle():
        train, val = setup()
        t = now()
        params, reports = fr.fedavg.run_federation(train, fed_cfg, train_cfg, val)
        took = now() - t
        run.round_s.append(took / DESK_ROUNDS)
        run.epoch_s.append(took / (DESK_ROUNDS * DESK_LOCAL_EPOCHS))
        fr.checkpoint.save_params(params, ckpt)
        # triage as `fedransom eval` does
        t = now()
        model = fr.checkpoint.load_params(ckpt)
        dataset = fr.corpus.load_dataset(fr.corpus.read_manifest(everything), model.side)
        report = fr.fedavg.evaluate_model(model, dataset)
        run.triage_rate.append(len(dataset) / (now() - t))

        with run.untraced():
            run.digests.append(digest(params))
            run.check("reports_one_per_round", len(reports) == DESK_ROUNDS,
                      f"{len(reports)} reports")
            run.check("checkpoint_round_trip", digest(model) == digest(params))
            # every file labelled, and the report's confusion counts equal the
            # benchmark's own tally of predictions against the generator's labels
            entries = fr.corpus.read_manifest(everything).entries
            truth = [generator_label(e.path) for e in entries]
            predicted, _ = fr.nn.predict(model, dataset.images)
            cm = report.confusion
            run.check("triage_labels_every_file",
                      len(predicted) == len(truth) == cm.total, f"{cm.total} of {len(truth)}")
            run.failed += max(0, len(truth) - cm.total)
            own = tally(predicted, truth)
            run.check("triage_confusion_matches_tally",
                      own == {"tn": cm.tn, "fp": cm.fp, "fn": cm.fn, "tp": cm.tp},
                      f"report {cm} vs tally {own}")
            by_path = dict(zip((e.path for e in entries), predicted))
            test = fr.corpus.read_manifest(data / "manifest.test.jsonl").entries
            acc, f1 = accuracy_and_f1(tally([by_path[e.path] for e in test],
                                            [generator_label(e.path) for e in test]))
            run.extra.setdefault("test_accuracy", []).append(acc)
            run.extra.setdefault("test_f1", []).append(list(f1))
            run.check("test_accuracy_at_least_0.95", acc >= 0.95, f"accuracy {acc:.4f}")
            run.check("test_f1_at_least_0.90", min(f1) >= 0.90, f"f1 {f1}")

    with everything.open() as fh:
        n_files = sum(1 for line in fh if line.strip())
    run.cycles(cycle, DESK_ROUNDS + DESK_CLIENTS * DESK_ROUNDS * DESK_LOCAL_EPOCHS + n_files)


def _wire_configs(run: Run):
    fed_cfg = run.fr.fedavg.FedConfig(
        n_clients=WIRE_CLIENTS, n_rounds=WIRE_ROUNDS, local_epochs=1,
        batch_size=WIRE_BATCH, learning_rate=LR, seed=run.seed)
    train_cfg = run.fr.nn.TrainConfig(
        learning_rate=LR, batch_size=WIRE_BATCH, epochs=1, dropout_rate=DROPOUT,
        side=WIRE_SIDE, seed=run.seed)
    return fed_cfg, train_cfg


def wire_300(run: Run) -> None:
    """A loopback `serve` with one `client_join` thread per client at side 300,
    one sample per client, one local epoch per round and no round report."""
    fr, data = run.fr, run.data
    from checks import BLOB_HEADER, FRAME_HEADER, checkpoint_size, digest, wire_bytes

    fed_cfg, train_cfg = _wire_configs(run)
    joined: list[float] = []

    def cycle():
        t = now()
        dataset = fr.corpus.load_dataset(
            fr.corpus.read_manifest(data / "manifest.jsonl"), WIRE_SIDE)
        shards = fr.fedavg.partition(dataset, WIRE_CLIENTS, run.seed)
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()
        statuses: dict[str, object] = {}

        def client(shard):
            try:
                statuses[shard.client_id] = fr.fedwire.client_join(address, shard, train_cfg)
            except Exception as exc:  # noqa: BLE001 - reported as a check
                statuses[shard.client_id] = exc

        init_params = fr.fedwire.init_params

        def probe(*args, **kwargs):
            # serve initialises the model right after the last HELLO
            try:
                return init_params(*args, **kwargs)
            finally:
                joined.append(now())

        threads = [threading.Thread(target=client, args=(s,)) for s in shards]
        for th in threads:
            th.start()
        del joined[:]
        fr.fedwire.init_params = probe
        try:
            params, _ = fr.fedwire.serve(address, fed_cfg, train_cfg, listener=listener)
            done = now()
        finally:
            fr.fedwire.init_params = init_params
            for th in threads:
                th.join(JOIN_TIMEOUT_S)
        if any(th.is_alive() for th in threads):
            raise RuntimeError("a client thread did not finish")
        if len(joined) != 1:
            raise RuntimeError("serve did not initialise the model through "
                               "fedwire.init_params once; the join probe needs updating")
        run.setups.append(joined[0] - t)
        run.round_s.append((done - joined[0]) / WIRE_ROUNDS)
        run.epoch_s.append((done - joined[0]) / WIRE_ROUNDS)

        with run.untraced():
            run.digests.append(digest(params))
            run.check("clients_finished_cleanly",
                      all(statuses.get(s.client_id) == 0 for s in shards), str(statuses))
            if "frame_layout" not in run.checks:
                frame = fr.fedwire.encode_frame(
                    fr.fedwire.MSG_GLOBAL, fr.fedwire.encode_weight_blob(0, 0, params))
                want = FRAME_HEADER + BLOB_HEADER + checkpoint_size(WIRE_SIDE)
                run.check("frame_layout", len(frame) == want, f"{len(frame)} != {want} bytes")
        # every frame of the traced cycle, from the FRWM and frame layouts
        run.wire_bytes = wire_bytes(WIRE_SIDE, [s.client_id for s in shards], WIRE_ROUNDS)

    # the first cycle runs slower while the allocator settles on its thresholds
    run.cycles(cycle, WIRE_ROUNDS + WIRE_CLIENTS * WIRE_ROUNDS, warmup=True)


def wire_reference(run: Run) -> None:
    """run_federation on the same shards and configuration as wire-300;
    its final weights are what every wire federation must reproduce."""
    fr, data = run.fr, run.data
    from checks import digest
    fed_cfg, train_cfg = _wire_configs(run)
    dataset = fr.corpus.load_dataset(
        fr.corpus.read_manifest(data / "manifest.jsonl"), WIRE_SIDE)
    params, _ = fr.fedavg.run_federation(dataset, fed_cfg, train_cfg)
    run.digests.append(digest(params))


def ref_step(run: Run) -> None:
    """`fit` at the reference hyperparameters: side 300, batch 64, 64 files,
    dropout 0.25."""
    fr, data = run.fr, run.data
    import numpy as np
    from checks import digest, eval_probs_f64, param_count

    def setup():
        t = now()
        dataset = fr.corpus.load_dataset(
            fr.corpus.read_manifest(data / "manifest.jsonl"), REF_SIDE)
        params = fr.nn.init_params(REF_SIDE, run.seed)
        run.setups.append(now() - t)
        return dataset, params

    if run.tracer is None:
        for _ in range(EXTRA_SETUPS):
            setup()

    cfg = fr.nn.TrainConfig(learning_rate=LR, batch_size=REF_BATCH, epochs=REF_EPOCHS,
                            dropout_rate=DROPOUT, side=REF_SIDE, seed=run.seed)

    def cycle():
        dataset, params = setup()
        rng = np.random.default_rng(run.seed)
        t = now()
        params, history = fr.nn.fit(params, dataset, cfg, rng)
        took = now() - t
        del dataset
        run.round_s.append(took)
        run.epoch_s.append(took / REF_EPOCHS)

        with run.untraced():
            run.digests.append(digest(params))
            run.extra["losses"] = [h.train_loss for h in history]
            named = params.named()
            run.check("finite_parameters", all(np.isfinite(a).all() for a in named.values()))
            run.check("side_300_shape_law",
                      params.count() == param_count(REF_SIDE) == 5_760_322
                      and named["dense_weights"].shape == (2, 32 * REF_SIDE * REF_SIDE)
                      and named["conv_kernels"].shape == (32, 1, 3, 3),
                      f"{params.count()} parameters")
            # a few samples: the 6-file test split
            test = fr.corpus.load_dataset(
                fr.corpus.read_manifest(data / "manifest.test.jsonl"), REF_SIDE)
            _, probs = fr.nn.predict(params, test.images)
            want = eval_probs_f64(params, test.images.astype(np.float64))
            gap = float(np.abs(probs.astype(np.float64) - want).max())
            run.extra["f64_prob_gap"] = gap
            run.check("predict_matches_f64_forward", gap <= 1e-4, f"max gap {gap:.3g}")

    run.cycles(cycle, REF_EPOCHS)


WORKLOADS = {"desk-fed": desk_fed, "wire-300": wire_300, "ref-step": ref_step,
             "wire-reference": wire_reference}


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    import ctypes
    import glob
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="trace one cycle and write its spans here")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    t = now()
    import fedransom
    from fedransom import checkpoint, corpus, errors, fedavg, fedwire, nn
    import_s = now() - t
    if Path(fedransom.__file__).resolve().parent != SRC / "fedransom":
        print(f"fedransom was imported from {fedransom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
    fr = SimpleNamespace(checkpoint=checkpoint, corpus=corpus, errors=errors, fedavg=fedavg,
                         fedwire=fedwire, nn=nn)
    run = Run(args, fr, tracer)
    WORKLOADS[args.workload](run)

    layers = None
    if tracer is not None:
        from tracing import cost_per_span_s, layer_metrics
        tracer.uninstall()
        tracer.write(Path(args.spans))
        layers = layer_metrics(tracer.spans)
        layers["trace.spans"] = len(tracer.spans)
        layers["trace.wrapper_s"] = len(tracer.spans) * cost_per_span_s()
        if args.workload == "wire-300":
            run.check("wire_bytes_match_layout", layers["fedwire.bytes"] == run.wire_bytes,
                      f"fedwire.bytes {layers['fedwire.bytes']} != {run.wire_bytes}")

    result = {
        "import_s": import_s,
        "setups": run.setups,
        "setup_s": import_s + statistics.median(run.setups) if run.setups else None,
        "round_s": run.round_s,
        "epoch_s": run.epoch_s,
        "triage_files_per_s": run.triage_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": run.checks,
        "notes": run.notes,
        "digests": run.digests,
        "extra": run.extra,
        "layers": layers,
        "env": {
            "cores": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas_threads": _blas_threads(),
        },
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
