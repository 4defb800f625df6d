"""Command-line entry point wiring the whole pipeline together.

Settings resolve in precedence order: explicit flag, config file (INI
sections [synth], [train], [fed], keys named like the flags), the
--preset bundle, the FEDRANSOM_SEED environment variable (seeds only),
then built-in defaults. Built-in training defaults match the reference
hyperparameters (side 300, lr 0.006, batch 64, 10 epochs; federation
3 clients, 30 rounds, 30 local epochs); --preset desk scales everything
down to laptop size.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, corpus, fedavg, fedwire, metrics, nn
from .errors import FedransomError
from .imaging import bytes_to_image

PROG = "fedransom"

_DESK_PRESET = {
    "side": 64,
    "n_per_class": 300,
    "epochs": 3,
    "rounds": 10,
    "local_epochs": 3,
    "batch": 16,
}

_BUILTIN = {
    "n_per_class": 300,
    "min_size": corpus.DEFAULT_SIZE_RANGE[0],
    "max_size": corpus.DEFAULT_SIZE_RANGE[1],
    "side": 300,
    "epochs": 10,
    "batch": 64,
    "lr": 0.006,
    "dropout": 0.25,
    "clients": 3,
    "rounds": 30,
    "local_epochs": 30,
    "threshold": 0.5,
    "accept_timeout": fedwire.DEFAULT_IDLE_TIMEOUT,
    "idle_timeout": fedwire.DEFAULT_IDLE_TIMEOUT,
}

_SECTION = {
    "n_per_class": "synth", "min_size": "synth", "max_size": "synth",
    "side": "train", "epochs": "train", "batch": "train", "lr": "train",
    "dropout": "train", "threshold": "train",
    "clients": "fed", "rounds": "fed", "local_epochs": "fed",
    "accept_timeout": "fed", "idle_timeout": "fed",
}


class _Settings:
    """Flag > config file > preset > env (seed only) > builtin."""

    def __init__(self, args: argparse.Namespace, parser: argparse.ArgumentParser):
        self.args = args
        self.parser = parser
        self.file = configparser.ConfigParser(interpolation=None)
        if getattr(args, "config", None):
            if not Path(args.config).is_file():
                parser.error(f"config file not found: {args.config}")
            try:
                self.file.read(args.config)
            except configparser.Error as exc:
                parser.error(f"bad config file {args.config}: {exc}")
        self.preset = _DESK_PRESET if getattr(args, "preset", None) == "desk" else {}

    def get(self, name: str, cast=int):
        val = getattr(self.args, name, None)
        if val is not None:
            return val
        section = _SECTION.get(name, "train")
        key = name.replace("-", "_")
        if self.file.has_option(section, key):
            try:
                return cast(self.file.get(section, key))
            except ValueError:
                self.parser.error(f"bad value for {key} in [{section}]")
        if name in self.preset:
            return self.preset[name]
        return _BUILTIN[name]

    @property
    def seed(self) -> int:
        """The first seed given, which must be a non-negative integer."""
        given = [("--seed", self.args.seed)]
        given += [(f"seed in [{section}]", self.file.get(section, "seed", fallback=None))
                  for section in ("train", "fed", "synth")]
        given.append(("FEDRANSOM_SEED", os.environ.get("FEDRANSOM_SEED")))
        for where, value in given:
            if value is None:
                continue
            try:
                seed = int(value)
            except ValueError:
                self.parser.error(f"{where} is not an integer: {value!r}")
            if seed < 0:
                self.parser.error(f"{where} must be >= 0, got {seed}")
            return seed
        return 0

    def train_config(self, epochs_key: str = "epochs") -> nn.TrainConfig:
        try:
            return nn.TrainConfig(
                learning_rate=self.get("lr", float),
                batch_size=self.get("batch"),
                epochs=self.get(epochs_key),
                dropout_rate=self.get("dropout", float),
                side=self.get("side"),
                seed=self.seed,
            )
        except ValueError as exc:
            self.parser.error(str(exc))

    def fed_config(self) -> fedavg.FedConfig:
        try:
            return fedavg.FedConfig(
                n_clients=self.get("clients"),
                n_rounds=self.get("rounds"),
                local_epochs=self.get("local_epochs"),
                batch_size=self.get("batch"),
                learning_rate=self.get("lr", float),
                seed=self.seed,
            )
        except ValueError as exc:
            self.parser.error(str(exc))


def _host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return (host or "127.0.0.1", int(port))


def _print_report(report: metrics.EvalReport) -> None:
    cm = report.confusion
    print(f"confusion  tn={cm.tn} fp={cm.fp} fn={cm.fn} tp={cm.tp}")
    for c, name in enumerate(metrics.CLASS_NAMES):
        print(f"{name:<10} precision={report.precision[c]:.4f} "
              f"recall={report.recall[c]:.4f} f1={report.f1[c]:.4f}")
    print(f"accuracy   {report.accuracy:.4f}")


def _load(manifest_path: str, side: int):
    return corpus.load_dataset(corpus.read_manifest(manifest_path), side)


def _finish(args, reports: list[metrics.EvalReport], params=None) -> int:
    """End a run: save --checkpoint-out when there is a model, then print the
    last report, its history the rows of every report, and write --report-out."""
    if params is not None:
        checkpoint.save_params(params, args.checkpoint_out)
        print(f"saved checkpoint to {args.checkpoint_out}")
    if reports:
        report = metrics.with_history(reports[-1], [row for r in reports for row in r.history])
        _print_report(report)
        if args.report_out:
            fmt = "csv" if args.report_out.endswith(".csv") else "json"
            metrics.emit_report(report, args.report_out, fmt)
            print(f"wrote report to {args.report_out}")
    return 0


def cmd_synth(args, parser) -> int:
    cfg = _Settings(args, parser)
    n = cfg.get("n_per_class")
    lo, hi = cfg.get("min_size"), cfg.get("max_size")
    if n < 1:
        parser.error("--n-per-class must be >= 1")
    if lo < corpus.MIN_FILE_SIZE or hi < lo:
        parser.error("--min-size/--max-size must satisfy 1024 <= min <= max")
    manifest = corpus.build_corpus(n, (lo, hi), cfg.seed, args.out)
    base = Path(args.out) / "manifest.jsonl"
    corpus.write_manifest(manifest, base)
    print(f"wrote {len(manifest)} files under {args.out}")
    if len(manifest) >= 10:
        parts = corpus.split(manifest, corpus.SplitSpec(seed=cfg.seed))
        for part, path in zip(parts, corpus.split_paths(base)):
            corpus.write_manifest(part, path)
            print(f"wrote {path} ({len(part)} entries)")
    else:
        print("corpus too small for a train/val/test split; base manifest only")
    return 0


def cmd_train(args, parser) -> int:
    cfg = _Settings(args, parser)
    train_cfg = cfg.train_config()
    dataset = _load(args.manifest, train_cfg.side)
    val = _load(args.val_manifest, train_cfg.side) if args.val_manifest else None
    params = nn.init_params(train_cfg.side, train_cfg.seed)
    rng = np.random.default_rng(train_cfg.seed)
    params, history = nn.fit(params, dataset, train_cfg, rng, val)
    # a set with no samples is false: it counts as not given, as in round_report
    report = fedavg.evaluate_model(params, val or dataset)
    rows = [metrics.history_row(h.epoch, h.train_accuracy, h.val_accuracy)
            for h in history]
    return _finish(args, [metrics.with_history(report, rows)], params)


def cmd_fedtrain(args, parser) -> int:
    cfg = _Settings(args, parser)
    train_cfg = cfg.train_config(epochs_key="local_epochs")
    fed_cfg = cfg.fed_config()
    dataset = _load(args.manifest, train_cfg.side)
    val = _load(args.val_manifest, train_cfg.side) if args.val_manifest else None
    params, reports = fedavg.run_federation(dataset, fed_cfg, train_cfg, val)
    return _finish(args, reports, params)


def cmd_serve(args, parser) -> int:
    if args.report_out and not (args.val_manifest or args.train_manifest):
        parser.error("--report-out needs --val-manifest or --train-manifest")
    cfg = _Settings(args, parser)
    train_cfg = cfg.train_config(epochs_key="local_epochs")
    fed_cfg = cfg.fed_config()
    val = _load(args.val_manifest, train_cfg.side) if args.val_manifest else None
    train_set = _load(args.train_manifest, train_cfg.side) if args.train_manifest else None
    params, reports = fedwire.serve(
        args.bind, fed_cfg, train_cfg, val_set=val, train_set=train_set,
        accept_timeout=cfg.get("accept_timeout", float),
        idle_timeout=cfg.get("idle_timeout", float))
    return _finish(args, reports, params)


def cmd_client(args, parser) -> int:
    cfg = _Settings(args, parser)
    train_cfg = cfg.train_config(epochs_key="local_epochs")
    shard_data = _load(args.manifest, train_cfg.side)
    shard = fedavg.ClientShard(args.client_id, shard_data)
    rc = fedwire.client_join(args.connect, shard, train_cfg,
                             idle_timeout=cfg.get("idle_timeout", float))
    print(f"client {args.client_id} finished with status {rc}")
    return rc


def cmd_eval(args, parser) -> int:
    cfg = _Settings(args, parser)
    params = checkpoint.load_params(args.checkpoint)
    dataset = _load(args.manifest, params.side)
    return _finish(args, [fedavg.evaluate_model(params, dataset, cfg.get("threshold", float))])


def cmd_predict(args, parser) -> int:
    params = checkpoint.load_params(args.checkpoint)
    threshold = _Settings(args, parser).get("threshold", float)
    for name in args.files:
        with open(name, "rb") as fh:  # the image uses only the first side*side bytes
            image = bytes_to_image(fh.read(params.side * params.side), params.side)
        labels, probs = nn.predict(params, image.pixels[None, None], threshold)
        label = int(labels[0])
        print(f"{name}\t{metrics.CLASS_NAMES[label]}\t{probs[0, 1]:.6f}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI file with [synth]/[train]/[fed] sections")
    sub.add_argument("--preset", choices=["desk"],
                     help="desk: side 64, 300/class, 10 rounds x 3 epochs, batch 16")
    sub.add_argument("--seed", type=int, help="master seed (env FEDRANSOM_SEED is the fallback)")


def _add_train_opts(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--side", type=int, help="image side length in pixels")
    sub.add_argument("--batch", type=int, help="mini-batch size")
    sub.add_argument("--lr", type=float, help="learning rate")
    sub.add_argument("--dropout", type=float, help="dropout rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Ransomware-vs-benign binary triage with a federated CNN")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.add_argument("--min-size", dest="min_size", type=int)
    p.add_argument("--max-size", dest="max_size", type=int)
    _add_common(p)
    p.set_defaults(handler=cmd_synth)

    p = subs.add_parser("train", help="centralized training on one manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--val-manifest", dest="val_manifest")
    p.add_argument("--epochs", type=int)
    p.add_argument("--checkpoint-out", dest="checkpoint_out", required=True)
    p.add_argument("--report-out", dest="report_out")
    _add_train_opts(p)
    _add_common(p)
    p.set_defaults(handler=cmd_train)

    p = subs.add_parser("fedtrain", help="in-process federated training")
    p.add_argument("--manifest", required=True)
    p.add_argument("--val-manifest", dest="val_manifest")
    p.add_argument("--clients", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--local-epochs", dest="local_epochs", type=int)
    p.add_argument("--checkpoint-out", dest="checkpoint_out", required=True)
    p.add_argument("--report-out", dest="report_out")
    _add_train_opts(p)
    _add_common(p)
    p.set_defaults(handler=cmd_fedtrain)

    p = subs.add_parser("serve", help="aggregation server for networked federation")
    p.add_argument("--bind", type=_host_port, required=True, metavar="HOST:PORT")
    p.add_argument("--clients", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--local-epochs", dest="local_epochs", type=int)
    p.add_argument("--val-manifest", dest="val_manifest")
    p.add_argument("--train-manifest", dest="train_manifest")
    p.add_argument("--checkpoint-out", dest="checkpoint_out", required=True)
    p.add_argument("--report-out", dest="report_out")
    p.add_argument("--accept-timeout", dest="accept_timeout", type=float)
    p.add_argument("--idle-timeout", dest="idle_timeout", type=float)
    _add_train_opts(p)
    _add_common(p)
    p.set_defaults(handler=cmd_serve)

    p = subs.add_parser("client", help="data-owner client for networked federation")
    p.add_argument("--connect", type=_host_port, required=True, metavar="HOST:PORT")
    p.add_argument("--manifest", required=True, help="this client's own data manifest")
    p.add_argument("--client-id", dest="client_id", default="client-0")
    p.add_argument("--local-epochs", dest="local_epochs", type=int)
    p.add_argument("--idle-timeout", dest="idle_timeout", type=float)
    _add_train_opts(p)
    _add_common(p)
    p.set_defaults(handler=cmd_client)

    p = subs.add_parser("eval", help="evaluate a checkpoint against a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report-out", dest="report_out")
    p.add_argument("--threshold", type=float)
    _add_common(p)
    p.set_defaults(handler=cmd_eval)

    p = subs.add_parser("predict", help="label individual binaries")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("files", nargs="+", metavar="FILE")
    _add_common(p)
    p.set_defaults(handler=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (FedransomError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
