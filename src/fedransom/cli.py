"""Command-line entry point wiring the whole pipeline together.

Every setting is declared once, in _SETTINGS: its INI section, built-in
value, type, --preset desk value and help. The table generates each
subcommand's setting flags, and one resolve step after parsing fills each
setting the command takes and no flag gave: from the config file (INI
sections [synth], [train], [fed], each key the flag name with - turned
into _), then --preset desk, then the built-in. The seed may sit in any
section: --seed, then [train], [fed], [synth], FEDRANSOM_SEED, then 0.
Built-in values match the reference hyperparameters (side 300, lr 0.006,
batch 64, 10 epochs; federation 3 clients, 30 rounds, 30 local epochs);
--preset desk scales everything down to laptop size.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, corpus, fedavg, fedwire, metrics, nn
from .errors import FedransomError
from .imaging import bytes_to_image

PROG = "fedransom"


def _number(within, expected: str):
    """A type function for a number *within* the bounds that *expected* names."""
    def parse(text: str) -> float:
        try:
            if within(float(text)):  # nan is within no bounds
                return float(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_seconds = _number(lambda x: 0 < x < math.inf, "a positive, finite number of seconds")
_probability = _number(lambda x: 0 <= x <= 1, "a number in [0, 1]")


# name: (INI section, type, built-in, --preset desk value or None, help)
_SETTINGS = {
    "n_per_class": ("synth", int, 300, 300, "files per class"),
    "min_size": ("synth", int, corpus.DEFAULT_SIZE_RANGE[0], None, "smallest file in bytes"),
    "max_size": ("synth", int, corpus.DEFAULT_SIZE_RANGE[1], None, "largest file in bytes"),
    "side": ("train", int, 300, 64, "image side length in pixels"),
    "epochs": ("train", int, 10, 3, "training epochs"),
    "batch": ("train", int, 64, 16, "mini-batch size"),
    "lr": ("train", float, 0.006, None, "learning rate"),
    "dropout": ("train", float, 0.25, None, "dropout rate"),
    "threshold": ("train", _probability, 0.5, None, "ransomware when its probability exceeds this"),
    "clients": ("fed", int, 3, None, "number of clients"),
    "rounds": ("fed", int, 30, 10, "federation rounds"),
    "local_epochs": ("fed", int, 30, 3, "client epochs per round"),
    "accept_timeout": ("fed", _seconds, fedwire.DEFAULT_IDLE_TIMEOUT, None,
                       "seconds to wait for every client to join"),
    "idle_timeout": ("fed", _seconds, fedwire.DEFAULT_IDLE_TIMEOUT, None,
                     "seconds to wait for the peer's next message"),
}
_KEYS = {section: {"seed"} | {name for name, spec in _SETTINGS.items() if spec[0] == section}
         for section in ("synth", "train", "fed")}


def _read_config(path: str, parser: argparse.ArgumentParser) -> dict[str, dict[str, str]]:
    """The file's values by section, [DEFAULT]'s keys in each section it has. A file
    that cannot be read, or a section or key that is no setting, is a usage error."""
    if not Path(path).is_file():
        parser.error(f"config file not found: {path}")
    # no [header] can name "", so [DEFAULT] reads as a section of its own
    file = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        file.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        parser.error(f"bad config file {path}: {exc}")
    sections = {name: dict(file[name]) for name in file.sections()}
    defaults = sections.pop("DEFAULT", {})
    for section, keys in [("DEFAULT", defaults), *sections.items()]:
        known = set().union(*_KEYS.values()) if section == "DEFAULT" else _KEYS.get(section)
        if known is None:
            parser.error(f"unknown section [{section}] in {path}")
        for key in sorted(keys.keys() - known):
            parser.error(f"unknown key {key} in [{section}] of {path}")
    return {name: {**defaults, **keys} for name, keys in sections.items()}


def _seed(args: argparse.Namespace, file: dict, parser: argparse.ArgumentParser) -> int:
    """The first seed given, which must be a non-negative integer."""
    given = [("--seed", args.seed)]
    given += [(f"seed in [{section}]", file.get(section, {}).get("seed"))
              for section in ("train", "fed", "synth")]
    given.append(("FEDRANSOM_SEED", os.environ.get("FEDRANSOM_SEED")))
    for where, value in given:
        if value is None:
            continue
        try:
            seed = int(value)
        except ValueError:
            parser.error(f"{where} is not an integer: {value!r}")
        if seed < 0:
            parser.error(f"{where} must be >= 0, got {seed}")
        return seed
    return 0


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill each setting of the command that no flag gave: config file, then
    --preset desk, then built-in; then the seed, for the commands that use one."""
    file = _read_config(args.config, parser) if args.config else {}
    for name in args.settings:
        if getattr(args, name) is not None:
            continue
        section, kind, builtin, desk, _ = _SETTINGS[name]
        text = file.get(section, {}).get(name)
        if text is not None:
            try:
                setattr(args, name, kind(text))
            except (ValueError, argparse.ArgumentTypeError):
                parser.error(f"bad value for {name} in [{section}]")
        else:
            setattr(args, name, desk if args.preset and desk is not None else builtin)
    if args.command not in ("eval", "predict"):  # neither reads the seed: a bad one is no error
        args.seed = _seed(args, file, parser)


def _train_config(args, parser, epochs: int) -> nn.TrainConfig:
    """The resolved training settings; a value TrainConfig rejects is a usage error."""
    try:
        return nn.TrainConfig(learning_rate=args.lr, batch_size=args.batch, epochs=epochs,
                              dropout_rate=args.dropout, side=args.side, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))


def _fed_config(args, parser, train_cfg: nn.TrainConfig) -> fedavg.FedConfig:
    """The federation's settings, its local epochs, batch, learning rate and seed
    those of *train_cfg*; a value FedConfig rejects is a usage error."""
    try:
        return fedavg.FedConfig(
            n_clients=args.clients, n_rounds=args.rounds, local_epochs=train_cfg.epochs,
            batch_size=train_cfg.batch_size, learning_rate=train_cfg.learning_rate,
            seed=train_cfg.seed)
    except ValueError as exc:
        parser.error(str(exc))


def _host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not (port.isdecimal() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(f"expected HOST:PORT with a port in 0-65535, got {text!r}")
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
    lo, hi = args.min_size, args.max_size
    if args.n_per_class < 1:
        parser.error("--n-per-class must be >= 1")
    if lo < corpus.MIN_FILE_SIZE or hi < lo:
        parser.error("--min-size/--max-size must satisfy 1024 <= min <= max")
    manifest = corpus.build_corpus(args.n_per_class, (lo, hi), args.seed, args.out)
    base = Path(args.out) / "manifest.jsonl"
    corpus.write_manifest(manifest, base)
    print(f"wrote {len(manifest)} files under {args.out}")
    if len(manifest) >= 10:
        parts = corpus.split(manifest, corpus.SplitSpec(seed=args.seed))
        for part, path in zip(parts, corpus.split_paths(base)):
            corpus.write_manifest(part, path)
            print(f"wrote {path} ({len(part)} entries)")
    else:
        print("corpus too small for a train/val/test split; base manifest only")
    return 0


def cmd_train(args, parser) -> int:
    train_cfg = _train_config(args, parser, args.epochs)
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
    train_cfg = _train_config(args, parser, args.local_epochs)
    fed_cfg = _fed_config(args, parser, train_cfg)
    dataset = _load(args.manifest, train_cfg.side)
    val = _load(args.val_manifest, train_cfg.side) if args.val_manifest else None
    params, reports = fedavg.run_federation(dataset, fed_cfg, train_cfg, val)
    return _finish(args, reports, params)


def cmd_serve(args, parser) -> int:
    if args.report_out and not (args.val_manifest or args.train_manifest):
        parser.error("--report-out needs --val-manifest or --train-manifest")
    train_cfg = _train_config(args, parser, args.local_epochs)
    fed_cfg = _fed_config(args, parser, train_cfg)
    val = _load(args.val_manifest, train_cfg.side) if args.val_manifest else None
    train_set = _load(args.train_manifest, train_cfg.side) if args.train_manifest else None
    params, reports = fedwire.serve(
        args.bind, fed_cfg, train_cfg, val_set=val, train_set=train_set,
        accept_timeout=args.accept_timeout, idle_timeout=args.idle_timeout)
    return _finish(args, reports, params)


def cmd_client(args, parser) -> int:
    if args.local_epochs < 1:  # FedConfig's rule, which serve and fedtrain apply
        parser.error("local_epochs must be positive")
    try:
        fedavg.client_id_bytes(args.client_id)
    except ValueError as exc:
        parser.error(str(exc))
    train_cfg = _train_config(args, parser, args.local_epochs)
    shard_data = _load(args.manifest, train_cfg.side)
    shard = fedavg.ClientShard(args.client_id, shard_data)
    rc = fedwire.client_join(args.connect, shard, train_cfg, idle_timeout=args.idle_timeout)
    print(f"client {args.client_id} finished with status {rc}")
    return rc


def cmd_eval(args, parser) -> int:
    params = checkpoint.load_params(args.checkpoint)
    dataset = _load(args.manifest, params.side)
    return _finish(args, [fedavg.evaluate_model(params, dataset, args.threshold)])


def cmd_predict(args, parser) -> int:
    params = checkpoint.load_params(args.checkpoint)
    for name in args.files:
        with open(name, "rb") as fh:  # the image uses only the first side*side bytes
            image = bytes_to_image(fh.read(params.side * params.side), params.side)
        labels, probs = nn.predict(params, image[None, None], args.threshold)
        label = int(labels[0])
        print(f"{name}\t{metrics.CLASS_NAMES[label]}\t{probs[0, 1]:.6f}")
    return 0


_TRAINING = ("side", "batch", "lr", "dropout")
_FED = ("clients", "rounds", "local_epochs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Ransomware-vs-benign binary triage with a federated CNN")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_synth, settings=("n_per_class", "min_size", "max_size"))

    p = subs.add_parser("train", help="centralized training on one manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--val-manifest")
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--report-out")
    p.set_defaults(handler=cmd_train, settings=("epochs", *_TRAINING))

    p = subs.add_parser("fedtrain", help="in-process federated training")
    p.add_argument("--manifest", required=True)
    p.add_argument("--val-manifest")
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--report-out")
    p.set_defaults(handler=cmd_fedtrain, settings=_FED + _TRAINING)

    p = subs.add_parser("serve", help="aggregation server for networked federation")
    p.add_argument("--bind", type=_host_port, required=True, metavar="HOST:PORT")
    p.add_argument("--val-manifest")
    p.add_argument("--train-manifest")
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--report-out")
    p.set_defaults(handler=cmd_serve,
                   settings=(*_FED, "accept_timeout", "idle_timeout", *_TRAINING))

    p = subs.add_parser("client", help="data-owner client for networked federation")
    p.add_argument("--connect", type=_host_port, required=True, metavar="HOST:PORT")
    p.add_argument("--manifest", required=True, help="this client's own data manifest")
    p.add_argument("--client-id", default="client-0")
    p.set_defaults(handler=cmd_client, settings=("local_epochs", "idle_timeout", *_TRAINING))

    p = subs.add_parser("eval", help="evaluate a checkpoint against a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report-out")
    p.set_defaults(handler=cmd_eval, settings=("threshold",))

    p = subs.add_parser("predict", help="label individual binaries")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(handler=cmd_predict, settings=("threshold",))

    desk = ", ".join(f"{name} {spec[3]}" for name, spec in _SETTINGS.items() if spec[3] is not None)
    for p in subs.choices.values():
        for name in p.get_default("settings"):
            section, kind, builtin, _, text = _SETTINGS[name]
            p.add_argument("--" + name.replace("_", "-"), type=kind,
                           help=f"{text} ([{section}] {name}, default {builtin})")
        p.add_argument("--config", help="INI file with [synth]/[train]/[fed] sections")
        p.add_argument("--preset", choices=["desk"], help=f"desk: {desk}")
        p.add_argument("--seed", type=int, help="master seed (env FEDRANSOM_SEED is the fallback)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _resolve(args, parser)
    try:
        return args.handler(args, parser)
    except (FedransomError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
