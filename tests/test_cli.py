import argparse
import json
import os
import socket
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from helpers import params_equal, parse_history_csv, parse_report

from fedransom import checkpoint, corpus, fedavg, nn
from fedransom.cli import build_parser, main
from fedransom.errors import CorruptManifest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv):
    return main(list(argv))


def synth_args(out, n=6, seed=5):
    return ["synth", "--out", str(out), "--n-per-class", str(n),
            "--min-size", "1024", "--max-size", "2048", "--seed", str(seed)]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--out", "x", "--bogus")
    assert exc.value.code == 2


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


def test_synth_rejects_zero_per_class(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--out", str(tmp_path), "--n-per-class", "0")
    assert exc.value.code == 2


def test_fedtrain_rejects_zero_clients(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("fedtrain", "--manifest", "m", "--checkpoint-out", "c", "--clients", "0")
    assert exc.value.code == 2


def test_negative_seed_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(*synth_args(tmp_path, seed=-1))
    assert exc.value.code == 2


def test_negative_env_seed_exits_two(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDRANSOM_SEED", "-4")
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--out", str(tmp_path), "--n-per-class", "6")
    assert exc.value.code == 2


def test_non_integer_config_seed_exits_two(tmp_path):
    cfg = tmp_path / "settings.ini"
    cfg.write_text("[synth]\nseed = abc\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--out", str(tmp_path / "out"), "--config", str(cfg))
    assert exc.value.code == 2


def test_percent_sign_in_a_config_value_exits_two(tmp_path):
    cfg = tmp_path / "settings.ini"
    cfg.write_text("[synth]\nn_per_class = 5%\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--out", str(tmp_path / "out"), "--config", str(cfg))
    assert exc.value.code == 2


def test_config_without_a_section_header_exits_two(tmp_path):
    cfg = tmp_path / "settings.ini"
    cfg.write_text("seed = 3\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--out", str(tmp_path / "out"), "--config", str(cfg))
    assert exc.value.code == 2


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    cfg = tmp_path / "settings.ini"
    cfg.write_bytes(b"\xff\xfe")
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--out", str(tmp_path / "out"), "--config", str(cfg))
    assert exc.value.code == 2
    assert "bad config file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_writes_files_and_split_manifests(tmp_path):
    assert run_cli(*synth_args(tmp_path)) == 0
    manifest = corpus.read_manifest(tmp_path / "manifest.jsonl")
    assert len(manifest) == 12
    # per class: val = round(0.1 * 6) = 1, test = 1, remainder 4 to train
    for part, expected in zip(("train", "val", "test"), (8, 2, 2)):
        side_manifest = corpus.read_manifest(tmp_path / f"manifest.{part}.jsonl")
        assert len(side_manifest) == expected


def test_synth_is_reproducible(tmp_path):
    run_cli(*synth_args(tmp_path / "a"))
    run_cli(*synth_args(tmp_path / "b"))
    a = (tmp_path / "a" / "manifest.jsonl").read_text()
    b = (tmp_path / "b" / "manifest.jsonl").read_text()
    assert a == b


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDRANSOM_SEED", "5")
    run_cli("synth", "--out", str(tmp_path / "env"), "--n-per-class", "6",
            "--min-size", "1024", "--max-size", "2048")
    run_cli(*synth_args(tmp_path / "flag", n=6, seed=5))
    assert ((tmp_path / "env" / "manifest.jsonl").read_text()
            == (tmp_path / "flag" / "manifest.jsonl").read_text())


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "settings.ini"
    cfg.write_text("[synth]\nn_per_class = 4\nseed = 9\n")
    run_cli("synth", "--out", str(tmp_path / "fromfile"), "--config", str(cfg),
            "--min-size", "1024", "--max-size", "2048")
    assert len(corpus.read_manifest(tmp_path / "fromfile" / "manifest.jsonl")) == 8
    run_cli("synth", "--out", str(tmp_path / "override"), "--config", str(cfg),
            "--n-per-class", "2", "--min-size", "1024", "--max-size", "2048")
    assert len(corpus.read_manifest(tmp_path / "override" / "manifest.jsonl")) == 4


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    run_cli("synth", "--out", str(out), "--n-per-class", "10",
            "--min-size", "1024", "--max-size", "2048", "--seed", "3")
    return out


def test_train_epoch_zero_equals_initialization(small_corpus, tmp_path):
    ckpt = tmp_path / "init.frwm"
    rc = run_cli("train", "--manifest", str(small_corpus / "manifest.train.jsonl"),
                 "--side", "16", "--epochs", "0", "--batch", "4", "--seed", "8",
                 "--checkpoint-out", str(ckpt))
    assert rc == 0
    assert params_equal(checkpoint.load_params(ckpt), nn.init_params(16, 8))


def test_train_is_reproducible_and_feeds_eval_and_predict(small_corpus, tmp_path, capsys):
    args = ["train", "--manifest", str(small_corpus / "manifest.train.jsonl"),
            "--val-manifest", str(small_corpus / "manifest.val.jsonl"),
            "--side", "16", "--epochs", "2", "--batch", "4", "--lr", "0.006",
            "--seed", "8"]
    ckpt_a, ckpt_b = tmp_path / "a.frwm", tmp_path / "b.frwm"
    report_path = tmp_path / "report.json"
    assert run_cli(*args, "--checkpoint-out", str(ckpt_a),
                   "--report-out", str(report_path)) == 0
    assert run_cli(*args, "--checkpoint-out", str(ckpt_b)) == 0
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()

    report = parse_report(report_path)
    assert len(report.history) == 2

    assert run_cli("eval", "--checkpoint", str(ckpt_a),
                   "--manifest", str(small_corpus / "manifest.test.jsonl"),
                   "--report-out", str(tmp_path / "eval.json")) == 0
    eval_report = parse_report(tmp_path / "eval.json")
    assert eval_report.confusion.total == 2

    sample = next(e.path for e in corpus.read_manifest(
        small_corpus / "manifest.test.jsonl").entries)
    capsys.readouterr()
    assert run_cli("predict", "--checkpoint", str(ckpt_a),
                   str(small_corpus / sample)) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    path, label, prob = line.split("\t")
    assert label in ("normal", "ransomware")
    assert 0.0 <= float(prob) <= 1.0


def test_cli_train_equals_programmatic_fit(small_corpus, tmp_path):
    import numpy as np

    ckpt = tmp_path / "cli.frwm"
    run_cli("train", "--manifest", str(small_corpus / "manifest.train.jsonl"),
            "--side", "16", "--epochs", "2", "--batch", "4", "--lr", "0.006",
            "--seed", "11", "--checkpoint-out", str(ckpt))
    cfg = nn.TrainConfig(learning_rate=0.006, batch_size=4, epochs=2, side=16, seed=11)
    dataset = corpus.load_dataset(
        corpus.read_manifest(small_corpus / "manifest.train.jsonl"), 16)
    params, _ = nn.fit(nn.init_params(16, 11), dataset, cfg, np.random.default_rng(11))
    assert params_equal(checkpoint.load_params(ckpt), params)


def test_single_client_fedtrain_matches_train(small_corpus, tmp_path):
    manifest = str(small_corpus / "manifest.train.jsonl")
    central = tmp_path / "central.frwm"
    federated = tmp_path / "federated.frwm"
    assert run_cli("train", "--manifest", manifest, "--side", "16", "--epochs", "2",
                   "--batch", "4", "--seed", "4", "--checkpoint-out", str(central)) == 0
    assert run_cli("fedtrain", "--manifest", manifest, "--side", "16", "--clients", "1",
                   "--rounds", "1", "--local-epochs", "2", "--batch", "4", "--seed", "4",
                   "--checkpoint-out", str(federated)) == 0
    assert central.read_bytes() == federated.read_bytes()


@pytest.mark.parametrize("command, error", [
    ("train", "cannot fit on an empty dataset"),
    ("fedtrain", "0 samples cannot cover 3 clients"),
])
def test_training_on_an_empty_manifest_exits_one_with_one_error_line(tmp_path, capsys,
                                                                     command, error):
    (tmp_path / "empty.jsonl").write_text("")
    rc = run_cli(command, "--manifest", str(tmp_path / "empty.jsonl"), "--side", "16",
                 "--checkpoint-out", str(tmp_path / "never.frwm"))
    assert rc == 1
    assert capsys.readouterr().err == f"fedransom: error: {error}\n"
    assert not (tmp_path / "never.frwm").exists()


def test_client_on_an_empty_manifest_exits_one_before_it_connects(tmp_path, capsys):
    (tmp_path / "empty.jsonl").write_text("")
    with socket.create_server(("127.0.0.1", 0)) as held:  # never accepts
        held.setblocking(False)
        rc = run_cli("client", "--connect", "%s:%d" % held.getsockname(), "--side", "16",
                     "--manifest", str(tmp_path / "empty.jsonl"), "--idle-timeout", "1")
        with pytest.raises(BlockingIOError):
            held.accept()
    assert rc == 1
    assert capsys.readouterr().err == "fedransom: error: client client-0 has no samples\n"


def test_client_whose_id_is_not_utf8_exits_two_naming_it_before_it_connects(
        small_corpus, capsys):
    # a byte that is not UTF-8 in argv reaches Python as a lone surrogate
    with socket.create_server(("127.0.0.1", 0)) as held:  # never accepts
        held.setblocking(False)
        with pytest.raises(SystemExit) as exc:
            run_cli("client", "--connect", "%s:%d" % held.getsockname(), "--side", "16",
                    "--client-id", "node\udcff", "--idle-timeout", "1",
                    "--manifest", str(small_corpus / "manifest.val.jsonl"))
        with pytest.raises(BlockingIOError):
            held.accept()
    assert exc.value.code == 2
    assert "client id 'node\\udcff' is not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "fedtrain"])
@pytest.mark.parametrize("source, value", [("flag", "nan"), ("flag", "inf"), ("ini", "nan")])
def test_a_learning_rate_that_is_not_a_finite_number_at_least_zero_exits_two(
        small_corpus, tmp_path, capsys, command, source, value):
    never = tmp_path / "never.frwm"
    argv = [command, "--manifest", str(small_corpus / "manifest.train.jsonl"), "--side", "16",
            "--checkpoint-out", str(never)]
    argv += ["--epochs", "1"] if command == "train" else ["--rounds", "1", "--local-epochs", "1"]
    if source == "flag":
        argv += ["--lr", value]
    else:
        (tmp_path / "settings.ini").write_text(f"[train]\nlr = {value}\n")
        argv += ["--config", str(tmp_path / "settings.ini")]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "learning_rate" in capsys.readouterr().err
    assert not never.exists()


@pytest.mark.parametrize("command", ["train", "fedtrain", "serve", "client"])
def test_a_side_above_the_wire_cap_exits_two_before_it_reads_a_manifest(
        tmp_path, capsys, command):
    never = tmp_path / "never.frwm"
    missing = str(tmp_path / "missing.jsonl")  # a read of it would exit 1
    argv = {"train": ["--manifest", missing, "--checkpoint-out", str(never)],
            "fedtrain": ["--manifest", missing, "--checkpoint-out", str(never)],
            "serve": ["--bind", "127.0.0.1:0", "--val-manifest", missing,
                      "--checkpoint-out", str(never)],
            "client": ["--connect", "127.0.0.1:9", "--manifest", missing]}[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *argv, "--side", "5000")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "side must be at most 2896" in err
    assert "Traceback" not in err
    assert not never.exists()


def test_train_whose_model_overflows_float32_exits_one_without_a_checkpoint(
        small_corpus, tmp_path, capsys):
    never = tmp_path / "never.frwm"
    rc = run_cli("train", "--manifest", str(small_corpus / "manifest.train.jsonl"), "--side", "16",
                 "--lr", "1e39", "--batch", "64", "--epochs", "1", "--checkpoint-out", str(never))
    assert rc == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("fedransom: error: non-finite values in ")
    assert last.split()[-1] in nn.ModelParams.__dataclass_fields__
    assert not never.exists()


def test_train_with_an_empty_val_manifest_reports_on_the_training_set(small_corpus, tmp_path):
    (tmp_path / "empty.jsonl").write_text("")
    args = ["train", "--manifest", str(small_corpus / "manifest.train.jsonl"), "--side", "16",
            "--epochs", "1", "--batch", "4", "--seed", "2"]
    for name, extra in (("none", []), ("empty", ["--val-manifest", str(tmp_path / "empty.jsonl")])):
        assert run_cli(*args, *extra, "--checkpoint-out", str(tmp_path / f"{name}.frwm"),
                       "--report-out", str(tmp_path / f"{name}.json")) == 0
    train = corpus.read_manifest(small_corpus / "manifest.train.jsonl")
    assert parse_report(tmp_path / "empty.json").confusion.total == len(train.entries)
    assert (tmp_path / "empty.json").read_bytes() == (tmp_path / "none.json").read_bytes()


def test_predict_missing_file_exits_one(small_corpus, tmp_path, capsys):
    ckpt = tmp_path / "ck.frwm"
    run_cli("train", "--manifest", str(small_corpus / "manifest.train.jsonl"),
            "--side", "16", "--epochs", "0", "--batch", "4", "--seed", "1",
            "--checkpoint-out", str(ckpt))
    assert run_cli("predict", "--checkpoint", str(ckpt), "/no/such/file.bin") == 1
    assert "error" in capsys.readouterr().err


def test_predict_reads_only_the_imaged_prefix(tmp_path, capsys):
    side = 64
    ckpt = tmp_path / "ck.frwm"
    checkpoint.save_params(nn.init_params(side, 3), ckpt)
    prefix = bytes(range(256)) * (side * side // 256)
    big, cut = tmp_path / "big.bin", tmp_path / "cut.bin"
    with big.open("wb") as fh:  # 64 MiB, sparse past the imaged prefix
        fh.write(prefix)
        fh.truncate(64 << 20)
    cut.write_bytes(prefix)

    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run_cli("predict", "--checkpoint", str(ckpt), str(big)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run_cli("predict", "--checkpoint", str(ckpt), str(cut)) == 0
    big_line, cut_line = capsys.readouterr().out.strip().splitlines()
    assert big_line.split("\t")[1:] == cut_line.split("\t")[1:]
    assert peak <= 16 << 20


def test_client_connect_refused_exits_one(small_corpus, capsys):
    probe = socket.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()
    probe.close()
    rc = run_cli("client", "--connect", f"{host}:{port}",
                 "--manifest", str(small_corpus / "manifest.val.jsonl"),
                 "--side", "16", "--local-epochs", "1", "--batch", "4", "--seed", "0")
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_serve_and_client_cli_loopback(small_corpus, tmp_path):
    probe = socket.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()
    probe.close()
    address = f"{host}:{port}"
    manifest = str(small_corpus / "manifest.train.jsonl")
    ckpt = tmp_path / "wire.frwm"
    rounds = tmp_path / "rounds.csv"

    server_rc = {}

    def server():
        server_rc["rc"] = run_cli(
            "serve", "--bind", address, "--clients", "1", "--rounds", "2",
            "--local-epochs", "1", "--batch", "4", "--side", "16", "--seed", "6",
            "--accept-timeout", "30", "--checkpoint-out", str(ckpt),
            "--val-manifest", str(small_corpus / "manifest.val.jsonl"),
            "--report-out", str(rounds))

    thread = threading.Thread(target=server)
    thread.start()
    client_rc = None
    for _ in range(100):
        client_rc = run_cli("client", "--connect", address, "--manifest", manifest,
                            "--client-id", "client-0", "--side", "16",
                            "--local-epochs", "1", "--batch", "4", "--seed", "6")
        if client_rc == 0:
            break
        time.sleep(0.05)  # server may still be binding
    thread.join(timeout=60)
    assert client_rc == 0
    assert server_rc["rc"] == 0
    assert ckpt.exists()
    history = parse_history_csv(rounds)
    assert [row.index for row in history] == [0, 1]
    assert all(row.train_accuracy is None and row.val_accuracy is not None
               for row in history)


def test_serve_report_out_without_a_manifest_is_a_usage_error(tmp_path):
    probe = socket.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()
    probe.close()
    with pytest.raises(SystemExit) as exc:
        run_cli("serve", "--bind", f"{host}:{port}", "--clients", "1", "--side", "16",
                "--accept-timeout", "0.2", "--checkpoint-out", str(tmp_path / "g.frwm"),
                "--report-out", str(tmp_path / "report.json"))
    assert exc.value.code == 2
    assert not (tmp_path / "g.frwm").exists()


def test_eval_report_json_is_valid(small_corpus, tmp_path):
    ckpt = tmp_path / "ck.frwm"
    run_cli("train", "--manifest", str(small_corpus / "manifest.train.jsonl"),
            "--side", "16", "--epochs", "1", "--batch", "4", "--seed", "2",
            "--checkpoint-out", str(ckpt))
    out = tmp_path / "rep.json"
    run_cli("eval", "--checkpoint", str(ckpt),
            "--manifest", str(small_corpus / "manifest.train.jsonl"),
            "--report-out", str(out))
    doc = json.loads(out.read_text())
    assert set(doc) == {"confusion", "precision", "recall", "f1", "accuracy",
                        "degenerate", "history"}


@pytest.mark.parametrize("line", [
    '{"path": "a.bin", "label": 0, "sha256": ""}',
    '{"path": "a.bin", "label": 0, "size": 9999, "sha256": ""}',
], ids=["missing-size", "size-above-the-file"])
def test_eval_on_a_corrupt_manifest_exits_one_without_a_traceback(tmp_path, line):
    ckpt = tmp_path / "ck.frwm"
    checkpoint.save_params(nn.init_params(16, 3), ckpt)
    (tmp_path / "a.bin").write_bytes(b"\x80" * 5000)
    (tmp_path / "manifest.jsonl").write_text(line + "\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "fedransom", "eval", "--checkpoint", str(ckpt),
         "--manifest", str(tmp_path / "manifest.jsonl")],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("fedransom: error:")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("line", [
    b'{"path": "a\xff.bin", "label": 0, "size": 5000, "sha256": ""}',
    b'{"path": "a.bin", "label": 0, "size": ' + b"1" * 4301 + b', "sha256": ""}',
    b'{"path": "a\\u0000.bin", "label": 0, "size": 5000, "sha256": ""}',
], ids=["not-utf8", "integer-of-4301-digits", "nul-in-path"])
def test_a_damaged_manifest_line_is_a_corrupt_manifest_naming_it(tmp_path, capsys, line):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(line + b"\n")
    with pytest.raises(CorruptManifest) as exc:
        corpus.read_manifest(manifest)
    assert str(exc.value).startswith(f"{manifest}:1: ")
    ckpt = tmp_path / "ck.frwm"
    checkpoint.save_params(nn.init_params(16, 3), ckpt)
    assert run_cli("eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)) == 1
    assert capsys.readouterr().err.startswith(f"fedransom: error: {manifest}:1: ")


def test_each_subcommand_keeps_its_options():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: sorted(s for a in sub._actions for s in a.option_strings or [a.dest])
           for name, sub in subs.choices.items()}
    common = ["--config", "--help", "--preset", "--seed", "-h"]
    training = ["--batch", "--dropout", "--lr", "--side"]
    fed = ["--clients", "--local-epochs", "--rounds"]
    outputs = ["--checkpoint-out", "--report-out"]
    expected = {
        "synth": ["--max-size", "--min-size", "--n-per-class", "--out"],
        "train": ["--epochs", "--manifest", "--val-manifest", *outputs, *training],
        "fedtrain": ["--manifest", "--val-manifest", *fed, *outputs, *training],
        "serve": ["--accept-timeout", "--bind", "--idle-timeout", "--train-manifest",
                  "--val-manifest", *fed, *outputs, *training],
        "client": ["--client-id", "--connect", "--idle-timeout", "--local-epochs",
                   "--manifest", *training],
        "eval": ["--checkpoint", "--manifest", "--report-out", "--threshold"],
        "predict": ["--checkpoint", "--threshold", "files"],
    }
    assert got == {name: sorted(options + common) for name, options in expected.items()}


def test_a_fed_setting_resolves_flag_then_config_then_preset_then_builtin(small_corpus, tmp_path):
    cfg = tmp_path / "settings.ini"
    cfg.write_text("[fed]\nrounds = 2\n")
    levels = {"builtin": ([], 30), "preset": (["--preset", "desk"], 10),
              "config": (["--preset", "desk", "--config", str(cfg)], 2),
              "flag": (["--preset", "desk", "--config", str(cfg), "--rounds", "1"], 1)}
    for name, (extra, rounds) in levels.items():
        report = tmp_path / f"{name}.csv"
        assert run_cli("fedtrain", "--manifest", str(small_corpus / "manifest.train.jsonl"),
                       "--side", "16", "--local-epochs", "1", "--batch", "4", "--seed", "1",
                       "--checkpoint-out", str(tmp_path / f"{name}.frwm"),
                       "--report-out", str(report), *extra) == 0
        assert len(parse_history_csv(report)) == rounds, name


@pytest.mark.parametrize("source", ["flag", "ini"])
@pytest.mark.parametrize("command, name", [
    ("serve", "accept_timeout"), ("serve", "idle_timeout"), ("client", "idle_timeout")])
@pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
def test_a_timeout_that_is_not_a_positive_finite_number_exits_two(
        small_corpus, tmp_path, capsys, source, command, name, value):
    # the port is taken by a listener that never accepts: a serve that got past its
    # settings could not bind, and a client would connect and then wait
    with socket.create_server(("127.0.0.1", 0)) as held:
        address = "%s:%d" % held.getsockname()
        if command == "serve":
            argv = ["serve", "--bind", address, "--clients", "1", "--side", "16",
                    "--checkpoint-out", str(tmp_path / "never.frwm")]
            if name == "idle_timeout":
                argv += ["--accept-timeout", "0.2"]
        else:
            argv = ["client", "--connect", address, "--side", "16", "--local-epochs", "1",
                    "--batch", "4", "--manifest", str(small_corpus / "manifest.val.jsonl")]
        if source == "flag":
            argv += ["--" + name.replace("_", "-"), value]
        else:
            (tmp_path / "settings.ini").write_text(f"[fed]\n{name} = {value}\n")
            argv += ["--config", str(tmp_path / "settings.ini")]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
    assert exc.value.code == 2
    assert name in capsys.readouterr().err.replace("-", "_")
    assert not (tmp_path / "never.frwm").exists()


@pytest.mark.parametrize("source", ["flag", "ini"])
def test_client_with_zero_local_epochs_exits_two_before_it_connects(
        small_corpus, tmp_path, capsys, source):
    # serve and fedtrain reject the value through FedConfig, with the same message
    with pytest.raises(ValueError) as rule:
        fedavg.FedConfig(local_epochs=0)
    assert "local_epochs must be positive" in str(rule.value)
    with socket.create_server(("127.0.0.1", 0)) as held:
        address = "%s:%d" % held.getsockname()
        argv = ["client", "--connect", address, "--side", "16", "--batch", "4",
                "--idle-timeout", "1", "--manifest", str(small_corpus / "manifest.val.jsonl")]
        if source == "flag":
            argv += ["--local-epochs", "0"]
        else:
            (tmp_path / "settings.ini").write_text("[fed]\nlocal_epochs = 0\n")
            argv += ["--config", str(tmp_path / "settings.ini")]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        held.setblocking(False)
        with pytest.raises(BlockingIOError):  # no connection is waiting
            held.accept()
    assert exc.value.code == 2
    assert "local_epochs must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["serve", "client"])
@pytest.mark.parametrize("address", ["127.0.0.1:65536", "127.0.0.1:99999"])
def test_a_port_outside_0_to_65535_exits_two_naming_the_address(
        small_corpus, tmp_path, capsys, command, address):
    if command == "serve":
        argv = ["serve", "--bind", address, "--clients", "1", "--side", "16",
                "--checkpoint-out", str(tmp_path / "never.frwm")]
    else:
        argv = ["client", "--connect", address, "--side", "16", "--local-epochs", "1",
                "--batch", "4", "--manifest", str(small_corpus / "manifest.val.jsonl")]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert address in err and "Traceback" not in err
    assert not (tmp_path / "never.frwm").exists()


@pytest.mark.parametrize("source", ["flag", "ini"])
@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("value", ["-0.5", "1.5", "nan", "inf"])
def test_a_threshold_outside_0_to_1_exits_two(small_corpus, tmp_path, capsys,
                                              source, command, value):
    ckpt = tmp_path / "ck.frwm"
    checkpoint.save_params(nn.init_params(16, 3), ckpt)
    manifest = small_corpus / "manifest.test.jsonl"
    argv = [command, "--checkpoint", str(ckpt)]
    if command == "eval":
        argv += ["--manifest", str(manifest)]
    else:
        argv.append(str(small_corpus / corpus.read_manifest(manifest).entries[0].path))
    if source == "flag":
        argv += ["--threshold", value]
    else:
        (tmp_path / "settings.ini").write_text(f"[train]\nthreshold = {value}\n")
        argv += ["--config", str(tmp_path / "settings.ini")]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("[train]\nlearning_rate = 0.5\n", "learning_rate"),
    ("[train]\nclients = 7\n", "clients"),
    ("[tarin]\nlr = 0.5\n", "[tarin]"),
    ("[fed]\nlr = 0.5\n", "lr"),
    ("[DEFAULT]\nlr = 0.5\n[fed]\nlr = 0.5\n", "[fed]"),
    ("[DEFAULT]\nbogus = 1\n[train]\nlr = 0.5\n", "bogus"),
], ids=["field-name", "other-section", "section", "key-of-another-section",
        "own-key-also-in-default", "default"])
def test_a_config_section_or_key_that_is_not_a_setting_exits_two(
        small_corpus, tmp_path, capsys, text, named):
    cfg = tmp_path / "settings.ini"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--manifest", str(small_corpus / "manifest.train.jsonl"),
                "--side", "16", "--epochs", "0", "--batch", "4", "--config", str(cfg),
                "--checkpoint-out", str(tmp_path / "never.frwm"))
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "never.frwm").exists()


def test_default_keys_of_any_section_and_a_seed_in_each_section_are_accepted(
        small_corpus, tmp_path):
    cfg = tmp_path / "settings.ini"
    cfg.write_text("[DEFAULT]\nrounds = 2\n[synth]\nseed = 1\n[fed]\nseed = 2\n"
                   "[train]\nseed = 4\n")
    ckpt = tmp_path / "ck.frwm"
    assert run_cli("train", "--manifest", str(small_corpus / "manifest.train.jsonl"),
                   "--side", "16", "--epochs", "0", "--batch", "4", "--config", str(cfg),
                   "--checkpoint-out", str(ckpt)) == 0
    assert params_equal(checkpoint.load_params(ckpt), nn.init_params(16, 4))


def test_eval_and_predict_read_no_seed(small_corpus, tmp_path, monkeypatch):
    ckpt = tmp_path / "ck.frwm"
    checkpoint.save_params(nn.init_params(16, 3), ckpt)
    sample = next(e.path for e in corpus.read_manifest(
        small_corpus / "manifest.test.jsonl").entries)
    monkeypatch.setenv("FEDRANSOM_SEED", "abc")
    assert run_cli("eval", "--checkpoint", str(ckpt), "--seed", "-1",
                   "--manifest", str(small_corpus / "manifest.test.jsonl")) == 0
    assert run_cli("predict", "--checkpoint", str(ckpt), str(small_corpus / sample)) == 0
