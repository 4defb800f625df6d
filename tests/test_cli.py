import json
import os
import socket
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from helpers import params_equal

from fedransom import checkpoint, corpus, metrics, nn
from fedransom.cli import main

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

    report = metrics.parse_report(report_path)
    assert len(report.history) == 2

    assert run_cli("eval", "--checkpoint", str(ckpt_a),
                   "--manifest", str(small_corpus / "manifest.test.jsonl"),
                   "--report-out", str(tmp_path / "eval.json")) == 0
    eval_report = metrics.parse_report(tmp_path / "eval.json")
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

    server_rc = {}

    def server():
        server_rc["rc"] = run_cli(
            "serve", "--bind", address, "--clients", "1", "--rounds", "1",
            "--local-epochs", "1", "--batch", "4", "--side", "16", "--seed", "6",
            "--accept-timeout", "30", "--checkpoint-out", str(ckpt))

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
