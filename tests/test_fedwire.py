import gc
import math
import select
import socket
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from helpers import params_equal, random_params, tiny_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from fedransom import checkpoint, fedavg, fedwire, nn
from fedransom.errors import (ClientCountTimeout, EmptyShard, FedransomError, OversizeFrame,
                              ProtocolViolation, TruncatedFrame, UnknownFrameType)
from fedransom.fedavg import FedConfig, partition, run_federation
from fedransom.imaging import MAX_SIDE
from fedransom.fedwire import (MSG_ERROR, MSG_FIN, MSG_GLOBAL, MSG_HELLO,
                               MSG_UPDATE, Frame, client_join, decode_hello,
                               decode_weight_blob, encode_frame, encode_hello,
                               encode_weight_blob, read_frame, serve)


def test_fin_frame_golden_bytes():
    assert encode_frame(MSG_FIN, b"") == b"\x00\x00\x00\x00\x04"


def test_frame_length_is_little_endian():
    frame = encode_frame(MSG_ERROR, b"ab")
    assert frame == b"\x02\x00\x00\x00\x7fab"


def _read_sent(data: bytes, side=None):
    """read_frame over a socket pair whose writer sent *data*, then closed."""
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(5.0)
        writer.sendall(data)
        writer.shutdown(socket.SHUT_WR)
        return read_frame(reader, side)


@settings(max_examples=200)
@given(st.sampled_from(sorted(fedwire._KNOWN_TYPES)), st.binary(max_size=2048))
def test_frame_codec_round_trip(msg_type, payload):
    assert _read_sent(encode_frame(msg_type, payload)) == Frame(msg_type, payload)


def test_decode_rejects_short_input():
    with pytest.raises(TruncatedFrame):
        _read_sent(b"\x00\x00\x00")
    with pytest.raises(TruncatedFrame):
        _read_sent(b"\x05\x00\x00\x00\x04ab")


def test_decode_rejects_declared_oversize():
    header = (fedwire.MAX_PAYLOAD + 1).to_bytes(4, "little") + bytes([MSG_GLOBAL])
    with pytest.raises(OversizeFrame):
        _read_sent(header)
    with pytest.raises(OversizeFrame):
        _read_sent(fedwire._HEADER.pack(fedwire.MAX_CONTROL_BYTES + 1, MSG_HELLO))
    # given the side, a weight frame has exactly one length
    exact = 8 + checkpoint.byte_length(8)
    for length in (exact - 1, exact + 1):
        with pytest.raises(OversizeFrame, match=f"{length} bytes declared.* has {exact}"):
            _read_sent(fedwire._HEADER.pack(length, MSG_UPDATE), side=8)


def test_max_side_is_the_largest_whose_weight_frame_fits_the_payload_cap():
    # a weight frame is the (round, n_samples) head and then the checkpoint
    assert 8 + checkpoint.byte_length(MAX_SIDE) <= fedwire.MAX_PAYLOAD
    assert 8 + checkpoint.byte_length(MAX_SIDE + 1) > fedwire.MAX_PAYLOAD


def test_weight_frame_read_with_its_side_comes_back_as_weights():
    params = random_params(side=8, seed=9)
    frame = _read_sent(encode_frame(MSG_GLOBAL, encode_weight_blob(5, 77, params)), side=8)
    assert frame.msg_type == MSG_GLOBAL and frame.payload == b""
    round_index, n_samples, again = frame.weights
    assert (round_index, n_samples) == (5, 77)
    assert params_equal(params, again)
    # other frames still come back as payloads
    assert _read_sent(encode_frame(MSG_ERROR, b"ab"), side=8) == Frame(MSG_ERROR, b"ab")


def test_encode_rejects_oversize_payload():
    class Huge(bytes):
        def __len__(self):
            return 2 ** 31 + 1

    with pytest.raises(OversizeFrame):
        encode_frame(MSG_GLOBAL, Huge())


def test_encode_rejects_unknown_type():
    with pytest.raises(UnknownFrameType):
        encode_frame(0x55, b"")


def test_hello_round_trip():
    payload = encode_hello("client-2", 123)
    assert decode_hello(payload) == ("client-2", 123)


def test_weight_blob_round_trip():
    params = random_params(side=8, seed=9)
    round_index, n_samples, again = decode_weight_blob(
        encode_weight_blob(5, 77, params))
    assert (round_index, n_samples) == (5, 77)
    assert params_equal(params, again)


def _receive(sock, size, delay=0.0):
    """A thread that reads *size* bytes from *sock* into a buffer made up front,
    starting after *delay* seconds."""
    buf = bytearray(size)

    def run():
        time.sleep(delay)
        got = 0
        with memoryview(buf) as view:
            while got < size:
                read = sock.recv_into(view[got:])
                if not read:
                    return
                got += read

    thread = threading.Thread(target=run)
    thread.start()
    return buf, thread


@pytest.mark.parametrize("payload", [b"", b"ab", bytearray(b"xyz"),
                                     bytes(range(256)) * 20_000],
                         ids=["empty", "bytes", "bytearray", "5MB"])
def test_send_frame_sends_the_bytes_of_encode_frame(payload):
    reader, writer = socket.socketpair()
    try:
        reader.settimeout(10.0)
        writer.settimeout(10.0)
        want = encode_frame(MSG_ERROR, bytes(payload))
        buf, thread = _receive(reader, len(want))
        fedwire.send_frame(writer, MSG_ERROR, payload)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert buf == want
    finally:
        reader.close()
        writer.close()


def test_sending_a_reference_side_update_copies_its_weights_once():
    params = nn.init_params(300, 0)
    want = encode_frame(MSG_UPDATE, encode_weight_blob(3, 1, params))
    reader, writer = socket.socketpair()
    try:
        reader.settimeout(10.0)
        writer.settimeout(10.0)
        buf, thread = _receive(reader, len(want))
        tracemalloc.start()
        try:
            fedwire.send_frame(writer, MSG_UPDATE, encode_weight_blob(3, 1, params))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert buf == want
    finally:
        reader.close()
        writer.close()
    # the payload itself is the one copy; each extra concatenation adds another
    payload = len(want) - 5
    assert peak <= 1.5 * payload, f"peak {peak / payload:.2f}x the {payload}-byte payload"


class _RecordingSocket:
    """A socket whose sendmsg records the bytes each call sent."""

    def __init__(self, sock):
        self.sock, self.sent = sock, []

    def sendmsg(self, buffers):
        self.sent.append(self.sock.sendmsg(buffers))
        return self.sent[-1]


@pytest.mark.parametrize("side, dtype, sndbuf", [(8, np.float32, None), (8, np.float64, None),
                                                 (300, np.float32, 1 << 16)],
                         ids=["float32", "float64", "side-300-partial-sends"])
def test_a_weight_frame_sent_from_the_model_is_the_encoded_frame(side, dtype, sndbuf):
    params = random_params(side, 3, dtype)
    want = encode_frame(MSG_UPDATE, encode_weight_blob(3, 7, params))
    reader, writer = socket.socketpair()
    try:
        if sndbuf:
            writer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
        reader.settimeout(10.0)
        writer.settimeout(10.0)
        # a reader that starts late fills the small send buffer first
        buf, thread = _receive(reader, len(want), delay=0.2 if sndbuf else 0.0)
        recording = _RecordingSocket(writer)
        fedwire.send_frame(recording, MSG_UPDATE, fedwire.WeightBuffers(3, 7, params))
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert buf == want
    finally:
        reader.close()
        writer.close()
    assert sum(recording.sent) == len(want)
    if sndbuf:
        assert len(recording.sent) > 1, "sendmsg sent the whole frame at once"


def test_sending_a_reference_side_update_from_its_arrays_allocates_under_a_mebibyte():
    params = nn.init_params(300, 0)
    want = encode_frame(MSG_UPDATE, encode_weight_blob(3, 1, params))
    reader, writer = socket.socketpair()
    try:
        reader.settimeout(10.0)
        writer.settimeout(10.0)
        buf, thread = _receive(reader, len(want))
        tracemalloc.start()
        try:
            fedwire.send_frame(writer, MSG_UPDATE, fedwire.WeightBuffers(3, 1, params))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert buf == want
    finally:
        reader.close()
        writer.close()
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_read_frame_rejects_unknown_type_before_the_payload():
    reader, writer = socket.socketpair()
    try:
        reader.settimeout(5.0)
        # declares a 1000-byte payload that never comes
        writer.sendall((1000).to_bytes(4, "little") + bytes([0x09]))
        t0 = time.monotonic()
        with pytest.raises(UnknownFrameType):
            read_frame(reader)
        assert time.monotonic() - t0 < 1.0
    finally:
        reader.close()
        writer.close()


def test_read_frame_returns_the_payload():
    reader, writer = socket.socketpair()
    try:
        reader.settimeout(5.0)
        writer.sendall(encode_frame(MSG_ERROR, b"ab") + encode_frame(MSG_FIN))
        writer.close()
        assert read_frame(reader) == Frame(MSG_ERROR, b"ab")
        assert read_frame(reader) == Frame(MSG_FIN, b"")
        assert read_frame(reader) is None
    finally:
        reader.close()


def test_read_frame_buffers_only_what_arrives():
    reader, writer = socket.socketpair()
    try:
        reader.settimeout(5.0)
        # declares the largest encodable payload, then sends one byte of it
        writer.sendall(fedwire.MAX_PAYLOAD.to_bytes(4, "little") + bytes([MSG_UPDATE, 7]))
        # declares a control frame at the cap, then sends one byte of it
        writer.sendall(fedwire._HEADER.pack(fedwire.MAX_CONTROL_BYTES, MSG_ERROR) + b"x")
        writer.close()
        tracemalloc.start()
        try:
            with pytest.raises(OversizeFrame):
                read_frame(reader)
            assert reader.recv(1) == b"\x07"  # rejected before any payload byte was read
            with pytest.raises(TruncatedFrame):
                read_frame(reader)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * fedwire.MAX_CONTROL_BYTES
    finally:
        reader.close()


def test_read_frame_reads_a_reference_side_update_in_place():
    params = nn.init_params(300, 0)
    frame = encode_frame(MSG_UPDATE, encode_weight_blob(3, 1, params))
    model_bytes = sum(a.nbytes for a in params.named().values())
    reader, writer = socket.socketpair()
    sender = threading.Thread(target=writer.sendall, args=(frame,))
    try:
        reader.settimeout(10.0)
        sender.start()
        tracemalloc.start()
        try:
            got = read_frame(reader, 300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        sender.join(timeout=10)
        reader.close()
        writer.close()
    assert not sender.is_alive()
    assert got.msg_type == MSG_UPDATE
    round_index, n_samples, again = got.weights
    assert (round_index, n_samples) == (3, 1)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(params.named().values(), again.named().values()))
    # the model itself, plus np.isfinite's one-byte-per-float temporary
    assert peak <= 1.3 * model_bytes, f"peak {peak / model_bytes:.2f}x the model"


def _free_listener():
    return socket.create_server(("127.0.0.1", 0))


def _run_server(listener, fed, cfg, holder, **kwargs):
    try:
        holder["result"] = serve(("ignored", 0), fed, cfg, listener=listener, **kwargs)
    except Exception as exc:  # noqa: BLE001 - surfaced by the test
        holder["error"] = exc


def test_loopback_federation_matches_in_process_run():
    ds = tiny_dataset(n=18, side=8, seed=10)
    seed = 77
    fed = FedConfig(n_clients=3, n_rounds=2, local_epochs=1, batch_size=4,
                    learning_rate=0.006, seed=seed)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, learning_rate=0.006, seed=seed)

    expected, _ = run_federation(ds, fed, cfg)
    wire_params, _ = _loopback(fed, cfg, partition(ds, fed.n_clients, fed.seed))
    assert params_equal(wire_params, expected)


def test_stale_round_update_gets_error_and_aborts():
    ds = tiny_dataset(n=6, side=8, seed=11)
    fed = FedConfig(n_clients=1, n_rounds=2, local_epochs=1, batch_size=4, seed=1)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=1)
    listener = _free_listener()
    address = listener.getsockname()
    holder = {}
    server = threading.Thread(target=_run_server, args=(listener, fed, cfg, holder),
                              kwargs={"accept_timeout": 10.0})
    server.start()

    sock = socket.create_connection(address, timeout=10)
    sock.settimeout(10)
    try:
        fedwire.send_frame(sock, MSG_HELLO, encode_hello("client-0", len(ds)))
        frame = read_frame(sock)
        assert frame.msg_type == MSG_GLOBAL
        _, _, params = decode_weight_blob(frame.payload)
        # answer with a stale round number
        fedwire.send_frame(sock, MSG_UPDATE, encode_weight_blob(99, len(ds), params))
        reply = read_frame(sock)
        assert reply is not None and reply.msg_type == MSG_ERROR
    finally:
        sock.close()
    server.join(timeout=30)
    assert isinstance(holder.get("error"), ProtocolViolation)


def test_wrong_first_message_is_rejected():
    fed = FedConfig(n_clients=1, n_rounds=1, local_epochs=1, seed=0)
    cfg = nn.TrainConfig(side=8, seed=0)
    listener = _free_listener()
    address = listener.getsockname()
    holder = {}
    server = threading.Thread(target=_run_server, args=(listener, fed, cfg, holder),
                              kwargs={"accept_timeout": 10.0})
    server.start()
    sock = socket.create_connection(address, timeout=10)
    try:
        fedwire.send_frame(sock, MSG_FIN)
    finally:
        sock.close()
    server.join(timeout=30)
    assert isinstance(holder.get("error"), ProtocolViolation)


def test_client_disconnect_mid_round_aborts_with_diagnostic():
    ds = tiny_dataset(n=6, side=8, seed=12)
    fed = FedConfig(n_clients=1, n_rounds=1, local_epochs=1, batch_size=4, seed=1)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=1)
    listener = _free_listener()
    address = listener.getsockname()
    holder = {}
    server = threading.Thread(target=_run_server, args=(listener, fed, cfg, holder),
                              kwargs={"accept_timeout": 10.0})
    server.start()
    sock = socket.create_connection(address, timeout=10)
    try:
        fedwire.send_frame(sock, MSG_HELLO, encode_hello("client-0", len(ds)))
        assert read_frame(sock).msg_type == MSG_GLOBAL
    finally:
        sock.close()  # vanish instead of answering the round
    server.join(timeout=30)
    error = holder.get("error")
    assert isinstance(error, ProtocolViolation)
    assert "client-0" in str(error)


def test_no_clients_times_out_quickly():
    fed = FedConfig(n_clients=1, n_rounds=1, local_epochs=1, seed=0)
    cfg = nn.TrainConfig(side=8, seed=0)
    listener = _free_listener()
    with pytest.raises(ClientCountTimeout):
        serve(("ignored", 0), fed, cfg, listener=listener, accept_timeout=0.4)


def test_client_join_refused_on_dead_address():
    probe = socket.create_server(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    shard = partition(tiny_dataset(n=4, side=8, seed=0), 1, seed=0)[0]
    with pytest.raises(OSError):
        client_join(address, shard, nn.TrainConfig(side=8), connect_timeout=2.0)


def test_client_join_refuses_an_empty_shard_before_it_connects():
    # the server ends every client's federation on a hello of no samples
    listener = _free_listener()
    listener.setblocking(False)
    empty = fedavg.ClientShard("empty", tiny_dataset(n=4, side=8, seed=0).subset([]))
    try:
        with pytest.raises(EmptyShard, match="client empty has no samples"):
            client_join(listener.getsockname(), empty, nn.TrainConfig(side=8), idle_timeout=1.0)
        with pytest.raises(BlockingIOError):
            listener.accept()
    finally:
        listener.close()


def test_client_join_refuses_an_id_that_is_not_utf8_before_it_connects():
    # the id would fail to encode only after connecting, so serve would read an
    # ERROR frame in place of a HELLO and end every other client's federation
    listener = _free_listener()
    listener.setblocking(False)
    data = tiny_dataset(n=4, side=8, seed=0)
    try:
        with pytest.raises(ValueError, match=r"client id 'node\\udcff' is not valid UTF-8"):
            client_join(listener.getsockname(), fedavg.ClientShard("node\udcff", data),
                        nn.TrainConfig(side=8), idle_timeout=1.0)
        with pytest.raises(BlockingIOError):
            listener.accept()
    finally:
        listener.close()


_BAD_TIMEOUTS = [-1.0, 0.0, math.inf, math.nan]


@pytest.mark.parametrize("timeout", _BAD_TIMEOUTS)
@pytest.mark.parametrize("which", ["connect_timeout", "idle_timeout"])
def test_client_join_rejects_a_timeout_that_is_not_positive_and_finite(which, timeout):
    listener = _free_listener()  # never accepts: a connection waits in its backlog
    shard = partition(tiny_dataset(n=4, side=8, seed=0), 1, seed=0)[0]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="positive, finite"):
                client_join(listener.getsockname(), shard, nn.TrainConfig(side=8),
                            **{which: timeout})
            gc.collect()
    finally:
        listener.close()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("timeout", _BAD_TIMEOUTS)
@pytest.mark.parametrize("which", ["accept_timeout", "idle_timeout"])
def test_serve_rejects_a_timeout_that_is_not_positive_and_finite(which, timeout):
    fed = FedConfig(n_clients=1, n_rounds=1, local_epochs=1, seed=0)
    listener = _free_listener()
    holder = {}
    server = threading.Thread(target=_run_server,
                              args=(listener, fed, nn.TrainConfig(side=8, seed=0), holder),
                              kwargs={"accept_timeout": 0.5, "idle_timeout": 0.5, which: timeout})
    t0 = time.monotonic()
    server.start()
    server.join(timeout=5)
    took = time.monotonic() - t0
    listener.close()  # also ends a serve that would wait forever
    server.join(timeout=5)
    assert not server.is_alive()
    assert took < 1.0
    assert isinstance(holder.get("error"), ValueError), holder


def test_client_join_reports_server_error():
    listener = _free_listener()
    address = listener.getsockname()

    def rogue_server():
        conn, _ = listener.accept()
        read_frame(conn)  # swallow the HELLO
        fedwire.send_frame(conn, MSG_ERROR, b"nope")
        conn.close()
        listener.close()

    thread = threading.Thread(target=rogue_server)
    thread.start()
    shard = partition(tiny_dataset(n=4, side=8, seed=0), 1, seed=0)[0]
    with pytest.raises(ProtocolViolation):
        client_join(address, shard, nn.TrainConfig(side=8))
    thread.join(timeout=10)


def _start_server(fed, cfg, **kwargs):
    listener = _free_listener()
    address = listener.getsockname()
    holder = {}
    server = threading.Thread(target=_run_server, args=(listener, fed, cfg, holder),
                              kwargs=kwargs)
    server.start()
    return address, holder, server


def _loopback(fed, cfg, shards, **kwargs):
    """serve over loopback, one client_join thread per shard; serve's result."""
    address, holder, server = _start_server(fed, cfg, accept_timeout=30.0, **kwargs)
    clients = [threading.Thread(target=client_join, args=(address, shard, cfg))
               for shard in shards]
    for t in clients:
        t.start()
    for t in clients:
        t.join(timeout=120)
    server.join(timeout=120)
    assert "error" not in holder, holder.get("error")
    return holder["result"]


def test_serve_with_only_a_val_set_reports_every_round_on_it():
    fed = FedConfig(n_clients=1, n_rounds=2, local_epochs=1, batch_size=4, seed=2)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=2)
    shards = partition(tiny_dataset(n=8, side=8, seed=12), 1, seed=2)
    _, reports = _loopback(fed, cfg, shards, val_set=tiny_dataset(n=6, side=8, seed=13))
    assert len(reports) == fed.n_rounds
    for round_index, report in enumerate(reports):
        (row,) = report.history
        assert row.index == round_index
        assert row.train_accuracy is None
        assert row.val_accuracy == report.accuracy


@pytest.mark.parametrize("engine", ["in-process", "wire"])
def test_no_engine_holds_the_previous_global_model_while_it_aggregates(engine, monkeypatch):
    ds = tiny_dataset(n=18, side=8, seed=10)
    fed = FedConfig(n_clients=3, n_rounds=2, local_epochs=1, batch_size=4, seed=3)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=3)
    real_aggregate = fedavg.aggregate
    entering = []  # a weakref to the model that enters the next round
    alive = []

    def checked(updates):
        alive.extend(ref() is not None for ref in entering)
        merged = real_aggregate(updates)
        entering[:] = [weakref.ref(merged)]
        return merged

    monkeypatch.setattr(fedavg, "aggregate", checked)
    if engine == "in-process":
        run_federation(ds, fed, cfg)
    else:
        _loopback(fed, cfg, partition(ds, fed.n_clients, fed.seed))
    assert alive == [False]


def _connect(address, hello_payload):
    sock = socket.create_connection(address, timeout=10)
    sock.settimeout(10)
    fedwire.send_frame(sock, MSG_HELLO, hello_payload)
    return sock


@pytest.mark.parametrize("bad_hello", [
    (6).to_bytes(4, "little") + b"\xff\xfeclient-1",  # id is not UTF-8
    encode_hello("client-1", 0),
], ids=["non-utf8-id", "zero-samples"])
def test_bad_hello_gets_error_and_aborts(bad_hello):
    fed = FedConfig(n_clients=2, n_rounds=1, local_epochs=1, seed=0)
    cfg = nn.TrainConfig(side=8, seed=0)
    address, holder, server = _start_server(fed, cfg, accept_timeout=10.0)
    good = _connect(address, encode_hello("client-0", 6))
    bad = _connect(address, bad_hello)
    try:
        # the rejected connection and the peer that had joined both get ERROR
        for sock in (bad, good):
            reply = read_frame(sock)
            assert reply is not None and reply.msg_type == MSG_ERROR
    finally:
        bad.close()
        good.close()
    server.join(timeout=30)
    assert not server.is_alive()
    assert isinstance(holder.get("error"), ProtocolViolation)


@pytest.mark.parametrize("claimed", [0, 5])
def test_update_count_other_than_hello_gets_error_and_aborts(claimed):
    ds = tiny_dataset(n=6, side=8, seed=11)
    fed = FedConfig(n_clients=1, n_rounds=1, local_epochs=1, batch_size=4, seed=1)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=1)
    address, holder, server = _start_server(fed, cfg, accept_timeout=10.0)
    sock = _connect(address, encode_hello("client-0", len(ds)))
    try:
        frame = read_frame(sock)
        assert frame.msg_type == MSG_GLOBAL
        _, _, params = decode_weight_blob(frame.payload)
        fedwire.send_frame(sock, MSG_UPDATE, encode_weight_blob(0, claimed, params))
        reply = read_frame(sock)
        assert reply is not None and reply.msg_type == MSG_ERROR
    finally:
        sock.close()
    server.join(timeout=30)
    assert not server.is_alive()
    error = holder.get("error")
    assert isinstance(error, ProtocolViolation)
    assert "client-0" in str(error)


def test_silent_connection_times_out_at_the_accept_deadline():
    fed = FedConfig(n_clients=1, n_rounds=1, local_epochs=1, seed=0)
    cfg = nn.TrainConfig(side=8, seed=0)
    t0 = time.monotonic()
    address, holder, server = _start_server(fed, cfg, accept_timeout=0.5,
                                            idle_timeout=30.0)
    sock = socket.create_connection(address, timeout=10)
    sock.settimeout(10)
    try:
        server.join(timeout=10)
        assert not server.is_alive()
        assert time.monotonic() - t0 < 5.0
        assert isinstance(holder.get("error"), ClientCountTimeout)
        reply = read_frame(sock)
        assert reply is not None and reply.msg_type == MSG_ERROR
    finally:
        sock.close()


def test_one_client_vanishing_mid_round_aborts_the_other():
    fed = FedConfig(n_clients=2, n_rounds=1, local_epochs=1, batch_size=4, seed=1)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=1)
    address, holder, server = _start_server(fed, cfg, accept_timeout=10.0)
    gone = _connect(address, encode_hello("client-0", 3))
    survivor = _connect(address, encode_hello("client-1", 3))
    try:
        assert read_frame(gone).msg_type == MSG_GLOBAL
        frame = read_frame(survivor)
        assert frame.msg_type == MSG_GLOBAL
        _, _, params = decode_weight_blob(frame.payload)
        gone.close()
        fedwire.send_frame(survivor, MSG_UPDATE, encode_weight_blob(0, 3, params))
        reply = read_frame(survivor)
        assert reply is not None and reply.msg_type == MSG_ERROR
    finally:
        gone.close()
        survivor.close()
    server.join(timeout=30)
    assert not server.is_alive()
    error = holder.get("error")
    assert isinstance(error, ProtocolViolation)
    assert "client-0" in str(error)


def test_abort_waits_for_every_read_and_raises_the_first_in_peer_order():
    fed = FedConfig(n_clients=2, n_rounds=1, local_epochs=1, batch_size=4, seed=1)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=1)
    address, holder, server = _start_server(fed, cfg, accept_timeout=10.0)
    slow = _connect(address, encode_hello("client-0", 3))
    gone = _connect(address, encode_hello("client-1", 3))
    try:
        frame = read_frame(slow)
        assert frame.msg_type == MSG_GLOBAL
        assert read_frame(gone).msg_type == MSG_GLOBAL
        gone.close()
        time.sleep(0.5)
        # client-1's failure is known, but client-0's read has not ended
        assert server.is_alive()
        assert select.select([slow], [], [], 0)[0] == []
        _, _, params = decode_weight_blob(frame.payload)
        fedwire.send_frame(slow, MSG_UPDATE, encode_weight_blob(7, 3, params))
        reply = read_frame(slow)
        assert reply is not None and reply.msg_type == MSG_ERROR
    finally:
        slow.close()
        gone.close()
    server.join(timeout=30)
    assert not server.is_alive()
    error = holder.get("error")
    assert isinstance(error, ProtocolViolation)
    assert "client client-0 answered round 7" in str(error)


def _half_an_update(sock, payload):
    """A valid UPDATE header, then half of its payload."""
    sock.sendall(fedwire._HEADER.pack(len(payload), MSG_UPDATE) + payload[: len(payload) // 2])


def _oversize_update_header(sock, payload):
    """An UPDATE header that declares one byte more than a weight frame has."""
    sock.sendall(fedwire._HEADER.pack(len(payload) + 1, MSG_UPDATE))


@pytest.mark.parametrize("send_bad_update", [_half_an_update, _oversize_update_header],
                         ids=["truncated", "oversize"])
def test_bad_update_mid_round_aborts_with_an_error_frame_to_the_survivor(send_bad_update):
    idle = 10.0
    fed = FedConfig(n_clients=2, n_rounds=1, local_epochs=1, batch_size=4, seed=1)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=1)
    survivor_shard = partition(tiny_dataset(n=6, side=8, seed=13), 2, seed=1)[1]
    t0 = time.monotonic()
    address, holder, server = _start_server(fed, cfg, accept_timeout=idle,
                                            idle_timeout=idle)
    fake = _connect(address, encode_hello("client-0", 3))
    outcome = {}

    def survive():
        try:
            client_join(address, survivor_shard, cfg, idle_timeout=idle)
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            outcome["error"] = exc

    survivor = threading.Thread(target=survive)
    survivor.start()
    try:
        frame = read_frame(fake)
        assert frame.msg_type == MSG_GLOBAL
        _, _, params = decode_weight_blob(frame.payload)
        send_bad_update(fake, encode_weight_blob(0, 3, params))
    finally:
        fake.close()
    server.join(timeout=idle)
    survivor.join(timeout=idle)
    assert not server.is_alive()
    assert time.monotonic() - t0 < idle
    error = holder.get("error")
    assert isinstance(error, ProtocolViolation)
    assert "client client-0" in str(error)
    assert isinstance(outcome.get("error"), ProtocolViolation)
    assert str(outcome["error"]).startswith("server error: ProtocolViolation: client client-0")


def test_client_join_retries_until_the_server_listens():
    probe = socket.create_server(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    hellos = []

    def late_server():
        time.sleep(0.3)
        with socket.create_server(address) as listener:
            listener.settimeout(10)
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10)
                hellos.append(read_frame(conn))
                fedwire.send_frame(conn, MSG_FIN)

    thread = threading.Thread(target=late_server)
    thread.start()
    shard = partition(tiny_dataset(n=4, side=8, seed=0), 1, seed=0)[0]
    try:
        assert client_join(address, shard, nn.TrainConfig(side=8), connect_timeout=10.0) == 0
    finally:
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert hellos[0].msg_type == MSG_HELLO


@pytest.mark.parametrize("client_id", ["client-0", "c" * 2000], ids=["short", "long"])
def test_error_frame_names_the_cause(client_id):
    fed = FedConfig(n_clients=2, n_rounds=1, local_epochs=1, seed=0)
    cfg = nn.TrainConfig(side=8, seed=0)
    address, holder, server = _start_server(fed, cfg, accept_timeout=10.0)
    survivor = _connect(address, encode_hello(client_id, 6))
    twin = _connect(address, encode_hello(client_id, 6))
    try:
        reply = read_frame(survivor)
        assert reply is not None and reply.msg_type == MSG_ERROR
    finally:
        survivor.close()
        twin.close()
    server.join(timeout=30)
    assert not server.is_alive()
    assert isinstance(holder.get("error"), ProtocolViolation)
    text = bytes(reply.payload).decode("utf-8")
    assert text.startswith("ProtocolViolation: duplicate client id ")
    assert client_id[:100] in text
    assert len(reply.payload) <= 1024


def test_failed_global_send_names_the_client_and_the_round():
    # a side-300 GLOBAL cannot fit in the socket buffers, so sending it to a
    # peer that has gone fails part way through
    fed = FedConfig(n_clients=1, n_rounds=1, local_epochs=1, seed=0)
    cfg = nn.TrainConfig(side=300, seed=0)
    address, holder, server = _start_server(fed, cfg, accept_timeout=10.0, idle_timeout=10.0)
    _connect(address, encode_hello("client-0", 1)).close()
    server.join(timeout=30)
    assert not server.is_alive()
    error = holder.get("error")
    assert isinstance(error, ProtocolViolation), repr(error)
    assert "client client-0 failed during round 0" in str(error)


def test_client_of_another_side_rejects_the_global_from_its_header():
    idle = 10.0
    fed = FedConfig(n_clients=2, n_rounds=1, local_epochs=1, batch_size=4, seed=1)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=1)
    wide_cfg = nn.TrainConfig(side=16, epochs=1, batch_size=4, seed=1)
    wide = partition(tiny_dataset(n=6, side=16, seed=13), 2, seed=1)[0]
    narrow = partition(tiny_dataset(n=6, side=8, seed=13), 2, seed=1)[1]
    t0 = time.monotonic()
    address, holder, server = _start_server(fed, cfg, accept_timeout=idle, idle_timeout=idle)
    outcome = {}

    def join(shard, config):
        try:
            client_join(address, shard, config, idle_timeout=idle)
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            outcome[shard.client_id] = exc

    clients = [threading.Thread(target=join, args=args)
               for args in ((wide, wide_cfg), (narrow, cfg))]
    for t in clients:
        t.start()
    for t in clients:
        t.join(timeout=idle)
    server.join(timeout=idle)
    assert not server.is_alive() and not any(t.is_alive() for t in clients)
    assert time.monotonic() - t0 < idle
    sent, expected = 8 + checkpoint.byte_length(8), 8 + checkpoint.byte_length(16)
    assert isinstance(outcome.get("client-0"), OversizeFrame)
    assert f"{sent} bytes declared; a side-16 weight frame has {expected}" in str(
        outcome["client-0"])
    error = holder.get("error")
    assert isinstance(error, ProtocolViolation) and "client client-0" in str(error)
    assert isinstance(outcome.get("client-1"), ProtocolViolation)
    assert str(outcome["client-1"]).startswith("server error: ProtocolViolation: client client-0")


def test_a_client_whose_training_fails_tells_the_server_why(monkeypatch):
    fed = FedConfig(n_clients=2, n_rounds=1, local_epochs=1, batch_size=4, seed=1)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=1)
    shards = partition(tiny_dataset(n=6, side=8, seed=14), 2, seed=1)
    real_local_train = fedwire.local_train

    def diverging(global_params, shard, *args, **kwargs):
        if shard.client_id == "client-0":
            raise FedransomError("loss diverged to nan in epoch 0")
        return real_local_train(global_params, shard, *args, **kwargs)

    monkeypatch.setattr(fedwire, "local_train", diverging)
    address, holder, server = _start_server(fed, cfg, accept_timeout=10.0, idle_timeout=10.0)
    outcome = {}

    def join(shard):
        try:
            client_join(address, shard, cfg, idle_timeout=10.0)
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            outcome[shard.client_id] = exc

    clients = [threading.Thread(target=join, args=(shard,)) for shard in shards]
    for t in clients:
        t.start()
    for t in clients:
        t.join(timeout=30)
    server.join(timeout=30)
    assert not server.is_alive() and not any(t.is_alive() for t in clients)
    assert str(outcome.get("client-0")) == "loss diverged to nan in epoch 0"
    cause = "client client-0 failed during round 0: FedransomError: loss diverged to nan in epoch 0"
    error = holder.get("error")
    assert isinstance(error, ProtocolViolation) and str(error) == cause
    assert str(outcome.get("client-1")) == f"server error: ProtocolViolation: {cause}"


def test_client_join_names_the_server_for_a_failed_read():
    listener = _free_listener()
    address = listener.getsockname()
    done = threading.Event()

    def silent_server():
        conn, _ = listener.accept()
        with conn, listener:
            read_frame(conn)  # swallow the HELLO, then say nothing
            done.wait(10)

    thread = threading.Thread(target=silent_server)
    thread.start()
    shard = partition(tiny_dataset(n=4, side=8, seed=0), 1, seed=0)[0]
    try:
        with pytest.raises(ProtocolViolation, match="^server connection failed: timed out"):
            client_join(address, shard, nn.TrainConfig(side=8), idle_timeout=0.3)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


_WEIGHTS_8 = encode_frame(MSG_UPDATE, encode_weight_blob(0, 3, random_params(8, 21)))


@st.composite
def _noise(draw):
    """Bytes a broken or hostile peer might send: random bytes; a frame header of
    a known type, with a random or a plausible length, over random bytes; or a
    side-8 UPDATE of 3 samples with bytes flipped."""
    kind = draw(st.sampled_from(["random", "header", "weights"]))
    if kind == "random":
        return draw(st.binary(max_size=512))
    if kind == "header":
        body = draw(st.binary(max_size=512))
        length = draw(st.one_of(st.just(len(body)), st.just(len(_WEIGHTS_8) - 5),
                                st.integers(0, 2**32 - 1)))
        msg_type = draw(st.sampled_from(sorted(fedwire._KNOWN_TYPES)))
        return fedwire._HEADER.pack(length, msg_type) + body
    blob = bytearray(_WEIGHTS_8)
    for at in draw(st.lists(st.integers(0, len(blob) - 1), max_size=4)):
        blob[at] ^= draw(st.integers(1, 255))
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(_noise(), st.sampled_from([None, 8]))
def test_read_frame_returns_a_frame_or_raises_a_typed_error_on_any_bytes(data, side):
    try:
        frame = _read_sent(data, side)
    except FedransomError:
        return
    assert frame is None or isinstance(frame, Frame)


@settings(max_examples=25, deadline=None)
@given(_noise(), st.booleans())
def test_serve_ends_with_a_typed_error_on_any_bytes_from_its_client(data, hello_first):
    # the HELLO announces 5 samples, so no UPDATE of 3 can complete the round
    fed = FedConfig(n_clients=1, n_rounds=1, local_epochs=1, batch_size=4, seed=0)
    cfg = nn.TrainConfig(side=8, epochs=1, batch_size=4, seed=0)
    idle = 1.0
    address, holder, server = _start_server(fed, cfg, accept_timeout=idle, idle_timeout=idle)
    with socket.create_connection(address, timeout=10) as sock:
        if hello_first:
            fedwire.send_frame(sock, MSG_HELLO, encode_hello("client-0", 5))
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        start = time.monotonic()
        server.join(timeout=10)
        elapsed = time.monotonic() - start
    assert not server.is_alive()
    assert elapsed <= idle + 1.0
    assert isinstance(holder.get("error"), FedransomError), holder
