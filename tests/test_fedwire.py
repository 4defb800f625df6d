import select
import socket
import threading
import time
import tracemalloc

import pytest
from helpers import params_equal, random_params, tiny_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from fedransom import fedwire, nn
from fedransom.errors import (ClientCountTimeout, OversizeFrame,
                              ProtocolViolation, TruncatedFrame, UnknownFrameType)
from fedransom.fedavg import FedConfig, partition, run_federation
from fedransom.fedwire import (MSG_ERROR, MSG_FIN, MSG_GLOBAL, MSG_HELLO,
                               MSG_UPDATE, Frame, client_join, decode_hello,
                               decode_weight_blob, encode_frame, encode_hello,
                               encode_weight_blob, read_frame, serve)


def test_fin_frame_golden_bytes():
    assert encode_frame(MSG_FIN, b"") == b"\x00\x00\x00\x00\x04"


def test_frame_length_is_little_endian():
    frame = encode_frame(MSG_ERROR, b"ab")
    assert frame == b"\x02\x00\x00\x00\x7fab"


def _read_sent(data: bytes):
    """read_frame over a socket pair whose writer sent *data*, then closed."""
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(5.0)
        writer.sendall(data)
        writer.shutdown(socket.SHUT_WR)
        return read_frame(reader)


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


def _receive(sock, size):
    """A thread that reads *size* bytes from *sock* into a buffer made up front."""
    buf = bytearray(size)

    def run():
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
        # declares the largest allowed payload, then sends one byte of it
        writer.sendall(fedwire.MAX_PAYLOAD.to_bytes(4, "little") + bytes([MSG_UPDATE, 7]))
        writer.close()
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFrame):
                read_frame(reader)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
    finally:
        reader.close()


def test_read_frame_returns_a_payload_larger_than_the_first_buffer():
    payload = bytes(range(256)) * (5 * 2**20 // 256 + 3)
    reader, writer = socket.socketpair()
    sender = threading.Thread(target=writer.sendall, args=(encode_frame(MSG_UPDATE, payload),))
    try:
        reader.settimeout(5.0)
        sender.start()
        assert read_frame(reader) == Frame(MSG_UPDATE, payload)
    finally:
        sender.join()
        reader.close()
        writer.close()


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

    shards = partition(ds, fed.n_clients, fed.seed)
    listener = _free_listener()
    address = listener.getsockname()
    holder = {}
    server = threading.Thread(target=_run_server, args=(listener, fed, cfg, holder),
                              kwargs={"accept_timeout": 30.0})
    server.start()
    clients = [threading.Thread(target=client_join, args=(address, shard, cfg))
               for shard in shards]
    for t in clients:
        t.start()
    for t in clients:
        t.join(timeout=120)
    server.join(timeout=120)

    assert "error" not in holder, holder.get("error")
    wire_params, _ = holder["result"]
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
    """An UPDATE header that declares one byte more than MAX_PAYLOAD."""
    sock.sendall(fedwire._HEADER.pack(fedwire.MAX_PAYLOAD + 1, MSG_UPDATE))


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
