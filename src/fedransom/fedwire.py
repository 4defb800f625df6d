"""TCP transport for the federation: one server, K clients, framed messages.

Frame layout, little-endian:

    length  u32   number of payload bytes after the type byte
    type    u8    0x01 HELLO, 0x02 GLOBAL, 0x03 UPDATE, 0x04 FIN, 0x7F ERROR
    payload bytes

HELLO carries "<I" n_samples (at least 1) then the client id, UTF-8.
GLOBAL and UPDATE carry a weight blob: "<II" (round, n_samples) then a
checkpoint in the "FRWM" format, byte for byte; every UPDATE repeats the
n_samples of its client's HELLO. ERROR carries the cause of an abort as
UTF-8 text of at most MAX_ERROR_BYTES; FIN is empty. Rounds are
synchronous: the server aggregates only after all K updates for the round
have arrived, so a loopback federation reproduces the in-process engine
exactly.
"""

from __future__ import annotations

import socket
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .checkpoint import params_from_bytes, write_tensors
from .data import Dataset
from .errors import (ClientCountTimeout, OversizeFrame, ProtocolViolation,
                     TruncatedFrame, UnknownFrameType)
from .fedavg import ClientShard, ClientUpdate, FedConfig, aggregate, local_train, round_report
from .metrics import EvalReport
from .nn import ModelParams, TrainConfig, init_params

MSG_HELLO = 0x01
MSG_GLOBAL = 0x02
MSG_UPDATE = 0x03
MSG_FIN = 0x04
MSG_ERROR = 0x7F

_KNOWN_TYPES = frozenset({MSG_HELLO, MSG_GLOBAL, MSG_UPDATE, MSG_FIN, MSG_ERROR})
_HEADER = struct.Struct("<IB")
_BLOB_HEAD = struct.Struct("<II")
_HELLO_HEAD = struct.Struct("<I")
MAX_PAYLOAD = 2 ** 31
_RECV_START = 1 << 20

DEFAULT_IDLE_TIMEOUT = 300.0
MAX_ERROR_BYTES = 1024
_CONNECT_RETRY_S = 0.05


@dataclass(frozen=True)
class Frame:
    msg_type: int
    payload: bytes  # a bytearray when read from a socket


def _check_header(length: int, msg_type: int) -> None:
    if msg_type not in _KNOWN_TYPES:
        raise UnknownFrameType(f"message type 0x{msg_type:02x} is not in the protocol")
    if length > MAX_PAYLOAD:
        raise OversizeFrame(f"payload of {length} bytes exceeds {MAX_PAYLOAD}")


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    _check_header(len(payload), msg_type)
    return _HEADER.pack(len(payload), msg_type) + payload


def decode_frame(data: bytes) -> Frame:
    """Parse exactly one frame; rejects short input and unknown types."""
    if len(data) < _HEADER.size:
        raise TruncatedFrame(f"{len(data)} bytes is shorter than a frame header")
    length, msg_type = _HEADER.unpack_from(data)
    _check_header(length, msg_type)
    if len(data) < _HEADER.size + length:
        raise TruncatedFrame(f"payload cut short: {len(data) - _HEADER.size} of {length} bytes")
    if len(data) > _HEADER.size + length:
        raise ProtocolViolation(f"{len(data) - _HEADER.size - length} bytes after the frame")
    return Frame(msg_type, data[_HEADER.size :])


def encode_hello(client_id: str, n_samples: int) -> bytes:
    return _HELLO_HEAD.pack(n_samples) + client_id.encode("utf-8")


def decode_hello(payload: bytes) -> tuple[str, int]:
    if len(payload) < _HELLO_HEAD.size:
        raise TruncatedFrame("hello payload shorter than its header")
    (n_samples,) = _HELLO_HEAD.unpack_from(payload)
    if n_samples < 1:
        raise ProtocolViolation("hello announces no samples")
    try:
        return payload[_HELLO_HEAD.size :].decode("utf-8"), n_samples
    except UnicodeDecodeError as exc:
        raise ProtocolViolation(f"client id is not UTF-8: {exc}") from None


def encode_weight_blob(round_index: int, n_samples: int, params: ModelParams) -> bytes:
    return write_tensors(params.named(), _BLOB_HEAD.pack(round_index, n_samples))


def decode_weight_blob(payload: bytes) -> tuple[int, int, ModelParams]:
    if len(payload) < _BLOB_HEAD.size:
        raise TruncatedFrame("weight blob shorter than its header")
    round_index, n_samples = _BLOB_HEAD.unpack_from(payload)
    return round_index, n_samples, params_from_bytes(memoryview(payload)[_BLOB_HEAD.size :])


def send_frame(sock: socket.socket, msg_type: int, payload: bytes = b"") -> None:
    """Send one frame without copying *payload*."""
    _check_header(len(payload), msg_type)
    header = _HEADER.pack(len(payload), msg_type)
    # one sendmsg: a header sent apart from its payload can stall on Nagle
    # and delayed ACK
    sent = sock.sendmsg([header, payload])
    if sent < len(header):
        sock.sendall(header[sent:])
        sent = len(header)
    if sent < len(header) + len(payload):
        with memoryview(payload) as view:
            sock.sendall(view[sent - len(header) :])


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytearray]:
    """n bytes read into one buffer, or None on a clean close at a frame boundary.

    The buffer starts at 1 MiB and doubles only when the bytes received so
    far fill it, so a header that declares a large payload commits at most
    twice the bytes that the peer actually sends.
    """
    buf = bytearray(min(n, _RECV_START))
    got = 0
    while got < n:
        if got == len(buf):
            buf.extend(bytes(min(got, n - got)))
        with memoryview(buf) as view:
            read = sock.recv_into(view[got:])
        if not read:
            if got == 0:
                return None
            raise TruncatedFrame(f"connection closed {got} bytes into a {n}-byte read")
        got += read
    return buf


def read_frame(sock: socket.socket) -> Optional[Frame]:
    """One whole frame from the socket, or None on a clean close.

    The header is checked before the payload is read, so an unknown type or
    an oversize length is rejected without buffering anything after it, and
    the payload buffer grows only as its bytes arrive.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length, msg_type = _HEADER.unpack(header)
    _check_header(length, msg_type)
    if not length:
        return Frame(msg_type, b"")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise TruncatedFrame("connection closed before the payload")
    return Frame(msg_type, payload)


@dataclass
class _Peer:
    sock: socket.socket
    client_id: str
    n_samples: int


def serve(bind: tuple[str, int], fed_config: FedConfig, train_config: TrainConfig,
          val_set: Optional[Dataset] = None, train_set: Optional[Dataset] = None,
          accept_timeout: float = DEFAULT_IDLE_TIMEOUT,
          idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
          listener: Optional[socket.socket] = None,
          ) -> tuple[ModelParams, list[EvalReport]]:
    """Run the aggregation side over TCP and return the final global model.

    Waits for exactly n_clients HELLOs, then per round broadcasts the
    global weights, gathers one UPDATE per client, and aggregates. Reports
    mirror run_federation when train_set/val_set are provided. Callers may
    pass an already-listening *listener* (then bind is ignored); it is
    closed once the clients have joined. On any failure every accepted
    connection gets an ERROR frame before it is closed.
    """
    socks: list[socket.socket] = []
    try:
        with listener if listener is not None else socket.create_server(bind) as listening:
            listening.settimeout(0.1)
            peers = _await_clients(listening, socks, fed_config.n_clients,
                                   accept_timeout, idle_timeout)
        peers.sort(key=lambda p: p.client_id)
        global_params = init_params(train_config.side, train_config.seed)
        reports: list[EvalReport] = []
        # One reader per peer. The first failure in peer order propagates once
        # the with block has waited for every read of the round, so no ERROR
        # frame goes out while a peer's UPDATE is still being read. Unlike
        # Executor.map, result() cancels no read that has yet to start.
        with ThreadPoolExecutor(len(peers)) as pool:
            for round_index in range(fed_config.n_rounds):
                blob = encode_weight_blob(round_index, 0, global_params)
                for peer in peers:
                    send_frame(peer.sock, MSG_GLOBAL, blob)
                reads = [pool.submit(_read_update, peer, round_index) for peer in peers]
                global_params = aggregate([read.result() for read in reads])
                if train_set is not None:
                    reports.append(round_report(global_params, round_index, train_set, val_set))
        for peer in peers:
            send_frame(peer.sock, MSG_FIN)
        return global_params, reports
    except BaseException as exc:
        reason = f"{type(exc).__name__}: {exc}".encode("utf-8")[:MAX_ERROR_BYTES]
        for sock in socks:
            try:
                send_frame(sock, MSG_ERROR, reason)
            except OSError:
                pass
        raise
    finally:
        for sock in socks:
            sock.close()


def _await_clients(listener: socket.socket, socks: list[socket.socket], n_clients: int,
                   accept_timeout: float, idle_timeout: float) -> list[_Peer]:
    """Accept until n_clients valid, distinct HELLOs arrived, each connection
    appended to *socks* as soon as it is accepted. A HELLO must arrive before
    the accept deadline; later reads wait up to *idle_timeout*."""
    deadline = time.monotonic() + accept_timeout
    peers: list[_Peer] = []
    while len(peers) < n_clients:
        left = deadline - time.monotonic()
        if left <= 0:
            raise ClientCountTimeout(
                f"{len(peers)} of {n_clients} clients joined within {accept_timeout}s")
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            continue
        socks.append(conn)
        conn.settimeout(left)
        try:
            frame = read_frame(conn)
        except socket.timeout:
            continue  # no HELLO by the deadline: the loop raises ClientCountTimeout
        if frame is None or frame.msg_type != MSG_HELLO:
            raise ProtocolViolation("expected HELLO as the first message")
        client_id, n_samples = decode_hello(frame.payload)
        if client_id in {p.client_id for p in peers}:
            raise ProtocolViolation(f"duplicate client id {client_id!r}")
        conn.settimeout(idle_timeout)
        peers.append(_Peer(conn, client_id, n_samples))
    return peers


def _read_update(peer: _Peer, round_index: int) -> ClientUpdate:
    """The peer's UPDATE for the round; every failure is a ProtocolViolation
    that names the peer."""
    who = f"client {peer.client_id}"
    try:
        frame = read_frame(peer.sock)
        if frame is None:
            raise ProtocolViolation(f"{who} disconnected during round {round_index}")
        if frame.msg_type != MSG_UPDATE:
            raise ProtocolViolation(
                f"{who} sent type 0x{frame.msg_type:02x}, expected UPDATE")
        got_round, n_samples, params = decode_weight_blob(frame.payload)
    except (OSError, ValueError) as exc:  # timeouts, resets, bad frames and blobs
        raise ProtocolViolation(f"{who} failed during round {round_index}: {exc}") from exc
    if got_round != round_index:
        raise ProtocolViolation(f"{who} answered round {got_round} during round {round_index}")
    if n_samples != peer.n_samples:
        raise ProtocolViolation(
            f"{who} sent an update of {n_samples} samples after a hello of {peer.n_samples}")
    return ClientUpdate(peer.client_id, got_round, params, n_samples)


def _connect(address: tuple[str, int], timeout: float) -> socket.socket:
    """A connection to *address*, retrying refusals until *timeout* has passed."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return socket.create_connection(address, timeout=timeout)
        except ConnectionRefusedError:
            left = deadline - time.monotonic()
            if left <= 0:
                raise
            time.sleep(min(_CONNECT_RETRY_S, left))


def client_join(address: tuple[str, int], shard: ClientShard,
                config: TrainConfig, connect_timeout: float = 10.0,
                idle_timeout: float = DEFAULT_IDLE_TIMEOUT) -> int:
    """Join a federation: HELLO, then train on each GLOBAL until FIN.

    Returns 0 on a clean FIN. A refused connection is retried until
    *connect_timeout*, so a client may start before its server listens; the
    last refusal then propagates. Any protocol surprise raises
    ProtocolViolation.
    """
    sock = _connect(address, connect_timeout)
    sock.settimeout(idle_timeout)
    try:
        send_frame(sock, MSG_HELLO, encode_hello(shard.client_id, len(shard)))
        while True:
            frame = read_frame(sock)
            if frame is None:
                raise ProtocolViolation("server closed the connection without FIN")
            if frame.msg_type == MSG_FIN:
                return 0
            if frame.msg_type == MSG_ERROR:
                raise ProtocolViolation(
                    f"server error: {frame.payload.decode('utf-8', 'replace')}")
            if frame.msg_type != MSG_GLOBAL:
                raise ProtocolViolation(
                    f"unexpected message type 0x{frame.msg_type:02x} from server")
            round_index, _, global_params = decode_weight_blob(frame.payload)
            update = local_train(global_params, shard, config, round_index)
            send_frame(sock, MSG_UPDATE,
                       encode_weight_blob(round_index, update.n_samples, update.params))
    finally:
        sock.close()
