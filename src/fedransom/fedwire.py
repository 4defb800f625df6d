"""TCP transport for the federation: one server, K clients, framed messages.

Frame layout, little-endian:

    length  u32   number of payload bytes after the type byte
    type    u8    0x01 HELLO, 0x02 GLOBAL, 0x03 UPDATE, 0x04 FIN, 0x7F ERROR
    payload bytes

HELLO carries "<I" n_samples (at least 1) then the client id, UTF-8.
GLOBAL and UPDATE carry "<II" (round, n_samples) then a "FRWM" checkpoint:
exactly 8 + byte_length(side) bytes. Every UPDATE repeats the n_samples of
its client's HELLO. ERROR carries the cause of an abort as UTF-8 text of at
most MAX_ERROR_BYTES; FIN is empty. Other frames, and weight frames read
without a side, carry at most MAX_CONTROL_BYTES. serve runs fedavg.run_rounds,
the in-process engine's round loop, so a loopback federation reproduces that
engine exactly; a failure raises once every read of its round has ended.
Weight frames are sent from the model's arrays (WeightBuffers) and read into
a new model's arrays: no encoded copy of a model is made on either side.
"""

from __future__ import annotations

import math
import socket
import struct
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import suppress
from typing import NamedTuple, Optional

from .checkpoint import byte_length, param_buffers, params_from_bytes, read_params
from .data import Dataset
from .errors import (ClientCountTimeout, EmptyShard, OversizeFrame, ProtocolViolation,
                     TruncatedFrame, UnknownFrameType)
from .fedavg import ClientShard, ClientUpdate, FedConfig, client_id_bytes, local_train, run_rounds
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
MAX_CONTROL_BYTES = 1 << 16

DEFAULT_IDLE_TIMEOUT = 300.0
MAX_ERROR_BYTES = 1024
_CONNECT_RETRY_S = 0.05


class Frame(NamedTuple):
    msg_type: int
    payload: bytes = b""  # a bytearray when read from a socket
    weights: Optional[tuple[int, int, ModelParams]] = None  # (round, n_samples, params)


def _check_header(length: int, msg_type: int, cap: int = MAX_PAYLOAD) -> None:
    if msg_type not in _KNOWN_TYPES:
        raise UnknownFrameType(f"message type 0x{msg_type:02x} is not in the protocol")
    if length > cap:
        raise OversizeFrame(f"payload of {length} bytes exceeds {cap}")


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    _check_header(len(payload), msg_type)
    return _HEADER.pack(len(payload), msg_type) + payload


def encode_hello(client_id: str, n_samples: int) -> bytes:
    return _HELLO_HEAD.pack(n_samples) + client_id_bytes(client_id)


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
    return b"".join(WeightBuffers(round_index, n_samples, params).views)


class WeightBuffers:
    """encode_weight_blob's payload as buffers, tensors not copied; len() counts its bytes."""

    def __init__(self, round_index: int, n_samples: int, params: ModelParams) -> None:
        head = _BLOB_HEAD.pack(round_index, n_samples)
        self.views = [memoryview(b).cast("B") for b in (head, *param_buffers(params))]

    def __len__(self) -> int:
        return sum(map(len, self.views))


def decode_weight_blob(payload: bytes) -> tuple[int, int, ModelParams]:
    params = params_from_bytes(memoryview(payload)[_BLOB_HEAD.size :])  # rejects a short blob
    return (*_BLOB_HEAD.unpack_from(payload), params)


def send_frame(sock: socket.socket, msg_type: int, payload: bytes = b"") -> None:
    """Send one frame without copying *payload*, bytes or WeightBuffers."""
    _check_header(len(payload), msg_type)
    parts = payload.views if isinstance(payload, WeightBuffers) else [memoryview(payload).cast("B")]
    views = [memoryview(_HEADER.pack(len(payload), msg_type)), *parts]
    # the header goes in the first sendmsg with the payload: a header sent
    # apart from its payload can stall on Nagle and delayed ACK
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if views:
            views[0] = views[0][sent:]


def _fill(sock: socket.socket, view: memoryview) -> None:
    """Fill *view* from the socket."""
    while view:
        read = sock.recv_into(view)
        if not read:
            raise TruncatedFrame(f"connection closed {len(view)} bytes before the frame's end")
        view = view[read:]


def read_frame(sock: socket.socket, side: Optional[int] = None) -> Optional[Frame]:
    """One whole frame from the socket, or None on a clean close.

    The header is checked before the payload is read. Given the model's
    *side*, a GLOBAL or UPDATE frame comes back as its weights, read in
    place; any other frame comes back as its payload.
    """
    header = bytearray(_HEADER.size)
    got = sock.recv_into(header)
    if not got:
        return None
    _fill(sock, memoryview(header)[got:])
    length, msg_type = _HEADER.unpack(header)
    if side is None or msg_type not in (MSG_GLOBAL, MSG_UPDATE):
        _check_header(length, msg_type, MAX_CONTROL_BYTES)
        payload = bytearray(length)
        _fill(sock, memoryview(payload))
        return Frame(msg_type, payload)
    want = _BLOB_HEAD.size + byte_length(side)
    if length != want:
        raise OversizeFrame(f"{length} bytes declared; a side-{side} weight frame has {want}")
    head = bytearray(_BLOB_HEAD.size)
    _fill(sock, memoryview(head))
    params = read_params(lambda view: _fill(sock, view), side)
    return Frame(msg_type, weights=(*_BLOB_HEAD.unpack(head), params))


class _Peer(NamedTuple):
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

    Waits for exactly n_clients HELLOs, then per round broadcasts the global
    weights and reads one UPDATE per client, a thread per client, for
    fedavg.run_rounds to aggregate; it reports each round when train_set or
    val_set is given. A *listener* given replaces bind and is closed once the
    clients have joined. On any failure every accepted connection gets an
    ERROR frame before it is closed. A timeout that is not a positive, finite
    number of seconds raises ValueError before serve opens or takes a socket.
    """
    _check_timeouts(accept_timeout, idle_timeout)
    socks: list[socket.socket] = []
    try:
        with listener if listener is not None else socket.create_server(bind) as listening:
            listening.settimeout(0.1)
            peers = _await_clients(listening, socks, fed_config.n_clients,
                                   accept_timeout, idle_timeout)
        peers.sort(key=lambda p: p.client_id)
        side = train_config.side
        with ThreadPoolExecutor(len(peers)) as pool:
            def start_round(params: ModelParams, round_index: int) -> list[Future]:
                blob = WeightBuffers(round_index, 0, params)
                for peer in peers:
                    _send(peer, round_index, MSG_GLOBAL, blob)
                return [pool.submit(_read_update, p, round_index, side) for p in peers]

            global_params, reports = run_rounds(
                init_params(side, train_config.seed), fed_config.n_rounds, start_round,
                train_set, val_set)
        for peer in peers:
            _send(peer, fed_config.n_rounds - 1, MSG_FIN)
        return global_params, reports
    except BaseException as exc:
        for sock in socks:
            _send_error(sock, exc)
        raise
    finally:
        for sock in socks:
            sock.close()


def _send_error(sock: socket.socket, exc: BaseException) -> None:
    """Tell the peer why this side aborts, as far as the connection still allows."""
    reason = f"{type(exc).__name__}: {exc}".encode("utf-8")[:MAX_ERROR_BYTES]
    with suppress(OSError):
        send_frame(sock, MSG_ERROR, reason)


def _check_timeouts(*timeouts: float) -> None:
    if not all(0 < t < math.inf for t in timeouts):
        raise ValueError(f"timeouts must be positive, finite numbers of seconds: {timeouts}")


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
            raise ClientCountTimeout(f"{len(peers)} of {n_clients} joined in {accept_timeout}s")
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


def _send(peer: _Peer, round_index: int, msg_type: int, payload: bytes = b"") -> None:
    """send_frame to the peer; a failure is a ProtocolViolation that names it."""
    try:
        send_frame(peer.sock, msg_type, payload)
    except OSError as exc:  # timeouts, resets, closed pipes
        raise ProtocolViolation(
            f"client {peer.client_id} failed during round {round_index}: {exc}") from exc


def _read_update(peer: _Peer, round_index: int, side: int) -> ClientUpdate:
    """The peer's UPDATE for the round; a failure is a ProtocolViolation naming it."""
    who = f"client {peer.client_id}"
    try:
        frame = read_frame(peer.sock, side)
        if frame is None:
            raise ProtocolViolation(f"{who} disconnected during round {round_index}")
        if frame.msg_type == MSG_ERROR:
            raise ProtocolViolation(f"{who} failed during round {round_index}: "
                                    f"{frame.payload.decode('utf-8', 'replace')}")
        if frame.msg_type != MSG_UPDATE:
            raise ProtocolViolation(f"{who} sent type 0x{frame.msg_type:02x}, expected UPDATE")
        got_round, n_samples, params = frame.weights
    except (OSError, ValueError) as exc:  # timeouts, resets, bad frames and blobs
        raise ProtocolViolation(f"{who} failed during round {round_index}: {exc}") from exc
    if got_round != round_index:
        raise ProtocolViolation(f"{who} answered round {got_round} during round {round_index}")
    if n_samples != peer.n_samples:
        raise ProtocolViolation(f"{who} sent {n_samples} samples after a hello of {peer.n_samples}")
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
    """Join a federation: HELLO, then train on each GLOBAL until FIN; 0 on FIN.

    A refused connection is retried until *connect_timeout*, then raised. A
    failed read or send, or any protocol surprise, raises ProtocolViolation;
    a GLOBAL for another side than config.side, OversizeFrame from its header;
    a timeout that is not positive and finite or an id that is not valid UTF-8,
    ValueError, and an empty shard, EmptyShard, before it connects. Every
    failure but a failed read or send also goes to the server as ERROR.
    """
    _check_timeouts(connect_timeout, idle_timeout)
    if len(shard) == 0:  # the server would end the whole federation on its hello
        raise EmptyShard(f"client {shard.client_id} has no samples")
    hello = encode_hello(shard.client_id, len(shard))
    sock = _connect(address, connect_timeout)
    try:
        sock.settimeout(idle_timeout)
        send_frame(sock, MSG_HELLO, hello)
        while _client_round(sock, shard, config):
            pass
        return 0
    except OSError as exc:  # timeouts, resets, closed pipes
        raise ProtocolViolation(f"server connection failed: {exc}") from exc
    except BaseException as exc:
        _send_error(sock, exc)
        raise
    finally:
        sock.close()


def _client_round(sock: socket.socket, shard: ClientShard, config: TrainConfig) -> bool:
    """Answer one GLOBAL with an UPDATE, keeping nothing of it; False on FIN."""
    frame = read_frame(sock, config.side)
    if frame is None:
        raise ProtocolViolation("server closed the connection without FIN")
    if frame.msg_type == MSG_FIN:
        return False
    if frame.msg_type == MSG_ERROR:
        raise ProtocolViolation(f"server error: {frame.payload.decode('utf-8', 'replace')}")
    if frame.msg_type != MSG_GLOBAL:
        raise ProtocolViolation(f"unexpected message type 0x{frame.msg_type:02x} from server")
    round_index, _, global_params = frame.weights
    update = local_train(global_params, shard, config, round_index)
    send_frame(sock, MSG_UPDATE, WeightBuffers(round_index, update.n_samples, update.params))
    return True
