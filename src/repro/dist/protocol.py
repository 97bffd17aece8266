"""Wire protocol of the distributed mining cluster.

Frames are **length-prefixed JSON**: a 4-byte big-endian unsigned
length followed by a UTF-8 JSON object.  JSON keeps the control plane
debuggable (``tcpdump`` of a coordinator port reads almost like a
log), while bulk payloads — pickled shard tasks, partials, trained
ensembles and typed exceptions — ride inside frames as base64 strings
(zlib-packed past a size threshold; a one-byte marker ahead of the
pickle says which), so one framing layer serves both and large
payloads cross WANs compressed.

Everything here is Python stdlib (``socket``/``struct``/``json``/
``base64``): the cluster adds no dependencies over single-machine
mining.

Message vocabulary (``type`` field):

========== ============ ====================================================
type       direction    meaning
========== ============ ====================================================
hello      worker→coord register: name, pid, protocol version
welcome    coord→worker registration accepted (echoes protocol version)
ready      worker→coord idle, willing to run a task
task       coord→worker one shard task: id, phase, attempt, runner, payload
heartbeat  worker→coord lease renewal while a task is running
interim    worker→coord one item a running task sent ahead of its result
result     worker→coord task finished: status ok / error
shutdown   coord→worker drain and exit
goodbye    worker→coord graceful leave (coordinator reassigns its lease)
========== ============ ====================================================

Security note: payloads are **pickle** — the coordinator and its
workers mutually trust each other by construction (they are one user's
mining run).  Bind to loopback or a private network, never the open
internet.  As a second line of defence the worker refuses to resolve
runner functions outside the ``repro.`` namespace.
"""

from __future__ import annotations

import base64
import importlib
import json
import pickle
import socket
import struct
import zlib
from typing import Callable, Dict, List, Optional

#: bumped on any incompatible frame/message change; hello/welcome
#: exchange it so mismatched versions fail loudly at registration.
#: v2: payloads carry a compression marker byte (raw / zlib)
#: v3: analyze results carry match records; the extract phase and the
#: ``ready`` frame's bundle advertisement are gone
#: v4: analyze tasks no longer carry a cache directory or fingerprint;
#: ``interim`` frames stream each settled program ahead of the result
#: v5: analyze tasks carry the fault plan; the ``corrupt`` result
#: status is gone
PROTOCOL_VERSION = 5

#: frame length prefix: 4-byte big-endian unsigned
_LENGTH = struct.Struct("!I")

#: sanity bound on one frame (a shard task over a huge corpus slice
#: stays far below this; anything larger is a framing bug, not data)
MAX_FRAME_BYTES = 1 << 30

#: runner functions must live under this package prefix — the worker
#: executes whatever the coordinator names, so restrict the namespace
RUNNER_PREFIX = "repro."


class ProtocolError(Exception):
    """A peer broke the framing or message contract."""


# ----------------------------------------------------------------------
# payloads (pickle [⇄ zlib] ⇄ base64 inside JSON frames)

#: payload marker bytes ahead of the (possibly compressed) pickle
_PAYLOAD_RAW = b"\x00"
_PAYLOAD_ZLIB = b"\x01"

#: pickles below this stay raw — zlib on tiny control payloads costs
#: CPU for nothing; above it (partials, analyse tasks) the wire
#: savings dominate
COMPRESS_THRESHOLD = 1024


def pack_payload(obj: object, *, compress: bool = True) -> str:
    """Pickle ``obj`` and armour it for a JSON frame.

    Payloads at least :data:`COMPRESS_THRESHOLD` bytes are
    zlib-compressed (markered, so :func:`unpack_payload` needs no
    out-of-band signal); pass ``compress=False`` to force raw.
    """
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if compress and len(raw) >= COMPRESS_THRESHOLD:
        body = _PAYLOAD_ZLIB + zlib.compress(raw, 6)
    else:
        body = _PAYLOAD_RAW + raw
    return base64.b64encode(body).decode("ascii")


def unpack_payload(text: str) -> object:
    """Inverse of :func:`pack_payload`."""
    body = base64.b64decode(text.encode("ascii"))
    if not body:
        raise ProtocolError("empty payload")
    marker, raw = body[:1], body[1:]
    if marker == _PAYLOAD_ZLIB:
        try:
            raw = zlib.decompress(raw)
        except zlib.error as err:
            raise ProtocolError(f"corrupt compressed payload: {err}") \
                from err
    elif marker != _PAYLOAD_RAW:
        raise ProtocolError(f"unknown payload marker {marker!r}")
    return pickle.loads(raw)


def runner_ref(fn: Callable) -> str:
    """The wire name of a module-level runner function."""
    ref = f"{fn.__module__}:{fn.__qualname__}"
    if not ref.startswith(RUNNER_PREFIX):
        raise ProtocolError(f"runner {ref!r} outside {RUNNER_PREFIX}*")
    return ref


def resolve_runner(ref: str) -> Callable:
    """Import the runner a task frame names (``module:qualname``)."""
    module_name, _, qualname = ref.partition(":")
    if not module_name.startswith(RUNNER_PREFIX) or not qualname:
        raise ProtocolError(f"refusing to resolve runner {ref!r}")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ProtocolError(f"runner {ref!r} is not callable")
    return obj


# ----------------------------------------------------------------------
# framing


def encode_frame(message: Dict[str, object]) -> bytes:
    """One message → length-prefixed wire bytes."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds limit")
    return _LENGTH.pack(len(body)) + body


def send_frame(sock: socket.socket, message: Dict[str, object]) -> None:
    """Serialise and send one frame (blocking, whole-frame)."""
    sock.sendall(encode_frame(message))


class FrameDecoder:
    """Incremental frame decoder for a non-blocking receive path.

    Feed it whatever bytes the socket produced; it yields every
    complete message and buffers the tail of a split frame.  One
    decoder per connection.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        self._buffer.extend(data)
        messages: List[Dict[str, object]] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return messages
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"peer announced a {length}-byte frame (limit "
                    f"{MAX_FRAME_BYTES})"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            try:
                message = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as err:
                raise ProtocolError(f"undecodable frame: {err}") from err
            if not isinstance(message, dict) or "type" not in message:
                raise ProtocolError(f"frame without a type: {message!r}")
            messages.append(message)


def recv_frame(
    sock: socket.socket, decoder: FrameDecoder,
    pending: List[Dict[str, object]],
) -> Optional[Dict[str, object]]:
    """Blocking receive of the next message on a worker connection.

    ``pending`` holds messages the decoder produced beyond the one
    returned (frames often arrive coalesced); callers drain it before
    reading the socket again.  Returns None on EOF.
    """
    while not pending:
        try:
            data = sock.recv(65536)
        except OSError:
            return None
        if not data:
            return None
        pending.extend(decoder.feed(data))
    return pending.pop(0)
