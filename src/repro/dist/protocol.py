"""Wire protocol of the distributed mining cluster.

The coordinator and its workers talk over
:class:`multiprocessing.connection.Connection` — the same type, frame
format and message tuples as the local pool's pipes
(:func:`repro.mining.supervisor._pool_main`), driven by the same
:class:`~repro.mining.supervisor.TaskScheduler` loop.  A frame is a
4-byte big-endian length followed by one pickle; readers bound it with
:data:`repro.mining.supervisor.MAX_FRAME_BYTES`.

Messages:

===================================  ============ ========================
message                              direction    meaning
===================================  ============ ========================
``("hello", name, version)``         worker→coord register
``("welcome", lease)``               coord→worker registered; heartbeat
                                                  within ``lease`` seconds
``("error", reason)``                coord→worker registration refused
``(runner_ref, payload, attempt)``   coord→worker one task
``("heartbeat",)``                   worker→coord renew the held lease
``("interim", item)``                worker→coord one item sent ahead of
                                                  the reply
``("ok", result)``                   worker→coord the task's result
``("error", exc)``                   worker→coord the task's typed error
``("goodbye",)``                     worker→coord graceful leave
``None``                             coord→worker shut down
===================================  ============ ========================

A worker is idle once it has been welcomed or has replied; each
connection holds at most one task, so replies and heartbeats carry no
task id.  The coordinator drops a connection whose first message is not
``hello``.

Security note: frames are **pickle from the first byte**, and there is
no authentication: a peer that can reach the coordinator's port can
run code in it.  Bind to loopback or a private network, never the open
internet.  As a second line of defence the worker refuses to resolve
runner functions outside the ``repro.`` namespace.
"""

from __future__ import annotations

import base64
import importlib
import pickle
import zlib
from typing import Callable

#: bumped on any incompatible frame/message change; hello/welcome
#: exchange it so mismatched versions fail loudly at registration.
#: v2: payloads carry a compression marker byte (raw / zlib)
#: v3: analyze results carry match records; the extract phase and the
#: ``ready`` frame's bundle advertisement are gone
#: v4: analyze tasks no longer carry a cache directory or fingerprint;
#: ``interim`` frames stream each settled program ahead of the result
#: v5: analyze tasks carry the fault plan; the ``corrupt`` result
#: status is gone
#: v6: pickled ``Connection`` frames with the pool's message tuples
#: replace JSON frames, base64 and zlib; ``ready`` and task ids are gone
PROTOCOL_VERSION = 6

#: runner functions must live under this package prefix — the worker
#: executes whatever the coordinator names, so restrict the namespace
RUNNER_PREFIX = "repro."


class ProtocolError(Exception):
    """A peer broke the message contract."""


# ----------------------------------------------------------------------
# payload armour of the JSON wire before protocol v6, kept only for
# the benchmark that times it


#: payload marker bytes ahead of the (possibly compressed) pickle
_PAYLOAD_RAW = b"\x00"
_PAYLOAD_ZLIB = b"\x01"

#: pickles below this stay raw
COMPRESS_THRESHOLD = 1024


def pack_payload(obj: object, *, compress: bool = True) -> str:
    """Pickle ``obj`` and armour it as base64 text.

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


# ----------------------------------------------------------------------
# runners


def runner_ref(fn: Callable) -> str:
    """The wire name of a module-level runner function."""
    ref = f"{fn.__module__}:{fn.__qualname__}"
    if not ref.startswith(RUNNER_PREFIX):
        raise ProtocolError(f"runner {ref!r} outside {RUNNER_PREFIX}*")
    return ref


def resolve_runner(ref: str) -> Callable:
    """Import the runner a task names (``module:qualname``)."""
    module_name, _, qualname = ref.partition(":")
    if not module_name.startswith(RUNNER_PREFIX) or not qualname:
        raise ProtocolError(f"refusing to resolve runner {ref!r}")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ProtocolError(f"runner {ref!r} is not callable")
    return obj
