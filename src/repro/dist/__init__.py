"""repro.dist — socket-based coordinator/worker cluster for
distributed shard mining.

The subsystem distributes the PR 2/3 map/reduce mining engine across
machines with zero new dependencies: a :class:`Coordinator` serves
shard tasks over a length-prefixed JSON/TCP protocol
(:mod:`repro.dist.protocol`) and :func:`run_worker` daemons pull
tasks, run the unchanged in-process mining path (budget ladder, the
fault plan each task carries) and stream pickled partials back.  Lease
tracking, speculative re-execution and the shared retry/bisection
policy keep a loopback cluster byte-identical to ``--jobs N`` local
mining — see :mod:`repro.dist.coordinator` for the failure model.
"""

from repro.dist.coordinator import (
    ClusterStats,
    Coordinator,
    DistConfig,
)
from repro.dist.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    pack_payload,
    recv_frame,
    resolve_runner,
    runner_ref,
    send_frame,
    unpack_payload,
)
from repro.dist.worker import run_worker

__all__ = [
    "ClusterStats",
    "Coordinator",
    "DistConfig",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_frame",
    "pack_payload",
    "recv_frame",
    "resolve_runner",
    "run_worker",
    "runner_ref",
    "send_frame",
    "unpack_payload",
]
