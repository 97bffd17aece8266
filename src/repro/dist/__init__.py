"""repro.dist — socket-based coordinator/worker cluster for
distributed shard mining.

The subsystem distributes the map/reduce mining engine across machines
with zero new dependencies: a :class:`Coordinator` leases shard tasks
to :func:`run_worker` daemons over
:class:`multiprocessing.connection.Connection` — the pickled frames and
message tuples of the local pool's pipes (:mod:`repro.dist.protocol`).
Workers run the unchanged in-process mining path (budget ladder, the
fault plan each task carries) and stream each settled program back.
The coordinator drives them with the one dispatch loop of local mining
(:class:`~repro.mining.supervisor.TaskScheduler`): its leases,
shard deadline and retry/bisection policy keep a loopback cluster
byte-identical to ``--jobs N`` local mining — see
:mod:`repro.dist.coordinator` for the failure model.  Frames are
pickle from the first byte and peers are not authenticated: bind to
loopback or a private network.
"""

from repro.dist.coordinator import Coordinator, DistConfig
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    resolve_runner,
    runner_ref,
)
from repro.dist.worker import run_worker
from repro.mining.supervisor import MAX_FRAME_BYTES, ClusterStats

__all__ = [
    "ClusterStats",
    "Coordinator",
    "DistConfig",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "resolve_runner",
    "run_worker",
    "runner_ref",
]
