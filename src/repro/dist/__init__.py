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
shard deadline and retry policy keep a loopback cluster
byte-identical to ``--jobs N`` local mining — see
:mod:`repro.dist.coordinator` for the failure model.  Frames are
pickle from the first byte and peers are not authenticated: bind to
loopback or a private network.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "ClusterStats": "repro.mining.supervisor",
    "Coordinator": "repro.dist.coordinator",
    "DistConfig": "repro.dist.coordinator",
    "MAX_FRAME_BYTES": "repro.mining.supervisor",
    "PROTOCOL_VERSION": "repro.dist.protocol",
    "ProtocolError": "repro.dist.protocol",
    "resolve_runner": "repro.dist.protocol",
    "run_worker": "repro.dist.worker",
    "runner_ref": "repro.dist.protocol",
}

__all__ = list(_LAZY)
__getattr__ = lazy_exports(__name__, _LAZY)
