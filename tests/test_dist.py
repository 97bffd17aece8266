"""repro.dist: protocol framing, the loopback coordinator/worker
cluster, byte-identity with local mining, worker death, lease expiry,
worker faults, speculation, and the distributed CLI."""

import base64
import contextlib
import multiprocessing
import os
import pickle
import signal
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.dist import (
    Coordinator,
    DistConfig,
    FrameDecoder,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    pack_payload,
    recv_frame,
    resolve_runner,
    run_worker,
    runner_ref,
    send_frame,
    unpack_payload,
)
from repro.mining import MiningConfig, MiningEngine
from repro.mining.engine import _supervised_analyze
from repro.mining.supervisor import SupervisionConfig
from repro.runtime import (
    Budget,
    BudgetExceeded,
    FaultPlan,
    RuntimeConfig,
    SOLVER_CRASH,
    arm,
)
from repro.specs.pipeline import PipelineConfig, USpecPipeline
from repro.specs.serialize import specs_to_json


def java_corpus(n=12, seed=7):
    return CorpusGenerator(
        java_registry(), CorpusConfig(n_files=n, seed=seed)).programs()


def learn(programs, *, coordinator=None, jobs=1, shards=None,
          store_dir=None, strict=False, faults="", max_retries=2,
          adaptive_deadline=False, budget=None):
    config = PipelineConfig(runtime=RuntimeConfig(
        strict=strict, budget=budget or Budget(),
    ))
    supervision = SupervisionConfig(
        max_retries=max_retries,
        adaptive_deadline=adaptive_deadline,
        backoff_base=0.01,  # keep test wall-clock down
    )
    mining = MiningConfig(
        jobs=jobs, shards=shards,
        store_dir=str(store_dir) if store_dir else None,
        supervision=supervision,
    )
    with arm(FaultPlan.parse(faults)):
        return MiningEngine(config, mining, coordinator).learn(programs)


def specs_text(learned):
    return specs_to_json(learned.specs, learned.scores)


def manifest_text(learned):
    return learned.run.manifest.to_json(timings=False)


@contextlib.contextmanager
def cluster(n=3, *, processes=False, lease=10.0, start_workers=True,
            **dist_kw):
    """A loopback coordinator plus n workers (threads or processes)."""
    dist_kw.setdefault("no_worker_timeout", 60.0)
    coordinator = Coordinator(DistConfig(
        min_workers=n if start_workers else 0,
        lease_seconds=lease, **dist_kw,
    ))
    host, port = coordinator.bind()
    workers = []
    if start_workers:
        for i in range(n):
            kwargs = {"name": f"w{i}", "connect_retries": 60}
            if processes:
                worker = multiprocessing.get_context("fork").Process(
                    target=run_worker, args=(host, port), kwargs=kwargs,
                    daemon=True,
                )
            else:
                worker = threading.Thread(
                    target=run_worker, args=(host, port), kwargs=kwargs,
                    daemon=True,
                )
            worker.start()
            workers.append(worker)
    try:
        yield coordinator, workers, (host, port)
    finally:
        coordinator.close()
        for worker in workers:
            worker.join(timeout=10)
            if processes and worker.is_alive():
                worker.kill()


# ----------------------------------------------------------------------
# protocol


def test_frame_roundtrip_and_coalesced_frames():
    decoder = FrameDecoder()
    a = encode_frame({"type": "hello", "worker": "w0"})
    b = encode_frame({"type": "ready"})
    messages = decoder.feed(a + b)
    assert [m["type"] for m in messages] == ["hello", "ready"]


def test_frame_decoder_handles_byte_by_byte_delivery():
    decoder = FrameDecoder()
    wire = encode_frame({"type": "task", "task_id": "analyze:3"})
    got = []
    for i in range(len(wire)):
        got.extend(decoder.feed(wire[i:i + 1]))
    assert len(got) == 1 and got[0]["task_id"] == "analyze:3"


def test_frame_without_type_rejected():
    decoder = FrameDecoder()
    import json
    import struct
    body = json.dumps({"nope": 1}).encode()
    with pytest.raises(ProtocolError):
        decoder.feed(struct.pack("!I", len(body)) + body)


def test_oversized_frame_announcement_rejected():
    decoder = FrameDecoder()
    import struct
    with pytest.raises(ProtocolError):
        decoder.feed(struct.pack("!I", 1 << 31))


def test_payload_roundtrip_preserves_types():
    err = BudgetExceeded("solver_iterations", 100, 50, stage="pointsto")
    restored = unpack_payload(pack_payload(err))
    assert isinstance(restored, BudgetExceeded)


def test_payload_compression_markers_roundtrip():
    small = {"kind": "control"}
    text = pack_payload(small)
    assert base64.b64decode(text)[:1] == b"\x00"  # below threshold
    assert unpack_payload(text) == small
    big = {"blob": "spec " * 4096}
    text = pack_payload(big)
    body = base64.b64decode(text)
    assert body[:1] == b"\x01"
    assert len(body) < len(pickle.dumps(big))  # actually compressed
    assert unpack_payload(text) == big
    forced = pack_payload(big, compress=False)
    assert base64.b64decode(forced)[:1] == b"\x00"
    assert unpack_payload(forced) == big


def test_unpack_payload_rejects_garbage():
    with pytest.raises(ProtocolError):
        unpack_payload(base64.b64encode(b"").decode("ascii"))
    with pytest.raises(ProtocolError):
        unpack_payload(base64.b64encode(b"\x07junk").decode("ascii"))
    with pytest.raises(ProtocolError):
        unpack_payload(base64.b64encode(b"\x01not-zlib").decode("ascii"))


def test_runner_ref_roundtrip_and_namespace_restriction():
    ref = runner_ref(_supervised_analyze)
    assert ref.startswith("repro.")
    assert resolve_runner(ref) is _supervised_analyze
    with pytest.raises(ProtocolError):
        resolve_runner("os:system")
    with pytest.raises(ProtocolError):
        resolve_runner("subprocess:run")
    with pytest.raises(ProtocolError):
        runner_ref(contextlib.contextmanager)


def test_send_and_recv_frame_over_socketpair():
    left, right = socket.socketpair()
    try:
        send_frame(left, {"type": "heartbeat", "task_id": "analyze:0"})
        got = recv_frame(right, FrameDecoder(), [])
        assert got == {"type": "heartbeat", "task_id": "analyze:0"}
    finally:
        left.close()
        right.close()


# ----------------------------------------------------------------------
# loopback cluster byte-identity


def test_loopback_cluster_matches_jobs_3(tmp_path):
    programs = java_corpus()
    local = learn(programs, jobs=3)
    with cluster(3) as (coordinator, _, _):
        dist = learn(programs, coordinator=coordinator, jobs=3,
                     store_dir=tmp_path / "store")
    assert specs_text(dist) == specs_text(local)
    assert manifest_text(dist) == manifest_text(local)
    assert dist.mining.distributed
    assert dist.mining.supervised
    assert dist.mining.cluster["n_workers_seen"] == 3
    assert dist.mining.cluster["n_workers_lost"] == 0
    # every non-empty shard was dispatched (empty shards never are)
    assert dist.mining.cluster["n_tasks_dispatched"] \
        >= len(dist.mining.shards)
    # every worker should have been credited with at least one result
    assert len(dist.mining.cluster["by_worker"]) == 3


def test_loopback_run_reports_dispatch_and_only_analyze_tasks():
    programs = java_corpus(n=6)
    with cluster(2) as (coordinator, _, _):
        dist = learn(programs, coordinator=coordinator)
    dispatch = dist.mining.dispatch
    assert dispatch["n_round_trips"] > 0
    assert dispatch["n_tasks_dispatched"] \
        == dist.mining.cluster["n_tasks_dispatched"]
    assert dispatch["bytes_sent"] > 0 and dispatch["bytes_received"] > 0
    assert dispatch["seconds_serialize"] > 0
    # the model never leaves the coordinator: every task is an analyze
    assert {t.phase for t in dist.mining.ledger.tasks} == {"analyze"}
    assert dist.mining.model_broadcast_bytes == 0


def test_adaptive_deadline_distributed_matches_baseline():
    programs = java_corpus()
    local = learn(programs, jobs=2)
    with cluster(2) as (coordinator, _, _):
        dist = learn(programs, coordinator=coordinator, jobs=2,
                     adaptive_deadline=True)
    assert specs_text(dist) == specs_text(local)


# ----------------------------------------------------------------------
# worker failure


def test_worker_sigkilled_mid_run_does_not_change_results():
    programs = java_corpus(n=20)
    local = learn(programs, jobs=3)
    with cluster(3, processes=True, lease=3.0) as (coordinator, workers, _):
        killer = threading.Timer(
            0.4, lambda: os.kill(workers[0].pid, signal.SIGKILL))
        killer.start()
        try:
            dist = learn(programs, coordinator=coordinator, jobs=3,
                         shards=8)
        finally:
            killer.cancel()
    assert specs_text(dist) == specs_text(local)
    assert manifest_text(dist) == manifest_text(local)
    assert dist.mining.cluster["n_workers_seen"] == 3


def test_transient_chaos_kill_on_worker_is_retried():
    programs = java_corpus()
    clean = learn(programs)
    # a kill exits the whole worker daemon (os._exit), so workers must
    # be processes; the coordinator sees EOF and re-dispatches
    with cluster(3, processes=True) as (coordinator, _, _):
        dist = learn(programs, coordinator=coordinator, jobs=3,
                     faults="kill:corpus_00003:1")
    assert specs_text(dist) == specs_text(clean)
    ledger = dist.mining.ledger
    assert ledger.n_worker_crashes >= 1
    assert ledger.n_poisoned == 0
    assert dist.mining.n_quarantined == 0
    assert dist.mining.cluster["n_workers_lost"] >= 1


def test_transient_chaos_corrupt_on_worker_is_retried():
    programs = java_corpus()
    clean = learn(programs)
    # corrupt replies with garbage (no exit), so thread workers are safe
    with cluster(2) as (coordinator, _, _):
        dist = learn(programs, coordinator=coordinator,
                     faults="corrupt:corpus_00002:1")
    assert specs_text(dist) == specs_text(clean)
    assert dist.mining.ledger.n_corrupt_results >= 1
    assert dist.mining.ledger.n_poisoned == 0


#: one corrupt reply (first attempt only) and one stage fault (every tier)
ONE_PLAN = "corrupt:corpus_00002:1;pointsto:corpus_00004"


@pytest.fixture(scope="module")
def one_plan_reference():
    programs = java_corpus(n=8)
    with arm(FaultPlan.parse("pointsto:corpus_00004")):
        reference = USpecPipeline().learn(programs)
    return programs, reference


@pytest.mark.parametrize("topology", [
    "jobs1", "jobs2", "dist-threads", "dist-processes",
])
def test_one_plan_across_every_worker_topology(one_plan_reference,
                                               topology):
    """Every worker fires faults from the plan its task carried: pool
    processes, dist processes and dist threads of a process that armed
    the plan itself all reproduce the reference pipeline."""
    programs, reference = one_plan_reference
    if topology.startswith("jobs"):
        learned = learn(programs, jobs=int(topology[-1]), faults=ONE_PLAN)
    else:
        # no speculative twin of the corrupt attempt: exactly one reply
        with cluster(2, processes=topology == "dist-processes",
                     speculate=False) as (coordinator, _, _):
            learned = learn(programs, coordinator=coordinator,
                            faults=ONE_PLAN)
    assert specs_text(learned) == specs_text(reference)
    assert manifest_text(learned) == manifest_text(reference)
    (entry,) = learned.run.manifest.entries
    assert entry.program == "000004:corpus_00004.java"
    assert entry.error_kind == SOLVER_CRASH
    assert len(entry.attempts) == 3
    ledger = learned.mining.ledger
    assert ledger.n_corrupt_results == 1
    assert ledger.n_poisoned == 0


def test_lease_expiry_redispatches_and_drops_silent_worker():
    programs = java_corpus()
    local = learn(programs, jobs=2)
    got_task = threading.Event()

    def silent_worker(host, port):
        """Registers, takes one task, then never heartbeats again."""
        sock = socket.create_connection((host, port))
        decoder, pending = FrameDecoder(), []
        try:
            send_frame(sock, {"type": "hello", "worker": "silent",
                              "version": PROTOCOL_VERSION})
            assert recv_frame(sock, decoder, pending)["type"] == "welcome"
            send_frame(sock, {"type": "ready"})
            while True:
                message = recv_frame(sock, decoder, pending)
                if message is None:
                    return  # coordinator dropped us: the expected end
                if message["type"] == "task":
                    got_task.set()  # go silent holding the lease
        finally:
            sock.close()

    coordinator = Coordinator(DistConfig(
        min_workers=1, lease_seconds=0.75, no_worker_timeout=60.0,
        speculate=False,
    ))
    host, port = coordinator.bind()
    silent = threading.Thread(target=silent_worker, args=(host, port),
                              daemon=True)
    silent.start()
    coordinator.wait_for_workers(1, timeout=30.0)
    real = threading.Thread(
        target=run_worker, args=(host, port),
        kwargs={"name": "real", "connect_retries": 60}, daemon=True,
    )
    real.start()
    try:
        dist = learn(java_corpus(), coordinator=coordinator, shards=6)
    finally:
        coordinator.close()
    silent.join(timeout=10)
    real.join(timeout=10)
    assert got_task.is_set()
    assert specs_text(dist) == specs_text(local)
    assert manifest_text(dist) == manifest_text(local)
    assert coordinator.stats.n_lease_expiries >= 1
    assert dist.mining.ledger.n_worker_timeouts >= 1


def test_speculation_beats_a_straggler():
    programs = java_corpus()
    local = learn(programs, jobs=2)
    straggling = threading.Event()

    def straggler_worker(host, port):
        """Takes one task and heartbeats forever without finishing."""
        sock = socket.create_connection((host, port))
        decoder, pending = FrameDecoder(), []
        try:
            send_frame(sock, {"type": "hello", "worker": "straggler",
                              "version": PROTOCOL_VERSION})
            assert recv_frame(sock, decoder, pending)["type"] == "welcome"
            send_frame(sock, {"type": "ready"})
            while True:
                message = recv_frame(sock, decoder, pending)
                if message is None:
                    return
                if message["type"] == "task":
                    straggling.set()
                    task_id = message["task_id"]
                    while True:
                        time.sleep(0.05)
                        try:
                            send_frame(sock, {"type": "heartbeat",
                                              "task_id": task_id})
                        except OSError:
                            return
        finally:
            sock.close()

    coordinator = Coordinator(DistConfig(
        min_workers=1, lease_seconds=10.0, no_worker_timeout=60.0,
        speculation_min_observations=2, speculation_factor=2.0,
    ))
    host, port = coordinator.bind()
    slow = threading.Thread(target=straggler_worker, args=(host, port),
                            daemon=True)
    slow.start()
    coordinator.wait_for_workers(1, timeout=30.0)
    real = threading.Thread(
        target=run_worker, args=(host, port),
        kwargs={"name": "real", "connect_retries": 60}, daemon=True,
    )
    real.start()
    try:
        dist = learn(programs, coordinator=coordinator, shards=6)
    finally:
        coordinator.close()
    slow.join(timeout=10)
    real.join(timeout=10)
    assert straggling.is_set()
    assert specs_text(dist) == specs_text(local)
    assert coordinator.stats.n_speculated >= 1
    assert coordinator.stats.n_speculation_wins >= 1


def test_strict_typed_error_propagates_from_worker():
    programs = java_corpus(n=4)
    tight = Budget(max_solver_iterations=1)
    with cluster(2) as (coordinator, _, _):
        with pytest.raises(BudgetExceeded):
            learn(programs, coordinator=coordinator, strict=True,
                  budget=tight)


def test_dist_worker_journals_each_program_before_its_result(tmp_path):
    """A dist worker streams each settled program to the coordinator in
    an ``interim`` frame, so a strict abort at a task's last program
    keeps the others: the rerun analyses only the one in flight."""
    programs = java_corpus(n=6)
    victim = programs[-1].source
    with cluster(1) as (coordinator, _, _):
        with pytest.raises(Exception, match="injected fault"):
            learn(programs, coordinator=coordinator, shards=1, strict=True,
                  store_dir=tmp_path / "store",
                  faults=f"pointsto:{victim}")

    rerun = learn(programs, shards=1, store_dir=tmp_path / "store")
    assert rerun.mining.n_from_store == 5
    assert rerun.mining.analyzed_keys == [f"000005:{victim}"]
    assert specs_text(rerun) == specs_text(learn(programs))


def test_no_worker_timeout_aborts_instead_of_hanging():
    from repro.runtime import WorkerCrash

    coordinator = Coordinator(DistConfig(
        min_workers=0, no_worker_timeout=0.5,
    ))
    coordinator.bind()
    try:
        with pytest.raises(WorkerCrash):
            learn(java_corpus(n=3), coordinator=coordinator)
    finally:
        coordinator.close()


def test_version_mismatch_is_rejected():
    coordinator = Coordinator(DistConfig(min_workers=0))
    host, port = coordinator.bind()
    sock = socket.create_connection((host, port))
    try:
        send_frame(sock, {"type": "hello", "worker": "old",
                          "version": PROTOCOL_VERSION + 1})
        pump = threading.Thread(
            target=lambda: [coordinator._pump(0.1) for _ in range(20)],
            daemon=True,
        )
        pump.start()
        reply = recv_frame(sock, FrameDecoder(), [])
        pump.join(timeout=10)
        assert reply is not None and reply["type"] == "error"
        assert coordinator.n_workers == 0
    finally:
        sock.close()
        coordinator.close()


# ----------------------------------------------------------------------
# malformed frames mid-session


def _evil_worker(host, port, garbage, got_task):
    """Registers, takes one task, then wrecks the wire with garbage."""
    sock = socket.create_connection((host, port))
    decoder, pending = FrameDecoder(), []
    try:
        send_frame(sock, {"type": "hello", "worker": "evil",
                          "version": PROTOCOL_VERSION})
        assert recv_frame(sock, decoder, pending)["type"] == "welcome"
        send_frame(sock, {"type": "ready"})
        while True:
            message = recv_frame(sock, decoder, pending)
            if message is None:
                return  # coordinator dropped us: the expected end
            if message["type"] == "task":
                got_task.set()
                sock.sendall(garbage)
                return  # truncated variant: hang up mid-frame too
    finally:
        sock.close()


def _learn_against_evil_worker(garbage):
    """Run a distributed learn with one garbage-spewing worker."""
    programs = java_corpus()
    local = learn(programs, jobs=2)
    got_task = threading.Event()
    coordinator = Coordinator(DistConfig(
        min_workers=1, lease_seconds=5.0, no_worker_timeout=60.0,
        speculate=False,
    ))
    host, port = coordinator.bind()
    evil = threading.Thread(target=_evil_worker,
                            args=(host, port, garbage, got_task),
                            daemon=True)
    evil.start()
    coordinator.wait_for_workers(1, timeout=30.0)
    real = threading.Thread(
        target=run_worker, args=(host, port),
        kwargs={"name": "real", "connect_retries": 60}, daemon=True,
    )
    real.start()
    try:
        dist = learn(programs, coordinator=coordinator, shards=6)
    finally:
        coordinator.close()
    evil.join(timeout=10)
    real.join(timeout=10)
    assert got_task.is_set()
    assert specs_text(dist) == specs_text(local)
    assert manifest_text(dist) == manifest_text(local)
    assert coordinator.stats.n_workers_lost >= 1
    assert dist.mining.ledger.n_poisoned == 0
    assert dist.mining.n_quarantined == 0
    return dist


def test_malformed_frame_mid_session_drops_worker_not_run():
    # an oversized length announcement: ProtocolError on the first
    # feed — the coordinator must drop the connection, reclaim the
    # lease, and redispatch without poisoning the shard
    import struct
    _learn_against_evil_worker(struct.pack("!I", 1 << 31) + b"garbage")


def test_undecodable_frame_mid_session_drops_worker_not_run():
    # a plausible length prefix followed by non-JSON bytes
    import struct
    body = b"\xff\xfe not json at all"
    _learn_against_evil_worker(struct.pack("!I", len(body)) + body)


def test_truncated_frame_then_eof_reclaims_lease():
    # announce 500 bytes, deliver 10, hang up: EOF mid-frame is a
    # worker loss, not a crash of the coordinator
    import struct
    _learn_against_evil_worker(struct.pack("!I", 500) + b"0123456789")


# ----------------------------------------------------------------------
# worker graceful stop (SIGTERM drain)


@contextlib.contextmanager
def _stub_coordinator():
    """A raw listening socket playing the coordinator's side by hand."""
    listener = socket.socket()
    listener.settimeout(30.0)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    try:
        yield listener, listener.getsockname()
    finally:
        listener.close()


def _handshake(conn):
    decoder, pending = FrameDecoder(), []
    hello = recv_frame(conn, decoder, pending)
    assert hello["type"] == "hello"
    send_frame(conn, {"type": "welcome", "lease": 5.0})
    ready = recv_frame(conn, decoder, pending)
    assert ready["type"] == "ready"
    return decoder, pending


def test_worker_stop_finishes_inflight_task_acks_and_deregisters(
        monkeypatch):
    import repro.dist.worker as worker_module

    started, release = threading.Event(), threading.Event()

    def slow_runner(payload, attempt):
        started.set()
        assert release.wait(30)
        return payload * 2

    monkeypatch.setattr(worker_module, "resolve_runner",
                        lambda ref: slow_runner)
    with _stub_coordinator() as (listener, (host, port)):
        stop = threading.Event()
        outcome = {}
        worker = threading.Thread(target=lambda: outcome.update(
            n=run_worker(host, port, name="graceful", stop=stop)),
            daemon=True)
        worker.start()
        conn, _ = listener.accept()
        try:
            decoder, pending = _handshake(conn)
            send_frame(conn, {"type": "task", "task_id": "t1",
                              "runner": "repro.fake:runner",
                              "payload": pack_payload(21), "attempt": 0})
            assert started.wait(30)
            stop.set()  # SIGTERM lands mid-task
            release.set()  # ... then the task finishes
            frames = []
            while True:
                message = recv_frame(conn, decoder, pending)
                assert message is not None, "worker hung up before goodbye"
                if message["type"] == "heartbeat":
                    continue
                frames.append(message)
                if message["type"] == "goodbye":
                    break
            # in-flight result acked first, then the deregistration
            assert [f["type"] for f in frames] == ["result", "goodbye"]
            assert frames[0]["status"] == "ok"
            assert unpack_payload(frames[0]["payload"]) == 42
        finally:
            conn.close()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert outcome["n"] == 1


def test_worker_stop_while_idle_sends_goodbye_and_returns():
    with _stub_coordinator() as (listener, (host, port)):
        stop = threading.Event()
        outcome = {}
        worker = threading.Thread(target=lambda: outcome.update(
            n=run_worker(host, port, name="idle", stop=stop)),
            daemon=True)
        worker.start()
        conn, _ = listener.accept()
        try:
            decoder, pending = _handshake(conn)
            stop.set()
            message = recv_frame(conn, decoder, pending)
            while message is not None and message["type"] == "heartbeat":
                message = recv_frame(conn, decoder, pending)
            assert message is not None and message["type"] == "goodbye"
        finally:
            conn.close()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert outcome["n"] == 0


def test_recv_or_stop_treats_idle_timeout_as_waiting():
    # recv_frame folds socket.timeout into its EOF path — an idle
    # worker must NOT conclude the coordinator hung up
    from repro.dist.worker import _recv_or_stop

    left, right = socket.socketpair()
    try:
        right.settimeout(0.05)  # far shorter than the idle gap below
        timer = threading.Timer(
            0.3, lambda: send_frame(left, {"type": "ready"}))
        timer.start()
        got = _recv_or_stop(right, FrameDecoder(), [], None)
        timer.join()
        assert got == {"type": "ready"}
    finally:
        left.close()
        right.close()


# ----------------------------------------------------------------------
# worker reconnect


def _serve_sessions(listener, sessions, ready_frames):
    """Accept ``sessions`` worker sessions; welcome each, record its
    first ready frame, then drop all but the last, which is shut down
    cleanly."""
    for index in range(sessions):
        conn, _ = listener.accept()
        decoder, pending = FrameDecoder(), []
        try:
            hello = recv_frame(conn, decoder, pending)
            assert hello and hello["type"] == "hello"
            send_frame(conn, {
                "type": "welcome", "version": PROTOCOL_VERSION,
                "lease": 5.0,
            })
            ready = recv_frame(conn, decoder, pending)
            ready_frames.append(ready)
            if index + 1 < sessions:
                continue  # drop: the finally closes the socket
            send_frame(conn, {"type": "shutdown"})
            recv_frame(conn, decoder, pending)  # goodbye
        finally:
            conn.close()


def _run_against_sessions(sessions, **worker_kw):
    ready_frames = []
    with _stub_coordinator() as (listener, (host, port)):
        server = threading.Thread(
            target=_serve_sessions, args=(listener, sessions, ready_frames),
            daemon=True)
        server.start()
        try:
            done = run_worker(host, port, name="rw", sleep=lambda s: None,
                              **worker_kw)
        finally:
            server.join(timeout=10)
    return done, ready_frames


def test_worker_reconnects_after_coordinator_hangup():
    done, ready_frames = _run_against_sessions(
        2, reconnect=True, retry_delay=0.0)
    assert done == 0
    assert len(ready_frames) == 2  # one registration per session


def test_worker_without_reconnect_stops_on_hangup():
    done, ready_frames = _run_against_sessions(1)
    assert done == 0
    assert len(ready_frames) == 1


def test_worker_reconnect_budget_is_finite():
    port = _free_port()  # nothing listens: every connect fails
    with pytest.raises(ConnectionError):
        run_worker("127.0.0.1", port, reconnect=True, connect_retries=1,
                   retry_delay=0.0, reconnect_rounds=2,
                   sleep=lambda s: None)


def test_worker_reconnect_does_not_mask_protocol_errors():
    with _stub_coordinator() as (listener, (host, port)):
        def reject():
            conn, _ = listener.accept()
            decoder, pending = FrameDecoder(), []
            recv_frame(conn, decoder, pending)
            send_frame(conn, {"type": "error",
                              "error": "version mismatch"})
            conn.close()

        server = threading.Thread(target=reject, daemon=True)
        server.start()
        try:
            with pytest.raises(ProtocolError):
                run_worker(host, port, reconnect=True,
                           sleep=lambda s: None)
        finally:
            server.join(timeout=10)


# ----------------------------------------------------------------------
# reconnect backoff jitter


def _collect_backoff_delays(seed, jitter=0.5):
    delays = []
    port = _free_port()  # nothing listening: every connect fails fast
    with pytest.raises(ConnectionError):
        run_worker("127.0.0.1", port, connect_retries=1,
                   retry_delay=0.5, reconnect=True, reconnect_rounds=4,
                   reconnect_max_delay=3.0, jitter=jitter,
                   jitter_seed=seed, sleep=delays.append)
    return delays


def test_backoff_jitter_deterministic_per_seed_and_bounded():
    first = _collect_backoff_delays(seed=42)
    again = _collect_backoff_delays(seed=42)
    other = _collect_backoff_delays(seed=43)
    assert first == again  # reproducible schedule under one seed
    assert first != other  # ... but distinct across the fleet
    bases = [0.5, 1.0, 2.0, 3.0]  # doubling, capped at max_delay
    assert len(first) == len(bases)
    for delay, base in zip(first, bases):
        assert base * 0.5 <= delay <= base
    # jitter actually moved the schedule off the bare doubling curve
    assert first != bases


def test_backoff_without_jitter_is_the_bare_doubling_curve():
    delays = _collect_backoff_delays(seed=1, jitter=0.0)
    assert delays == [0.5, 1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# CLI


def _free_port() -> int:
    with contextlib.closing(socket.socket()) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_cli_distributed_learn_matches_local(tmp_path):
    local_path = tmp_path / "local.json"
    dist_path = tmp_path / "dist.json"
    assert main(["learn", "--files", "8", "--jobs", "2",
                 "--out", str(local_path)]) == 0

    port = _free_port()
    outcome = {}
    coordinator_thread = threading.Thread(target=lambda: outcome.update(
        code=main(["coordinator", "--files", "8", "--jobs", "2",
                   "--bind", f"127.0.0.1:{port}", "--min-workers", "2",
                   "--out", str(dist_path)])
    ), daemon=True)
    workers = [
        threading.Thread(target=main, args=([
            "worker", "--connect", f"127.0.0.1:{port}", "--quiet",
            "--name", f"cli-w{i}", "--connect-retries", "60",
        ],), daemon=True)
        for i in range(2)
    ]
    coordinator_thread.start()
    for worker in workers:
        worker.start()
    coordinator_thread.join(timeout=300)
    assert not coordinator_thread.is_alive()
    assert outcome["code"] == 0
    for worker in workers:
        worker.join(timeout=30)
    assert dist_path.read_text() == local_path.read_text()
