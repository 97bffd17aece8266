"""repro.serve: the query ladder, admission control and breaker, the
reply cache keys, the resident daemon end-to-end (including chaos:
slow-loris, malformed frames, worker kills), spec hot-reload, graceful
drain, and the load harness's zero-drop contract."""

import asyncio
import contextlib
import json
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime.budget import Budget
from repro.runtime.errors import BUDGET_EXCEEDED
from repro.serve import (
    AdmissionQueue,
    CircuitBreaker,
    QueryFailed,
    QueryPayload,
    ServeConfig,
    SpecServer,
    analyze_with_ladder,
    parse_snippet,
    run_query,
)
from repro.serve.admission import CLOSED, HALF_OPEN, OPEN, LatencyWindow
from repro.serve.loadgen import (
    ExponentialDist,
    FixedDist,
    LoadConfig,
    NormalDist,
    UniformDist,
    http_request,
    make_snippet,
    malformed_client,
    parse_distribution,
    post_query,
    run_load,
    slow_loris,
)
from repro.serve.query import (
    canonical_params,
    query_fingerprint,
    reply_cache_key,
)
from repro.specs.patterns import RetArg, RetSame, SpecSet
from repro.specs.serialize import specs_to_json


# ----------------------------------------------------------------------
# distributions (the loadgen sampling layer)


def test_parse_distribution_kinds_and_determinism():
    for spec, cls in (("normal:8,3", NormalDist), ("exp:0.05", ExponentialDist),
                      ("uniform:2,20", UniformDist), ("fixed:6", FixedDist)):
        dist = parse_distribution(spec, 32, random.Random(1))
        assert isinstance(dist, cls)
        assert len(dist) == 32
        assert all(v >= 0.0 for v in dist)
    again = parse_distribution("normal:8,3", 32, random.Random(1))
    assert list(parse_distribution("normal:8,3", 32, random.Random(1))) \
        == list(again)


def test_distribution_description_and_parse_errors():
    dist = parse_distribution("uniform:2,20", 8, random.Random(0))
    assert dist.description == {
        "distribution": "UniformDist", "args": [2.0, 20.0], "n": 8,
    }
    with pytest.raises(ValueError, match="unknown distribution"):
        parse_distribution("zipf:1", 8, random.Random(0))
    with pytest.raises(ValueError, match="takes 2 arg"):
        parse_distribution("normal:8", 8, random.Random(0))
    with pytest.raises(ValueError, match="bad distribution args"):
        parse_distribution("fixed:x", 8, random.Random(0))


def test_make_snippet_deterministic_and_parseable():
    code = make_snippet(9, variant=2)
    assert code == make_snippet(9, variant=2)
    assert code != make_snippet(9, variant=3)
    program = parse_snippet(code)
    result = analyze_with_ladder(program)
    assert len(result.result.api_sites) == 9


# ----------------------------------------------------------------------
# budget plumbing and cache keys


def test_budget_with_deadline_takes_minimum():
    assert Budget().with_deadline(5.0).deadline_seconds == 5.0
    assert Budget(deadline_seconds=2.0).with_deadline(5.0) \
        .deadline_seconds == 2.0
    assert Budget(deadline_seconds=2.0).with_deadline(None) \
        .deadline_seconds == 2.0


def test_query_fingerprint_ignores_budget_but_not_specs():
    assert query_fingerprint("digest-a") == query_fingerprint("digest-a")
    assert query_fingerprint("digest-a") != query_fingerprint("digest-b")


def test_reply_cache_key_varies_by_every_input():
    base = reply_cache_key("fp", "python", "x = 1", "alias", "{}")
    assert base == reply_cache_key("fp", "python", "x = 1", "alias", "{}")
    assert base != reply_cache_key("fp", "python", "x = 2", "alias", "{}")
    assert base != reply_cache_key("fp", "python", "x = 1", "spec", "{}")
    assert base != reply_cache_key("fp", "python", "x = 1", "alias",
                                   '{"limit":5}')
    assert base != reply_cache_key("fp2", "python", "x = 1", "alias", "{}")
    assert base != reply_cache_key("fp", "java", "x = 1", "alias", "{}")


def test_canonical_params_is_order_insensitive():
    assert canonical_params({"b": 1, "a": 2}) \
        == canonical_params({"a": 2, "b": 1})
    assert canonical_params(None) == "{}"


# ----------------------------------------------------------------------
# admission, breaker, latency window


def test_admission_queue_sheds_past_limit():
    queue = AdmissionQueue(2)
    assert queue.try_acquire() and queue.try_acquire()
    assert not queue.try_acquire()
    assert queue.depth == 2
    queue.release()
    assert queue.try_acquire()
    with pytest.raises(ValueError):
        AdmissionQueue(0)


def test_admission_release_without_acquire_raises():
    queue = AdmissionQueue(1)
    with pytest.raises(RuntimeError):
        queue.release()


def test_circuit_breaker_trips_cools_probes_and_recovers():
    now = [0.0]
    breaker = CircuitBreaker(threshold=3, cooldown_seconds=2.0,
                             clock=lambda: now[0])
    assert breaker.state == CLOSED and breaker.allow()
    for _ in range(3):
        breaker.record_failure()
    assert breaker.state == OPEN and breaker.trips == 1
    assert not breaker.allow()  # still cooling
    now[0] = 2.5
    assert breaker.allow()  # the half-open probe
    assert breaker.state == HALF_OPEN
    assert not breaker.allow()  # one probe at a time
    breaker.record_failure()  # probe failed: re-open
    assert breaker.state == OPEN and breaker.trips == 2
    now[0] = 5.0
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CLOSED and breaker.allow()


def test_latency_window_percentiles_and_bounded_memory():
    window = LatencyWindow(capacity=8)
    assert window.percentile(50) is None
    for v in range(16):  # overflows capacity; keeps the newest 8
        window.record(float(v))
    assert len(window) == 8
    assert window.percentile(0) == 8.0
    assert window.percentile(100) == 15.0
    assert window.percentile(50) == 12.0


# ----------------------------------------------------------------------
# the degradation ladder under one deadline


def test_analyze_with_ladder_clean_snippet_single_attempt():
    sa = analyze_with_ladder(parse_snippet(make_snippet(4, 0)))
    assert sa.tier == "context-sensitive"
    assert not sa.degraded
    assert len(sa.attempts) == 1


def test_analyze_with_ladder_budget_exhausted_on_every_tier():
    program = parse_snippet(make_snippet(6, 0))
    with pytest.raises(QueryFailed) as exc:
        analyze_with_ladder(program, budget=Budget(max_constraints=1))
    err = exc.value
    assert err.budget_exhausted
    assert not err.deadline_exceeded
    assert [a.tier for a in err.attempts] == [
        "context-sensitive", "context-insensitive", "field-insensitive",
    ]
    assert all(a.error_kind == BUDGET_EXCEEDED for a in err.attempts)


def test_analyze_with_ladder_deadline_is_end_to_end():
    # a fake clock where each tier "takes" 6s: tier 1 eats the 10s
    # allowance, so later tiers never start — that is the serve
    # contract (the client waits on the whole reply, not per tier)
    now = [0.0]

    def clock():
        now[0] += 6.0
        return now[0]

    program = parse_snippet(make_snippet(6, 0))
    with pytest.raises(QueryFailed) as exc:
        analyze_with_ladder(
            program, clock=clock,
            budget=Budget(deadline_seconds=10.0, max_constraints=1),
        )
    err = exc.value
    assert err.deadline_exceeded
    last = err.attempts[-1]
    assert "before this tier could start" in last.error
    assert len(err.attempts) < 3  # the ladder was cut short


def test_query_failed_survives_the_pool_pipe():
    program = parse_snippet(make_snippet(4, 0))
    with pytest.raises(QueryFailed) as exc:
        analyze_with_ladder(program, budget=Budget(max_constraints=1))
    restored = pickle.loads(pickle.dumps(exc.value))
    assert isinstance(restored, QueryFailed)
    assert restored.budget_exhausted
    assert len(restored.attempts) == len(exc.value.attempts)


def test_analyze_with_ladder_strict_propagates_first_error():
    from repro.runtime.budget import BudgetExceeded

    program = parse_snippet(make_snippet(4, 0))
    with pytest.raises(BudgetExceeded):
        analyze_with_ladder(program, budget=Budget(max_constraints=1),
                            strict=True)


# ----------------------------------------------------------------------
# the pool runner


def _specs_fixture_text():
    specs = SpecSet([
        RetSame(method="Dict.get"),
        RetArg(target="Dict.setdefault", source="Dict.get", arg_index=1),
    ])
    return specs_to_json(specs, {RetSame(method="Dict.get"): 0.9})


def test_run_query_alias_reply_shape():
    reply = run_query(QueryPayload(
        kind="alias", language="python", code=make_snippet(6, 0),
    ))
    assert reply["kind"] == "alias"
    assert reply["n_sites"] == 6
    assert not reply["degraded"]
    assert isinstance(reply["pairs"], list)


def test_run_query_spec_matches_loaded_specs():
    text = _specs_fixture_text()
    import hashlib
    reply = run_query(QueryPayload(
        kind="spec", language="python",
        code='d = dict()\nx = d.get("a")\ny = d.setdefault("b", 1)\n',
        specs_json=text,
        specs_digest=hashlib.sha256(text.encode()).hexdigest(),
    ))
    assert "Dict.get" in reply["methods"]
    matched = {entry["spec"] for entry in reply["specs"]}
    assert any("RetSame" in s and "Dict.get" in s for s in matched)
    assert any("RetArg" in s for s in matched)
    scores = [e["score"] for e in reply["specs"] if "score" in e]
    assert scores == [pytest.approx(0.9)] or 0.9 in scores


def test_run_query_taint_finds_source_to_sink_flow():
    reply = run_query(QueryPayload(
        kind="taint", language="python",
        code='d = dict()\nx = d.get("a")\ny = d.setdefault(x, 1)\n',
        params=canonical_params({"sources": ["Dict.get"],
                                 "sinks": ["Dict.setdefault"]}),
    ))
    assert reply["flows"] == [
        {"source": "Dict.get", "sink": "Dict.setdefault", "arg": 1},
    ]


def test_run_query_rejects_unknown_kind_and_language():
    with pytest.raises(ValueError):
        run_query(QueryPayload(kind="nope", language="python", code="x=1"))
    with pytest.raises(ValueError):
        run_query(QueryPayload(kind="alias", language="cobol", code="x=1"))


# ----------------------------------------------------------------------
# the daemon end-to-end


@contextlib.contextmanager
def serve_daemon(**overrides):
    """A SpecServer on an ephemeral port, run in a background loop."""
    overrides.setdefault("port", 0)
    overrides.setdefault("workers", 2)
    # fork keeps worker boot fast in tests; the loadgen client reads
    # Content-Length so inherited-fd EOF delays cannot bite here
    overrides.setdefault("mp_context", "fork")
    overrides.setdefault("header_timeout", 1.0)
    config = ServeConfig(**overrides)
    server = SpecServer(config)
    bound = {}
    ready = threading.Event()
    loop = asyncio.new_event_loop()

    async def boot():
        bound["addr"] = await server.start()
        ready.set()
        await server.run_until_stopped()

    thread = threading.Thread(
        target=lambda: loop.run_until_complete(boot()), daemon=True)
    thread.start()
    assert ready.wait(timeout=60), "daemon failed to boot"
    host, port = bound["addr"]
    try:
        yield server, host, port
    finally:
        server.request_stop()
        thread.join(timeout=60)
        assert not thread.is_alive(), "daemon failed to drain"
        loop.close()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    specs_path = tmp_path_factory.mktemp("serve") / "specs.json"
    specs_path.write_text(_specs_fixture_text())
    with serve_daemon(specs_path=str(specs_path),
                      chaos_enabled=True) as (server, host, port):
        yield server, host, port


def test_serve_health_ready_statz(daemon):
    server, host, port = daemon
    assert http_request(host, port, "GET", "/healthz") \
        == (200, {"status": "alive"})
    status, ready = http_request(host, port, "GET", "/readyz")
    assert status == 200 and ready["status"] == "ready"
    status, stats = http_request(host, port, "GET", "/statz")
    assert status == 200
    assert stats["admission_limit"] == 8
    assert stats["n_specs"] == 2
    assert stats["pool"]["size"] == 2


def test_cli_serve_on_port_zero_announces_the_bound_port():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--bind", "127.0.0.1:0", "--workers", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=env,
    )
    try:
        line = proc.stderr.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        assert match, line
        host, port = match.group(1), int(match.group(2))
        assert port != 0
        assert http_request(host, port, "GET", "/healthz") \
            == (200, {"status": "alive"})
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stderr.close()


@pytest.mark.parametrize("flag, value", [
    ("--cache-entries", "-1"), ("--request-deadline", "-1"),
    ("--request-deadline", "0"), ("--header-timeout", "0"),
])
def test_cli_serve_rejects_values_that_fail_every_request(
        tmp_path, capsys, flag, value):
    """Each value would boot a daemon whose every request fails; the
    parser rejects it before the (missing) specs file is opened."""
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--specs", str(tmp_path / "missing.json"),
              flag, value])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err


def test_serve_alias_then_cache_hit(daemon):
    server, host, port = daemon
    code = make_snippet(5, variant=7)
    status, reply = post_query(host, port, "alias", code)
    assert status == 200
    assert reply["n_sites"] == 5 and not reply.get("cached")
    status, again = post_query(host, port, "alias", code)
    assert status == 200 and again["cached"]
    assert again["pairs"] == reply["pairs"]
    assert server.stats.cache_hits >= 1


def test_serve_spec_and_taint_kinds(daemon):
    server, host, port = daemon
    status, reply = post_query(
        host, port, "spec",
        'd = dict()\nx = d.get("a")\n')
    assert status == 200
    assert "Dict.get" in reply["methods"]
    assert reply["specs"]  # the fixture specs match
    status, reply = post_query(
        host, port, "taint",
        'd = dict()\nx = d.get("a")\ny = d.setdefault(x, 1)\n',
        params={"sources": ["Dict.get"], "sinks": ["Dict.setdefault"]})
    assert status == 200
    assert reply["flows"]


def test_serve_typed_client_errors(daemon):
    server, host, port = daemon
    assert http_request(host, port, "POST", "/v1/alias",
                        b"{not json")[0] == 400
    assert http_request(host, port, "POST", "/v1/alias",
                        b'{"nope": 1}')[1] == {"error": "missing_code"}
    assert post_query(host, port, "alias", "x = 1",
                      language="cobol")[1] == {"error": "unknown_language"}
    assert http_request(host, port, "POST", "/v1/frobnicate",
                        b"{}")[0] == 404
    assert http_request(host, port, "GET", "/v1/alias")[0] == 405
    assert http_request(host, port, "GET", "/nowhere")[0] == 404
    status, reply = post_query(host, port, "alias", "def broken(:\n")
    assert status == 400 and reply["error"] == "invalid_snippet"


def test_serve_slow_loris_cut_off_with_408(daemon):
    server, host, port = daemon
    status = slow_loris(host, port, duration=3.0)
    assert status == 408
    # and the daemon is still fine
    assert http_request(host, port, "GET", "/healthz")[0] == 200


def test_serve_malformed_bytes_answered_not_fatal(daemon):
    server, host, port = daemon
    status = malformed_client(host, port)
    assert status == 400
    assert http_request(host, port, "GET", "/healthz")[0] == 200


def test_serve_worker_kill_invisible_to_next_request(daemon):
    server, host, port = daemon
    status, reply = http_request(host, port, "POST", "/chaosz")
    assert status == 200 and reply["killed"]
    status, reply = post_query(host, port, "alias", make_snippet(4, 91))
    assert status == 200 and reply["n_sites"] == 4
    status, stats = http_request(host, port, "GET", "/statz")
    assert stats["pool"]["crashes"] + stats["pool"]["timeouts"] >= 0
    assert stats["pool"]["respawns"] >= 1


def test_serve_request_deadline_override_maps_to_504(daemon):
    server, host, port = daemon
    status, reply = post_query(host, port, "alias", make_snippet(1500, 55),
                               deadline_seconds=0.02)
    assert status == 504
    assert reply["error"] == "deadline_exceeded"
    assert reply["attempts"]  # the ladder trail explains the failure


def test_serve_reload_swaps_specs_and_invalidates_cache(tmp_path):
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(_specs_fixture_text())
    with serve_daemon(specs_path=str(specs_path)) as (server, host, port):
        code = make_snippet(4, 3)
        assert post_query(host, port, "alias", code)[0] == 200
        assert post_query(host, port, "alias", code)[1]["cached"]
        old_digest = server.specs_digest
        specs_path.write_text(specs_to_json(
            SpecSet([RetSame(method="Dict.pop")]), {}))
        server.request_reload()  # what the SIGHUP handler calls
        deadline = time.monotonic() + 30
        while server.stats.reloads < 1 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.stats.reloads == 1
        assert server.specs_digest != old_digest
        status, stats = http_request(host, port, "GET", "/statz")
        assert stats["n_specs"] == 1
        # new digest → new cache namespace: the old entry cannot hit
        status, reply = post_query(host, port, "alias", code)
        assert status == 200 and not reply.get("cached")


def test_serve_reload_failure_keeps_old_specs(tmp_path):
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(_specs_fixture_text())
    with serve_daemon(specs_path=str(specs_path)) as (server, host, port):
        digest = server.specs_digest
        specs_path.unlink()
        server.request_reload()
        time.sleep(0.3)
        assert server.specs_digest == digest  # kept serving
        assert http_request(host, port, "GET", "/statz")[1]["n_specs"] == 2


def test_serve_overload_sheds_explicit_429():
    with serve_daemon(workers=1, max_queue=1) as (server, host, port):
        replies = []
        lock = threading.Lock()

        def one(i):
            try:
                status, reply = post_query(
                    host, port, "alias", make_snippet(600, 100 + i),
                    timeout=60)
            except (OSError, ConnectionError):
                status, reply = 0, {}
            with lock:
                replies.append(status)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(replies) == 8
        assert 0 not in replies  # every request got an explicit reply
        assert replies.count(200) >= 1
        assert replies.count(429) >= 1  # shed, not queued into collapse
        assert server.stats.shed == replies.count(429)


def test_serve_drain_finishes_inflight_then_exits():
    with serve_daemon(workers=1) as (server, host, port):
        outcome = {}

        def slow_request():
            outcome["reply"] = post_query(host, port, "alias",
                                          make_snippet(2000, 77), timeout=60)

        thread = threading.Thread(target=slow_request, daemon=True)
        thread.start()
        time.sleep(0.1)  # let the request reach the pool
        server.request_stop()  # what the SIGTERM handler does
        thread.join(timeout=60)
        status, reply = outcome["reply"]
        assert status == 200 and reply["n_sites"] == 2000
    # the context manager asserts the daemon thread exited cleanly


def test_run_load_zero_drops_under_chaos():
    with serve_daemon(chaos_enabled=True) as (server, host, port):
        report = run_load(LoadConfig(
            host=host, port=port, requests=12, arrival="fixed:0.02",
            sizes="fixed:5", cache_ratio=0.5, seed=11, timeout=60,
            chaos=("kill-worker", "malformed", "slow-loris"),
            chaos_every=4,
        ))
        assert report.n_sent == 12
        assert report.n_dropped == 0  # the contract under test
        assert report.n_ok >= 1
        replied = (report.n_ok + report.n_shed + report.n_deadline
                   + report.n_rejected)
        assert replied == report.n_sent
        assert report.chaos_kills >= 1
        assert report.to_dict()["p50_seconds"] >= 0.0


def test_load_report_percentiles():
    from repro.serve.loadgen import LoadReport

    report = LoadReport(latencies=[0.1 * i for i in range(1, 11)])
    assert report.percentile(50) == pytest.approx(0.5)
    assert report.percentile(99) == pytest.approx(1.0)
    out = LoadReport().to_dict()
    assert "p50_seconds" not in out  # no samples, no lies


# ----------------------------------------------------------------------
# warm-restart snapshots and the reload/drain race


def test_serve_reload_racing_drain_is_ignored(tmp_path):
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(_specs_fixture_text())
    with serve_daemon(specs_path=str(specs_path),
                      workers=1) as (server, host, port):
        outcome = {}

        def slow_request():
            outcome["reply"] = post_query(host, port, "alias",
                                          make_snippet(2000, 78), timeout=60)

        thread = threading.Thread(target=slow_request, daemon=True)
        thread.start()
        time.sleep(0.1)  # let the request reach the pool
        digest = server.specs_digest
        server.request_stop()  # SIGTERM: the drain begins
        deadline = time.monotonic() + 30
        while not server._draining and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._draining
        # SIGHUP lands mid-drain with new specs on disk: it must be
        # ignored — a reload here would clear stats/cache under the
        # in-flight handler and stamp a snapshot for a dying process
        specs_path.write_text(specs_to_json(
            SpecSet([RetSame(method="Dict.pop")]), {}))
        server.request_reload()
        thread.join(timeout=60)
        status, reply = outcome["reply"]
        assert status == 200 and reply["n_sites"] == 2000  # drain held
        assert server.stats.reloads == 0  # the reload never happened
        assert server.specs_digest == digest
    # the context manager asserted the daemon exited; the drain must
    # not have resurrected accepting state or left a worker behind
    assert server.pool.alive == 0


def test_serve_warm_restart_first_query_cached(tmp_path):
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(_specs_fixture_text())
    warm = tmp_path / "warm.usps"
    code = make_snippet(5, variant=42)
    with serve_daemon(specs_path=str(specs_path),
                      warm_path=str(warm)) as (server, host, port):
        status, reply = post_query(host, port, "alias", code)
        assert status == 200 and not reply.get("cached")
    assert warm.exists()  # stamped at the end of the drain

    with serve_daemon(specs_path=str(specs_path),
                      warm_path=str(warm)) as (server, host, port):
        assert server.warm_entries >= 1
        # the restarted daemon's FIRST query answers from the previous
        # process's cache — a rolling restart never cold-starts
        status, reply = post_query(host, port, "alias", code)
        assert status == 200 and reply["cached"]
        status, ready = http_request(host, port, "GET", "/readyz")
        assert ready["specs_digest"] == server.specs_digest[:12]
        assert ready["snapshot_age_seconds"] >= 0.0
        assert ready["warm_entries"] >= 1


def test_serve_warm_snapshot_carries_specs_without_specs_path(tmp_path):
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(_specs_fixture_text())
    warm = tmp_path / "warm.usps"
    with serve_daemon(specs_path=str(specs_path),
                      warm_path=str(warm)) as (server, host, port):
        digest = server.specs_digest
    # a rolling restart that lost its --specs flag still serves the
    # previous process's specification set
    with serve_daemon(warm_path=str(warm)) as (server, host, port):
        assert server.specs_digest == digest
        status, stats = http_request(host, port, "GET", "/statz")
        assert stats["n_specs"] == 2


def test_serve_stale_warm_snapshot_skips_cache_preload(tmp_path):
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(_specs_fixture_text())
    warm = tmp_path / "warm.usps"
    code = make_snippet(4, variant=43)
    with serve_daemon(specs_path=str(specs_path),
                      warm_path=str(warm)) as (server, host, port):
        assert post_query(host, port, "alias", code)[0] == 200
    # the specs changed between the two processes: the old cache
    # entries belong to the old digest and must not be preloaded
    specs_path.write_text(specs_to_json(
        SpecSet([RetSame(method="Dict.pop")]), {}))
    with serve_daemon(specs_path=str(specs_path),
                      warm_path=str(warm)) as (server, host, port):
        assert server.warm_entries == 0
        status, reply = post_query(host, port, "alias", code)
        assert status == 200 and not reply.get("cached")


def test_serve_corrupt_warm_snapshot_cold_starts(tmp_path):
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(_specs_fixture_text())
    warm = tmp_path / "warm.usps"
    warm.write_bytes(b"this is not a snapshot")
    with serve_daemon(specs_path=str(specs_path),
                      warm_path=str(warm)) as (server, host, port):
        assert server.warm_entries == 0  # cold start, not a crash
        assert http_request(host, port, "GET", "/healthz")[0] == 200
    assert (tmp_path / "warm.usps.corrupt").exists()  # quarantined


def test_run_load_report_includes_readyz():
    with serve_daemon() as (server, host, port):
        report = run_load(LoadConfig(
            host=host, port=port, requests=3, arrival="fixed:0.01",
            sizes="fixed:4", seed=2, timeout=60))
        ready = report.to_dict()["readyz"]
        assert ready["breaker"] == "closed"
        assert ready["status"] == "ready"
        assert "specs_digest" in ready and "snapshot_age_seconds" in ready
