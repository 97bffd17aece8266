"""What each process role imports.

A ``uspec serve`` daemon and its pool workers run only the spec-
augmented points-to analysis, so neither may load the learner: numpy,
the model, the mining engine, the store, the corpus generator or the
classfile frontend.  The daemon starts each pool worker itself
(:func:`repro.serve.pool.worker_command`): a fresh interpreter that
imports ``repro.mining.supervisor`` for its loop and
``repro.serve.query`` for its jobs, and nothing of the daemon's own:
no asyncio, no ``repro.cli``, and no ``multiprocessing`` spawn
machinery, so no resource tracker joins the daemon's process group.
``repro.cli`` itself imports each command's dependencies when the
command runs.  A ``uspec worker`` is the opposite case: the engine
holds the only runner a coordinator sends, so the worker imports it
before it registers, and the import never lands inside a timed task.
Packages export heavy names lazily (:mod:`repro._lazy`); every export
must still resolve, and a learn run must import nothing once the
engine is imported.
"""

import contextlib
import importlib
import json
import os
import pkgutil
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from multiprocessing.connection import Connection
from pathlib import Path

import pytest

import repro
from repro.serve.loadgen import http_request, post_query
from repro.serve.pool import worker_command
from repro.serve.query import KIND_ALIAS, QueryPayload, warm_up
from repro.specs.patterns import RetSame, SpecSet
from repro.specs.serialize import specs_to_json

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: the learner's modules, none of which a serving process runs
LEARNER = ("numpy", "repro.mining.engine", "repro.model", "repro.store",
           "repro.corpus.generator", "repro.frontend.classfile")


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def _python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(modules, names):
    return sorted(m for m in modules for name in names
                  if m == name or m.startswith(name + "."))


#: the serve daemon's own machinery, which a pool worker never runs
DAEMON_ONLY = ("asyncio", "repro.cli", "multiprocessing.spawn",
               "multiprocessing.resource_tracker")

#: the specs every serving process below is given
SPECS_JSON = specs_to_json(SpecSet([RetSame(method="Dict.get")]))


def _pool_worker_modules():
    """Every module a serve pool worker has imported once it answers
    its warm-up job: the launcher's exact command, its imports traced
    by ``PYTHONPROFILEIMPORTTIME``."""
    ours, theirs = socket.socketpair()
    with tempfile.TemporaryFile("w+") as trace:
        with theirs:
            worker = subprocess.Popen(
                worker_command(theirs.fileno()),
                pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=trace,
                env=dict(os.environ, PYTHONPROFILEIMPORTTIME="1"))
        with Connection(ours.detach()) as conn:
            conn.send((warm_up, QueryPayload(
                kind=KIND_ALIAS, language="python", code="",
                specs_json=SPECS_JSON, specs_digest="specs"), 0))
            assert conn.recv() == ("ok", None)
        assert worker.wait(timeout=60) == 0  # EOF ends its loop
        trace.seek(0)
        lines = trace.read().splitlines()
    return [line.rsplit("|", 1)[1].strip() for line in lines
            if line.startswith("import time:")]


@pytest.mark.parametrize("module", [
    "repro.cli", "repro.mining.supervisor", "repro.serve.query",
    "serve pool worker",
])
def test_serving_modules_import_no_learner(module):
    if module == "serve pool worker":
        modules = _pool_worker_modules()
        assert "repro.serve.query" in modules
        assert _loaded(modules, LEARNER + DAEMON_ONLY) == []
        return
    modules = json.loads(_python(
        f"import json, sys, {module}; print(json.dumps(list(sys.modules)))"))
    assert _loaded(modules, LEARNER + ("asyncio",)) == []


def _group_members(pgid: int):
    members = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _cmdline(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes() \
            .replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


@contextlib.contextmanager
def _serve_group(tmp_path, faults: str = ""):
    """``uspec serve --workers 2`` under fault plan ``faults``, in its
    own process group: its Popen, host and port once ``/readyz``
    answers 200.  Whatever is left of the group is killed on exit."""
    specs = tmp_path / "specs.json"
    specs.write_text(SPECS_JSON)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--bind",
         "127.0.0.1:0", "--specs", str(specs), "--workers", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=dict(_env(), USPEC_FAULTS=faults), start_new_session=True,
    )
    try:
        line = proc.stderr.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        assert match, line
        host, port = match.group(1), int(match.group(2))
        deadline = time.monotonic() + 60
        while http_request(host, port, "GET", "/readyz")[0] != 200:
            assert time.monotonic() < deadline, "daemon never got ready"
            time.sleep(0.02)
        yield proc, host, port
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.stderr.close()


def _assert_daemon_and_two_workers(pgid: int) -> None:
    members = _group_members(pgid)
    cmdlines = {pid: _cmdline(pid) for pid in members}
    assert len(members) == 3, cmdlines
    for cmdline in cmdlines.values():
        assert "multiprocessing.resource_tracker" not in cmdline, cmdline
        assert "spawn_main" not in cmdline, cmdline


@pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                    reason="reads /proc/<pid>/maps (Linux)")
def test_serve_daemon_and_pool_workers_map_no_numpy(tmp_path):
    """The group is the daemon and its two workers, at ``/readyz`` and
    after a worker killed mid-request is replaced."""
    marker = "crash_here"
    with _serve_group(tmp_path, f"kill:{marker}:1") as (proc, host, port):
        status, _ = post_query(host, port, "alias",
                               'd = dict()\nx = d.get("a")\n')
        assert status == 200
        _assert_daemon_and_two_workers(proc.pid)
        for pid in _group_members(proc.pid):
            maps = Path(f"/proc/{pid}/maps").read_text()
            assert "/numpy/" not in maps, _cmdline(pid)
        status, _ = post_query(host, port, "alias",
                               f'd = dict()\n{marker} = d.get("a")\n')
        assert status == 200  # answered by the daemon's one retry
        pool = http_request(host, port, "GET", "/statz")[1]["pool"]
        assert (pool["crashes"], pool["respawns"]) == (1, 1)
        _assert_daemon_and_two_workers(proc.pid)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads /proc/<pid>/stat (Linux)")
def test_killed_daemon_leaves_no_worker_behind(tmp_path):
    """A worker reads EOF on its socket once the daemon is gone, so
    SIGKILL to the daemon alone ends the whole group."""
    with _serve_group(tmp_path) as (proc, _, _):
        assert set(_group_members(proc.pid)) > {proc.pid}
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while _group_members(proc.pid):
            assert time.monotonic() < deadline, \
                [_cmdline(pid) for pid in _group_members(proc.pid)]
            time.sleep(0.05)


#: ``uspec worker`` against a listener that never answers: the hello
#: frame is the registration, so the probe records ``sys.modules``
#: when it is sent and then drops the connection
_REGISTERING_WORKER = """
import sys
from multiprocessing.connection import Listener

import repro.dist.worker as worker
from repro.cli import main

connect = worker.Client

def probed(address):
    conn = connect(address)
    send = conn.send

    def probe(message):
        if message[0] == "hello":
            print("engine" if "repro.mining.engine" in sys.modules
                  else "no engine")
            raise OSError("probe done")
        send(message)

    conn.send = probe
    return conn

worker.Client = probed
with Listener(("127.0.0.1", 0)) as listener:
    host, port = listener.address
    main(["worker", "--connect", f"{host}:{port}", "--quiet"])
"""


def test_uspec_worker_holds_the_engine_when_it_registers():
    assert _python(_REGISTERING_WORKER).splitlines()[0] == "engine"


# ----------------------------------------------------------------------
# lazy exports


def _lazy_packages():
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            package = importlib.import_module(info.name)
            if hasattr(package, "_LAZY"):
                found.append(info.name)
    return ["repro"] + found


@pytest.mark.parametrize("name", _lazy_packages())
def test_every_lazy_export_resolves(name):
    package = importlib.import_module(name)
    assert set(package._LAZY) <= set(package.__all__)
    for export in package.__all__:
        value = getattr(package, export)
        if export in package._LAZY:
            module = importlib.import_module(package._LAZY[export])
            assert value is getattr(module, export)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(package, "nope")


#: a learn run as ``benchmarks/perf/child.py`` times it: everything
#: after the engine import is inside the timed window
_TIMED_LEARN = """
import json, sys
from pathlib import Path

from repro.corpus import (CorpusConfig, CorpusGenerator, java_registry,
                          mine_directory, save_corpus)
from repro.mining import MiningConfig, MiningEngine

corpus, store = Path(sys.argv[1]), sys.argv[2]
registry = java_registry()
save_corpus(CorpusGenerator(registry, CorpusConfig(n_files=8, seed=7))
            .generate(), corpus)
before = set(sys.modules)
for mining in (MiningConfig(jobs=1),
               MiningConfig(jobs=2, store_dir=store)):
    programs = mine_directory(corpus, registry.signatures()).programs
    MiningEngine(mining=mining).learn(programs)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_learn_imports_nothing_inside_the_timed_window(tmp_path):
    """The only modules a run may add are multiprocessing's own, which
    imports its process launcher (``multiprocessing.popen_fork``) on
    the first start."""
    new = json.loads(_python(_TIMED_LEARN, str(tmp_path / "corpus"),
                             str(tmp_path / "store")))
    assert [m for m in new if not m.startswith("multiprocessing.")] == []
