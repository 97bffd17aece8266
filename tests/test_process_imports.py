"""What each process role imports.

A ``uspec serve`` daemon and its pool workers run only the spec-
augmented points-to analysis, so neither may load the learner: numpy,
the model, the mining engine, the store, the corpus generator or the
classfile frontend.  A spawn-context pool worker re-runs the daemon's
main module (``repro.cli``) as ``__mp_main__`` and then imports
``repro.mining.supervisor`` for its loop and ``repro.serve.query`` for
its jobs; none of them may pull in asyncio either, except the daemon.
A ``uspec worker`` is the opposite case: the engine holds the only
runner a coordinator sends, so the worker imports it before it
registers, and the import never lands inside a timed task.  Packages
export heavy names lazily (:mod:`repro._lazy`); every export must
still resolve, and a learn run must import nothing once the engine is
imported.
"""

import importlib
import json
import os
import pkgutil
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.serve.loadgen import http_request, post_query
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


@pytest.mark.parametrize("module", [
    "repro.cli", "repro.mining.supervisor", "repro.serve.query",
])
def test_serving_modules_import_no_learner(module):
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


@pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                    reason="reads /proc/<pid>/maps (Linux)")
def test_serve_daemon_and_pool_workers_map_no_numpy(tmp_path):
    specs = tmp_path / "specs.json"
    specs.write_text(specs_to_json(SpecSet([RetSame(method="Dict.get")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--bind",
         "127.0.0.1:0", "--specs", str(specs), "--workers", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=_env(), start_new_session=True,
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
        status, _ = post_query(host, port, "alias",
                               'd = dict()\nx = d.get("a")\n')
        assert status == 200
        members = _group_members(proc.pid)
        # the daemon and both pool workers (spawn adds its resource
        # tracker)
        assert len(members) >= 3, members
        for pid in members:
            maps = Path(f"/proc/{pid}/maps").read_text()
            assert "/numpy/" not in maps, \
                Path(f"/proc/{pid}/cmdline").read_text()
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
