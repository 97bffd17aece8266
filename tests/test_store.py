"""The crash-consistent state layer: journal recovery ladder, durable
snapshots, crash-point fault injection, the store behind every
``learn --store-dir`` run, and byte-identical recovery after injected
crashes."""

import pickle

import pytest

from repro.cli import main
from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.mining import MiningConfig, MiningEngine
from repro.mining.cache import pipeline_fingerprint
from repro.runtime import FaultPlan, RuntimeConfig, SimulatedCrash, arm
from repro.runtime.checkpoint import atomic_write_bytes
from repro.specs.patterns import RetSame, SpecSet
from repro.specs.pipeline import PipelineConfig
from repro.specs.serialize import specs_to_json
from repro.store.journal import FILE_MAGIC, RecordJournal, encode_frame
from repro.store.snapshot import (
    SnapshotCorrupt,
    load_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.store.stats import (
    KIND_PROGRAM,
    SNAPSHOT_NAME,
    StatsStore,
    StoredProgram,
)


def java_corpus(n=10, seed=7):
    return CorpusGenerator(
        java_registry(), CorpusConfig(n_files=n, seed=seed)).programs()


def store_learn(programs, store_dir, *, append=False, jobs=1):
    config = PipelineConfig(runtime=RuntimeConfig())
    mining = MiningConfig(jobs=jobs, store_dir=str(store_dir),
                          append=append)
    return MiningEngine(config, mining).learn(programs)


def spec_text(learned):
    return specs_to_json(learned.specs, learned.scores)


# ----------------------------------------------------------------------
# the record journal


def test_journal_roundtrip(tmp_path):
    path = tmp_path / "j.uspj"
    with RecordJournal(path) as journal:
        journal.append(1, b"alpha")
        journal.append(2, b"")
        journal.append(3, b"x" * 1000)
    records, report = RecordJournal(path).recover()
    assert records == [(1, b"alpha"), (2, b""), (3, b"x" * 1000)]
    assert report.clean and report.n_records == 3


def test_journal_truncates_torn_tail(tmp_path):
    path = tmp_path / "j.uspj"
    with RecordJournal(path) as journal:
        journal.append(1, b"keep")
        journal.append(1, b"torn-away")
    with path.open("r+b") as fh:
        fh.truncate(path.stat().st_size - 3)
    records, report = RecordJournal(path).recover()
    assert records == [(1, b"keep")]
    assert report.truncated_bytes > 0 and report.n_quarantined == 0
    # the repaired journal accepts appends again
    with RecordJournal(path) as journal:
        journal.append(2, b"after")
    records, report = RecordJournal(path).recover()
    assert records == [(1, b"keep"), (2, b"after")] and report.clean


def test_journal_quarantines_corrupt_payload_and_continues(tmp_path):
    path = tmp_path / "j.uspj"
    with RecordJournal(path) as journal:
        journal.append(1, b"first")
        journal.append(1, b"mangled")
        journal.append(1, b"third")
    data = bytearray(path.read_bytes())
    data[data.index(b"mangled")] ^= 0xFF
    path.write_bytes(bytes(data))
    records, report = RecordJournal(path).recover()
    # one record lost, the boundary held: everything else survives
    assert records == [(1, b"first"), (1, b"third")]
    assert report.n_quarantined == 1
    assert report.quarantined[0].reason == "payload-crc"


def test_journal_header_damage_quarantines_tail(tmp_path):
    path = tmp_path / "j.uspj"
    with RecordJournal(path) as journal:
        journal.append(1, b"first")
        journal.append(1, b"second")
    data = bytearray(path.read_bytes())
    # smash the second frame's magic: framing is lost from there on
    from repro.store.journal import HEADER_SIZE
    data[data.index(b"second") - HEADER_SIZE] ^= 0xFF
    path.write_bytes(bytes(data))
    records, report = RecordJournal(path).recover()
    assert records == [(1, b"first")]
    assert any(q.reason == "header-crc" for q in report.quarantined)
    # the unparseable tail was kept for forensics, not destroyed
    assert (tmp_path / "j.uspj.quarantined").exists()


def test_journal_foreign_file_moved_aside(tmp_path):
    path = tmp_path / "j.uspj"
    path.write_bytes(b"definitely not a journal")
    records, report = RecordJournal(path).recover()
    assert records == []
    assert report.quarantined[0].reason == "file-header"
    assert not path.exists()
    assert (tmp_path / "j.uspj.quarantined").exists()
    # a fresh journal starts cleanly in its place
    with RecordJournal(path) as journal:
        journal.append(1, b"fresh")
    records, report = RecordJournal(path).recover()
    assert records == [(1, b"fresh")] and report.clean


def test_journal_missing_or_empty_is_clean(tmp_path):
    records, report = RecordJournal(tmp_path / "absent.uspj").recover()
    assert records == [] and report.clean
    (tmp_path / "empty.uspj").write_bytes(b"")
    records, report = RecordJournal(tmp_path / "empty.uspj").recover()
    assert records == [] and report.clean


# ----------------------------------------------------------------------
# crash-point injection


@pytest.mark.parametrize("spec", [
    "write:dest.bin:3",
    "pre-fsync:dest.bin",
    "pre-rename:dest.bin",
    "post-rename:dest.bin",
])
def test_atomic_write_crash_leaves_old_or_new(tmp_path, spec):
    dest = tmp_path / "dest.bin"
    dest.write_bytes(b"old-contents")
    with arm(FaultPlan.parse(spec)), pytest.raises(SimulatedCrash):
        atomic_write_bytes(dest, b"new-contents!", durable=True)
    # the invariant under every crash point: the destination is the
    # old bytes or the new bytes, never a torn mixture
    assert dest.read_bytes() in (b"old-contents", b"new-contents!")
    atomic_write_bytes(dest, b"new-contents!", durable=True)
    assert dest.read_bytes() == b"new-contents!"


def test_crash_plan_fires_once(tmp_path):
    with arm(FaultPlan.parse("pre-rename:once.bin")):
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(tmp_path / "once.bin", b"x", durable=True)
        # spent: the recovery rerun cannot re-trip the same spec
        atomic_write_bytes(tmp_path / "once.bin", b"x", durable=True)
    assert (tmp_path / "once.bin").read_bytes() == b"x"


@pytest.mark.parametrize("spec", [
    "write:crash.uspj:5",
    "pre-fsync:crash.uspj",
])
def test_journal_append_crash_never_loses_committed_records(tmp_path, spec):
    path = tmp_path / "crash.uspj"
    with RecordJournal(path) as journal:
        journal.append(1, b"committed-1")
        journal.append(1, b"committed-2")
    journal = RecordJournal(path)
    with arm(FaultPlan.parse(spec)), pytest.raises(SimulatedCrash):
        journal.append(1, b"doomed")
    journal.close()
    records, report = RecordJournal(path).recover()
    # committed records always survive; the in-flight one is either
    # fully present (its bytes landed) or cleanly truncated away
    assert records[:2] == [(1, b"committed-1"), (1, b"committed-2")]
    assert all(payload == b"doomed" for _, payload in records[2:])
    records, report = RecordJournal(path).recover()
    assert report.clean  # the repair itself left a clean journal


# ----------------------------------------------------------------------
# snapshots


def test_snapshot_roundtrip(tmp_path):
    path = tmp_path / "snap.usps"
    write_snapshot(path, {"hello": [1, 2, 3]})
    assert read_snapshot(path) == {"hello": [1, 2, 3]}
    assert load_snapshot(path) == ({"hello": [1, 2, 3]}, None)


def test_snapshot_corruption_is_typed_and_quarantined(tmp_path):
    path = tmp_path / "snap.usps"
    write_snapshot(path, {"hello": [1, 2, 3]})
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01  # damage the CRC trailer
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotCorrupt):
        read_snapshot(path)
    obj, reason = load_snapshot(path)
    assert obj is None and reason is not None
    assert not path.exists()  # moved aside, not left to re-fail
    assert path.with_name("snap.usps.corrupt").exists()
    assert load_snapshot(path) == (None, None)  # absent = plain miss


# ----------------------------------------------------------------------
# the statistics store


def _program(i, samples=()):
    return StoredProgram(
        fingerprint=f"fp{i}", key=f"{i:06d}:p{i}.java",
        source=f"p{i}.java", samples=tuple(samples),
        n_events=i, n_edges=i)


def test_stats_store_roundtrip_and_retire(tmp_path):
    with StatsStore(tmp_path, "f" * 64) as store:
        store.put_program(_program(0, (1, 2, 3)))
        store.put_program(_program(1, (9,)))
    reopened = StatsStore(tmp_path, "f" * 64)
    assert len(reopened) == 2 and reopened.recovery.clean
    assert reopened.get("fp0").samples == (1, 2, 3)
    reopened.retire(["fp0", "never-stored"])
    reopened.close()
    third = StatsStore(tmp_path, "f" * 64)
    assert len(third) == 1 and third.get("fp1") is not None
    third.close()


def test_stats_store_compaction_preserves_state(tmp_path):
    store = StatsStore(tmp_path, "a" * 64)
    for i in range(5):
        store.put_program(_program(i, (i,)))
    store.compact()
    assert store.journal_bytes == len(FILE_MAGIC)  # journal emptied
    store.close()
    reopened = StatsStore(tmp_path, "a" * 64)
    assert len(reopened) == 5
    assert reopened.get("fp3").samples == (3,)
    reopened.close()


@pytest.mark.parametrize("spec", [
    "pre-rename:" + SNAPSHOT_NAME,
    "post-rename:" + SNAPSHOT_NAME,
])
def test_compaction_crash_is_recoverable(tmp_path, spec):
    store = StatsStore(tmp_path, "c" * 64)
    for i in range(3):
        store.put_program(_program(i, (i,)))
    with arm(FaultPlan.parse(spec)), pytest.raises(SimulatedCrash):
        store.compact()
    store.close()
    # post-rename dies between the snapshot write and the journal
    # reset: records exist in both — replay is idempotent, not doubled
    reopened = StatsStore(tmp_path, "c" * 64)
    assert len(reopened) == 3
    assert reopened.get("fp1").samples == (1,)
    reopened.close()


def test_generation_drift_reports_gained_lost_shifted(tmp_path):
    store = StatsStore(tmp_path, "d" * 64)
    first = store.record_generation(
        SpecSet([RetSame("A.get"), RetSame("B.get")]),
        {RetSame("A.get"): 0.9, RetSame("B.get"): 0.8})
    assert first.previous is None and len(first.gained) == 2
    second = store.record_generation(
        SpecSet([RetSame("A.get"), RetSame("C.get")]),
        {RetSame("A.get"): 0.7, RetSame("C.get"): 0.6})
    assert second.generation == 2 and second.previous == 1
    assert [s["method"] for s in second.gained] == ["C.get"]
    assert [s["method"] for s in second.lost] == ["B.get"]
    assert [s["method"] for s in second.shifted] == ["A.get"]
    assert second.n_unchanged == 0 and second.changed
    store.close()
    # the baseline is durable: a reopened store diffs against it
    reopened = StatsStore(tmp_path, "d" * 64)
    assert reopened.generation == 2
    third = reopened.record_generation(
        SpecSet([RetSame("A.get"), RetSame("C.get")]),
        {RetSame("A.get"): 0.7, RetSame("C.get"): 0.6})
    assert not third.changed and third.n_unchanged == 2
    reopened.close()


# ----------------------------------------------------------------------
# long histories: many generations with interleaved compactions


def _generation_specs(g):
    """A rotating spec set whose scores shift every generation."""
    specs = [RetSame(f"C{(g + i) % 5}.load") for i in range(3)]
    scores = {s: round(0.5 + ((g + i) % 10) / 20, 6)
              for i, s in enumerate(specs)}
    return SpecSet(specs), scores


def _grow_history(store, n, compact_every=None):
    for g in range(n):
        store.put_program(_program(g, (g,)))
        drift = store.record_generation(*_generation_specs(g))
        assert drift.generation == store.generation
        if compact_every and (g + 1) % compact_every == 0:
            store.compact()


def test_long_history_replay_is_idempotent(tmp_path):
    with StatsStore(tmp_path, "e" * 64) as store:
        _grow_history(store, 60, compact_every=7)
        generation = store.generation
        last_drift = store.record_generation(*_generation_specs(59))

    def state_of(s):
        return (len(s), s.generation,
                sorted(s.programs),
                {fp: s.get(fp).samples for fp in s.programs})

    reopened = StatsStore(tmp_path, "e" * 64)
    assert reopened.recovery.clean
    assert reopened.generation == generation + 1
    first_state = state_of(reopened)
    # replaying the same final specs produces zero drift: the recorded
    # baseline survived 60 generations and 8 compactions
    replay = reopened.record_generation(*_generation_specs(59))
    assert not replay.changed
    assert replay.n_unchanged == last_drift.n_unchanged \
        + len(last_drift.gained) + len(last_drift.shifted)
    reopened.compact()
    reopened.close()
    # a compaction right after recovery changes nothing observable
    again = StatsStore(tmp_path, "e" * 64)
    assert state_of(again)[0:2] == (first_state[0], first_state[1] + 1)
    assert state_of(again)[2:] == first_state[2:]
    again.close()


def test_long_history_journal_stays_bounded(tmp_path):
    # auto-compaction keeps the journal near the configured budget no
    # matter how many generations accumulate
    budget = 16 << 10
    store = StatsStore(tmp_path, "e" * 64, compact_bytes=budget)
    high_water = 0
    for g in range(50):
        store.put_program(_program(g, tuple(range(g % 7))))
        store.record_generation(*_generation_specs(g))
        store.maybe_compact()
        high_water = max(high_water, store.journal_bytes)
    # one generation's worth of slack above the budget, not unbounded
    assert high_water < budget + (8 << 10)
    assert (store.directory / SNAPSHOT_NAME).exists()
    store.close()
    reopened = StatsStore(tmp_path, "e" * 64)
    assert len(reopened) == 50 and reopened.generation == 50
    reopened.close()


@pytest.mark.parametrize("spec", [
    "write:" + SNAPSHOT_NAME + ":64",
    "pre-fsync:" + SNAPSHOT_NAME,
    "pre-rename:" + SNAPSHOT_NAME,
    "post-rename:" + SNAPSHOT_NAME,
])
def test_mid_compaction_crash_loses_no_generation(tmp_path, spec):
    store = StatsStore(tmp_path, "e" * 64)
    _grow_history(store, 52, compact_every=13)
    expected_programs = sorted(store.programs)
    expected_generation = store.generation

    with arm(FaultPlan.parse(spec)), pytest.raises(SimulatedCrash):
        store.compact()
    store.close()

    reopened = StatsStore(tmp_path, "e" * 64)
    assert sorted(reopened.programs) == expected_programs
    assert reopened.generation == expected_generation
    # the drift baseline survived too: replaying the last generation's
    # specs reports zero change
    assert not reopened.record_generation(*_generation_specs(51)).changed
    # and the store still accepts new generations cleanly
    drift = reopened.record_generation(*_generation_specs(52))
    assert drift.generation == expected_generation + 2
    reopened.compact()
    reopened.close()
    final = StatsStore(tmp_path, "e" * 64)
    assert final.generation == expected_generation + 2
    assert len(final) == 52
    final.close()


# ----------------------------------------------------------------------
# store integrity: damage is counted, reported and costs one re-analysis


def _journal_of(store_dir):
    (journal,) = store_dir.glob("*/journal.uspj")
    return journal


def _replace_program_payloads(journal, payloads):
    """Rewrite the first PROGRAM records' payloads with ``payloads``,
    framed with valid CRCs, so only decoding can reject them."""
    records, _ = RecordJournal(journal).recover()
    queue = list(payloads)
    frames = []
    for kind, payload in records:
        if kind == KIND_PROGRAM and queue:
            payload = queue.pop(0)
        frames.append(encode_frame(kind, payload))
    journal.write_bytes(FILE_MAGIC + b"".join(frames))


def test_corrupt_entry_recounted_in_mining_report(tmp_path):
    programs = java_corpus(4)
    first = store_learn(programs, tmp_path / "store")
    # two records pass their CRCs but are not programs: undecodable
    # bytes, and a well-formed pickle of the wrong type
    _replace_program_payloads(_journal_of(tmp_path / "store"), [
        b"not a pickle",
        pickle.dumps({"not": "a program"}),
    ])
    warm = store_learn(programs, tmp_path / "store")
    assert warm.mining.store_recovery["n_quarantined"] == 2
    assert warm.mining.to_dict()["store_recovery"]["n_quarantined"] == 2
    assert warm.mining.n_analyzed == 2  # the damaged two, re-analysed
    assert warm.mining.n_from_store == 2
    assert spec_text(warm) == spec_text(first)


def test_cli_reports_store_recovery(tmp_path, capsys):
    args = ["learn", "--files", "3", "--seed", "7",
            "--store-dir", str(tmp_path / "store"),
            "--out", str(tmp_path / "specs.json")]
    assert main(args) == 0
    _replace_program_payloads(_journal_of(tmp_path / "store"),
                              [b"garbage"])
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "analyzed 1, from store 2" in out
    assert ("store recovery: 1 journal record(s) quarantined, "
            "0 byte(s) truncated") in out
    # that run dropped the damaged record from the journal: a third run
    # finds nothing to repair and re-analyses nothing
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "analyzed 0, from store 3" in out
    assert "store recovery" not in out


# ----------------------------------------------------------------------
# learn --append end to end


def test_append_reanalyzes_exactly_the_changed_programs(tmp_path):
    corpus_a = java_corpus(8, seed=7)
    first = store_learn(corpus_a, tmp_path / "store")
    assert first.mining.n_analyzed == 8
    assert first.mining.store_generation == 1
    assert first.mining.drift["previous"] is None

    # an unchanged corpus re-analyses nothing at all
    replay = store_learn(corpus_a, tmp_path / "store", append=True)
    assert replay.mining.n_analyzed == 0
    assert replay.mining.n_from_store == 8
    assert spec_text(replay) == spec_text(first)

    # corpus B: one program edited (same source, new body), one added
    extras = java_corpus(2, seed=99)
    extras[0].source = corpus_a[3].source
    extras[1].source = "brand_new.java"
    corpus_b = corpus_a[:3] + [extras[0]] + corpus_a[4:] + [extras[1]]
    second = store_learn(corpus_b, tmp_path / "store", append=True)
    assert second.mining.n_analyzed == 2  # exactly the k changed files
    assert second.mining.n_from_store == 7
    assert second.mining.store_generation == 3
    assert second.mining.drift is not None

    # byte-identical to a from-scratch run over the same corpus
    scratch = store_learn(corpus_b, tmp_path / "scratch")
    assert spec_text(second) == spec_text(scratch)

    # the edited program's old fingerprint was retired, not leaked
    store = StatsStore(tmp_path / "store",
                       pipeline_fingerprint(PipelineConfig()))
    assert len(store) == 9
    store.close()


def test_learn_crash_then_rerun_recovers_byte_identical_specs(tmp_path):
    programs = java_corpus(6, seed=7)
    baseline = store_learn(programs, tmp_path / "clean")
    expected = spec_text(baseline)

    # die at the fsync of the first journal append: the first program
    # is analysed and its record written, but not yet synced
    with arm(FaultPlan.parse("pre-fsync:journal.uspj")):
        with pytest.raises(SimulatedCrash):
            store_learn(programs, tmp_path / "store")

    rerun = store_learn(programs, tmp_path / "store")
    assert spec_text(rerun) == expected
    # zero lost completed work: the written record was reused
    assert rerun.mining.n_from_store == 1 and rerun.mining.n_analyzed == 5


@pytest.mark.parametrize("spec", [
    "write:journal.uspj:20",
    "pre-fsync:journal.uspj",
])
def test_append_run_crash_is_recoverable(tmp_path, spec):
    programs = java_corpus(5, seed=7)
    store_learn(programs, tmp_path / "store")

    extras = java_corpus(1, seed=23)
    extras[0].source = "added_later.java"
    corpus_b = programs + extras

    # the crash fires while journalling the new program's statistics
    with arm(FaultPlan.parse(spec)), pytest.raises(SimulatedCrash):
        store_learn(corpus_b, tmp_path / "store", append=True)

    rerun = store_learn(corpus_b, tmp_path / "store", append=True)
    scratch = store_learn(corpus_b, tmp_path / "scratch")
    assert spec_text(rerun) == spec_text(scratch)
    # a torn record is truncated away and its program re-analysed; a
    # record written before the crashed fsync survives and is reused
    reanalyzed = {"write:journal.uspj:20": 1, "pre-fsync:journal.uspj": 0}
    assert rerun.mining.n_analyzed == reanalyzed[spec]
    assert rerun.mining.n_from_store == 6 - reanalyzed[spec]


def test_warm_and_append_runs_never_unpickle_a_bundle(tmp_path,
                                                     monkeypatch):
    programs = java_corpus(5, seed=7)
    cold = store_learn(programs, tmp_path / "store")

    def no_graphs(*args, **kwargs):
        raise AssertionError("event graph built on a warm run")

    # samples and match records come from the journal: nothing needs an
    # event graph any more, and none was ever persisted
    monkeypatch.setattr("repro.runtime.executor.build_event_graph",
                        no_graphs)
    warm = store_learn(programs, tmp_path / "store")
    assert warm.mining.n_from_store == 5 and warm.mining.n_analyzed == 0
    appended = store_learn(programs, tmp_path / "store", append=True)
    assert appended.mining.n_from_store == 5
    assert spec_text(warm) == spec_text(appended) == spec_text(cold)
    files = [p.name for p in (tmp_path / "store").rglob("*") if p.is_file()]
    assert files == ["journal.uspj"]


def test_store_survives_corrupted_journal_mid_history(tmp_path):
    programs = java_corpus(5, seed=7)
    first = store_learn(programs, tmp_path / "store")
    fingerprint = pipeline_fingerprint(PipelineConfig())
    journal = (tmp_path / "store" / fingerprint[:16] / "journal.uspj")
    data = bytearray(journal.read_bytes())
    # bit rot inside the first record's payload: that one program's
    # statistics are quarantined, the rest of the journal still parses
    from repro.store.journal import HEADER_SIZE
    data[len(FILE_MAGIC) + HEADER_SIZE + 5] ^= 0xFF
    journal.write_bytes(bytes(data))

    second = store_learn(programs, tmp_path / "store", append=True)
    assert second.mining.n_from_store == 4
    # the damaged program is re-analysed, and only that one
    assert second.mining.n_analyzed == 1
    assert second.mining.store_recovery["n_quarantined"] == 1
    assert spec_text(second) == spec_text(first)
