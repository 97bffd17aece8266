"""Tests for spec serialization and the command-line interface."""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.mining import MiningConfig
from repro.frontend.pyfront import parse_python
from repro.runtime import Budget
from repro.serve.query import alias_pairs, analyze_with_ladder
from repro.serve.server import ServeConfig
from repro.specs import RetArg, RetSame, SpecSet
from repro.specs.serialize import (
    spec_from_dict,
    spec_to_dict,
    specs_from_json,
    specs_to_json,
)


def test_spec_dict_roundtrip():
    specs = [
        RetSame("java.util.HashMap.get"),
        RetArg("java.util.HashMap.get", "java.util.HashMap.put", 2),
    ]
    for spec in specs:
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_specset_json_roundtrip():
    specs = SpecSet([
        RetSame("A.get"),
        RetArg("B.get", "B.put", 2),
        RetArg("C.load", "C.store", 3),
    ])
    scores = {RetSame("A.get"): 0.875}
    text = specs_to_json(specs, scores)
    loaded, loaded_scores = specs_from_json(text)
    assert set(loaded) == set(specs)
    assert loaded_scores[RetSame("A.get")] == pytest.approx(0.875)


def test_json_is_valid_and_versioned():
    data = json.loads(specs_to_json(SpecSet([RetSame("A.m")])))
    assert data["format"] == "uspec-specs"
    assert data["version"] == 1


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        specs_from_json('{"format": "other"}')
    with pytest.raises(ValueError):
        specs_from_json('{"format": "uspec-specs", "specs": [{"kind": "X"}]}')


# ----------------------------------------------------------------------
# CLI


@pytest.fixture(scope="module")
def specs_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "specs.json"
    specs = SpecSet([
        RetArg("Dict.SubscriptLoad", "Dict.SubscriptStore", 2),
        RetSame("Dict.SubscriptLoad"),
    ])
    path.write_text(specs_to_json(specs, {}))
    return path


def test_cli_show(specs_file, capsys):
    assert main(["show", str(specs_file)]) == 0
    out = capsys.readouterr().out
    assert "RetArg(Dict.SubscriptLoad, Dict.SubscriptStore, 2)" in out
    assert "2 specifications" in out


def test_cli_analyze_python_file(tmp_path, specs_file, capsys):
    target = tmp_path / "prog.py"
    target.write_text(
        "d = {}\n"
        "d['k'] = fetch()\n"
        "x = d['k']\n"
        "y = other()\n"
    )
    assert main(["analyze", str(target), "--specs", str(specs_file)]) == 0
    out = capsys.readouterr().out
    assert "API call sites" in out
    assert "may-alias" in out  # fetch() ~ SubscriptLoad ret


THREE_PAIRS = (
    "d = {}\nd['k'] = fetch()\nx = d['k']\n"
    "e = {}\ne['k'] = load()\ny = e['k']\n"
    "f = {}\nf['k'] = read()\nz = f['k']\n"
)


@pytest.mark.parametrize("flags, limit", [
    (["--limit", "1"], 1), (["--limit", "2"], 2), ([], 20),
], ids=["limit-1", "limit-2", "default"])
def test_cli_analyze_prints_what_alias_pairs_returns(
        tmp_path, specs_file, capsys, flags, limit):
    """``uspec analyze`` prints the serve query's pairs, later site
    first, in program order and up to ``--limit``."""
    target = tmp_path / "prog.py"
    target.write_text(THREE_PAIRS)
    assert main(["analyze", str(target), "--specs", str(specs_file),
                 *flags]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if "may-alias" in line]
    specs, _ = specs_from_json(specs_file.read_text())
    result = analyze_with_ladder(parse_python(THREE_PAIRS), specs=specs,
                                 budget=Budget()).result
    assert len(alias_pairs(result)) == 3
    assert alias_pairs(result, 0) == alias_pairs(result, -1) == []
    assert printed == [f"  may-alias: {later}() ~ {earlier}()"
                       for earlier, later in alias_pairs(result, limit)]
    assert len(printed) == min(limit, 3)


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_cli_analyze_rejects_a_limit_below_one(tmp_path, capsys, limit):
    target = tmp_path / "prog.py"
    target.write_text(THREE_PAIRS)
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", str(target), "--limit", limit])
    assert exit_info.value.code == 2
    assert "--limit" in capsys.readouterr().err


def test_cli_taint_finds_flow(tmp_path, specs_file, capsys):
    target = tmp_path / "vuln.py"
    target.write_text(
        "d = {}\n"
        "d['k'] = user_input()\n"
        "sink(d['k'])\n"
    )
    code = main(["taint", str(target), "--specs", str(specs_file),
                 "--source", "user_input", "--sink", "sink"])
    assert code == 1  # flows found → non-zero exit for CI use
    assert "FLOW" in capsys.readouterr().out


def test_cli_taint_clean_file(tmp_path, specs_file, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = safe()\nsink(escape(x))\n")
    code = main(["taint", str(target), "--specs", str(specs_file),
                 "--source", "user_input", "--sink", "sink",
                 "--sanitizer", "escape"])
    assert code == 0


def test_cli_analyze_minijava(tmp_path, capsys):
    target = tmp_path / "prog.java"
    target.write_text('x = api.make();\ny = x.use();\n')
    assert main(["analyze", str(target)]) == 0
    assert "API call sites" in capsys.readouterr().out


def test_cli_learn_small(tmp_path, capsys):
    out_file = tmp_path / "learned.json"
    code = main(["learn", "--language", "python", "--files", "25",
                 "--seed", "5", "--out", str(out_file)])
    assert code == 0
    specs, scores = specs_from_json(out_file.read_text())
    assert len(specs) >= 1
    assert all(0.0 <= v <= 1.0 for v in scores.values())


# ----------------------------------------------------------------------
# the option surface: one name per knob


@pytest.mark.parametrize("argv", [
    ["learn", "--append"], ["learn", "--cache-dir", "d"],
    ["learn", "--checkpoint-dir", "d"], ["learn", "--profile-out", "p"],
    ["learn", "--distributed"], ["learn", "--bind", "127.0.0.1:0"],
    ["learn", "--min-workers", "2"], ["learn", "--lease", "3"],
    ["serve", "--drain-timeout", "1"], ["serve", "--breaker-threshold", "1"],
    ["serve", "--breaker-cooldown", "1"],
])
def test_cli_removed_spellings_are_unrecognized(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_cli_coordinator_keeps_its_cluster_options():
    args = build_parser().parse_args([
        "coordinator", "--bind", "127.0.0.1:7791", "--min-workers", "2",
        "--lease", "3"])
    assert args.bind == ("127.0.0.1", 7791)
    assert (args.min_workers, args.lease) == (2, 3.0)


def test_configs_hold_only_the_fields_callers_set():
    assert [f.name for f in fields(ServeConfig)] == [
        "host", "port", "specs_path", "workers", "max_queue",
        "request_deadline", "header_timeout", "cache_entries", "warm_path"]
    assert [f.name for f in fields(MiningConfig)] == [
        "jobs", "shards", "supervision", "store_dir", "append"]


@pytest.mark.parametrize("command, flag", [
    ("serve", "--bind"), ("coordinator", "--bind"),
    ("worker", "--connect"), ("loadgen", "--connect"),
])
def test_cli_endpoint_port_must_fit_in_16_bits(command, flag, capsys):
    parser = build_parser()
    for port in (0, 65535):
        args = parser.parse_args([command, flag, f"127.0.0.1:{port}"])
        assert getattr(args, flag[2:]) == ("127.0.0.1", port)
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args([command, flag, "127.0.0.1:65536"])
    assert exit_info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
