"""Tests for corpus persistence and fault-tolerant directory mining."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.corpus import (
    CorpusConfig,
    CorpusGenerator,
    java_registry,
    mine_directory,
    python_registry,
    save_corpus,
)


def test_save_and_mine_roundtrip(tmp_path):
    registry = java_registry()
    generator = CorpusGenerator(registry, CorpusConfig(n_files=12, seed=4))
    files = generator.generate()
    paths = save_corpus(files, tmp_path / "corpus")
    assert len(paths) == 12
    assert all(p.exists() for p in paths)

    report = mine_directory(tmp_path / "corpus", registry.signatures())
    assert report.n_parsed == 12
    assert report.skipped == []


def test_mining_is_recursive(tmp_path):
    (tmp_path / "a" / "b").mkdir(parents=True)
    (tmp_path / "a" / "b" / "deep.py").write_text("x = make()\n")
    (tmp_path / "top.py").write_text("y = other()\n")
    report = mine_directory(tmp_path)
    assert report.n_parsed == 2


def test_mining_skips_unparsable_files(tmp_path):
    (tmp_path / "good.py").write_text("x = f()\n")
    (tmp_path / "broken.py").write_text("def broken(:\n")
    (tmp_path / "broken.java").write_text("int x = ;")
    report = mine_directory(tmp_path)
    assert report.n_parsed == 1
    assert len(report.skipped) == 2
    reasons = {p.name: reason for p, reason in report.skipped}
    assert "SyntaxError" in reasons["broken.py"]


def test_mining_ignores_other_suffixes(tmp_path):
    (tmp_path / "notes.txt").write_text("not code")
    (tmp_path / "data.json").write_text("{}")
    report = mine_directory(tmp_path)
    assert report.n_parsed == 0 and report.skipped == []


def test_mining_limit(tmp_path):
    for i in range(5):
        (tmp_path / f"f{i}.py").write_text("x = f()\n")
    report = mine_directory(tmp_path, limit=3)
    assert report.n_parsed == 3


def test_mining_mixed_languages(tmp_path):
    registry = python_registry()
    (tmp_path / "a.py").write_text("d = {}\nd['k'] = v()\n")
    (tmp_path / "b.java").write_text("x = api.make();\n")
    report = mine_directory(tmp_path, registry.signatures())
    languages = {p.language for p in report.programs}
    assert languages == {"python", "minijava"}


def test_cli_learn_from_dir(tmp_path, capsys):
    registry = python_registry()
    files = CorpusGenerator(registry, CorpusConfig(n_files=25, seed=6)).generate()
    save_corpus(files, tmp_path / "mine")
    out_file = tmp_path / "specs.json"
    code = main(["learn", "--language", "python",
                 "--from-dir", str(tmp_path / "mine"),
                 "--out", str(out_file)])
    assert code == 0
    assert out_file.exists()
    assert "mined" in capsys.readouterr().out


def test_cli_learn_from_empty_dir(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = main(["learn", "--from-dir", str(tmp_path / "empty")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["learn", "--files", "0"], ["learn", "--files", "-3"],
    ["refine", "--files", "0"],
])
def test_cli_empty_generated_corpus_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main(argv + ["--store-dir", str(tmp_path / "store"),
                        "--out", str(out)]) == 2
    assert "error: nothing to learn from" in capsys.readouterr().err
    assert not out.exists()
