"""Corpus persistence and directory mining.

The real USpec workflow crawls millions of source files from disk; this
module provides that interface: write a generated corpus out as plain
``.java``/``.py`` files, and mine any directory tree back into IR
programs.  Mining is fault-tolerant — files that fail to parse are
skipped and reported, never fatal (essential when pointing the miner at
arbitrary repositories).

Binary inputs are first-class: ``.class`` files go through the JVM
bytecode frontend and ``.jar`` archives are opened in place, each
``.class`` member mined as its own program (hostile members quarantine
individually; the rest of the jar still mines).  All files are read as
*bytes* — source suffixes are then decoded as strict UTF-8, and files
that do not decode are quarantined as ``ReadFailure`` instead of being
silently mangled or crashing the walk.
"""

from __future__ import annotations

import io
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.generator import GeneratedFile
from repro.frontend.classfile import parse_classfile
from repro.frontend.classfile.errors import MalformedClassfile
from repro.frontend.minijava import parse_minijava
from repro.frontend.pyfront import parse_python
from repro.frontend.signatures import ApiSignatures
from repro.ir.program import Program
from repro.runtime.errors import classify_error

#: suffixes routed through frontends as raw bytes, never text-decoded
BINARY_SUFFIXES = (".class", ".jar")

#: the default mining surface: both source languages plus compiled JVM
DEFAULT_SUFFIXES = (".java", ".py", ".class", ".jar")


def save_corpus(files: Sequence[GeneratedFile], directory: Path) -> List[Path]:
    """Write generated corpus files to ``directory``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for f in files:
        path = directory / f.name
        path.write_text(f.text)
        paths.append(path)
    return paths


@dataclass
class MiningReport:
    """Outcome of mining one directory tree.

    ``skipped`` entries carry a ``TaxonomyLabel: ExcName: message``
    string (see :data:`repro.runtime.errors.TAXONOMY`), so downstream
    tooling can aggregate failures by class via :meth:`skipped_by_kind`.
    """

    programs: List[Program] = field(default_factory=list)
    skipped: List[Tuple[Path, str]] = field(default_factory=list)

    @property
    def n_parsed(self) -> int:
        return len(self.programs)

    def skipped_by_kind(self) -> Dict[str, int]:
        """Taxonomy label → number of skipped files."""
        counts: Dict[str, int] = {}
        for _, reason in self.skipped:
            kind = reason.split(":", 1)[0]
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def __repr__(self) -> str:
        return (f"<MiningReport {self.n_parsed} parsed, "
                f"{len(self.skipped)} skipped>")


def mine_directory(
    directory: Path,
    signatures: Optional[ApiSignatures] = None,
    suffixes: Sequence[str] = DEFAULT_SUFFIXES,
    limit: Optional[int] = None,
) -> MiningReport:
    """Parse every source file under ``directory`` (recursively), in
    sorted path order, the first ``limit`` of them if given.

    Unparsable files are collected in ``report.skipped`` with the error
    message — corpus mining must survive arbitrary repository content.
    """
    directory = Path(directory)
    report = MiningReport()
    paths = sorted(
        p for p in directory.rglob("*")
        if p.is_file() and p.suffix in suffixes
    )
    if limit is not None:
        paths = paths[:limit]
    for path in paths:
        try:
            data = path.read_bytes()
        except OSError as err:
            report.skipped.append(
                (path, _skip_reason(err, stage="read")))
            continue
        if path.suffix == ".jar":
            _mine_jar(path, data, signatures, report)
            continue
        if path.suffix == ".class":
            _mine_blob(path, data, signatures, report)
            continue
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as err:
            # binary bytes behind a source suffix: quarantine, don't
            # mangle with replacement characters or crash the walk
            report.skipped.append(
                (path, _skip_reason(err, stage="read")))
            continue
        try:
            if path.suffix == ".java":
                program = parse_minijava(text, signatures, str(path))
            else:
                program = parse_python(text, signatures, str(path))
        except RecursionError as err:
            # deeply nested sources blow the interpreter stack; contain
            # and classify rather than letting mining die
            report.skipped.append(
                (path, _skip_reason(err, stage="parse")))
            continue
        except Exception as err:  # noqa: BLE001 - mining must not die
            report.skipped.append(
                (path, _skip_reason(err, stage="parse")))
            continue
        report.programs.append(program)
    return report


def _mine_blob(path: Path, data: bytes,
               signatures: Optional[ApiSignatures],
               report: MiningReport) -> None:
    """Mine one ``.class`` blob into the report (never raises)."""
    try:
        program = parse_classfile(data, signatures, str(path))
    except Exception as err:  # noqa: BLE001 - mining must not die
        report.skipped.append((path, _skip_reason(err, stage="parse")))
        return
    report.programs.append(program)


def _mine_jar(path: Path, data: bytes,
              signatures: Optional[ApiSignatures],
              report: MiningReport) -> None:
    """Mine every ``.class`` member of a jar, each one independently.

    A hostile member quarantines under ``<jar>!<member>`` while the
    remaining members still mine; an unreadable archive quarantines the
    jar itself as ``malformed-classfile``.
    """
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as jar:
            members = sorted(
                name for name in jar.namelist()
                if name.endswith(".class") and not name.endswith("/"))
            blobs = [(name, jar.read(name)) for name in members]
    except Exception as err:  # zipfile raises a small zoo of types
        fault = MalformedClassfile(
            f"unreadable jar: {type(err).__name__}: {err}", stage="read")
        report.skipped.append((path, _skip_reason(fault, stage="read")))
        return
    for member, blob in blobs:
        _mine_blob(Path(f"{path}!{member}"), blob, signatures, report)


def _skip_reason(err: BaseException, stage: str) -> str:
    """``TaxonomyLabel: ExcName: message`` for a skipped-file entry."""
    return f"{classify_error(err, stage=stage)}: {type(err).__name__}: {err}"
