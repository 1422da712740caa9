"""External QASM workload corpora.

The sweep subsystem's benchmark axis is opened to the wild here: a *corpus*
is any directory of OpenQASM 2.0 files (a QASMBench checkout, an exported
suite, hand-written circuits).  :func:`scan_corpus` discovers and validates
every ``.qasm`` file, assigns each a **stable content-derived workload id**
(``<STEM>-<SHA256[:8]>``, uppercase -- renaming a file or re-scanning never
changes an id, editing its contents always does), and *skips with a
warning* any file the front-end rejects (the skip-with-warning contract:
one ``corpus: skipped <file>: <reason>`` line per rejected file, carried in
:attr:`Corpus.skipped` and emitted as a :class:`RuntimeWarning`; a corpus
with unsupported constructs degrades, it never aborts the sweep).

Registered workloads resolve through
:func:`repro.benchcircuits.registry.get_benchmark` exactly like Table III
acronyms, so a corpus id is a first-class benchmark everywhere: grids,
plans, stores, analyze columns.  Because distributed sweeps spawn worker
processes that rebuild the plan from scratch, :func:`activate_corpus`
records the directory in the ``REPRO_CORPUS`` environment variable
(``os.pathsep``-separated); any process that fails a registry lookup lazily
re-scans those directories first, so spawned workers resolve corpus ids
without explicit plumbing.
"""

from __future__ import annotations

import hashlib
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.circuit.circuit import QuantumCircuit
from repro.qasm.lexer import QasmSyntaxError
from repro.qasm.parser import parse_qasm

__all__ = [
    "CorpusWorkload",
    "Corpus",
    "workload_id",
    "scan_corpus",
    "register_corpus",
    "activate_corpus",
    "resolve_workload",
    "registered_workloads",
    "clear_corpus_registry",
    "CORPUS_ENV_VAR",
]

#: Environment variable naming the active corpus directories
#: (``os.pathsep``-separated).  Spawned sweep workers inherit it and lazily
#: re-register, so corpus ids resolve in any process of a fleet.
CORPUS_ENV_VAR = "REPRO_CORPUS"

_ID_SANITIZE_RE = re.compile(r"[^A-Za-z0-9_]+")


@dataclass(frozen=True)
class CorpusWorkload:
    """One validated corpus circuit.

    Attributes:
        workload_id: stable content-derived benchmark id (uppercase).
        path: source file the circuit was parsed from.
        checksum: full SHA-256 hex digest of the file text.
        num_qubits: qubit count of the parsed circuit.
        num_gates: gate count of the parsed circuit.
        circuit: the circuit the scan parsed (named by ``workload_id``);
            registration hands it to :func:`resolve_workload`, so no file
            is parsed twice.
    """

    workload_id: str
    path: str
    checksum: str
    num_qubits: int
    num_gates: int
    circuit: QuantumCircuit = field(compare=False, repr=False)


@dataclass(frozen=True)
class Corpus:
    """One scanned corpus directory.

    Attributes:
        directory: the scanned directory (as given).
        workloads: validated workloads, ordered by relative path.
        skipped: ``(relative path, reason)`` pairs for every rejected
            file, in the same deterministic order.
    """

    directory: str
    workloads: tuple
    skipped: tuple

    @property
    def workload_ids(self) -> tuple:
        return tuple(w.workload_id for w in self.workloads)

    @property
    def summary_line(self) -> str:
        """Stable machine-readable one-liner (``CORPUS dir=... ...``).

        Like the other line contracts (``RESUME``/``MERGE``/``STATS``, see
        ``docs/store-format.md``): the prefix and existing fields never
        change, new fields append at the end.
        """
        return (
            f"CORPUS dir={self.directory} workloads={len(self.workloads)} "
            f"skipped={len(self.skipped)}"
        )


def workload_id(stem: str, text: str) -> str:
    """The stable benchmark id for a corpus file: ``<STEM>-<SHA256[:8]>``.

    Uppercase (grid benchmark names are case-folded), with the stem
    sanitized to ``[A-Z0-9_]``.  A pure function of file *name stem* and
    *content* -- never of the directory, scan order, or mtime -- so ids
    survive re-scans, moves, and re-exports byte-for-byte.
    """
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:8].upper()
    stem = _ID_SANITIZE_RE.sub("_", stem).strip("_").upper() or "WORKLOAD"
    return f"{stem}-{digest}"


def scan_corpus(directory: str, pattern: str = "*.qasm") -> Corpus:
    """Discover and validate every QASM file under ``directory``.

    Files are scanned recursively in sorted relative-path order (the scan
    is deterministic for a given directory content).  Files the front-end
    rejects -- malformed QASM, unsupported constructs, non-UTF-8 bytes --
    are collected into :attr:`Corpus.skipped` and reported as one
    ``corpus: skipped <file>: <reason>`` :class:`RuntimeWarning` each;
    they never abort the scan.

    Raises:
        ValueError: when ``directory`` does not exist or matches no files.
    """
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"corpus directory {directory!r} does not exist")
    paths = sorted(root.rglob(pattern), key=lambda p: p.relative_to(root).as_posix())
    if not paths:
        raise ValueError(
            f"corpus directory {directory!r} contains no {pattern} files"
        )
    workloads: list[CorpusWorkload] = []
    skipped: list[tuple[str, str]] = []
    for path in paths:
        relative = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = f"unreadable: {exc}"
            skipped.append((relative, reason))
            warnings.warn(f"corpus: skipped {relative}: {reason}", RuntimeWarning)
            continue
        try:
            circuit = parse_qasm(text)
        except QasmSyntaxError as exc:
            skipped.append((relative, str(exc)))
            warnings.warn(f"corpus: skipped {relative}: {exc}", RuntimeWarning)
            continue
        circuit.name = workload_id(path.stem, text)
        workloads.append(
            CorpusWorkload(
                workload_id=circuit.name,
                path=str(path),
                checksum=hashlib.sha256(text.encode("utf-8")).hexdigest(),
                num_qubits=circuit.num_qubits,
                num_gates=len(circuit),
                circuit=circuit,
            )
        )
    return Corpus(
        directory=str(directory),
        workloads=tuple(workloads),
        skipped=tuple(skipped),
    )


# -- registry ------------------------------------------------------------------

#: workload id -> source path, and the circuit each id resolves to (the one
#: its scan parsed).  Resolution is deterministic in every process that
#: scans the same directory.
_REGISTRY: dict[str, str] = {}
_CIRCUITS: dict[str, QuantumCircuit] = {}
_SCANNED_DIRS: set[str] = set()


def register_corpus(corpus: "Corpus | str") -> Corpus:
    """Make a corpus's workload ids resolvable as benchmarks (this process).

    Accepts a :class:`Corpus` or a directory path (scanned first).
    Idempotent: ids are content-derived, so re-registering the same
    directory is a no-op and two files with equal stem and content map to
    the same id.
    """
    if not isinstance(corpus, Corpus):
        corpus = scan_corpus(corpus)
    for workload in corpus.workloads:
        _REGISTRY[workload.workload_id] = workload.path
        _CIRCUITS.setdefault(workload.workload_id, workload.circuit)
    _SCANNED_DIRS.add(os.path.abspath(corpus.directory))
    return corpus


def activate_corpus(directory: str) -> Corpus:
    """Register ``directory`` here *and* export it to spawned processes.

    Appends the directory to :data:`CORPUS_ENV_VAR` so worker processes
    (``--eval-jobs`` / ``--workers`` spawn children that rebuild the sweep
    plan) lazily re-scan it on their first failed benchmark lookup.
    """
    corpus = register_corpus(directory)
    absolute = os.path.abspath(directory)
    existing = [
        entry
        for entry in os.environ.get(CORPUS_ENV_VAR, "").split(os.pathsep)
        if entry
    ]
    if absolute not in existing:
        existing.append(absolute)
        os.environ[CORPUS_ENV_VAR] = os.pathsep.join(existing)
    return corpus


def _ensure_env_corpora() -> None:
    """Scan any ``REPRO_CORPUS`` directories not yet registered here."""
    for entry in os.environ.get(CORPUS_ENV_VAR, "").split(os.pathsep):
        if not entry:
            continue
        absolute = os.path.abspath(entry)
        if absolute in _SCANNED_DIRS:
            continue
        _SCANNED_DIRS.add(absolute)
        try:
            register_corpus(absolute)
        except ValueError:
            # A vanished directory must not break resolution of the others.
            continue


def resolve_workload(name: str) -> QuantumCircuit:
    """The circuit for a registered corpus workload id.

    Falls back to scanning the :data:`CORPUS_ENV_VAR` directories before
    giving up, so spawned workers resolve ids their parent registered.

    Raises:
        KeyError: when ``name`` matches no registered workload.
    """
    key = name.upper()
    if key not in _CIRCUITS:
        _ensure_env_corpora()
    if key not in _CIRCUITS:
        raise KeyError(f"unknown corpus workload {name!r}")
    return _CIRCUITS[key]


def registered_workloads() -> dict:
    """Snapshot of the registered id -> source path mapping."""
    return dict(_REGISTRY)


def clear_corpus_registry() -> None:
    """Drop every registered workload (tests; does not touch the env var)."""
    _REGISTRY.clear()
    _CIRCUITS.clear()
    _SCANNED_DIRS.clear()
