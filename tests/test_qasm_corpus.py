"""Tests for repro.qasm.corpus: scanning, ids, registry, sweep plumbing."""

import os
import warnings

import pytest

from repro.benchcircuits.io import export_benchmark_suite, suite_workload_ids
from repro.benchcircuits.registry import get_benchmark
from repro.qasm.corpus import (
    CORPUS_ENV_VAR,
    activate_corpus,
    clear_corpus_registry,
    register_corpus,
    registered_workloads,
    resolve_workload,
    scan_corpus,
    workload_id,
)

GOOD = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0], q[1];
"""

BAD = "OPENQASM 2.0;\nqreg q[2;\n"


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test gets a fresh registry and an untouched env var."""
    saved = os.environ.pop(CORPUS_ENV_VAR, None)
    clear_corpus_registry()
    yield
    clear_corpus_registry()
    if saved is None:
        os.environ.pop(CORPUS_ENV_VAR, None)
    else:
        os.environ[CORPUS_ENV_VAR] = saved


def make_corpus(tmp_path, files):
    directory = tmp_path / "corpus"
    directory.mkdir(exist_ok=True)
    for name, text in files.items():
        target = directory / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return str(directory)


class TestWorkloadId:
    def test_stable_and_content_derived(self):
        a = workload_id("bell", GOOD)
        assert a == workload_id("bell", GOOD)
        assert a.startswith("BELL-")
        assert a != workload_id("bell", GOOD + "\n")
        assert a != workload_id("other", GOOD)

    def test_uppercase_and_sanitized(self):
        wid = workload_id("my circuit-v2.final", GOOD)
        stem, _, digest = wid.rpartition("-")
        assert stem == "MY_CIRCUIT_V2_FINAL"
        assert len(digest) == 8
        assert wid == wid.upper()

    def test_degenerate_stem_falls_back(self):
        assert workload_id("...", GOOD).startswith("WORKLOAD-")


class TestScanCorpus:
    def test_scan_validates_and_fingerprints(self, tmp_path):
        directory = make_corpus(tmp_path, {"bell.qasm": GOOD})
        corpus = scan_corpus(directory)
        assert len(corpus.workloads) == 1
        (w,) = corpus.workloads
        assert w.workload_id.startswith("BELL-")
        assert w.num_qubits == 2
        assert w.num_gates == 2
        assert len(w.checksum) == 64

    def test_skip_with_warning_contract(self, tmp_path):
        directory = make_corpus(
            tmp_path, {"good.qasm": GOOD, "broken.qasm": BAD}
        )
        with pytest.warns(RuntimeWarning, match="corpus: skipped broken.qasm"):
            corpus = scan_corpus(directory)
        assert len(corpus.workloads) == 1
        assert len(corpus.skipped) == 1
        name, reason = corpus.skipped[0]
        assert name == "broken.qasm"
        assert "line 2" in reason

    def test_summary_line_contract(self, tmp_path):
        directory = make_corpus(
            tmp_path, {"good.qasm": GOOD, "broken.qasm": BAD}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            corpus = scan_corpus(directory)
        assert corpus.summary_line == (
            f"CORPUS dir={directory} workloads=1 skipped=1"
        )

    def test_deterministic_order(self, tmp_path):
        directory = make_corpus(
            tmp_path,
            {"z.qasm": GOOD, "a.qasm": GOOD, "sub/m.qasm": GOOD},
        )
        corpus = scan_corpus(directory)
        relative = [
            os.path.relpath(w.path, directory).replace(os.sep, "/")
            for w in corpus.workloads
        ]
        assert relative == ["a.qasm", "sub/m.qasm", "z.qasm"]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            scan_corpus(str(tmp_path / "nope"))

    def test_no_matches_raises(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no"):
            scan_corpus(str(empty))

    def test_non_utf8_file_skipped(self, tmp_path):
        directory = make_corpus(tmp_path, {"good.qasm": GOOD})
        (tmp_path / "corpus" / "binary.qasm").write_bytes(b"\xff\xfe\x00")
        with pytest.warns(RuntimeWarning, match="binary.qasm"):
            corpus = scan_corpus(directory)
        assert len(corpus.workloads) == 1
        assert corpus.skipped[0][0] == "binary.qasm"


class TestRegistryResolution:
    def test_register_and_resolve(self, tmp_path):
        directory = make_corpus(tmp_path, {"bell.qasm": GOOD})
        corpus = register_corpus(directory)
        (wid,) = corpus.workload_ids
        circuit = resolve_workload(wid)
        assert circuit.num_qubits == 2
        assert circuit.name == wid
        # Case-insensitive, like grid benchmark names.
        assert resolve_workload(wid.lower()) is circuit

    def test_get_benchmark_falls_through_to_corpus(self, tmp_path):
        directory = make_corpus(tmp_path, {"bell.qasm": GOOD})
        corpus = register_corpus(directory)
        (wid,) = corpus.workload_ids
        assert get_benchmark(wid).num_qubits == 2
        # Registry acronyms still win.
        assert get_benchmark("QAOA").num_qubits == 10

    def test_unknown_workload_raises_keyerror(self):
        with pytest.raises(KeyError, match="corpus"):
            resolve_workload("NOPE-DEADBEEF")
        with pytest.raises(KeyError, match="corpus"):
            get_benchmark("NOPE-DEADBEEF")

    def test_activate_exports_env_for_spawned_workers(self, tmp_path):
        directory = make_corpus(tmp_path, {"bell.qasm": GOOD})
        corpus = activate_corpus(directory)
        (wid,) = corpus.workload_ids
        assert os.path.abspath(directory) in os.environ[CORPUS_ENV_VAR].split(
            os.pathsep
        )
        # A "fresh process": clear the in-process registry, resolution
        # falls back to the env var exactly like a spawned worker does.
        clear_corpus_registry()
        assert resolve_workload(wid).num_qubits == 2

    def test_activate_is_idempotent_in_env(self, tmp_path):
        directory = make_corpus(tmp_path, {"bell.qasm": GOOD})
        activate_corpus(directory)
        activate_corpus(directory)
        entries = os.environ[CORPUS_ENV_VAR].split(os.pathsep)
        assert entries.count(os.path.abspath(directory)) == 1

    def test_vanished_env_dir_tolerated(self, tmp_path):
        os.environ[CORPUS_ENV_VAR] = str(tmp_path / "gone")
        with pytest.raises(KeyError):
            resolve_workload("ANY-00000000")

    def test_registered_workloads_snapshot(self, tmp_path):
        directory = make_corpus(tmp_path, {"bell.qasm": GOOD})
        corpus = register_corpus(directory)
        snapshot = registered_workloads()
        assert set(snapshot) == set(corpus.workload_ids)


class TestSuiteExportIntegration:
    def test_exported_suite_scans_cleanly(self, tmp_path):
        directory = str(tmp_path / "suite")
        export_benchmark_suite(directory, benchmarks=["QAOA", "ADD"])
        corpus = scan_corpus(directory)
        assert len(corpus.workloads) == 2
        assert corpus.skipped == ()

    def test_suite_workload_ids_match_scan(self, tmp_path):
        directory = str(tmp_path / "suite")
        export_benchmark_suite(directory, benchmarks=["QAOA", "ADD"])
        mapping = suite_workload_ids(directory)
        corpus = scan_corpus(directory)
        assert sorted(mapping.values()) == sorted(corpus.workload_ids)
        assert set(mapping) == {"QAOA", "ADD"}

    def test_ingest_parses_each_file_once(self, tmp_path, monkeypatch):
        # The scan parses every file to validate it; resolving a workload
        # for transpilation reuses that circuit instead of re-parsing.
        import repro.qasm.corpus as corpus_module
        from repro.experiments.common import clear_caches, prepared_circuit

        directory = str(tmp_path / "suite")
        export_benchmark_suite(directory, benchmarks=["QAOA", "ADD"])
        parsed = []
        real_parse = corpus_module.parse_qasm

        def counting_parse(text):
            parsed.append(text)
            return real_parse(text)

        monkeypatch.setattr(corpus_module, "parse_qasm", counting_parse)
        clear_caches()
        try:
            corpus = activate_corpus(directory)
            for wid in corpus.workload_ids:
                assert prepared_circuit(wid).num_qubits > 0
        finally:
            clear_caches()
        assert len(parsed) == 2

    def test_corpus_copy_of_registry_benchmark_is_equivalent(self, tmp_path):
        directory = str(tmp_path / "suite")
        export_benchmark_suite(directory, benchmarks=["QAOA"])
        corpus = register_corpus(directory)
        (wid,) = corpus.workload_ids
        via_corpus = resolve_workload(wid)
        via_registry = get_benchmark("QAOA")
        assert via_corpus.num_qubits == via_registry.num_qubits
        assert [g.name for g in via_corpus] == [g.name for g in via_registry]
