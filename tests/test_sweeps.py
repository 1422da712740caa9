"""Tests for repro.sweeps: grid expansion, runner, store, and resume."""

import json
import warnings

import pytest

from repro.experiments.common import clear_caches
from repro.hardware.spec import HardwareSpec
from repro.noise.fidelity import NoiseModelConfig
from repro.sim.noisy import NoisyShotSimulator
from repro.sweeps import (
    NOISE_ONLY_SPEC_FIELDS,
    SweepGrid,
    SweepStore,
    run_sweep,
    scenario_key,
)


def small_grid(**kwargs):
    defaults = dict(
        benchmarks=("ADD",),
        techniques=("parallax",),
        spec_axes={"cz_error": (0.002, 0.004)},
        noise_axes={"include_readout": (False, True)},
        shots=300,
        base_seed=3,
    )
    defaults.update(kwargs)
    return SweepGrid(**defaults)


class TestSweepGrid:
    def test_size_and_expansion_count(self):
        grid = small_grid()
        assert grid.size == 4
        assert len(grid.scenarios()) == 4

    def test_expansion_is_deterministic(self):
        a = small_grid().scenarios()
        b = small_grid().scenarios()
        assert a == b

    def test_unknown_spec_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown spec axis"):
            SweepGrid(spec_axes={"warp_factor": (1, 2)})

    def test_unknown_noise_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown noise axis"):
            SweepGrid(noise_axes={"include_gravity": (True,)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepGrid(spec_axes={"cz_error": ()})

    def test_invalid_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            SweepGrid(shots=0)

    def test_noise_only_axes_share_compile_spec(self):
        grid = small_grid()
        scenarios = grid.scenarios()
        assert all(s.compile_spec == grid.base_spec for s in scenarios)
        assert {s.spec.cz_error for s in scenarios} == {0.002, 0.004}

    def test_compile_affecting_axis_changes_compile_spec(self):
        grid = small_grid(spec_axes={"aod_rows": (10, 20)})
        specs = {s.compile_spec.aod_rows for s in grid.scenarios()}
        assert specs == {10, 20}
        assert "aod_rows" not in NOISE_ONLY_SPEC_FIELDS

    def test_scenario_seeds_are_content_derived(self):
        # Subsetting the benchmark list must not move other scenarios'
        # seeds: a scenario's seed is a pure function of its content.
        wide = SweepGrid(benchmarks=("ADD", "HLF"), techniques=("parallax",),
                         shots=100)
        narrow = SweepGrid(benchmarks=("HLF",), techniques=("parallax",),
                           shots=100)
        wide_hlf = [s for s in wide.scenarios() if s.benchmark == "HLF"]
        assert [s.seed for s in wide_hlf] == [s.seed for s in narrow.scenarios()]

    def test_seeds_differ_across_scenarios(self):
        seeds = [s.seed for s in SweepGrid.default().scenarios()]
        assert len(set(seeds)) == len(seeds)

    def test_presets_expand(self):
        assert SweepGrid.smoke().size == 8
        assert SweepGrid.default().size == 108

    def test_describe_names_overrides(self):
        scenario = small_grid().scenarios()[0]
        assert "ADD/parallax" in scenario.describe()
        assert "cz_error" in scenario.describe()


class TestScenarioKey:
    def test_sensitive_to_content(self):
        a, b = small_grid().scenarios()[:2]
        assert scenario_key(a, "cfp", "gfp") != scenario_key(b, "cfp", "gfp")
        assert scenario_key(a, "cfp", "gfp") != scenario_key(a, "other", "gfp")
        assert scenario_key(a, "cfp", "gfp") != scenario_key(a, "cfp", "other")

    def test_stable(self):
        scenario = small_grid().scenarios()[0]
        assert scenario_key(scenario, "c", "g") == scenario_key(scenario, "c", "g")

    def test_plan_keys_match_the_unmemoized_derivation(self):
        # Keys hash memoized spec/noise digests; they must equal the
        # direct derivation byte for byte -- also for axis values that
        # compare equal across types (4e6 == 4_000_000, 0 == False) but
        # encode, and so hash, differently.
        from repro import __version__
        from repro.pipeline.fingerprint import fingerprint_obj
        from repro.sweeps.runner import plan_sweep

        grid = small_grid(
            spec_axes={
                "cz_error": (0.002, 0.004),
                "t1_us": (4_000_000, 4_000_000.0),
            },
            noise_axes={"include_readout": (False, 0, True, 1)},
            config_axes={"placement_seed": (0, 1)},
        )
        plan = plan_sweep(grid)
        assert len(set(plan.keys)) == len(plan) == 32
        for scenario, key, fps in zip(
            plan.scenarios, plan.keys, plan.fingerprints
        ):
            payload = {
                "benchmark": scenario.benchmark,
                "technique": scenario.technique,
                "circuit": fps["circuit"],
                "config": fps["config"],
                "spec": fingerprint_obj(scenario.spec),
                "noise": fingerprint_obj(scenario.noise),
                "shots": scenario.shots,
                "seed": scenario.seed,
                "version": __version__,
                "config_overrides": dict(scenario.config_overrides),
            }
            assert key == fingerprint_obj(payload)
            assert fps["spec"] == fingerprint_obj(scenario.spec)


class TestSweepStore:
    def test_round_trip(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        store.put("k" * 64, {"scenario": {"benchmark": "ADD"}, "x": 1.5})
        record = store.get("k" * 64)
        assert record["x"] == 1.5
        assert record["key"] == "k" * 64
        assert ("k" * 64) in store
        assert len(store) == 1

    def test_missing_and_corrupt_entries_are_none(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        assert store.get("a" * 64) is None
        store.path("b" * 64).write_text("{not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="unreadable record"):
            assert store.get("b" * 64) is None

    def test_truncated_record_resumes_as_missing_with_warning(self, tmp_path):
        # A kill mid-write on a filesystem without atomic rename leaves a
        # truncated file; it must read as missing (recomputed), not raise.
        store = SweepStore(tmp_path / "s")
        store.put("d" * 64, {"scenario": {"benchmark": "ADD"}, "v": 1})
        full = store.path("d" * 64).read_text(encoding="utf-8")
        store.path("d" * 64).write_text(full[: len(full) // 2], encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="unreadable record"):
            assert store.get("d" * 64) is None
        # Same bad file, same store: still missing, but the warning is
        # deduplicated (a big scan must not flood the log).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(store.records()) == []
        # A fresh store instance on the same directory does NOT re-warn:
        # dedup is module-level, keyed on (directory, problem), so the many
        # short-lived instances a multi-worker run opens report each
        # problem once per process, not once per instance.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(SweepStore(tmp_path / "s").records()) == []
        # clear() re-arms the dedup: the directory's next life is new data.
        store.clear()
        store.path("d" * 64).write_text("{not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="unreadable record"):
            assert store.get("d" * 64) is None

    def test_warnings_also_routed_to_module_logger(self, tmp_path, caplog):
        import logging

        store = SweepStore(tmp_path / "s")
        store.path("e" * 64).write_text("{not json", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.sweeps.store"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert store.get("e" * 64) is None
                assert SweepStore(tmp_path / "s").get("e" * 64) is None
        hits = [r for r in caplog.records if "unreadable record" in r.message]
        assert len(hits) == 1  # once per process, not once per instance

    def test_records_sorted_by_key(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        for key in ("f" * 64, "a" * 64, "c" * 64):
            store.put(key, {"v": key[0]})
        keys = [record["key"] for record in store.records()]
        assert keys == sorted(keys)
        assert len(keys) == 3

    def test_foreign_engine_generation_excluded_from_iteration(self, tmp_path):
        # A store directory reused across package upgrades holds records
        # from two Monte Carlo engine generations; iteration must never
        # blend them into one analysis.
        store = SweepStore(tmp_path / "s")
        store.put("a" * 64, {"v": 1})
        record = {"v": 2, "schema_version": 2, "engine_version": "0.9.0",
                  "key": "b" * 64}
        store.path("b" * 64).write_text(json.dumps(record), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="engine '0.9.0'"):
            kept = list(store.records())
        assert [r["key"] for r in kept] == ["a" * 64]

    def test_put_stamps_engine_version(self, tmp_path):
        from repro import __version__

        store = SweepStore(tmp_path / "s")
        store.put("a" * 64, {"v": 1, "engine_version": "stale"})
        assert store.get("a" * 64)["engine_version"] == __version__

    def test_key_mismatch_rejected(self, tmp_path):
        # A record stored under a truncated-collision path must not be
        # served for a different full key.
        store = SweepStore(tmp_path / "s")
        store.put("c" * 64, {"v": 1})
        payload = json.loads(store.path("c" * 64).read_text())
        assert store.get("c" * 40 + "d" * 24) is None
        assert payload["key"] == "c" * 64

    def test_clear(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        store.put("e" * 64, {"v": 1})
        store.clear()
        assert len(store) == 0

    def test_put_stamps_key_over_stale_record_key(self, tmp_path):
        # A record copied from elsewhere (stale embedded key) must be
        # re-addressed by the key it is stored under, not made invisible.
        store = SweepStore(tmp_path / "s")
        store.put("f" * 64, {"key": "stale", "v": 2})
        record = store.get("f" * 64)
        assert record is not None
        assert record["key"] == "f" * 64


class TestRunSweep:
    def test_end_to_end_records(self, tmp_path):
        grid = small_grid()
        report = run_sweep(grid, SweepStore(tmp_path / "s"))
        assert report.scenarios == 4
        assert report.computed == 4
        assert report.resumed == 0
        # Both cz_error values ride on one compilation (noise-only field).
        assert report.compilations == 1
        for record, scenario in zip(report.records, grid.scenarios()):
            assert record["scenario"]["benchmark"] == scenario.benchmark
            assert record["outcome"]["shots"] == 300
            assert 0.0 <= record["outcome"]["success_rate"] <= 1.0
            assert 0.0 <= record["analytic_success"] <= 1.0

    def test_empirical_tracks_analytic(self):
        grid = small_grid(shots=20_000,
                          spec_axes={"cz_error": (0.004,)},
                          noise_axes={})
        report = run_sweep(grid)
        record = report.records[0]
        margin = 4 * record["outcome"]["stderr"] + 1e-3
        assert record["outcome"]["success_rate"] == pytest.approx(
            record["analytic_success"], abs=margin
        )

    def test_workers_do_not_change_records(self, tmp_path):
        grid = small_grid()
        clear_caches()
        one = run_sweep(grid, workers=1)
        clear_caches()
        two = run_sweep(grid, workers=2)
        assert one.records == two.records

    def test_noise_only_axis_swaps_effective_spec(self):
        grid = small_grid()
        report = run_sweep(grid)
        # Different cz_error values must yield different analytic success
        # even though the compiled artifact is shared.
        by_cz = {}
        for record in report.records:
            cz = record["scenario"]["spec_overrides"]["cz_error"]
            by_cz.setdefault(cz, set()).add(record["analytic_success"])
        assert len(by_cz) == 2
        assert by_cz[0.002] != by_cz[0.004]

    def test_limit_truncates_scenarios(self):
        report = run_sweep(small_grid(), limit=2)
        assert report.scenarios == 2
        assert report.computed == 2

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            run_sweep(small_grid(), limit=0)

    def test_records_survive_store_round_trip_identically(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        report = run_sweep(small_grid(), store)
        for record in report.records:
            assert store.get(record["key"]) == record


class TestResume:
    def test_full_resume_skips_everything(self, tmp_path):
        grid = small_grid()
        store = SweepStore(tmp_path / "s")
        first = run_sweep(grid, store)
        second = run_sweep(grid, store, resume=True)
        assert second.computed == 0
        assert second.resumed == 4
        assert second.compilations == 0
        assert second.records == first.records

    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path, monkeypatch):
        grid = small_grid()
        reference = run_sweep(grid, SweepStore(tmp_path / "ref"))

        # Kill the sweep after two evaluated scenarios.
        store = SweepStore(tmp_path / "s")
        real_run = NoisyShotSimulator.run
        calls = {"n": 0}

        def dying_run(self, shots=8000):
            if calls["n"] >= 2:
                raise KeyboardInterrupt("killed mid-sweep")
            calls["n"] += 1
            return real_run(self, shots)

        monkeypatch.setattr(NoisyShotSimulator, "run", dying_run)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(grid, store)
        assert len(store) == 2  # finished scenarios survived the kill

        # Restart: only the two missing scenarios are evaluated.
        counting = {"n": 0}

        def counting_run(self, shots=8000):
            counting["n"] += 1
            return real_run(self, shots)

        monkeypatch.setattr(NoisyShotSimulator, "run", counting_run)
        resumed = run_sweep(grid, store, resume=True)
        assert counting["n"] == 2
        assert resumed.resumed == 2
        assert resumed.computed == 2
        # Bit-identical to the uninterrupted reference run.
        assert resumed.records == reference.records

    def test_without_resume_recomputes(self, tmp_path):
        grid = small_grid()
        store = SweepStore(tmp_path / "s")
        run_sweep(grid, store)
        again = run_sweep(grid, store)  # resume not requested
        assert again.computed == 4
        assert again.resumed == 0


class TestSweepCLI:
    def test_smoke_preset_end_to_end(self, tmp_path, capsys):
        from repro.sweeps.__main__ import main

        store_dir = tmp_path / "out"
        code = main([
            "--preset", "smoke", "--shots", "50", "--quiet",
            "--store", str(store_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenarios" in out
        assert len(SweepStore(store_dir)) == 8

    def test_limit_truncates(self, tmp_path):
        from repro.sweeps.__main__ import main

        store_dir = tmp_path / "out"
        assert main([
            "--preset", "smoke", "--shots", "20", "--quiet",
            "--limit", "3", "--store", str(store_dir),
        ]) == 0
        assert len(SweepStore(store_dir)) == 3

    def test_resume_requires_store(self):
        from repro.sweeps.__main__ import main

        with pytest.raises(SystemExit):
            main(["--resume"])

    def test_custom_axes(self, capsys):
        from repro.sweeps.__main__ import main

        assert main([
            "--preset", "smoke", "--shots", "20", "--quiet",
            "--spec-axis", "cz_error=0.001,0.002",
            "--noise-axis", "include_readout=false",
        ]) == 0
        assert "scenarios" in capsys.readouterr().out

    def test_bad_axis_field_reports_error(self, capsys):
        from repro.sweeps.__main__ import main

        # Axis validation goes through parser.error (argparse usage-error
        # exit code 2), like every other bad flag.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--preset", "smoke", "--quiet",
                "--spec-axis", "warp_factor=1,2",
            ])
        assert excinfo.value.code == 2
        assert "unknown spec axis" in capsys.readouterr().err

    def test_eval_jobs_flag_matches_in_process(self, tmp_path, capsys):
        from repro.sweeps.__main__ import main

        one, four = tmp_path / "one", tmp_path / "four"
        assert main(["--preset", "smoke", "--shots", "50", "--quiet",
                     "--store", str(one)]) == 0
        assert main(["--preset", "smoke", "--shots", "50", "--quiet",
                     "--eval-jobs", "4", "--store", str(four)]) == 0
        records_one = list(SweepStore(one).records())
        records_four = list(SweepStore(four).records())
        assert records_one == records_four


class TestAnalyzeCLI:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        from repro.sweeps.__main__ import main

        directory = tmp_path / "out"
        assert main([
            "--preset", "smoke", "--shots", "50", "--quiet",
            "--store", str(directory),
        ]) == 0
        return directory

    def test_analyze_prints_marginals_and_crossovers(self, store_dir, capsys):
        from repro.sweeps.__main__ import main

        assert main(["analyze", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "benchmark" in out
        assert "axes:" in out
        assert "crossover" in out

    def test_analyze_csv_dump(self, store_dir, tmp_path, capsys):
        from repro.sweeps.__main__ import main

        csv_path = tmp_path / "flat.csv"
        assert main(["analyze", str(store_dir), "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 9  # header + 8 smoke scenarios
        assert "benchmark" in lines[0]

    def test_analyze_empty_store_errors(self, tmp_path, capsys):
        from repro.sweeps.__main__ import main

        assert main(["analyze", str(tmp_path / "empty")]) == 1
        assert "no readable records" in capsys.readouterr().err

    def test_analyze_unknown_metric_errors(self, store_dir, capsys):
        from repro.sweeps.__main__ import main

        assert main(["analyze", str(store_dir), "--metric", "nope"]) == 1
        assert "unknown metric" in capsys.readouterr().err

    def test_analyze_bad_axis_errors(self, store_dir, capsys):
        from repro.sweeps.__main__ import main

        assert main(["analyze", str(store_dir), "--axis", "t2_us"]) == 1
        assert "not a numeric sweep axis" in capsys.readouterr().err

    def test_cli_sweep_summary_flag(self, store_dir, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["--sweep-summary", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "crossover" in out

    def test_cli_sweep_summary_empty_errors(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["--sweep-summary", str(tmp_path / "none")]) == 1
        assert "no readable sweep records" in capsys.readouterr().err


class TestNoiseOnlyFieldSet:
    def test_noise_only_fields_exist_on_spec(self):
        import dataclasses

        names = {f.name for f in dataclasses.fields(HardwareSpec)}
        assert NOISE_ONLY_SPEC_FIELDS <= names

    def test_compile_relevant_fields_excluded(self):
        for name in ("grid_rows", "aod_rows", "move_speed_um_per_us",
                     "trap_switch_time_us", "min_separation_um"):
            assert name not in NOISE_ONLY_SPEC_FIELDS


class TestPhaseTimings:
    """Batch runs aggregate per-stage PhaseTimer totals across workers."""

    def test_phase_total_keys_match_across_worker_counts(self):
        grid = small_grid()
        clear_caches()
        one = run_sweep(grid, workers=1)
        clear_caches()
        two = run_sweep(grid, workers=2)
        assert one.phase_totals  # fresh caches actually compiled something
        assert set(one.phase_totals) == set(two.phase_totals)
        stages = {"transpile", "layout", "placement", "schedule", "finalize"}
        for key in one.phase_totals:
            technique, _, stage = key.partition(".")
            assert technique == "parallax"
            assert stage in stages

    def test_cached_rerun_reports_empty_phase_totals(self):
        grid = small_grid()
        clear_caches()
        run_sweep(grid)
        again = run_sweep(grid)  # every compile point is now a cache hit
        assert again.phase_totals == {}
        assert again.compile_s == 0.0

    def test_summary_line_appends_compile_s(self):
        grid = small_grid()
        clear_caches()
        report = run_sweep(grid)
        assert (
            f"compilations={report.compilations} compile_s=" in report.summary_line
        )
        assert report.compile_s == pytest.approx(sum(report.phase_totals.values()))
