"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import ResultCache

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestList:
    def test_lists_datasets_and_stages(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "compas" in out
        assert "pre-processing" in out
        assert "KamCal-dp" in out


class TestClosedReader:
    """A reader that exits before reading (``repro list | true``) gets
    no traceback: the command exits 1 and writes nothing to stderr,
    whether its first print or the interpreter's final flush hits the
    closed pipe."""

    @pytest.mark.parametrize("unbuffered", ["1", ""],
                             ids=["unbuffered", "buffered"])
    def test_no_traceback(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "list"], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=120,
                env={"PYTHONPATH": REPO_SRC, "PATH": os.environ["PATH"],
                     "PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 1


class TestRun:
    def test_default_run(self, capsys):
        code = main(["run", "--dataset", "compas", "--rows", "600",
                     "--causal-samples", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LR" in out
        assert "KamCal" in out

    def test_explicit_approach(self, capsys):
        code = main(["run", "--dataset", "german", "--rows", "400",
                     "--causal-samples", "500",
                     "--approach", "Hardt-eo"])
        assert code == 0
        assert "Hardt" in capsys.readouterr().out

    def test_unknown_approach_is_error(self, capsys):
        code = main(["run", "--rows", "400", "--approach", "FairGAN"])
        assert code == 2
        assert ("unknown approach 'FairGAN'; choose from"
                in capsys.readouterr().err)


class TestModelOption:
    def test_run_with_alternative_model(self, capsys):
        code = main(["run", "--dataset", "german", "--rows", "400",
                     "--causal-samples", "500", "--model", "nb",
                     "--approach", "Hardt-eo"])
        assert code == 0
        assert "Hardt" in capsys.readouterr().out

    def test_unknown_model_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--rows", "400", "--model", "transformer"])


class TestSweep:
    def test_sweep_cold_then_warm_cache(self, tmp_path, capsys):
        argv = ["sweep", "--dataset", "german", "--approach", "Hardt-eo",
                "--rows", "400", "--seeds", "2", "--causal-samples",
                "300", "--store", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 cells, 4 computed, 0 cached" in out
        assert "german (seed-averaged over 2 seeds)" in out
        assert "Hardt" in out

        assert main(argv) == 0  # warm: every cell is a cache hit
        out = capsys.readouterr().out
        assert "4 cells, 0 computed, 4 cached" in out

    def test_sweep_parallel_matches_serial(self, tmp_path, capsys):
        argv = ["sweep", "--dataset", "german", "--approach",
                "KamCal-dp", "--rows", "400", "--causal-samples", "300",
                "--store", "none"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # identical tables (timings appear only in progress lines)
        assert serial.split("\n\n")[1] == parallel.split("\n\n")[1]

    def test_sweep_no_baseline_and_error_grid(self, tmp_path, capsys):
        code = main(["sweep", "--dataset", "german", "--no-baseline",
                     "--approach", "Hardt-eo", "--error", "t1",
                     "--rows", "300", "--causal-samples", "200",
                     "--store", "none"])
        assert code == 0
        captured = capsys.readouterr()
        assert "2 cells" in captured.out  # clean + t1, no baseline rows
        # per-cell progress (with the error axis in the label) now goes
        # through logging on stderr, not stdout
        assert "error=t1" in captured.err

    def test_sweep_baseline_alias_accepted(self, capsys):
        # --no-baseline plus an explicit alias lets the user position
        # the baseline row themselves.
        code = main(["sweep", "--dataset", "german", "--no-baseline",
                     "--approach", "baseline", "--rows", "300",
                     "--causal-samples", "200", "--store", "none"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 cells" in out and "LR" in out

    def test_sweep_unknown_approach_rejected(self, capsys):
        assert main(["sweep", "--approach", "FairGAN"]) == 2
        assert ("unknown approach 'FairGAN'; choose from"
                in capsys.readouterr().err)

    def test_sweep_bad_seeds_rejected(self, capsys):
        assert main(["sweep", "--seeds", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: seeds count must be an integer >= 1, got 0\n")

    def test_sweep_bad_jobs_rejected(self, capsys):
        assert main(["sweep", "--jobs", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: jobs must be an integer >= 1, got 0\n")

    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "path-under-file"])
    def test_sweep_trace_file_rejected_before_any_cell(self, tmp_path,
                                                       under, capsys):
        # The whole sweep used to run, then the trace was lost in a
        # FileExistsError (or NotADirectoryError) traceback.
        blocker = tmp_path / "trace"
        blocker.write_text("")
        trace = blocker / "sub" if under else blocker
        assert main(["sweep", "--dataset", "german", "--rows", "300",
                     "--store", str(tmp_path / "store"),
                     "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == (
            f"error: --trace {str(trace)!r} cannot be created: "
            f"{str(blocker)!r} is a file\n" if under else
            f"error: --trace must name a directory, but {str(trace)!r} "
            "is a file\n")
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("flag", ["--chaos", "--config"])
    def test_sweep_directory_input_is_named_error(self, flag, tmp_path,
                                                  capsys):
        # A directory used to end in an IsADirectoryError traceback.
        assert main(["sweep", flag, str(tmp_path), "--store",
                     str(tmp_path / "store")]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} must name a file, but {str(tmp_path)!r} is a "
            "directory\n")
        assert not (tmp_path / "store").exists()

    def test_sweep_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--metric", "accuracy"), ("--chunk-rows", "8"),
        ("--block-size", "64")])
    def test_removed_sweep_flags_are_gone(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dataset", "german", flag, value,
                  "--store", "none"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestSweepFlagsOverConfig:
    """Engine flags apply to the config's spec through its own checks."""

    def test_bad_engine_flag_names_the_field(self, tmp_path, capsys):
        # --timeout nan used to pass the CLI's own `<= 0` check, skip
        # the spec's, and run with no deadline.
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"datasets": ["german"]}))
        assert main(["sweep", "--config", str(config), "--store", "none",
                     "--timeout", "nan"]) == 2
        assert capsys.readouterr().err == (
            "error: timeout must be a number of seconds > 0, got nan\n")

    def test_pack_artifacts_needs_a_store(self, tmp_path, capsys):
        message = ("pack_artifacts stores fitted components in the result "
                   "store; it cannot be combined with store none")
        assert main(["sweep", "--dataset", "german", "--pack-artifacts",
                     "--store", "none"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"datasets": ["german"],
                                      "pack_artifacts": True,
                                      "store": "none"}))
        assert main(["sweep", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_pack_artifacts_config_caches_by_default(self, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "datasets": ["german"], "rows": [300], "causal_samples": 200,
            "pack_artifacts": True}))
        assert main(["sweep", "--config", str(config), "-q"]) == 0
        assert "cache at .sweep-cache" in capsys.readouterr().out
        cache = ResultCache(tmp_path / ".sweep-cache")
        assert [cache.has_artifact(fp) for fp in cache.fingerprints()] == [
            True]


class TestErrorMessages:
    @pytest.mark.parametrize("command", ["sweep", "run"])
    def test_protocol_error_has_no_registry_hint(self, command, capsys):
        # Only an unknown component names the registry's choices.
        assert main([command, "--dataset", "german", "--causal-samples",
                     "0"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: causal_samples must be an integer >= 1, "
                       "got 0\n")


class TestDescribe:
    @pytest.mark.parametrize("flag, value, message", [
        ("--rows", "0", "--rows must be an integer >= 1, got 0"),
        ("--rows", "-3", "--rows must be an integer >= 1, got -3"),
        ("--seed", "-1", "--seed must be an integer >= 0, got -1"),
    ], ids=["rows-zero", "rows-negative", "seed-negative"])
    def test_degenerate_sample_is_named_error(self, flag, value, message,
                                              capsys):
        assert main(["describe", "--dataset", "german", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestServe:
    @pytest.mark.parametrize("flag, value, message", [
        ("--port", "99999", "--port must be an integer in 0..65535, "
                            "got 99999"),
        ("--port", "-1", "--port must be an integer in 0..65535, got -1"),
        ("--max-requests", "0", "--max-requests must be an integer >= 1, "
                                "got 0"),
    ], ids=["port-above-range", "port-negative", "max-requests-zero"])
    def test_bad_flag_is_named_error(self, flag, value, message,
                                     tmp_path, capsys):
        # A bad port used to end in an OverflowError traceback from
        # bind, and --max-requests 0 served until the first request.
        assert main(["serve", str(tmp_path / "bundle"), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


    def test_trace_file_is_named_error(self, tmp_path, capsys):
        # The trace used to be lost at shutdown in a FileExistsError.
        trace = tmp_path / "trace"
        trace.write_text("")
        assert main(["serve", str(tmp_path / "bundle"),
                     "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == (
            f"error: --trace must name a directory, but {str(trace)!r} "
            "is a file\n")


class TestAudit:
    def test_audit_baseline_only(self, capsys):
        code = main(["audit", "--dataset", "compas", "--rows", "600",
                     "--causal-samples", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LR" in out
        assert "DI*" in out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


class TestRunThroughEngine:
    def test_store_cells_read_back_by_report(self, tmp_path, capsys):
        store = f"sqlite:{tmp_path / 'run.db'}"
        assert main(["run", "--dataset", "german", "--rows", "400",
                     "--causal-samples", "300", "--store", store]) == 0
        assert main(["report", "--store", store, "--no-tables"]) == 0
        assert "4 cached cells" in capsys.readouterr().out

    def test_failed_cell_exits_1_with_traceback(self, monkeypatch,
                                                capsys):
        from repro.engine import executor

        def boom(job):
            raise RuntimeError("boom")

        monkeypatch.setattr(executor, "execute_job", boom)
        assert main(["audit", "--dataset", "german", "--rows", "300"]) == 1
        err = capsys.readouterr().err
        assert "FAILED german LR" in err
        assert "RuntimeError: boom" in err

    def test_run_name_is_gone(self):
        with pytest.raises(SystemExit):
            main(["audit", "--run-name", "smoke"])
