"""CLI surface: sweep --trace / -v / -q, repro trace, api trace arg."""

import logging

import pytest

from repro import api, obs
from repro.cli import main

SWEEP_ARGS = ["sweep", "--dataset", "compas", "--no-baseline",
              "--approach", "Hardt-eo", "--rows", "300",
              "--causal-samples", "300"]


class TestSweepTraceFlag:
    def test_writes_trace_and_summarizes(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        code = main([*SWEEP_ARGS, "--store", str(tmp_path / "c"),
                     "--trace", str(trace_dir)])
        assert code == 0
        assert (trace_dir / "events.jsonl").exists()
        assert (trace_dir / "trace.json").exists()
        assert "trace written to" in capsys.readouterr().out

        assert main(["trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "span totals:" in out
        assert "slowest cells:" in out

        assert main(["trace", str(trace_dir), "--check"]) == 0
        assert "trace check passed" in capsys.readouterr().out

    def test_trace_by_axis_and_top(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        main([*SWEEP_ARGS, "--store", str(tmp_path / "c"),
              "--trace", str(trace_dir)])
        capsys.readouterr()
        assert main(["trace", str(trace_dir), "--by", "approach",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "phase totals by approach:" in out
        assert "Hardt-eo" in out

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_trace_top_below_one_is_named_error(self, tmp_path, value,
                                                capsys):
        # --top -1 used to list every span but one.
        assert main(["trace", str(tmp_path), "--top", value]) == 2
        assert capsys.readouterr().err == (
            f"error: --top must be an integer >= 1, got {value}\n")

    def test_trace_by_unknown_axis_is_named_error(self, tmp_path, capsys):
        # --by bogus used to file every cell under "-".
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", str(tmp_path), "--by", "bogus"])
        assert exit_info.value.code == 2
        assert "argument --by: invalid choice: 'bogus'" in \
            capsys.readouterr().err

    def test_trace_missing_dir_errors(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_check_fails_on_incomplete_trace(self, tmp_path, capsys):
        collector = obs.TraceCollector(env={})
        with obs.recording() as rec:
            with obs.span("cell"):
                pass  # no phase spans at all
        collector.add_cell("broken", fragment=rec.snapshot(), attrs={},
                           elapsed=0.1)
        collector.write(tmp_path / "bad")
        assert main(["trace", str(tmp_path / "bad"), "--check"]) == 1
        assert "CHECK FAILED" in capsys.readouterr().err


class TestProgressVerbosity:
    def test_default_progress_logs_per_cell(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="repro.sweep"):
            main([*SWEEP_ARGS, "--store", str(tmp_path / "c")])
        assert "[1/1]" in caplog.text

    def test_quiet_suppresses_progress(self, tmp_path, caplog, capsys):
        with caplog.at_level(logging.INFO, logger="repro.sweep"):
            code = main([*SWEEP_ARGS, "-q",
                         "--store", str(tmp_path / "c")])
        assert code == 0
        assert "[1/1]" not in caplog.text
        # summary + tables still land on stdout
        out = capsys.readouterr().out
        assert "sweep finished" in out and "Hardt" in out

    def test_verbose_appends_phase_breakdown(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="repro.sweep"):
            main([*SWEEP_ARGS, "-v",
                  "--store", str(tmp_path / "c")])
        assert "[1/1]" in caplog.text
        assert "fit" in caplog.text and "metrics" in caplog.text


class TestApiTrace:
    def test_sweep_trace_path_writes_files(self, tmp_path):
        config = {"sweep": {"datasets": ["compas"], "rows": [300],
                            "causal_samples": 300},
                  "engine": {"store": "none"}}
        report = api.sweep(config, trace=tmp_path / "trace")
        assert report.computed_count == 1
        trace = obs.load_trace(tmp_path / "trace")
        assert obs.check_trace(trace) == []

    def test_sweep_accepts_collector(self, tmp_path):
        collector = obs.TraceCollector(env={})
        config = {"sweep": {"datasets": ["compas"], "rows": [300],
                            "causal_samples": 300},
                  "engine": {"store": "none"}}
        api.sweep(config, trace=collector)
        assert len(collector.cells) == 1
        # caller owns writing
        assert not (tmp_path / "trace").exists()
