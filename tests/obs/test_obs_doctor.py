"""Environment diagnostics (`repro doctor`) and trace headers."""

from repro import obs
from repro.cli import main


class TestEnvironmentInfo:
    def test_expected_keys(self):
        info = obs.environment_info()
        assert {"repro", "python", "platform", "cpu_count", "numpy",
                "blas", "threads", "defaults"} <= set(info)
        assert set(info["threads"]) == set(obs.THREAD_ENV_VARS)
        assert info["defaults"]["pairwise_block_size"] >= 1
        assert info["defaults"]["abduction_max_batch"] >= 1

    def test_matches_live_versions(self):
        import numpy
        import repro
        info = obs.environment_info()
        assert info["repro"] == repro.__version__
        assert info["numpy"] == numpy.__version__

    def test_thread_env_reflected(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        threads = obs.environment_info()["threads"]
        assert threads["OMP_NUM_THREADS"] == "3"
        assert threads["MKL_NUM_THREADS"] is None

    def test_json_serializable(self):
        import json
        json.dumps(obs.environment_info())


class TestBlasRuntime:
    def test_keys_present_and_json_safe(self):
        import json
        import os
        info = obs.environment_info()
        assert 1 <= info["usable_cpus"] <= os.cpu_count()
        for lib in info["blas_runtime"]:
            assert "openblas" in lib["library"] and lib["threads"] >= 1
        assert json.loads(json.dumps(info))["blas_runtime"] \
            == info["blas_runtime"]
        text = obs.format_doctor(info)
        assert "usable" in text and "blas runtime" in text

    def test_no_openblas_found(self, monkeypatch):
        from repro import blas
        monkeypatch.setattr(blas, "_BUNDLES", (
            ("numpy", "libno-such-openblas-*.so", "64_"),
            ("no_such_package_here", "*.so", "")))
        blas._libraries.cache_clear()
        try:
            info = obs.environment_info()
            assert info["blas_runtime"] == []
            assert blas.threads() is None
            blas.set_threads(1)  # nothing to set: a no-op
            with blas.limited(1):
                pass
            assert "no OpenBLAS found" in obs.format_doctor(info)
        finally:
            blas._libraries.cache_clear()


class TestFormatDoctor:
    def test_renders_all_sections(self):
        text = obs.format_doctor(obs.environment_info())
        assert "repro " in text
        assert "numpy " in text
        assert "OMP_NUM_THREADS" in text
        assert "pairwise_block_size" in text


class TestDoctorCli:
    def test_doctor_prints_environment(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out and "thread environment" in out


class TestTraceHeaderEmbedsEnv:
    def test_collector_defaults_to_environment_info(self, tmp_path):
        collector = obs.TraceCollector()
        collector.add_cell("c", fragment=None, cached=True)
        trace = obs.load_trace(collector.write(tmp_path / "t"))
        import repro
        assert trace["header"]["env"]["repro"] == repro.__version__
