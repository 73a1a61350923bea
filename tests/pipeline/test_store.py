"""Tests for the JSON serialisation of evaluation results, the
``file:`` result store's entries, and CLI smoke tests."""

import json

import pytest

from repro.engine import FileBackend
from repro.pipeline import EvaluationResult, result_from_dict, result_to_dict

#: Entries are addressed by a job's 64-hex-digit fingerprint.
FP = "3f" * 32


def make_result(approach="LR", accuracy=0.8):
    return EvaluationResult(
        approach=approach, dataset="compas", stage="baseline",
        accuracy=accuracy, precision=0.7, recall=0.6, f1=0.65,
        di_star=0.5, tprb=0.9, tnrb=0.9, id=0.95, te=0.8, nde=0.9, nie=0.85,
        raw={"di": 0.5, "te": -0.2}, fit_seconds=1.25,
    )


class TestSerialisation:
    def test_roundtrip(self):
        r = make_result()
        back = result_from_dict(result_to_dict(r))
        assert back == r

    def test_dict_is_json_compatible(self):
        text = json.dumps(result_to_dict(make_result()))
        assert "compas" in text

    def test_missing_required_field_rejected(self):
        data = result_to_dict(make_result())
        del data["accuracy"]
        with pytest.raises(ValueError, match="accuracy"):
            result_from_dict(data)

    def test_defaults_optional(self):
        data = result_to_dict(make_result())
        del data["raw"]
        del data["fit_seconds"]
        back = result_from_dict(data)
        assert back.fit_seconds == 0.0


class TestResultStore:
    """``FileBackend`` keeps one JSON entry per fingerprint in the
    ``<fp[:2]>`` shard directory."""

    def test_save_and_load(self, tmp_path):
        store = FileBackend(tmp_path / "store")
        path = store.save(FP, make_result(), {"rows": 4000})
        assert path == tmp_path / "store" / FP[:2] / f"{FP}.json"
        assert store.load(FP) == (make_result(), {"rows": 4000})

    def test_fingerprints_listing(self, tmp_path):
        store = FileBackend(tmp_path)
        assert store.fingerprints() == []
        store.save("b" * 64, make_result(), {})
        store.save("a" * 64, make_result(), {})
        assert store.fingerprints() == ["a" * 64, "b" * 64]

    def test_overwrite_refreshes(self, tmp_path):
        store = FileBackend(tmp_path)
        store.save(FP, make_result(accuracy=0.1), {})
        store.save(FP, make_result(accuracy=0.9), {})
        assert store.load(FP)[0].accuracy == 0.9

    def test_missing_entry_raises(self, tmp_path):
        store = FileBackend(tmp_path)
        store.save(FP, make_result(), {})
        with pytest.raises(FileNotFoundError):
            store.load("a" * 64)

    def test_delete(self, tmp_path):
        store = FileBackend(tmp_path)
        store.save(FP, make_result(), {})
        store.delete(FP)
        assert store.fingerprints() == []
        store.delete(FP)  # idempotent

    def test_version_mismatch_rejected(self, tmp_path):
        store = FileBackend(tmp_path)
        path = store.save(FP, make_result(), {})
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            store.load(FP)


class TestAtomicSave:
    def test_no_temp_files_left_behind(self, tmp_path):
        path = FileBackend(tmp_path).save(FP, make_result(), {})
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        # A crash mid-save (simulated by unserialisable params) must
        # leave the existing complete entry untouched — never a
        # truncated JSON that load() chokes on.
        store = FileBackend(tmp_path)
        path = store.save(FP, make_result(accuracy=0.8), {})

        with pytest.raises(TypeError):
            # json serialisation fails after the temp file is opened
            store.save(FP, make_result(), {"callback": object()})

        assert store.load(FP)[0].accuracy == 0.8
        assert [p.name for p in path.parent.iterdir()] == [path.name]


class TestCli:
    def test_notions_subcommand(self, capsys):
        from repro.cli import main

        assert main(["notions", "--hierarchy", "counterfactual"]) == 0
        out = capsys.readouterr().out
        assert "counterfactual fairness" in out

    def test_recommend_subcommand(self, capsys):
        from repro.cli import main

        assert main(["recommend", "--notion", "error-rate",
                     "--dirty-data"]) == 0
        out = capsys.readouterr().out
        assert "post-processing" in out
        assert "candidate approaches" in out

    def test_list_subcommand(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "KamCal-dp" in capsys.readouterr().out

    def test_audit_with_store(self, tmp_path, capsys):
        from repro.cli import main
        from repro.engine import ResultCache

        store = f"file:{tmp_path / 'store'}"
        code = main(["audit", "--dataset", "german", "--rows", "400",
                     "--causal-samples", "500", "--store", store])
        assert code == 0
        outcomes = ResultCache(store).outcomes()
        assert [o.result.approach for o in outcomes] == ["LR"]
        assert outcomes[0].job.dataset == "german"
        assert outcomes[0].job.rows == 400

    def test_describe_subcommand(self, capsys):
        from repro.cli import main

        assert main(["describe", "--dataset", "compas",
                     "--rows", "1500"]) == 0
        out = capsys.readouterr().out
        assert "base rates" in out
        assert "justifiable-fairness MVD" in out
