"""Smoke tests for the runnable examples.

Every example must at least compile; the fast ones are also executed
end-to-end so documentation drift breaks the build rather than the
user.  The slower ones (quickstart, compas audit, robustness, model
sensitivity, causal audit, sweep demo) run end to end in CI's
examples step, which executes every script but ``serve_smoke.py``;
that one needs a packed bundle and runs in CI's serve steps.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parents[2] / "examples"


def example_paths():
    return sorted(EXAMPLES_DIR.glob("*.py"))


class TestExamplesCompile:
    @pytest.mark.parametrize("path", example_paths(),
                             ids=lambda p: p.name)
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_expected_set_present(self):
        names = {p.name for p in example_paths()}
        assert {"quickstart.py", "compas_audit.py", "robustness_study.py",
                "model_sensitivity.py", "causal_audit.py",
                "notion_tour.py", "guideline_advisor.py"} <= names


class TestFastExamplesRun:
    def run_example(self, name, timeout=600):
        return subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / name)],
            capture_output=True, text=True, timeout=timeout,
        )

    def test_guideline_advisor(self):
        proc = self.run_example("guideline_advisor.py")
        assert proc.returncode == 0, proc.stderr
        assert "recommended stage" in proc.stdout
        # The four scenarios cover at least two distinct stages.
        assert "post-processing" in proc.stdout
        assert "pre-processing" in proc.stdout

    def test_notion_tour(self):
        proc = self.run_example("notion_tour.py")
        assert proc.returncode == 0, proc.stderr
        assert "catalog size: 34 notions" in proc.stdout
        assert "Counterfactual notions" in proc.stdout
