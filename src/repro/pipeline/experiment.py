"""The experiment runner: uniform pipelines over all stages + metrics.

Every evaluated variant is composed into the same flow

    repair (pre) → encode → model / in-processor → adjust (post)

so correctness, fairness, runtime, robustness, sensitivity, stability,
and data-efficiency experiments all measure approaches identically,
as in the paper's Section 4.1 protocol (logistic regression as the
downstream model for pre/post, predictions thresholded at 0.5, and the
plain-LR baseline subtracted in runtime experiments).
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .. import blas
from ..datasets.dataset import Dataset
from ..datasets.encoding import FeatureEncoder
from ..datasets.table import Table
from ..fairness.base import (FairApproach, InProcessor, PostProcessor,
                             Preprocessor, Stage)
from ..metrics.correctness import CorrectnessReport
from ..metrics.fairness import (causal_effects_of_predictions,
                                disparate_impact,
                                true_negative_rate_balance,
                                true_positive_rate_balance)
from ..metrics.normalize import di_star, one_minus_abs
from ..models.base import Classifier
from ..models.logistic import LogisticRegression


@dataclass(frozen=True)
class EvaluationResult:
    """All metric values for one (approach, dataset, model) run.

    Fairness metrics are reported on the paper's normalised "1 = fair"
    scale (DI*, 1−|TPRB|, 1−|TNRB|, 1−ID, 1−|TE|, 1−|NDE|, 1−|NIE|);
    the raw signed values are kept alongside for diagnostics.
    """

    approach: str
    dataset: str
    stage: str
    # correctness
    accuracy: float
    precision: float
    recall: float
    f1: float
    # normalised fairness
    di_star: float
    tprb: float
    tnrb: float
    id: float
    te: float
    nde: float
    nie: float
    # raw fairness values (signed / ratio scale)
    raw: dict[str, float] = field(default_factory=dict)
    fit_seconds: float = 0.0

    def fairness_scores(self) -> dict[str, float]:
        return {"di_star": self.di_star, "tprb": self.tprb,
                "tnrb": self.tnrb, "id": self.id, "te": self.te,
                "nde": self.nde, "nie": self.nie}

    def correctness_scores(self) -> dict[str, float]:
        return {"accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall, "f1": self.f1}


def result_to_dict(result: EvaluationResult) -> dict:
    """Serialise an evaluation result to plain JSON-compatible types."""
    out = dataclasses.asdict(result)
    out["raw"] = {k: float(v) for k, v in result.raw.items()}
    return out


def result_from_dict(data: Mapping) -> EvaluationResult:
    """Inverse of :func:`result_to_dict`.

    Raises
    ------
    ValueError
        If ``data`` is not a mapping or required fields are missing
        (e.g. hand-edited files).
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"result record is a {type(data).__name__}, "
                         "not a mapping")
    fields = {f.name for f in dataclasses.fields(EvaluationResult)}
    missing = fields - set(data)
    # `raw` and `fit_seconds` have defaults; everything else is required.
    required_missing = missing - {"raw", "fit_seconds"}
    if required_missing:
        raise ValueError(f"result record is missing {sorted(required_missing)}")
    kwargs = {k: v for k, v in data.items() if k in fields}
    return EvaluationResult(**kwargs)


class FairPipeline:
    """A fit/predict pipeline wrapping one fair approach (or none).

    Parameters
    ----------
    approach:
        A pre-, in-, or post-processing approach; ``None`` runs the
        fairness-unaware baseline.
    model:
        Downstream classifier for the baseline and for pre-/post-
        processing approaches (defaults to logistic regression, the
        paper's choice).  Ignored by in-processing approaches.
    seed:
        Seed for the randomised post-processing adjustments.
    """

    def __init__(self, approach: FairApproach | None = None,
                 model: Classifier | None = None, seed: int = 0):
        self.approach = approach
        self.model = model if model is not None else LogisticRegression()
        self.seed = seed
        self._encoder: FeatureEncoder | None = None
        self._schema: Dataset | None = None
        self.fit_seconds_: float = 0.0
        self._fitted = False

    # ------------------------------------------------------------------
    @property
    def stage(self) -> Stage | None:
        return self.approach.stage if self.approach is not None else None

    @property
    def name(self) -> str:
        return self.approach.name if self.approach is not None else "LR"

    @property
    def stage_name(self) -> str:
        """Human-readable stage label for reports."""
        return self.stage.value if self.stage else "baseline"

    def _uses_sensitive(self) -> bool:
        if self.approach is None:
            return True  # baseline LR sees all attributes incl. S
        return self.approach.uses_sensitive_feature

    # ------------------------------------------------------------------
    def fit(self, train: Dataset) -> "FairPipeline":
        """Fit the approach and the downstream model on ``train``.

        Fits run at one BLAS thread.  Threaded BLAS splits its sums by
        thread count, so rounding, and with it the fitted model, can
        follow the thread count (the adult Thomas-dp cell's DI* did);
        one thread keeps every model the same whatever the host, the
        pool width or ``OPENBLAS_NUM_THREADS``.
        """
        with blas.limited(1):
            return self._fit(train)

    def _fit(self, train: Dataset) -> "FairPipeline":
        start = time.perf_counter()
        self._schema = train
        approach = self.approach

        if approach is None or isinstance(approach, PostProcessor):
            model_train = train
        elif isinstance(approach, Preprocessor):
            model_train = approach.repair(train)
        elif isinstance(approach, InProcessor):
            model_train = train
        else:
            raise TypeError(f"unsupported approach type {type(approach)}")

        self._encoder = FeatureEncoder().fit(model_train)
        X = self._encoder.transform(model_train)

        if isinstance(approach, InProcessor):
            approach.fit(model_train, X)
        elif isinstance(approach, PostProcessor):
            # Fit the adjustment on scores of a held-out slice of the
            # training data, so the learned mixing/thresholds see the
            # score distribution the model produces out of sample (the
            # in-sample distribution of flexible models is degenerate).
            rng = np.random.default_rng(self.seed)
            perm = rng.permutation(model_train.n_rows)
            n_holdout = max(1, int(0.3 * model_train.n_rows))
            fit_idx, holdout_idx = perm[n_holdout:], perm[:n_holdout]
            features = self._model_features(X, model_train.s)
            self.model.fit(features[fit_idx], model_train.y[fit_idx])
            holdout_scores = self.model.predict_proba(
                features[holdout_idx])
            approach.fit(model_train.y[holdout_idx], holdout_scores,
                         model_train.s[holdout_idx])
            # Refit the model on all training rows for deployment.
            self.model.fit(features, model_train.y)
        else:
            features = self._model_features(X, model_train.s)
            self.model.fit(features, model_train.y)
        self.fit_seconds_ = time.perf_counter() - start
        self._fitted = True
        return self

    def _model_features(self, X: np.ndarray, s: np.ndarray) -> np.ndarray:
        if self._uses_sensitive():
            return np.column_stack([X, np.asarray(s, float)])
        return X

    # ------------------------------------------------------------------
    def predict(self, dataset: Dataset,
                s_override: np.ndarray | None = None) -> np.ndarray:
        """Hard predictions for an annotated dataset.

        ``s_override`` replaces the sensitive column *as seen by the
        model and post-processor* (the intervention of the ID metric);
        data transforms still use the dataset's recorded group.
        """
        return self._predict(dataset, s_override, proba=False)

    def predict_proba(self, dataset: Dataset) -> np.ndarray:
        """Positive-class scores before any randomised adjustment."""
        return self._predict(dataset, None, proba=True)

    def _predict(self, dataset: Dataset, s_override, proba: bool
                 ) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("pipeline not fitted")
        approach = self.approach
        s = dataset.s if s_override is None else np.asarray(
            s_override).astype(int)

        if isinstance(approach, Preprocessor):
            dataset = approach.transform(dataset)
        X = self._encoder.transform(dataset)

        if isinstance(approach, InProcessor):
            if proba:
                return approach.predict_proba(X, s)
            return approach.predict(X, s)

        features = self._model_features(X, s)
        scores = self.model.predict_proba(features)
        if proba or not isinstance(approach, PostProcessor):
            return scores if proba else (scores >= 0.5).astype(int)
        rng = np.random.default_rng(self.seed)
        return approach.adjust(scores, s, rng)

    # ------------------------------------------------------------------
    # Serialization (the artifact-bundle state protocol)
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        state = dict(self.__dict__)
        # Wall clock, not fitted state: equal fits pack equal bytes.
        state.pop("fit_seconds_", None)
        schema = state.get("_schema")
        if schema is not None:
            # Prediction needs only the schema's column roles and causal
            # graph, not the training rows or the synthetic-generator
            # mechanisms (callables, unserializable).  A one-row head
            # keeps the Dataset invariants (binary s/y) satisfied.
            state["_schema"] = dataclasses.replace(schema.head(1), scm=None)
        return state

    def set_state(self, state: dict) -> None:
        self.__dict__.update({"fit_seconds_": 0.0, **state})

    # ------------------------------------------------------------------
    def predict_columns(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Predictions over raw generator columns (SCM interventions).

        Builds a dataset with the training schema from sampled columns
        and runs the full pipeline — this is how the causal metrics
        audit the deployed pipeline under ``do(S)``.
        """
        schema = self._schema
        n = len(next(iter(columns.values())))
        table_cols = {}
        for name in (*schema.feature_names, schema.sensitive, schema.label):
            if name not in columns:
                raise KeyError(f"sampled columns missing {name!r}")
            values = np.asarray(columns[name])
            if name in (schema.sensitive, schema.label):
                values = values.astype(int)
            table_cols[name] = values
        dataset = schema.with_table(Table(table_cols))
        return self.predict(dataset)


# ----------------------------------------------------------------------
# End-to-end evaluation
# ----------------------------------------------------------------------
def _individual_discrimination(pipeline: FairPipeline, test: Dataset,
                               y_hat: np.ndarray,
                               confidence: float = 0.99,
                               error_bound: float = 0.01,
                               seed: int = 0) -> float:
    """Share of rows whose prediction flips with ``S``; ``y_hat`` is
    the pipeline's prediction of ``test``, reused unless rows are
    sampled (``predict`` reseeds per call, so it is what a second call
    would return)."""
    from ..metrics.fairness import id_sample_size

    needed = id_sample_size(confidence, error_bound)
    dataset, original = test, y_hat
    if test.n_rows > needed:
        rng = np.random.default_rng(seed)
        dataset = test.take(rng.choice(test.n_rows, needed, replace=False))
        original = pipeline.predict(dataset)
    flipped = pipeline.predict(dataset, s_override=1 - dataset.s)
    return float(np.mean(original != flipped))


def evaluate_pipeline(pipeline: FairPipeline, test: Dataset,
                      causal_samples: int = 20000,
                      seed: int = 0) -> EvaluationResult:
    """Score a fitted pipeline on held-out data with all paper metrics."""
    y = test.y
    s = test.s
    y_hat = pipeline.predict(test)

    correctness = CorrectnessReport.from_predictions(y, y_hat)
    di = disparate_impact(y_hat, s)
    tprb = true_positive_rate_balance(y, y_hat, s)
    tnrb = true_negative_rate_balance(y, y_hat, s)
    id_value = _individual_discrimination(pipeline, test, y_hat, seed=seed)
    effects = causal_effects_of_predictions(
        test, y_hat, predict=pipeline.predict_columns,
        n_samples=causal_samples, seed=seed)

    return EvaluationResult(
        approach=pipeline.name,
        dataset=test.name,
        stage=pipeline.stage_name,
        accuracy=correctness.accuracy,
        precision=correctness.precision,
        recall=correctness.recall,
        f1=correctness.f1,
        di_star=di_star(di),
        tprb=one_minus_abs(tprb),
        tnrb=one_minus_abs(tnrb),
        id=one_minus_abs(id_value),
        te=one_minus_abs(effects.te),
        nde=one_minus_abs(effects.nde),
        nie=one_minus_abs(effects.nie),
        raw={"di": di, "tprb": tprb, "tnrb": tnrb, "id": id_value,
             "te": effects.te, "nde": effects.nde, "nie": effects.nie},
        fit_seconds=pipeline.fit_seconds_,
    )


def run_experiment(approach_name: str | None, train: Dataset,
                   test: Dataset, model: Classifier | None = None,
                   seed: int = 0, causal_samples: int = 20000,
                   approach_params: dict | None = None) -> EvaluationResult:
    """Fit and evaluate one variant by registry spec (None = baseline).

    ``approach_name`` may be a bare registry key or a parameterized
    spec (``"Celis-pp(tau=0.9)"``); ``approach_params`` merges on top.
    The seed reaches the approach factory only when the registry
    declares the variant stochastic.
    """
    from .. import obs
    from ..registry import APPROACHES

    approach = (APPROACHES.build(approach_name, seed=seed,
                                 **(approach_params or {}))
                if approach_name is not None else None)
    pipeline = FairPipeline(approach, model=model, seed=seed)
    with obs.span("fit", approach=pipeline.name,
                  stage=pipeline.stage_name):
        pipeline.fit(train)
    with obs.span("metrics", approach=pipeline.name):
        return evaluate_pipeline(pipeline, test,
                                 causal_samples=causal_samples,
                                 seed=seed)
