"""Composing fairness mechanisms across stages (paper Section 5).

The paper's discussion notes that "combining multiple approaches is
possible, but faces practical hurdles such as substantial penalties in
correctness [and] runtime overhead".  This module makes that claim
testable: :class:`ChainedPreprocessor` sequences several data repairs,
and :class:`ComposedPipeline` runs the full
``pre-repair(s) → model → post-adjustment`` stack — the combination
the paper never measures — with the same evaluation interface as
:class:`~repro.pipeline.experiment.FairPipeline`, so
:func:`~repro.pipeline.experiment.evaluate_pipeline` scores it
unchanged.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from .. import blas
from ..datasets.dataset import Dataset
from ..datasets.encoding import FeatureEncoder
from ..datasets.table import Table
from ..fairness.base import PostProcessor, Preprocessor
from ..models.base import Classifier
from ..models.logistic import LogisticRegression

__all__ = ["ChainedPreprocessor", "ComposedPipeline"]


class ChainedPreprocessor(Preprocessor):
    """Run several pre-processing repairs in sequence.

    The chained repair applies each member's ``repair`` to the output
    of the previous one (and likewise for test-time ``transform``).
    Order matters: e.g. reweighing after attribute repair sees the
    repaired marginals.

    The chain reports the *first* member's notion (used only for
    figure annotations).
    """

    def __init__(self, members: Sequence[Preprocessor]):
        if not members:
            raise ValueError("chain needs at least one preprocessor")
        for member in members:
            if not isinstance(member, Preprocessor):
                raise TypeError(
                    f"{type(member).__name__} is not a Preprocessor")
        self.members = list(members)
        self.notion = self.members[0].notion
        self.uses_sensitive_feature = any(
            m.uses_sensitive_feature for m in self.members)

    @property
    def name(self) -> str:
        return "+".join(m.name for m in self.members)

    def repair(self, train: Dataset) -> Dataset:
        out = train
        for member in self.members:
            out = member.repair(out)
        return out

    def transform(self, test: Dataset) -> Dataset:
        out = test
        for member in self.members:
            out = member.transform(out)
        return out


class ComposedPipeline:
    """A full cross-stage stack: pre-repair(s), a model, post-adjustment.

    Parameters
    ----------
    pre:
        A :class:`~repro.fairness.base.Preprocessor` (or a
        :class:`ChainedPreprocessor`); ``None`` skips the repair.
    post:
        A :class:`~repro.fairness.base.PostProcessor`; ``None`` skips
        the adjustment.
    model:
        Downstream classifier (defaults to logistic regression, the
        paper's choice).
    seed:
        Seed for the post-processor's holdout split and randomised
        adjustments.

    Notes
    -----
    The fit protocol mirrors
    :class:`~repro.pipeline.experiment.FairPipeline`: the post-
    processor is fitted on out-of-sample scores from a 30% holdout of
    the (repaired) training data, then the model is refitted on all of
    it for deployment.
    """

    def __init__(self, pre: Preprocessor | None = None,
                 post: PostProcessor | None = None,
                 model: Classifier | None = None, seed: int = 0):
        if pre is None and post is None:
            raise ValueError(
                "composition needs at least one of pre/post; use "
                "FairPipeline for the plain baseline")
        if pre is not None and not isinstance(pre, Preprocessor):
            raise TypeError(f"{type(pre).__name__} is not a Preprocessor")
        if post is not None and not isinstance(post, PostProcessor):
            raise TypeError(f"{type(post).__name__} is not a PostProcessor")
        self.pre = pre
        self.post = post
        self.model = model if model is not None else LogisticRegression()
        self.seed = seed
        self._encoder: FeatureEncoder | None = None
        self._schema: Dataset | None = None
        self.fit_seconds_: float = 0.0
        self._fitted = False

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        parts = []
        if self.pre is not None:
            parts.append(self.pre.name)
        if self.post is not None:
            parts.append(self.post.name)
        return " → ".join(parts)

    @property
    def stage(self):
        return None

    @property
    def stage_name(self) -> str:
        if self.pre is not None and self.post is not None:
            return "pre+post"
        return "pre" if self.pre is not None else "post"

    def _uses_sensitive(self) -> bool:
        if self.pre is not None and not self.pre.uses_sensitive_feature:
            return False
        return True

    # ------------------------------------------------------------------
    def fit(self, train: Dataset) -> "ComposedPipeline":
        """Fit the stack on ``train`` at one BLAS thread, as
        :meth:`FairPipeline.fit <repro.pipeline.experiment.FairPipeline.fit>`
        does, so the fitted stack does not follow the host's BLAS
        thread count."""
        with blas.limited(1):
            return self._fit(train)

    def _fit(self, train: Dataset) -> "ComposedPipeline":
        start = time.perf_counter()
        self._schema = train
        repaired = self.pre.repair(train) if self.pre is not None else train
        self._encoder = FeatureEncoder().fit(repaired)
        X = self._encoder.transform(repaired)
        features = self._features(X, repaired.s)

        if self.post is not None:
            rng = np.random.default_rng(self.seed)
            perm = rng.permutation(repaired.n_rows)
            n_holdout = max(1, int(0.3 * repaired.n_rows))
            fit_idx, holdout_idx = perm[n_holdout:], perm[:n_holdout]
            self.model.fit(features[fit_idx], repaired.y[fit_idx])
            holdout_scores = self.model.predict_proba(features[holdout_idx])
            self.post.fit(repaired.y[holdout_idx], holdout_scores,
                          repaired.s[holdout_idx])
        self.model.fit(features, repaired.y)
        self.fit_seconds_ = time.perf_counter() - start
        self._fitted = True
        return self

    def _features(self, X: np.ndarray, s: np.ndarray) -> np.ndarray:
        if self._uses_sensitive():
            return np.column_stack([X, np.asarray(s, float)])
        return X

    # ------------------------------------------------------------------
    def predict(self, dataset: Dataset,
                s_override: np.ndarray | None = None) -> np.ndarray:
        """Hard predictions through the full stack."""
        if not self._fitted:
            raise RuntimeError("pipeline not fitted")
        s = dataset.s if s_override is None else np.asarray(
            s_override).astype(int)
        if self.pre is not None:
            dataset = self.pre.transform(dataset)
        X = self._encoder.transform(dataset)
        scores = self.model.predict_proba(self._features(X, s))
        if self.post is None:
            return (scores >= 0.5).astype(int)
        rng = np.random.default_rng(self.seed)
        return self.post.adjust(scores, s, rng)

    def predict_columns(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Predictions over raw generator columns (for causal metrics)."""
        schema = self._schema
        table_cols = {}
        for name in (*schema.feature_names, schema.sensitive, schema.label):
            if name not in columns:
                raise KeyError(f"sampled columns missing {name!r}")
            values = np.asarray(columns[name])
            if name in (schema.sensitive, schema.label):
                values = values.astype(int)
            table_cols[name] = values
        return self.predict(schema.with_table(Table(table_cols)))
