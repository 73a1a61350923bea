"""The annotated dataset abstraction of the paper (schema ``(X, S; Y)``).

A :class:`Dataset` wraps a :class:`~repro.datasets.table.Table` together
with the fairness-relevant schema: which column is the binary sensitive
attribute ``S`` (1 = privileged group), which is the binary ground-truth
label ``Y`` (1 = favorable), and which columns form the feature set
``X``.  Optionally it carries the causal graph of the data-generating
process, which the causal repair approaches and the causal fairness
metrics (TE/NDE/NIE) consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .table import Table


@dataclass(frozen=True)
class Dataset:
    """An annotated dataset with schema ``(X, S; Y)``.

    Attributes
    ----------
    table:
        The underlying tabular data.  All columns are numeric (encoded).
    feature_names:
        The columns forming ``X``, in model input order.
    sensitive:
        Name of the binary sensitive column ``S`` (1 = privileged).
    label:
        Name of the binary ground-truth column ``Y`` (1 = favorable).
    name:
        A human-readable dataset name (``"adult"`` etc.).
    causal_graph:
        Optional :class:`~repro.causal.graph.CausalGraph` over
        ``feature_names + [sensitive, label]`` describing the data
        generating process.
    scm:
        Optional :class:`~repro.causal.scm.StructuralCausalModel`
        realising ``causal_graph`` — present for the synthetic datasets,
        where the generating process is known exactly.  Causal metrics
        use it to audit classifiers under interventions.
    categorical:
        Names of the features that are categorical codes rather than
        ordered numeric quantities.
    admissible:
        Features through which influence of ``S`` on ``Y`` is deemed
        non-discriminatory (used by Salimi's justifiable fairness).
    """

    table: Table
    feature_names: tuple[str, ...]
    sensitive: str
    label: str
    name: str = "dataset"
    causal_graph: object | None = None
    scm: object | None = None
    categorical: tuple[str, ...] = ()
    admissible: tuple[str, ...] = field(default=())

    def __post_init__(self):
        missing = [c for c in (*self.feature_names, self.sensitive, self.label)
                   if c not in self.table]
        if missing:
            raise ValueError(f"schema columns missing from table: {missing}")
        for col in (self.sensitive, self.label):
            values = self.table[col]
            if not ((values == 0) | (values == 1)).all():
                raise ValueError(f"column {col!r} must be binary 0/1, "
                                 f"got {np.unique(values)}")

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def X(self) -> np.ndarray:
        """Feature matrix (``n_rows × n_features`` float array)."""
        return self.table.to_matrix(self.feature_names)

    @property
    def s(self) -> np.ndarray:
        """Sensitive attribute vector as ints (1 = privileged)."""
        return self.table[self.sensitive].astype(int)

    @property
    def y(self) -> np.ndarray:
        """Ground-truth labels as ints (1 = favorable)."""
        return self.table[self.label].astype(int)

    def features_with_sensitive(self) -> np.ndarray:
        """Feature matrix with ``S`` appended as the last column."""
        return np.column_stack([self.X, self.s.astype(float)])

    @property
    def inadmissible(self) -> tuple[str, ...]:
        """Features not marked admissible (plus none of S, Y)."""
        return tuple(f for f in self.feature_names if f not in self.admissible)

    def base_rate(self, group: int | None = None) -> float:
        """P(Y=1), optionally restricted to a sensitive group."""
        y = self.y
        if group is not None:
            y = y[self.s == group]
        return float(np.mean(y)) if y.size else float("nan")

    # ------------------------------------------------------------------
    # Derivation (all return new datasets sharing the schema)
    # ------------------------------------------------------------------
    def with_table(self, table: Table) -> "Dataset":
        """Return a dataset with the same schema over a new table."""
        return replace(self, table=table)

    def with_labels(self, y: np.ndarray) -> "Dataset":
        """Return a dataset whose label column is replaced by ``y``."""
        return self.with_table(self.table.assign(**{self.label: np.asarray(y, int)}))

    def take(self, indices) -> "Dataset":
        return self.with_table(self.table.take(indices))

    def filter(self, mask) -> "Dataset":
        return self.with_table(self.table.filter(mask))

    def head(self, n: int) -> "Dataset":
        return self.with_table(self.table.head(n))

    def sample(self, n: int, rng: np.random.Generator,
               replace: bool = False) -> "Dataset":
        return self.with_table(self.table.sample(n, rng, replace=replace))

    def shuffle(self, rng: np.random.Generator) -> "Dataset":
        return self.with_table(self.table.shuffle(rng))

    def select_features(self, names) -> "Dataset":
        """Return a dataset restricted to a subset of the features."""
        names = tuple(names)
        unknown = [n for n in names if n not in self.feature_names]
        if unknown:
            raise ValueError(f"not features of this dataset: {unknown}")
        keep = (*names, self.sensitive, self.label)
        return replace(
            self,
            table=self.table.select(keep),
            feature_names=names,
            categorical=tuple(c for c in self.categorical if c in names),
            admissible=tuple(a for a in self.admissible if a in names),
        )

    def __repr__(self) -> str:
        return (f"Dataset({self.name!r}, {self.n_rows} rows, "
                f"{self.n_features} features, S={self.sensitive}, Y={self.label})")
