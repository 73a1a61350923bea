"""Counterfactual inference for discrete structural causal models.

The interventional estimators in :mod:`repro.causal.effects` answer rung-2
questions of Pearl's ladder of causation ("what if everyone's sensitive
attribute were set to 1?").  Several fairness notions in the paper's
Figure 3 — counterfactual fairness [Kusner et al.], path-specific
counterfactuals [Wu et al.], counterfactual error rates [Zhang &
Bareinboim] — live on rung 3: they ask what *would have happened to this
very individual* had the sensitive attribute been different.

Answering rung-3 questions requires an SCM with *explicit* exogenous
noise so that the three-step abduction–action–prediction recipe applies:

1. **Abduction** — infer the posterior of the exogenous noise given the
   observed evidence for an individual.
2. **Action** — perform the intervention (graph surgery) on the model.
3. **Prediction** — push the abducted noise through the mutilated model.

This module provides :class:`DiscreteCPT`, a conditional probability
table with the *monotone inverse-CDF* noise representation (each node is
a deterministic function of its parents and a single uniform noise
``u ∈ [0, 1)``), and :class:`CounterfactualSCM`, which composes CPTs
over a :class:`~repro.causal.graph.CausalGraph` and implements the full
recipe.  With complete evidence the abduction step is *exact*: given the
parents and the realised value, the posterior of ``u`` is uniform on the
CDF interval of that value.

A :meth:`CounterfactualSCM.fit` constructor estimates the CPTs from
discrete observational data plus a graph, which is how the repository's
counterfactual fairness metrics operate on the synthetic Adult/COMPAS/
German datasets.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .graph import CausalGraph

__all__ = [
    "DiscreteCPT",
    "CounterfactualSCM",
    "NoiseAssignment",
]

#: Mapping node → per-row exogenous noise in ``[0, 1)``.
NoiseAssignment = dict[str, np.ndarray]


def _as_key(values: Sequence) -> tuple:
    """Normalise a parent-value combination to a hashable tuple of floats."""
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class DiscreteCPT:
    """A conditional probability table with monotone noise semantics.

    Parameters
    ----------
    parents:
        Ordered parent names.  The order fixes the key layout of
        ``table``.
    domain:
        The node's value domain, sorted ascending.  Values are stored as
        floats so integer-coded categoricals and binary indicators both
        work.
    table:
        Mapping from a parent-value tuple (ordered as ``parents``) to a
        probability vector over ``domain``.  Every vector must be
        non-negative and sum to 1 (within tolerance).
    fallback:
        Distribution used for parent combinations absent from
        ``table``.  Defaults to the uniform distribution over
        ``domain``.

    Notes
    -----
    The noise representation is the *monotone* one: node value is
    ``domain[k]`` where ``k`` is the first index with
    ``u < cdf[k]``.  Monotonicity makes the representation canonical and
    the abduction posterior an interval, which is what allows exact
    counterfactuals for discrete models.

    Construction compiles the table into a row-stacked ``(n_combos + 1,
    |domain|)`` probability/CDF matrix (the extra row is the fallback),
    so the batched operations resolve each row's parent combination to
    a matrix row index once and then run as pure gathers — no per-row
    dict lookups on the hot path.
    """

    parents: tuple[str, ...]
    domain: np.ndarray
    table: Mapping[tuple, np.ndarray]
    fallback: np.ndarray | None = None

    def __post_init__(self):
        domain = np.asarray(self.domain, dtype=float)
        if domain.ndim != 1 or domain.size == 0:
            raise ValueError("domain must be a non-empty 1-D array")
        if np.any(np.diff(domain) <= 0):
            raise ValueError("domain must be strictly increasing")
        object.__setattr__(self, "domain", domain)
        normalised = {}
        for key, probs in self.table.items():
            vec = np.asarray(probs, dtype=float)
            if vec.shape != domain.shape:
                raise ValueError(
                    f"probability vector for {key} has shape {vec.shape}, "
                    f"expected {domain.shape}"
                )
            if np.any(vec < 0) or not np.isclose(vec.sum(), 1.0, atol=1e-8):
                raise ValueError(f"invalid distribution for {key}: {vec}")
            normalised[_as_key(key)] = vec / vec.sum()
        object.__setattr__(self, "table", normalised)
        fallback = (np.full(domain.size, 1.0 / domain.size)
                    if self.fallback is None
                    else np.asarray(self.fallback, dtype=float))
        if fallback.shape != domain.shape:
            raise ValueError("fallback distribution has wrong shape")
        object.__setattr__(self, "fallback", fallback / fallback.sum())
        self._compile()

    def _compile(self) -> None:
        """Stack the (already normalised) table into matrices so the
        batched paths are gathers.  Row ``len(table)`` holds the
        fallback.  Separated from ``__post_init__`` so deserialization
        can restore the normalised attributes verbatim and recompile —
        re-normalising an already-normalised vector shifts ulps, and
        the serving path promises bit-identical audits."""
        probs = np.empty((len(self.table) + 1, self.domain.size))
        index: dict[tuple, int] = {}
        for row, (key, vec) in enumerate(self.table.items()):
            index[key] = row
            probs[row] = vec
        probs[len(self.table)] = self.fallback
        cdf = np.cumsum(probs, axis=1)
        # Guard against floating error leaving the last cdf below 1.
        cdf[:, -1] = 1.0
        # Lookup tables for _rows.  Per parent: the sorted values its
        # keys take.  A key's code is mixed-radix over the ranks of its
        # values; after the last parent, and wherever the next parent
        # could take it past 2**62, it is renumbered by its rank among
        # the table's sorted codes so far (kept too), so no table
        # overflows int64.
        keys = np.array(list(self.table), dtype=float).reshape(
            len(self.table), len(self.parents))
        ranked = [np.unique(column, return_inverse=True)
                  for column in keys.T]
        levels = []
        code = np.zeros(len(self.table), dtype=np.int64)
        bound = 1
        for i, (values, rank) in enumerate(ranked):
            code = code * values.size + rank
            bound *= values.size
            codes = None
            if i + 1 == len(ranked) or bound * ranked[i + 1][0].size > 2**62:
                codes, code = np.unique(code, return_inverse=True)
                bound = codes.size
            levels.append((values, codes))
        key_rows = np.empty(len(self.table), dtype=np.intp)
        key_rows[code] = np.arange(len(self.table))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_key_rows", key_rows)
        object.__setattr__(self, "_probs", probs)
        object.__setattr__(self, "_cdf", cdf)

    # ------------------------------------------------------------------
    # Serialization (the artifact-bundle state protocol)
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        return {
            "parents": self.parents,
            "domain": self.domain,
            "table": [[list(key), vec] for key, vec in self.table.items()],
            "fallback": self.fallback,
        }

    def set_state(self, state: dict) -> None:
        # Restore the normalised attributes verbatim (no re-validation,
        # no re-normalisation) and recompile the gather matrices.
        object.__setattr__(self, "parents", tuple(state["parents"]))
        object.__setattr__(self, "domain",
                           np.asarray(state["domain"], dtype=float))
        object.__setattr__(self, "table",
                           {_as_key(key): np.asarray(vec, dtype=float)
                            for key, vec in state["table"]})
        object.__setattr__(self, "fallback",
                           np.asarray(state["fallback"], dtype=float))
        self._compile()

    # ------------------------------------------------------------------
    def _rows(self, parent_values: Mapping[str, np.ndarray],
              n: int) -> np.ndarray:
        """Map each row's parent combination to its compiled-matrix row.

        Rows are looked up in the tables :meth:`_compile` built: per
        parent, a :func:`np.searchsorted` into the values its keys take,
        then one into the sorted key codes (more only for tables whose
        codes would overflow), so no call sorts.  A value or a
        combination no key has sends the row to the fallback row.
        Small batches (the per-request serving path, where ``n`` is a
        particle count) skip the array machinery entirely: at that size
        a memoised dict walk is cheaper.
        """
        fallback_row = len(self._index)
        if not self.parents or not self.table:
            return np.full(n, self._index.get((), fallback_row),
                           dtype=np.intp)
        columns = [np.asarray(parent_values[p], dtype=float)
                   for p in self.parents]
        if all(col.ndim == 1 and col.strides == (0,) for col in columns):
            # All parents are stride-0 broadcast views (per-row-constant
            # evidence, as the serving path's abduction passes): one
            # combination, one lookup.
            key = tuple(col.item(0) for col in columns)
            return np.full(n, self._index.get(key, fallback_row),
                           dtype=np.intp)
        if n <= 128:
            rows = np.empty(n, dtype=np.intp)
            memo: dict[tuple, int] = {}
            for i, key in enumerate(zip(*(col.tolist()
                                          for col in columns))):
                row = memo.get(key)
                if row is None:
                    row = self._index.get(key, fallback_row)
                    memo[key] = row
                rows[i] = row
            return rows
        code = np.zeros(n, dtype=np.int64)
        found = np.ones(n, dtype=bool)
        for col, (values, codes) in zip(columns, self._levels):
            rank = np.searchsorted(values, col)
            np.minimum(rank, values.size - 1, out=rank)
            found &= values[rank] == col
            code = code * values.size + rank
            if codes is not None:
                at = np.searchsorted(codes, code)
                np.minimum(at, codes.size - 1, out=at)
                found &= codes[at] == code
                code = at
        return np.where(found, self._key_rows[code], fallback_row)

    def probabilities(self, parent_values: Mapping[str, np.ndarray],
                      n: int) -> np.ndarray:
        """Return the ``(n, |domain|)`` matrix of row-wise distributions."""
        return self._probs[self._rows(parent_values, n)]

    def apply(self, parent_values: Mapping[str, np.ndarray],
              noise: np.ndarray) -> np.ndarray:
        """Deterministically map parents + noise to node values.

        Implements the monotone representation: the value is the first
        domain element whose cumulative probability exceeds the noise.
        """
        noise = np.asarray(noise, dtype=float)
        rows = self._rows(parent_values, noise.shape[0])
        # Counting cdf entries <= noise equals a side="right"
        # searchsorted on each row's (non-decreasing) cdf, with no
        # per-unique-row loop; the domain is a handful of bins, so the
        # (n, |domain|) comparison is small.
        idx = np.sum(self._cdf[rows] <= noise[:, None], axis=1)
        np.minimum(idx, self.domain.size - 1, out=idx)
        return self.domain[idx]

    def abduct(self, parent_values: Mapping[str, np.ndarray],
               observed: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        """Sample noise from its posterior given parents and value.

        For the monotone representation the posterior of ``u`` given
        value ``domain[k]`` is uniform on ``[cdf[k-1], cdf[k])``.

        Raises
        ------
        ValueError
            If an observed value is outside the domain or has zero
            probability under the corresponding parent combination (the
            evidence is then inconsistent with the model).
        """
        observed = np.asarray(observed, dtype=float)
        n = observed.shape[0]
        rows = self._rows(parent_values, n)
        idx = np.searchsorted(self.domain, observed)
        bad = (idx >= self.domain.size) | (self.domain[np.minimum(
            idx, self.domain.size - 1)] != observed)
        if np.any(bad):
            raise ValueError(
                f"observed values outside domain: {np.unique(observed[bad])}"
            )
        hi = self._cdf[rows, idx]
        lo = np.where(idx > 0, self._cdf[rows, np.maximum(idx - 1, 0)], 0.0)
        if np.any(hi <= lo):
            raise ValueError(
                "evidence has zero probability under the model; "
                "refit with Laplace smoothing or check the graph"
            )
        return lo + rng.random(n) * (hi - lo)

    def sample(self, parent_values: Mapping[str, np.ndarray], n: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` values and return ``(values, noise)``."""
        noise = rng.random(n)
        return self.apply(parent_values, noise), noise


class CounterfactualSCM:
    """A discrete SCM with explicit noise, supporting counterfactuals.

    Parameters
    ----------
    graph:
        The causal DAG.
    cpts:
        One :class:`DiscreteCPT` per node.  Each CPT's ``parents`` must
        match the node's parents in ``graph`` (as a set).
    """

    def __init__(self, graph: CausalGraph, cpts: Mapping[str, DiscreteCPT]):
        missing = [n for n in graph.nodes if n not in cpts]
        if missing:
            raise ValueError(f"no CPT for nodes: {missing}")
        for node, cpt in cpts.items():
            if node not in graph:
                raise ValueError(f"CPT for unknown node {node!r}")
            if set(cpt.parents) != set(graph.parents(node)):
                raise ValueError(
                    f"CPT parents {cpt.parents} of {node!r} do not match "
                    f"graph parents {graph.parents(node)}"
                )
        self.graph = graph
        self._cpts = dict(cpts)
        self._order = graph.topological_order()

    # ------------------------------------------------------------------
    # Construction from data
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, columns: Mapping[str, np.ndarray], graph: CausalGraph,
            laplace: float = 0.5) -> "CounterfactualSCM":
        """Estimate CPTs from discrete observational data.

        Parameters
        ----------
        columns:
            Column name → 1-D array of discrete values; must cover every
            graph node.
        graph:
            The causal DAG over the column names.
        laplace:
            Additive smoothing pseudo-count; keeps every domain value
            reachable so abduction never hits zero-probability evidence.
        """
        missing = [n for n in graph.nodes if n not in columns]
        if missing:
            raise ValueError(f"columns missing for graph nodes: {missing}")
        if laplace <= 0:
            raise ValueError("laplace must be positive")
        cpts = {}
        for node in graph.nodes:
            values = np.asarray(columns[node], dtype=float)
            domain, val_codes = np.unique(values, return_inverse=True)
            parents = tuple(graph.parents(node))
            parent_cols = [np.asarray(columns[p], dtype=float)
                           for p in parents]
            table: dict[tuple, np.ndarray] = {}
            if parents:
                stacked = np.column_stack(parent_cols)
                combos, inverse = np.unique(stacked, axis=0,
                                            return_inverse=True)
                # One bincount over joint (combo, value) codes replaces
                # the per-combo, per-value counting loops.
                counts = np.bincount(
                    inverse * domain.size + val_codes,
                    minlength=combos.shape[0] * domain.size,
                ).reshape(combos.shape[0], domain.size).astype(float)
                counts += laplace
                for j, combo in enumerate(combos):
                    table[_as_key(combo)] = counts[j] / counts[j].sum()
            else:
                counts = (np.bincount(val_codes, minlength=domain.size)
                          .astype(float))
                counts += laplace
                table[()] = counts / counts.sum()
            cpts[node] = DiscreteCPT(parents=parents, domain=domain,
                                     table=table)
        return cls(graph, cpts)

    def cpt(self, node: str) -> DiscreteCPT:
        """Return the CPT of ``node``."""
        return self._cpts[node]

    # ------------------------------------------------------------------
    # Sampling and deterministic evaluation
    # ------------------------------------------------------------------
    def sample_noise(self, n: int, rng: np.random.Generator
                     ) -> NoiseAssignment:
        """Draw fresh exogenous noise for every node."""
        return {node: rng.random(n) for node in self._order}

    def evaluate(self, noise: NoiseAssignment,
                 interventions: Mapping[str, float] | None = None,
                 overrides: Mapping[str, np.ndarray] | None = None,
                 *, base: Mapping[str, np.ndarray] | None = None,
                 ) -> dict[str, np.ndarray]:
        """Push noise through the (possibly mutilated) model.

        Parameters
        ----------
        noise:
            Per-node noise arrays of a common length (as produced by
            :meth:`sample_noise` or :meth:`abduct`).
        interventions:
            Optional ``{node: constant}`` assignments implementing the
            *action* step; intervened nodes ignore parents and noise.
        overrides:
            Optional ``{node: array}`` per-row value assignments.  The
            nested counterfactuals of the Ctf-DE/IE estimands fix
            mediators to the values they took in a *different* world;
            overrides are how those cross-world values are injected.
        base:
            Optional node values from a previous :meth:`evaluate` over
            the *same* noise (e.g. the factual world).  Nodes that are
            neither intervened/overridden nor downstream of an
            intervened/overridden node are copied from ``base`` instead
            of recomputed — exact, because the model is deterministic
            given the noise, and it turns the action–prediction step of
            a counterfactual query into work proportional to the
            affected subgraph only.
        """
        interventions = dict(interventions or {})
        overrides = dict(overrides or {})
        unknown = [k for k in (*interventions, *overrides)
                   if k not in self.graph]
        if unknown:
            raise ValueError(f"cannot intervene on unknown nodes: {unknown}")
        lengths = {arr.shape[0] for arr in noise.values()}
        if len(lengths) != 1:
            raise ValueError(f"noise arrays have differing lengths: {lengths}")
        n = lengths.pop()
        reuse: set[str] = set()
        if base is not None:
            changed = set(interventions) | set(overrides)
            affected = set(changed)
            for node in changed:
                affected |= self.graph.descendants(node)
            reuse = set(self._order) - affected
        values: dict[str, np.ndarray] = {}
        for node in self._order:
            if node in overrides:
                arr = np.asarray(overrides[node], dtype=float)
                if arr.shape != (n,):
                    raise ValueError(
                        f"override for {node!r} has shape {arr.shape}, "
                        f"want ({n},)"
                    )
                values[node] = arr
            elif node in interventions:
                values[node] = np.full(n, float(interventions[node]))
            elif node in reuse:
                if node not in base:
                    raise ValueError(
                        f"base is missing a value for unaffected node "
                        f"{node!r}; pass the full world dict of a "
                        "previous evaluate over the same noise"
                    )
                arr = np.asarray(base[node], dtype=float)
                if arr.shape != (n,):
                    raise ValueError(
                        f"base value for {node!r} has shape {arr.shape}, "
                        f"want ({n},)"
                    )
                values[node] = arr
            else:
                parent_vals = {p: values[p]
                               for p in self.graph.parents(node)}
                values[node] = self._cpts[node].apply(parent_vals, noise[node])
        return values

    def sample(self, n: int, rng: np.random.Generator,
               interventions: Mapping[str, float] | None = None,
               ) -> dict[str, np.ndarray]:
        """Draw ``n`` joint samples (optionally under interventions)."""
        return self.evaluate(self.sample_noise(n, rng), interventions)

    # ------------------------------------------------------------------
    # Abduction and counterfactual prediction
    # ------------------------------------------------------------------
    def abduct(self, evidence: Mapping[str, float], n_particles: int,
               rng: np.random.Generator) -> NoiseAssignment:
        """Sample exogenous noise consistent with a fully observed row.

        With complete evidence, abduction factorises: for each node the
        parents are observed, so the noise posterior is the per-node
        interval posterior of :meth:`DiscreteCPT.abduct`.

        Parameters
        ----------
        evidence:
            ``{node: value}`` covering *every* node of the graph.
        n_particles:
            Number of posterior noise samples to draw.
        rng:
            Randomness source.
        """
        rows = {node: np.full(n_particles, float(value))
                for node, value in evidence.items() if node in self.graph}
        return self.abduct_rows(rows, rng)

    def abduct_rows(self, columns: Mapping[str, np.ndarray],
                    rng: np.random.Generator) -> NoiseAssignment:
        """Batched abduction over many fully observed rows at once.

        The batched counterpart of :meth:`abduct`: each row of
        ``columns`` is a complete evidence assignment, and the returned
        noise arrays hold one posterior draw per row.  To get several
        posterior particles per individual, repeat the rows (e.g. with
        :func:`np.repeat`) before calling — that is how the vectorized
        counterfactual-fairness audit turns ``rows × n_particles``
        per-row abductions into one call per node.

        Parameters
        ----------
        columns:
            ``{node: 1-D array}`` covering *every* node of the graph,
            all of one common length.
        rng:
            Randomness source.
        """
        missing = [n for n in self.graph.nodes if n not in columns]
        if missing:
            raise ValueError(
                f"abduction needs full evidence; missing: {missing} "
                "(use abduct_partial for incomplete rows)"
            )
        cols = {node: np.asarray(columns[node], dtype=float)
                for node in self.graph.nodes}
        lengths = {arr.shape[0] for arr in cols.values()}
        if len(lengths) != 1:
            raise ValueError(
                f"evidence columns have differing lengths: {lengths}")
        noise: NoiseAssignment = {}
        for node in self._order:
            parent_vals = {p: cols[p] for p in self.graph.parents(node)}
            noise[node] = self._cpts[node].abduct(parent_vals, cols[node],
                                                  rng)
        return noise

    def abduct_partial(self, evidence: Mapping[str, float],
                       n_particles: int, rng: np.random.Generator,
                       max_tries: int = 1000) -> NoiseAssignment:
        """Rejection-sample noise consistent with a *partial* row.

        Unobserved nodes get prior noise; observed nodes constrain the
        joint via rejection.  Complexity grows with the evidence
        probability, so this is intended for low-dimensional queries.

        Raises
        ------
        RuntimeError
            If fewer than ``n_particles`` consistent samples are found
            within ``max_tries`` batches.
        """
        observed = {k: float(v) for k, v in evidence.items()
                    if k in self.graph}
        if len(observed) == len(self.graph.nodes):
            return self.abduct(observed, n_particles, rng)
        accepted: dict[str, list[np.ndarray]] = {
            node: [] for node in self._order}
        total = 0
        batch = max(n_particles * 4, 256)
        for _ in range(max_tries):
            noise = self.sample_noise(batch, rng)
            values = self.evaluate(noise)
            mask = np.ones(batch, dtype=bool)
            for node, val in observed.items():
                mask &= values[node] == val
            if np.any(mask):
                for node in self._order:
                    accepted[node].append(noise[node][mask])
                total += int(mask.sum())
            if total >= n_particles:
                return {
                    node: np.concatenate(parts)[:n_particles]
                    for node, parts in accepted.items()
                }
        raise RuntimeError(
            f"abduct_partial found only {total}/{n_particles} consistent "
            f"samples for evidence {observed} in {max_tries} batches of "
            f"{batch}")

    def counterfactual(self, evidence: Mapping[str, float],
                       interventions: Mapping[str, float],
                       n_particles: int, rng: np.random.Generator,
                       ) -> dict[str, np.ndarray]:
        """Full abduction–action–prediction for one individual.

        Returns the per-node counterfactual sample ("what this row would
        have looked like under the interventions"), each an array of
        ``n_particles`` draws from the counterfactual posterior.
        """
        noise = self.abduct(evidence, n_particles, rng)
        return self.evaluate(noise, interventions)

    def counterfactual_mean(self, evidence: Mapping[str, float],
                            interventions: Mapping[str, float],
                            outcome: str, n_particles: int,
                            rng: np.random.Generator) -> float:
        """Posterior mean of ``outcome`` in the counterfactual world."""
        cf = self.counterfactual(evidence, interventions, n_particles, rng)
        return float(np.mean(cf[outcome]))

    # ------------------------------------------------------------------
    # Serialization (the artifact-bundle state protocol)
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        return {"edges": self.graph.edges, "nodes": self.graph.nodes,
                "cpts": self._cpts}

    def set_state(self, state: dict) -> None:
        graph = CausalGraph(state["edges"], nodes=state["nodes"])
        self.__init__(graph, state["cpts"])

    def __repr__(self) -> str:
        return f"CounterfactualSCM({self.graph!r})"
