"""Experiment objectives, instance generators, loaders, and validators.

Covers the three benchmark objectives (image summarization, movie
recommendation, revenue maximization on a weighted graph), a weighted cut
objective for synthetic instances, a saturating coverage objective used as a
monotone test bed, plus a brute-force optimum oracle and a randomized
submodularity/nonnegativity checker.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .oracle import Objective, ParamError, check_params, evaluate_offline, make_rng


class ParseError(ValueError):
    """A data file failed to parse; the message names the offending line."""


class GroundSetTooLargeError(ValueError):
    """Refused a 2^n enumeration on a ground set that is too large."""


# ---------------------------------------------------------------------------
# instance data


@dataclass
class SimilarityMatrix:
    """Dense symmetric item-similarity matrix.

    s must equal its transpose within 1e-9; ``exactly_symmetric`` records
    whether it does so exactly, as every generator and loader here makes it.
    """

    s: np.ndarray
    exactly_symmetric: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float64)
        if self.s.ndim != 2 or self.s.shape[0] != self.s.shape[1]:
            raise ValueError(f"similarity matrix must be square, got {self.s.shape}")
        if not np.all(np.isfinite(self.s)):
            raise ValueError("similarity matrix contains non-finite entries")
        gap = float(np.max(np.abs(self.s - self.s.T))) if self.s.size else 0.0
        if gap > 1e-9:
            raise ValueError("similarity matrix is not symmetric within 1e-9")
        self.exactly_symmetric = gap == 0.0

    @property
    def n(self) -> int:
        return self.s.shape[0]


@dataclass
class WeightedGraph:
    """Undirected graph with nonnegative edge weights, nodes 0..n-1."""

    n: int
    edges: list[tuple[int, int, float]]

    def __post_init__(self):
        seen = set()
        canon = []
        for u, v, w in self.edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if not 0.0 <= w < float("inf"):
                raise ValueError(f"negative or non-finite weight on edge ({u},{v})")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            canon.append((u, v, w))
        self.edges = canon

    def dense(self) -> np.ndarray:
        w = np.zeros((self.n, self.n), dtype=np.float64)
        for u, v, wt in self.edges:
            w[u, v] = wt
            w[v, u] = wt
        return w


@dataclass
class Instance:
    """A loaded or generated benchmark problem.

    lam is movie's redundancy weight, checked when the objective is built;
    None leaves it at MovieRecommendationObjective's default.
    """

    kind: str  # image | movie | revenue | synthetic-cut
    data: SimilarityMatrix | WeightedGraph
    lam: float | None = None

    def __post_init__(self):
        if self.kind in ("image", "movie") and not isinstance(self.data, SimilarityMatrix):
            raise ValueError(f"kind {self.kind!r} needs a similarity matrix")
        if self.kind in ("revenue", "synthetic-cut") and not isinstance(self.data, WeightedGraph):
            raise ValueError(f"kind {self.kind!r} needs a weighted graph")

    @property
    def n(self) -> int:
        return self.data.n

    def objective(self) -> Objective:
        if self.kind == "image":
            return ImageSummarizationObjective(self.data)
        if self.kind == "movie":
            if self.lam is None:
                return MovieRecommendationObjective(self.data)
            return MovieRecommendationObjective(self.data, self.lam)
        if self.kind == "revenue":
            return RevenueObjective(self.data)
        if self.kind == "synthetic-cut":
            return CutObjective(self.data)
        raise ValueError(f"unknown instance kind {self.kind!r}")


# ---------------------------------------------------------------------------
# objectives


class ModularObjective(Objective):
    """f(S) = sum of fixed nonnegative element weights; the trivial oracle."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        super().__init__(w.size)
        self.weights = w

    def _evaluate(self, idx):
        return float(self.weights[idx].sum())

    def _gain_batch(self, state, t_mat, xs, base_of):
        return self.weights[xs]

    def _evaluate_batch(self, masks):
        return masks @ self.weights


class CutObjective(Objective):
    """Weighted graph cut: total weight of edges with exactly one end in S."""

    def __init__(self, graph: WeightedGraph):
        super().__init__(graph.n)
        self.w = graph.dense()
        self.degree = self.w.sum(axis=1)

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        rows = self.w[idx]
        return float(rows.sum() - rows[:, idx].sum())

    def _base_state(self, base_idx):
        return (self.w[:, base_idx].sum(axis=1),)  # weight into the base

    def _gain_batch(self, state, t_mat, xs, base_of):
        w_into_base, = state
        cross = self.w[xs[:, None], t_mat].sum(axis=1)
        return self.degree[xs] - 2.0 * (w_into_base[base_of, xs] + cross)

    def _evaluate_batch(self, masks):
        m = masks.astype(np.float64)
        return m @ self.degree - ((m @ self.w) * m).sum(axis=1)


class RevenueObjective(Objective):
    """Influence-style revenue: sum over non-members of sqrt(weight into S).

    Adding x to B changes sqrt(W_B(v)) only at x's neighbours v, so
    :meth:`_gain_batch` reads a neighbour table built once here: row v holds
    v's neighbour ids and edge weights, padded with v's own id and weight 0.0
    to one slot past the maximum degree, so the last slot is always v itself.
    A zero-weight edge adds exactly 0, so it is left out. A batch of m paired
    gains over pools of size t-1 costs O(m·deg·t) gathers, plus one
    zero-filled row of all n nodes per gain when T is non-empty. Each gain is
    summed in the order the all-nodes formula sums it, so the gains are
    bit-for-bit those of summing every node's increment. The dense matrix
    stays for :meth:`_evaluate` and :meth:`_evaluate_batch`.
    """

    def __init__(self, graph: WeightedGraph):
        super().__init__(graph.n)
        self.w = graph.dense()
        rows, cols = np.nonzero(self.w)
        degree = np.bincount(rows, minlength=self.n)
        width = (int(degree.max()) if rows.size else 0) + 1
        slot = np.arange(rows.size) - np.repeat(np.cumsum(degree) - degree, degree)
        self._nbr = np.repeat(np.arange(self.n, dtype=np.int64)[:, None], width, axis=1)
        self._nbr[rows, slot] = cols
        self._nbr_w = np.zeros((self.n, width))
        self._nbr_w[rows, slot] = self.w[rows, cols]

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        into = np.sqrt(self.w[:, idx].sum(axis=1))
        return float(into.sum() - into[idx].sum())

    def _base_state(self, base_idx):
        in_base = np.zeros(self.n, dtype=bool)
        in_base[base_idx] = True
        return in_base, self.w[:, base_idx].sum(axis=1)

    def _gain_batch(self, state, t_mat, xs, base_of):
        in_base, w_into_base = state
        m = xs.size
        nbr = self._nbr[xs]  # (m, width); padding and the last slot hold x_j
        at = base_of[:, None]
        w_b = w_into_base[at, nbr]
        if t_mat.shape[1]:
            # Add the T columns one after another in t_mat order, as the
            # all-nodes (n, m, t-1) reduction does, so W_{B_j}(v) is
            # bit-identical.
            cols = self.w[nbr, t_mat.T[:, :, None]]  # (t-1, m, width)
            t_sum = cols[0].copy()
            for col in cols[1:]:
                t_sum += col
            w_b = w_b + t_sum
        inc = np.sqrt(w_b + self._nbr_w[xs]) - np.sqrt(w_b)
        members = (in_base[at, nbr] | (nbr == xs[:, None])
                   | (nbr[:, :, None] == t_mat[:, None, :]).any(axis=2))
        inc[members] = 0.0
        own = np.sqrt(w_b[:, -1])
        if not t_mat.shape[1] and m > 1:
            # The all-nodes formula's (n, m) increments are summed
            # sequentially over n when T is empty. The neighbours, in slot
            # order, are its non-zero terms in node order, and adding the
            # +0.0 terms is exact, so a sequential sum over the slots is
            # bit-identical.
            return np.ascontiguousarray(inc.T).sum(axis=0) - own
        # With T non-empty, or for a lone row, numpy sums each gain pairwise
        # over all n nodes, so it is summed over a zero-filled row of n nodes;
        # summing only the deg terms would round differently. The O(m·n) row
        # costs far less than the O(n·m·t) gather an all-nodes kernel needs.
        dense = np.zeros((m, self.n))
        dense[np.arange(m)[:, None], nbr] = inc
        return dense.sum(axis=1) - own

    def _evaluate_batch(self, masks):
        # In place after the two (batch, n) allocations: each fresh temporary
        # of this size can cost page faults once the allocator returns the
        # last one to the system, and the sums read the same arrays either way.
        m = masks.astype(np.float64)
        into = m @ self.w  # (batch, n): weight into S from each node
        np.sqrt(into, out=into)
        return into.sum(axis=1) - np.multiply(into, m, out=m).sum(axis=1)


class ImageSummarizationObjective(Objective):
    """Coverage (best-representative similarity) minus a redundancy penalty.

    The max over an empty selection is taken as 0, so the empty set scores 0
    and values stay nonnegative for nonnegative similarities. Diagonal terms
    participate in both sums exactly as written.
    """

    def __init__(self, matrix: SimilarityMatrix):
        super().__init__(matrix.n)
        self.s = matrix.s
        # Row x holds column x of s, for row-major gathers.
        self._cols = (self.s if matrix.exactly_symmetric
                      else np.ascontiguousarray(self.s.T))
        self._diag = np.diag(self.s).copy()

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        cover = self.s[:, idx].max(axis=1).sum()
        penalty = self.s[np.ix_(idx, idx)].sum() / self.n
        return float(cover - penalty)

    def _base_state(self, base_idx):
        # Best cover and total similarity of each item into the base. The
        # rows of _cols are the columns of s, so this is s[:, base_idx] with
        # its strides, reduced in the same order, from a gather of whole rows.
        cols = self._cols[base_idx].T
        best_base = cols.max(axis=1) if base_idx.size else np.zeros(self.n)
        return best_base, cols.sum(axis=1)

    def _gain_batch(self, state, t_mat, xs, base_of):
        best_base, s_into_base = state
        # (m, n): row j holds each item's best cover in B_j, and each gain is
        # summed pairwise over the n items of its row.
        best = best_base if best_base.shape[0] == 1 else best_base[base_of]
        if t_mat.shape[1]:
            best = np.maximum(best, self._cols[t_mat].max(axis=1))
        cover = np.maximum(best, self._cols[xs])
        cover -= best
        cross = self.s[xs[:, None], t_mat].sum(axis=1)
        penalty_inc = (2.0 * (s_into_base[base_of, xs] + cross) + self._diag[xs]) / self.n
        return cover.sum(axis=1) - penalty_inc


class MovieRecommendationObjective(Objective):
    """Total similarity delivered by S minus lam times its internal similarity."""

    def __init__(self, matrix: SimilarityMatrix, lam: float = 0.95):
        super().__init__(matrix.n)
        check_params(lam=lam)
        self.s = matrix.s
        self.lam = float(lam)
        self._colsum = self.s.sum(axis=0)

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        return float(self._colsum[idx].sum()
                     - self.lam * self.s[np.ix_(idx, idx)].sum())

    def _base_state(self, base_idx):
        return (self.s[:, base_idx].sum(axis=1),)  # similarity into the base

    def _gain_batch(self, state, t_mat, xs, base_of):
        s_into_base, = state
        cross = self.s[xs[:, None], t_mat].sum(axis=1)
        return (self._colsum[xs]
                - self.lam * (2.0 * (s_into_base[base_of, xs] + cross)
                              + np.diag(self.s)[xs]))

    def _evaluate_batch(self, masks):
        m = masks.astype(np.float64)
        return m @ self._colsum - self.lam * ((m @ self.s) * m).sum(axis=1)


class SaturatedCoverageObjective(Objective):
    """Monotone coverage: per-group contributions accumulate up to a cap.

    f(S) = sum over groups g of min(cap_g, sum_{x in S} a[x, g]) with a >= 0.
    """

    def __init__(self, contributions, caps):
        a = np.asarray(contributions, dtype=np.float64)
        caps = np.asarray(caps, dtype=np.float64)
        if a.ndim != 2 or caps.ndim != 1 or a.shape[1] != caps.size:
            raise ValueError("contributions must be (n, groups) matching caps")
        if not (a >= 0).all() or not (caps >= 0).all():
            raise ValueError("contributions and caps must be nonnegative")
        super().__init__(a.shape[0])
        self.a = a
        self.caps = caps

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        return float(np.minimum(self.caps, self.a[idx].sum(axis=0)).sum())

    def _base_state(self, base_idx):
        return (self.a[base_idx].sum(axis=0),)  # the base's mass per group

    def _gain_batch(self, state, t_mat, xs, base_of):
        base_mass, = state
        mass = base_mass[base_of] + self.a[t_mat].sum(axis=1)  # (m, groups)
        return (np.minimum(self.caps, mass + self.a[xs])
                - np.minimum(self.caps, mass)).sum(axis=1)

    def _evaluate_batch(self, masks):
        return np.minimum(self.caps, masks.astype(np.float64) @ self.a).sum(axis=1)


# ---------------------------------------------------------------------------
# synthetic instances


def _erdos_renyi(n: int, p: float, rng: np.random.Generator) -> WeightedGraph:
    """G(n, p) with independent uniform (0,1) edge weights."""
    check_params(p=p)
    # Pairs are numbered in the order of itertools.combinations; only the kept
    # ones are mapped back to (u, v). Row u's pairs start at u(2n - u - 1)/2.
    pairs = n * (n - 1) // 2
    keep = np.flatnonzero(rng.random(pairs) < p)
    weights = rng.random(pairs)[keep]
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    us = np.searchsorted(starts, keep, side="right") - 1
    vs = keep - starts[us] + us + 1
    edges = list(zip(us.tolist(), vs.tolist(), weights.tolist()))
    return WeightedGraph(n=n, edges=edges)


def _cosine_similarity(n: int, dim: int, rng: np.random.Generator) -> SimilarityMatrix:
    """Cosine similarities of random positive-orthant unit vectors.

    Positive entries keep all three similarity objectives nonnegative and
    submodular without further checks.
    """
    v = np.abs(rng.standard_normal((n, dim)))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    s = v @ v.T
    s = (s + s.T) / 2.0
    return SimilarityMatrix(s=s)


def generate_synthetic(kind: str, n: int, param: float | None = None,
                       seed: int = 0, lam: float | None = None) -> Instance:
    """Deterministic synthetic instance of the given kind and size.

    For graph kinds ``param`` is the edge probability (default 4/(n-1));
    for similarity kinds it is the embedding dimension (default 16). lam is
    passed to a movie instance and ignored for the other kinds.
    """
    check_params(n=n, seed=seed)
    rng = make_rng(seed)
    if kind in ("revenue", "synthetic-cut"):
        p = param if param is not None else min(1.0, 4.0 / max(1, n - 1))
        return Instance(kind=kind, data=_erdos_renyi(n, float(p), rng))
    if kind in ("image", "movie"):
        dim = param if param is not None else 16
        check_params(dim=dim)
        matrix = _cosine_similarity(n, int(dim), rng)
        return Instance(kind=kind, data=matrix, lam=lam if kind == "movie" else None)
    raise ValueError(f"unknown synthetic kind {kind!r}")


def make_random_coverage(n: int, groups: int, seed: int = 0,
                         big_elements: int = 0, big_scale: float = 10.0
                         ) -> SaturatedCoverageObjective:
    """Random saturating-coverage objective, optionally with heavy elements.

    The first ``big_elements`` elements get weight on disjoint groups scaled
    by ``big_scale``, which makes their marginals stand clearly above the
    rest; handy for driving threshold filters into known regimes.
    """
    rng = make_rng(seed)
    a = rng.random((n, groups)) * 0.25
    for b in range(min(big_elements, n)):
        a[b] = 0.0
        a[b, b % groups] = big_scale * (1.0 + 0.1 * b)
    caps = rng.random(groups) * 2.0 + big_scale
    return SaturatedCoverageObjective(a, caps)


# ---------------------------------------------------------------------------
# file formats


def load_similarity_csv(path, n: int | None = None) -> SimilarityMatrix:
    """Parse an n x n comma-separated float matrix; symmetrize by averaging."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                row = [float(x) for x in fields]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-numeric field ({exc})") from None
            if not all(np.isfinite(row)):
                raise ParseError(f"line {lineno}: non-finite entry")
            rows.append(row)
    if not rows:
        raise ParseError("line 1: empty similarity file")
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(f"line {i}: ragged row, expected {width} fields")
    s = np.asarray(rows, dtype=np.float64)
    if s.shape[0] != s.shape[1]:
        raise ParseError(f"line {s.shape[0]}: matrix is {s.shape[0]}x{s.shape[1]}, not square")
    if n is not None and s.shape[0] != n:
        raise ParseError(f"line 1: expected {n} rows, found {s.shape[0]}")
    if (s < 0).any():
        warnings.warn("similarity matrix has negative entries; objective "
                      "nonnegativity is unverified, run the submodularity checker",
                      stacklevel=2)
    return SimilarityMatrix(s=(s + s.T) / 2.0)


def save_similarity_csv(path, matrix: SimilarityMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix.s:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_edge_list(path, n: int | None = None) -> WeightedGraph:
    """Parse "u,v,w" lines with 0-based ids; node count is max id + 1 unless given."""
    edges = []
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected u,v,w")
            try:
                u, v, w = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad field ({exc})") from None
            if u < 0 or v < 0:
                raise ParseError(f"line {lineno}: negative node id")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop on node {u}")
            if w < 0 or not np.isfinite(w):
                raise ParseError(f"line {lineno}: invalid weight {fields[2]}")
            if n is not None and (u >= n or v >= n):
                raise ParseError(f"line {lineno}: node id out of range for n={n}")
            edges.append((u, v, w))
            max_id = max(max_id, u, v)
    if max_id < 0:
        raise ParseError("line 1: empty edge list")
    count = n if n is not None else max_id + 1
    try:
        return WeightedGraph(n=count, edges=edges)
    except ValueError as exc:
        raise ParseError(f"line 1: {exc}") from None


def save_edge_list(path, graph: WeightedGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, w in graph.edges:
            fh.write(f"{u},{v},{repr(float(w))}\n")


# ---------------------------------------------------------------------------
# oracles and validators


def brute_force_opt(f: Objective, k: int) -> tuple[np.ndarray, float]:
    """Exhaustive maximizer over all subsets of size at most k.

    Returns the maximizer as a sorted int64 array, with its value. Ties break
    toward the lexicographically smallest member list. Guarded to
    n <= 24 since the enumeration is exponential. k = 0 (the empty set) is
    its one exception to the ``k >= 1`` rule of ``oracle.PARAM_RANGES``; a
    negative k raises ParamError.
    """
    if f.n > 24:
        raise GroundSetTooLargeError(
            f"brute force refuses n={f.n} > 24 (2^n enumeration)")
    if not k >= 0:
        raise ParamError("k", k, "must be >= 0")
    best_set: tuple[int, ...] = ()
    best_val = evaluate_offline(f, ())
    for size in range(1, min(k, f.n) + 1):
        for combo in itertools.combinations(range(f.n), size):
            val = float(f._evaluate(np.asarray(combo, dtype=np.int64)))
            if val > best_val or (val == best_val and combo < best_set):
                best_val, best_set = val, combo
    return np.array(best_set, dtype=np.int64), best_val


@dataclass
class SubmodularityReport:
    """Outcome of randomized diminishing-returns and nonnegativity checks."""

    trials: int
    tol: float
    scale: float
    violations: int = 0
    worst_gap: float = 0.0  # most negative Delta(x,S) - Delta(x,T) observed
    nonneg_violations: int = 0
    min_value: float = float("inf")

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.nonneg_violations == 0


def check_submodularity(f: Objective, trials: int, seed: int = 0) -> SubmodularityReport:
    """Sample (S subset of T, x not in T) triples and test diminishing returns.

    Violations are reported, not raised. The tolerance is 1e-9 times the value
    scale observed while sampling; nonnegativity of f is checked on the same
    sampled sets.
    """
    check_params(trials=trials, seed=seed)
    rng = make_rng(seed)
    n = f.n
    values: list[float] = []
    diffs: list[float] = []

    def val(members: np.ndarray) -> float:
        v = float(f._evaluate(np.sort(members)))
        values.append(v)
        return v

    for _ in range(trials):
        t_mask = rng.random(n) < rng.random()
        if t_mask.all():
            t_mask[int(rng.integers(n))] = False
        t_idx = np.flatnonzero(t_mask)
        s_idx = t_idx[rng.random(t_idx.size) < 0.5] if t_idx.size else t_idx
        outside = np.flatnonzero(~t_mask)
        x = int(outside[int(rng.integers(outside.size))])
        f_s = val(s_idx)
        f_t = val(t_idx)
        gain_s = val(np.append(s_idx, x)) - f_s
        gain_t = val(np.append(t_idx, x)) - f_t
        diffs.append(gain_s - gain_t)

    scale = max(1.0, max(abs(v) for v in values))
    tol = 1e-9 * scale
    report = SubmodularityReport(trials=trials, tol=tol, scale=scale)
    report.min_value = min(values)
    report.worst_gap = min(diffs)
    report.violations = sum(1 for d in diffs if d < -tol)
    report.nonneg_violations = sum(1 for v in values if v < -tol)
    return report
