"""Experiment objectives, instance generators, loaders, and validators.

Covers the three benchmark objectives (image summarization, movie
recommendation, revenue maximization on a weighted graph), a weighted cut
objective for synthetic instances, a saturating coverage objective used as a
monotone test bed, plus a brute-force optimum oracle and a randomized
submodularity/nonnegativity checker.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .oracle import (
    GAIN_CELL_BUDGET,
    Objective,
    ParamError,
    check_params,
    evaluate_offline,
    make_rng,
)


class ParseError(ValueError):
    """A data file failed to parse; the message names the offending line."""


class GroundSetTooLargeError(ValueError):
    """Refused a 2^n enumeration on a ground set that is too large."""


# ---------------------------------------------------------------------------
# instance data


# Rows and columns of one mirror tile. Each temporary of a similarity build or
# check is one tile, whatever n is, and a 128 x 128 tile (128 KB) stays in
# cache while its mirror is read transposed: at n = 4000, tiles of 452 rows
# (GAIN_CELL_BUDGET cells) made the check and the average slower.
_TILE = 128


def _mirror_tiles(n: int):
    """Slices (rows, cols) of the tiles of an n x n matrix on and above its
    diagonal, row block by row block; the mirror of s[rows, cols] is
    s[cols, rows]."""
    for i in range(0, n, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, n, _TILE):
            yield rows, slice(j, j + _TILE)


def _symmetrize(s: np.ndarray) -> np.ndarray:
    """Overwrite the square float64 array s with (s + s.T) / 2.0, and return it.

    Each tile and its mirror are averaged once and written to both, so no
    temporary is larger than a tile. The bits are those of (s + s.T) / 2.0,
    overflow to inf included, because a + b and b + a are the same float
    (short of two NaNs with different payloads in one mirror pair, which
    ``SimilarityMatrix`` rejects anyway).
    """
    for rows, cols in _mirror_tiles(s.shape[0]):
        tile = s[rows, cols] + s[cols, rows].T
        tile /= 2.0
        s[rows, cols] = tile
        s[cols, rows] = tile.T
    return s


@dataclass
class SimilarityMatrix:
    """Dense symmetric item-similarity matrix.

    s must be square, finite and equal to its transpose within 1e-9, checked
    in that order, so a non-finite entry anywhere is reported before any
    asymmetry. ``exactly_symmetric`` records whether s equals its transpose
    exactly, as every generator and loader here makes it. A float64 s is kept
    as given, not copied, and the check holds one tile at a time.
    """

    s: np.ndarray
    exactly_symmetric: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float64)
        if self.s.ndim != 2 or self.s.shape[0] != self.s.shape[1]:
            raise ValueError(f"similarity matrix must be square, got {self.s.shape}")
        # One pass over the tiles on and above the diagonal, each against its
        # mirror. An asymmetry is raised only after the whole pass, so a
        # non-finite entry in a later tile is still the error reported.
        gap = 0.0
        for rows, cols in _mirror_tiles(self.n):
            tile, mirror = self.s[rows, cols], self.s[cols, rows].T
            same = (tile == mirror).all()  # False wherever either holds NaN
            if not (np.isfinite(tile).all() and (same or np.isfinite(mirror).all())):
                raise ValueError("similarity matrix contains non-finite entries")
            if not same:
                gap = max(gap, float(np.max(np.abs(tile - mirror))))
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


def _mask_product(masks, matrix):
    """``masks @ matrix`` in float64 for a (batch, n) whole-set mask batch.

    The batch's members are the columns that at least one row holds. When
    they number at most half of n, only those columns of the masks meet only
    those rows of the matrix; every term left out is a zero mask entry times
    a matrix entry. Otherwise the full product is taken, since gathering
    more than half the rows costs more than it saves.
    """
    members = masks.any(axis=0).nonzero()[0]
    if 2 * members.size <= masks.shape[1]:
        masks, matrix = masks.take(members, axis=1), matrix.take(members, axis=0)
    return masks.astype(np.float64, copy=False) @ matrix


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
        _, w_into_base = state
        cross = self.w[xs[:, None], t_mat].sum(axis=1)
        return self.degree[xs] - 2.0 * (w_into_base[base_of, xs] + cross)

    def _evaluate_batch(self, masks):
        m = masks.astype(np.float64)
        return m @ self.degree - (_mask_product(m, self.w) * m).sum(axis=1)


class RevenueObjective(Objective):
    """Influence-style revenue: sum over non-members of sqrt(weight into S).

    Adding x to B changes sqrt(W_B(v)) only at x's neighbours v, and takes
    away x's own term, so :meth:`_gain_batch` reads each probe's ego network:
    its neighbours, in increasing order, then itself. The graph is held as
    CSR arrays built once here, from the edge list: node v's neighbours are
    ``indices[indptr[v]:indptr[v + 1]]`` with edge weights ``data`` at the
    same positions (a zero-weight edge adds exactly 0, so it is left out),
    and the ego networks as the same arrays with each node appended to its
    own row. A T element can add to W_B(v) at a node of x's ego network only
    if it lies within two hops of x, so ``reach[x, u]`` marks u a neighbour
    of x or of one of x's neighbours, and the kernel reads w only for the
    (row, column) pairs of T that ``reach`` marks. A batch of m paired gains
    over pools of size t-1 then costs O(m·t) table reads plus O(deg(x_j))
    work per hit pair and per row. Each gain is the sum of every node's
    increment taken one node at a time, in node order: the neighbours'
    increments in CSR order, then minus x's own term, since every other
    node's increment is +0.0. So a gain does not depend on which rows share
    its call. The dense matrix stays for :meth:`_evaluate`, the weights the
    hit pairs read, and :meth:`_evaluate_batch`, which multiplies only the
    rows of a batch's members when they are at most half of n (see
    ``_mask_product``).
    """

    def __init__(self, graph: WeightedGraph):
        super().__init__(graph.n)
        self.w = graph.dense()
        # Both directions of every edge of nonzero weight, row-major: the
        # entries np.nonzero(self.w) gives, without scanning n^2 cells.
        edges = np.array(graph.edges, dtype=np.float64).reshape(-1, 3)
        edges = edges[edges[:, 2] != 0.0]
        ends = edges[:, :2].astype(np.int64)
        rows = np.concatenate([ends[:, 0], ends[:, 1]])
        cols = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.lexsort((cols, rows))
        rows, self.indices = rows[order], cols[order]
        self.data = np.concatenate([edges[:, 2], edges[:, 2]])[order]
        degree = np.bincount(rows, minlength=self.n)
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degree, out=self.indptr[1:])
        # Ego rows: node v's neighbours, then v itself with weight 0.0; CSR
        # entry e moves down by its row number, one self entry per row above.
        self._ego_ptr = self.indptr + np.arange(self.n + 1)
        self._ego_size = degree + 1
        slot = np.arange(rows.size) + rows
        self._ego = np.empty(rows.size + self.n, dtype=np.int64)
        self._ego[slot] = self.indices
        self._ego[self._ego_ptr[1:] - 1] = np.arange(self.n)
        self._ego_w = np.zeros(rows.size + self.n)
        self._ego_w[slot] = self.data
        # Edge (x, v), then each neighbour u of v (the CSR positions of v's
        # row): two hops from x.
        hops = degree[self.indices]
        pos = (self.indptr[self.indices] - hops.cumsum() + hops).repeat(hops)
        pos += np.arange(pos.size)
        self.reach = np.zeros((self.n, self.n), dtype=bool)
        self.reach[rows, self.indices] = True
        self.reach[rows.repeat(hops), self.indices[pos]] = True
        # Mean entries of an ego row, and of a row of reach.
        self._ego_mean = float(self._ego_size.mean())
        self._reach_mean = np.count_nonzero(self.reach) / self.n

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        into = np.sqrt(self.w[:, idx].sum(axis=1))
        return float(into.sum() - into[idx].sum())

    def _base_state(self, base_idx):
        return (self.w[:, base_idx].sum(axis=1),)  # weight into the base

    def _gain_row_cells(self, width):
        # About eight arrays over x_j's ego row, five more per two-hop hit of
        # its T row (width * mean reach / n hits on average), and T's lookups.
        hits = width * self._reach_mean / self.n
        return min(self.n, math.ceil(self._ego_mean * (8 + 5 * hits)) + width)

    def _gain_batch(self, state, t_mat, xs, base_of):
        in_base, w_into_base = state
        n = self.n
        # Entry e is node at[e] of x_{row[e]}'s ego row, at CSR position
        # pos[e]: the rows in order, each its neighbours in CSR order, then x
        # itself, its last entry.
        size = self._ego_size[xs]
        ends = size.cumsum()
        start = ends - size
        row = np.arange(xs.size).repeat(size)
        pos = (self._ego_ptr[xs] - start).repeat(size)
        pos += np.arange(pos.size)
        at = self._ego[pos]
        # W_{B_j}(v) at every entry; the state and w are C-contiguous, so they
        # are read at flat offsets.
        cell = base_of[row] * n + at
        w_b = w_into_base.ravel()[cell]
        members = in_base.ravel()[cell]
        if t_mat.shape[1]:
            # The (row, column) pairs of T within two hops of x_j, row-major;
            # pair p adds w[v, u_p] at every entry v of its row. bincount adds
            # an entry's terms one after another in t_mat column order, from
            # 0.0, and every pair left out would add +0.0, so W_{B_j}(v) is
            # bit-identical to the sum over all of T_j in column order.
            hit_row, hit_col = self.reach.ravel()[xs[:, None] * n + t_mat].nonzero()
            if hit_row.size:
                hit_size = size[hit_row]
                ent = (start[hit_row] - hit_size.cumsum() + hit_size).repeat(hit_size)
                ent += np.arange(ent.size)
                u = t_mat[hit_row, hit_col].repeat(hit_size)
                v = at[ent]
                w_b += np.bincount(ent, weights=self.w.ravel()[v * n + u],
                                   minlength=w_b.size)
                members[ent[v == u]] = True  # a neighbour in T_j
        root = np.sqrt(w_b)
        w_b += self._ego_w[pos]
        inc = np.sqrt(w_b, out=w_b)
        inc -= root
        inc[members] = 0.0
        # x's own term, added last as its negation: s + (-a) is exactly s - a.
        own = ends - 1
        inc[own] = -root[own]
        # bincount adds each row's entries one after another, in node order
        # with x's own term last; the all-nodes formula's other terms are
        # +0.0, which adds exactly, so each gain is every node's increment
        # summed one node at a time, whichever rows share the call.
        return np.bincount(row, weights=inc, minlength=xs.size)

    def _evaluate_batch(self, masks):
        # In place after the (batch, n) product: each fresh temporary of this
        # size can cost page faults once the allocator returns the last one
        # to the system. A member's root times True is itself, a non-member's
        # times False is +0.0, as with a float mask.
        into = _mask_product(masks, self.w)  # weight into S from each node
        np.sqrt(into, out=into)
        total = into.sum(axis=1)
        return total - np.multiply(into, masks, out=into).sum(axis=1)


class ImageSummarizationObjective(Objective):
    """Coverage (best-representative similarity) minus a redundancy penalty.

    The max over an empty selection is taken as 0, so the empty set scores 0
    and values stay nonnegative for nonnegative similarities. Diagonal terms
    participate in both sums exactly as written.
    """

    # (best covers, sums, known) of the latest one-base, width-0 kernel call;
    # an instance attribute once set.
    _cover_memo: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None

    def __init__(self, matrix: SimilarityMatrix):
        super().__init__(matrix.n)
        self.s = matrix.s
        # Row x holds column x of s, for row-major gathers.
        self._cols = (self.s if matrix.exactly_symmetric
                      else np.ascontiguousarray(self.s.T))
        self._diag = np.diag(self.s).copy()

    def _gain_row_cells(self, width):
        # A row's best covers, n cells, and the width rows of _cols it gathers
        # for its T row.
        return (width + 1) * self.n

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
        _, best_base, s_into_base = state
        into = s_into_base[base_of, xs]
        if t_mat.shape[1]:
            best = best_base if best_base.shape[0] == 1 else best_base[base_of]
            best = np.maximum(best, self._cols[t_mat].max(axis=1))
            cover = self._cover_sums(best, xs)
            into = into + self.s[xs[:, None], t_mat].sum(axis=1)
        elif best_base.shape[0] == 1:
            cover = self._one_base_cover_sums(best_base, xs)
        else:
            cover = self._cover_sums(best_base[base_of], xs)
        return cover - (2.0 * into + self._diag[xs]) / self.n

    def _cover_sums(self, best, xs):
        """Σ_v max(best[v], c[x, v]) - best[v] for each x of xs, c[x, v] =
        _cols[x, v], in one (rows, n) array built in place. best is (n,),
        (1, n) or one row per x. Each row is contiguous and summed pairwise
        on its own, so its sum does not depend on the other rows."""
        cover = self._cols.take(xs, axis=0)
        np.maximum(best, cover, out=cover)
        cover -= best
        return cover.sum(axis=1)

    def _one_base_cover_sums(self, best, xs):
        """:meth:`_cover_sums` against best, one base's read-only (1, n) row
        of the state stack, through the memo of the latest such call. A known
        x is kept unless some v where the two best rows differ has c[x, v] >
        min(old[v], new[v]): elsewhere x's term is the same, or best - best =
        +0.0 both times, so its sum is the same to the bit. Above n / 4 (or a
        budget of cells) changed positions the memo is dropped. Published
        arrays are never written: a call that learns a sum publishes new ones.
        """
        n = self.n
        memo = self._cover_memo
        if memo is not None and memo[0] is best:
            _, sums, known = memo
        else:
            sums, known = np.empty(n), np.zeros(n, dtype=bool)
            if memo is not None:
                old, new = memo[0][0], best[0]
                changed = np.flatnonzero(old != new)
                if changed.size <= min(n // 4, GAIN_CELL_BUDGET // n):
                    low = np.minimum(old[changed], new[changed])
                    # Row v of s holds c[x, v] for every x.
                    touched = (self.s[changed] > low[:, None]).any(axis=0)
                    sums, known = memo[1], memo[2] & ~touched
        need = xs[~known[xs]]
        if need.size:
            sums, known = sums.copy(), known.copy()
            sums[need] = self._cover_sums(best, need)
            known[need] = True
        self._cover_memo = (best, sums, known)
        return sums[xs]

    def _evaluate_batch(self, masks):
        # Each row as _evaluate scores it, bit for bit. The cover gathers the
        # row's members as rows of _cols (columns of s), padded to the widest
        # row by repeating its first member, which leaves the max exact; each
        # row of best covers is contiguous, so it is summed over the n items
        # as _evaluate's 1-D sum is. Chunks of at most GAIN_CELL_BUDGET
        # gathered cells, or one row where a row alone holds more, keep the
        # working memory of a paired-gain round.
        # The penalty is s[x, x] for a singleton, else the np.ix_ block sum.
        values = np.zeros(masks.shape[0])  # an empty row scores 0
        sizes = np.count_nonzero(masks, axis=1)
        full = np.flatnonzero(sizes)
        if full.size == 0:
            return values
        members = np.nonzero(masks)[1]  # row by row, in increasing order
        sizes = sizes[full]
        starts = np.cumsum(sizes) - sizes
        width = int(sizes.max())
        table = np.repeat(members[starts], width).reshape(full.size, width)
        rows = np.repeat(np.arange(full.size), sizes)
        table[rows, np.arange(members.size) - starts[rows]] = members
        cover = np.empty(full.size)
        step = max(1, GAIN_CELL_BUDGET // (width * self.n))
        for a in range(0, full.size, step):
            cover[a:a + step] = self._cols[table[a:a + step]].max(axis=1).sum(axis=1)
        block = self._diag[table[:, 0]]  # right for the singletons
        for i in np.flatnonzero(sizes > 1).tolist():
            idx = members[starts[i]:starts[i] + sizes[i]]
            block[i] = self.s[np.ix_(idx, idx)].sum()
        values[full] = cover - block / self.n
        return values


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
        _, s_into_base = state
        cross = self.s[xs[:, None], t_mat].sum(axis=1)
        return (self._colsum[xs]
                - self.lam * (2.0 * (s_into_base[base_of, xs] + cross)
                              + np.diag(self.s)[xs]))

    def _evaluate_batch(self, masks):
        m = masks.astype(np.float64)
        return m @ self._colsum - self.lam * (_mask_product(m, self.s) * m).sum(axis=1)


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
        _, base_mass = state
        mass = base_mass[base_of] + self.a[t_mat].sum(axis=1)  # (m, groups)
        return (np.minimum(self.caps, mass + self.a[xs])
                - np.minimum(self.caps, mass)).sum(axis=1)

    def _evaluate_batch(self, masks):
        return np.minimum(self.caps, _mask_product(masks, self.a)).sum(axis=1)


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
    submodular without further checks. The product is averaged with its
    transpose in place, so the build holds one n x n array.
    """
    v = np.abs(rng.standard_normal((n, dim)))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    s = v @ v.T
    return SimilarityMatrix(s=_symmetrize(s))


def generate_synthetic(kind: str, n: int, param: float | None = None,
                       seed: int = 0, lam: float | None = None) -> Instance:
    """Deterministic synthetic instance of the given kind and size.

    For graph kinds ``param`` is the edge probability (default 4/(n-1));
    for similarity kinds it is the integer embedding dimension (default
    16). lam is passed to a movie instance and ignored for the other kinds.
    """
    check_params(n=n, seed=seed)
    rng = make_rng(seed)
    if kind in ("revenue", "synthetic-cut"):
        p = param if param is not None else min(1.0, 4.0 / max(1, n - 1))
        return Instance(kind=kind, data=_erdos_renyi(n, float(p), rng))
    if kind in ("image", "movie"):
        dim = param if param is not None else 16
        check_params(dim=dim)
        matrix = _cosine_similarity(n, dim, rng)
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
    """Parse an n x n comma-separated float matrix; symmetrize by averaging.

    The parsed array is overwritten with (s + s.T) / 2.0 in place, bit for
    bit, and becomes the returned matrix's s; a first pass counts the rows,
    and each line is parsed into its row of s, so loading holds s and one
    line. A bad field on any line is reported before a ragged row, and a
    ragged row before a shape that is not square.
    """
    with open(path, "r", encoding="utf-8") as fh:
        count = sum(1 for line in fh if line.strip())
    s, width, ragged, i = None, 0, None, 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(x) for x in line.split(",")]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-numeric field ({exc})") from None
            if not all(np.isfinite(row)):
                raise ParseError(f"line {lineno}: non-finite entry")
            if i == 0:
                width = len(row)
                if width == count:
                    s = np.empty((count, count))
            if len(row) != width:
                ragged = ragged or i + 1  # numbered among the non-empty rows
            elif s is not None:
                s[i] = row
            i += 1
    if not count:
        raise ParseError("line 1: empty similarity file")
    if ragged:
        raise ParseError(f"line {ragged}: ragged row, expected {width} fields")
    if count != width:
        raise ParseError(f"line {count}: matrix is {count}x{width}, not square")
    if n is not None and count != n:
        raise ParseError(f"line 1: expected {n} rows, found {count}")
    if s.min() < 0:
        warnings.warn("similarity matrix has negative entries; objective "
                      "nonnegativity is unverified, run the submodularity checker",
                      stacklevel=2)
    return SimilarityMatrix(s=_symmetrize(s))


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
