import itertools
import tracemalloc

import numpy as np
import pytest

from submax import (
    CutObjective,
    GroundSetTooLargeError,
    ImageSummarizationObjective,
    Instance,
    ModularObjective,
    MovieRecommendationObjective,
    Objective,
    RevenueObjective,
    SaturatedCoverageObjective,
    SimilarityMatrix,
    WeightedGraph,
    brute_force_opt,
    check_submodularity,
    evaluate_offline,
    generate_synthetic,
    load_edge_list,
    load_similarity_csv,
    make_rng,
    save_edge_list,
    save_similarity_csv,
)
from submax.objectives import _TILE, ParseError, _erdos_renyi, _symmetrize


def two_by_two():
    return SimilarityMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))


class SquaredCardinality(Objective):
    """Supermodular counterexample: f(S) = |S|^2."""

    def _evaluate(self, idx):
        return float(idx.size ** 2)


class TestImageObjective:
    def test_empty_is_zero(self):
        f = ImageSummarizationObjective(two_by_two())
        assert evaluate_offline(f, []) == 0.0

    def test_single_and_pair(self):
        f = ImageSummarizationObjective(two_by_two())
        assert evaluate_offline(f, [0]) == pytest.approx(1.0)
        assert evaluate_offline(f, [0, 1]) == pytest.approx(0.5)

    def test_nonmonotone_witness(self):
        f = ImageSummarizationObjective(two_by_two())
        assert evaluate_offline(f, [0]) > evaluate_offline(f, [0, 1])


class TestMovieObjective:
    def test_empty_is_zero(self):
        f = MovieRecommendationObjective(two_by_two(), 0.95)
        assert evaluate_offline(f, []) == 0.0

    def test_single(self):
        f = MovieRecommendationObjective(two_by_two(), 0.95)
        assert evaluate_offline(f, [0]) == pytest.approx(0.55)

    def test_lambda_one_is_cut_like(self):
        f = MovieRecommendationObjective(two_by_two(), 1.0)
        assert evaluate_offline(f, [0]) == pytest.approx(0.5)

    def test_nonmonotone_witness(self):
        f = MovieRecommendationObjective(two_by_two(), 0.95)
        assert evaluate_offline(f, [0]) > evaluate_offline(f, [0, 1])

    def test_lambda_bounds(self):
        with pytest.raises(ValueError):
            MovieRecommendationObjective(two_by_two(), 1.5)


class TestRevenueObjective:
    def test_examples(self):
        f = RevenueObjective(WeightedGraph(n=2, edges=[(0, 1, 1.0)]))
        assert evaluate_offline(f, []) == 0.0
        assert evaluate_offline(f, [0]) == pytest.approx(1.0)
        assert evaluate_offline(f, [0, 1]) == 0.0  # non-monotone

    def test_sqrt_of_weight_sum(self):
        g = WeightedGraph(n=3, edges=[(0, 1, 4.0), (0, 2, 9.0)])
        f = RevenueObjective(g)
        # node 0 outside S={1,2} sees weight 13
        assert evaluate_offline(f, [1, 2]) == pytest.approx(np.sqrt(13.0))


class TestGenerateSynthetic:
    def test_complete_graph_edge_count(self):
        inst = generate_synthetic("revenue", 4, 1.0, seed=7)
        assert len(inst.data.edges) == 6
        assert all(0.0 <= w < 1.0 for _, _, w in inst.data.edges)

    def test_expected_edge_count_band(self):
        inst = generate_synthetic("revenue", 100, 0.06, seed=1)
        assert 200 <= len(inst.data.edges) <= 400

    def test_deterministic(self):
        a = generate_synthetic("revenue", 30, 0.2, seed=9)
        b = generate_synthetic("revenue", 30, 0.2, seed=9)
        assert a.data.edges == b.data.edges
        c = generate_synthetic("image", 12, seed=4)
        d = generate_synthetic("image", 12, seed=4)
        assert np.array_equal(c.data.s, d.data.s)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_synthetic("matroid", 5)

    @pytest.mark.parametrize("kind", ["image", "movie"])
    def test_dimension_below_one_rejected(self, kind):
        with pytest.raises(ValueError, match="dimension"):
            generate_synthetic(kind, 10, 0.5)
        with pytest.raises(ValueError, match="dimension"):
            generate_synthetic(kind, 10, param=0)

    @pytest.mark.parametrize("n,p,seed", [(400, 3 / 399, 61), (300, 0.01, 1),
                                          (50, 0.1, 0), (12, 0.3, 5), (1, 0.5, 2),
                                          (2, 1.0, 0), (20, 1.0, 3), (30, 0.0, 1)])
    def test_erdos_renyi_matches_pair_enumeration(self, n, p, seed):
        # Reference: the pair-by-pair draw over itertools.combinations.
        rng = make_rng(seed)
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < p
        weights = rng.random(len(pairs))
        want = [(u, v, float(weights[i])) for i, (u, v) in enumerate(pairs) if keep[i]]
        assert _erdos_renyi(n, p, make_rng(seed)).edges == want

    def test_similarity_kinds_nonnegative(self):
        inst = generate_synthetic("movie", 20, seed=3)
        assert (inst.data.s >= 0).all()
        assert inst.objective().lam == 0.95


class TestLoaders:
    def test_similarity_parse(self, tmp_path):
        p = tmp_path / "sim.csv"
        p.write_text("1,0.5\n0.5,1\n")
        m = load_similarity_csv(p)
        assert np.array_equal(m.s, np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_similarity_symmetrizes_by_averaging(self, tmp_path):
        p = tmp_path / "sim.csv"
        p.write_text("1,0.4\n0.6,1\n")
        m = load_similarity_csv(p)
        assert m.s[0, 1] == m.s[1, 0] == pytest.approx(0.5)

    def test_similarity_ragged_row(self, tmp_path):
        p = tmp_path / "sim.csv"
        p.write_text("1,0.5\n0.5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_similarity_csv(p)

    def test_similarity_non_numeric(self, tmp_path):
        p = tmp_path / "sim.csv"
        p.write_text("1,x\n0.5,1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_similarity_csv(p)

    def test_similarity_negative_warns(self, tmp_path):
        p = tmp_path / "sim.csv"
        p.write_text("1,-0.5\n-0.5,1\n")
        with pytest.warns(UserWarning):
            load_similarity_csv(p)

    def test_edge_list_parse(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,0.25\n")
        g = load_edge_list(p)
        assert g.n == 2
        assert g.edges == [(0, 1, 0.25)]

    def test_edge_list_self_loop(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,0,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list(p)

    def test_edge_list_negative_weight(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,0.5\n1,2,-0.1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(p)

    def test_edge_list_out_of_range_with_override(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,5,0.5\n")
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list(p, n=3)

    def test_edge_list_duplicate_pair(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,0.5\n1,0,0.2\n")
        with pytest.raises(ParseError):
            load_edge_list(p)

    def test_similarity_round_trip_bit_exact(self, tmp_path):
        inst = generate_synthetic("image", 6, seed=13)
        f0 = ImageSummarizationObjective(inst.data)
        p = tmp_path / "sim.csv"
        save_similarity_csv(p, inst.data)
        f1 = ImageSummarizationObjective(load_similarity_csv(p))
        for size in range(7):
            for combo in itertools.combinations(range(6), size):
                assert evaluate_offline(f0, combo) == evaluate_offline(f1, combo)

    def test_edge_list_round_trip_bit_exact(self, tmp_path):
        inst = generate_synthetic("revenue", 6, 0.6, seed=17)
        f0 = RevenueObjective(inst.data)
        p = tmp_path / "g.csv"
        save_edge_list(p, inst.data)
        f1 = RevenueObjective(load_edge_list(p, n=6))
        for size in range(7):
            for combo in itertools.combinations(range(6), size):
                assert evaluate_offline(f0, combo) == evaluate_offline(f1, combo)


class TestBruteForce:
    def test_modular_top_k(self):
        f = ModularObjective([1.0, 2.0, 3.0])
        best, val = brute_force_opt(f, 2)
        assert best.tolist() == [1, 2]
        assert val == 5.0

    def test_revenue_tie_breaks_lexicographic(self):
        f = RevenueObjective(WeightedGraph(n=2, edges=[(0, 1, 1.0)]))
        best, val = brute_force_opt(f, 2)
        assert best.tolist() == [0]
        assert val == pytest.approx(1.0)

    def test_k_zero(self):
        f = ModularObjective([1.0, 2.0])
        best, val = brute_force_opt(f, 0)
        assert best.size == 0
        assert val == 0.0

    def test_guard(self):
        f = ModularObjective(np.ones(25))
        with pytest.raises(GroundSetTooLargeError):
            brute_force_opt(f, 3)


class TestCheckSubmodularity:
    def test_modular_has_no_violations(self):
        f = ModularObjective(np.linspace(0.5, 2.0, 8))
        report = check_submodularity(f, trials=500, seed=1)
        assert report.ok
        assert report.violations == 0

    def test_supermodular_detected(self):
        report = check_submodularity(SquaredCardinality(8), trials=500, seed=1)
        assert report.violations > 0
        assert not report.ok

    def test_experiment_objectives_clean(self):
        objectives = [
            generate_synthetic("image", 15, seed=2).objective(),
            generate_synthetic("movie", 15, seed=3).objective(),
            generate_synthetic("revenue", 15, 0.3, seed=4).objective(),
            generate_synthetic("synthetic-cut", 15, 0.3, seed=5).objective(),
        ]
        for f in objectives:
            report = check_submodularity(f, trials=1500, seed=6)
            assert report.ok, f"{type(f).__name__}: {report}"


def test_optimum_split_order_bound_small_instances():
    # On every sampled pair (A, S): dropping part of the optimum from A can
    # only shrink the loss f(.) - f(. + S) relative to the full optimum.
    rng = np.random.default_rng(0)
    for seed in range(3):
        f = generate_synthetic("revenue", 9, 0.4, seed=100 + seed).objective()
        star, _ = brute_force_opt(f, 3)
        f_star = evaluate_offline(f, star)
        for mask in range(1 << star.size):
            s2 = star[[not mask & (1 << i) for i in range(star.size)]]
            f_s2 = evaluate_offline(f, s2)
            for _ in range(40):
                s = np.flatnonzero(rng.random(9) < 0.4)
                lhs = f_s2 - evaluate_offline(f, np.union1d(s2, s))
                rhs = f_star - evaluate_offline(f, np.union1d(star, s))
                assert lhs <= rhs + 1e-9


def _drawn_product(n, seed, dim=16):
    """v @ v.T from the draws generate_synthetic makes, before averaging."""
    rng = make_rng(seed)
    v = np.abs(rng.standard_normal((n, dim)))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v @ v.T


class TestSymmetrizeInPlace:
    # Each instance is built and checked in its one n x n array, a tile at a
    # time; its bytes must be those of the whole-matrix (s + s.T) / 2.0.

    @pytest.mark.parametrize("kind", ["image", "movie"])
    @pytest.mark.parametrize("n", [1, 2, _TILE - 1, _TILE, _TILE + 1, 1000])
    def test_instance_is_the_averaged_product(self, kind, n):
        p = _drawn_product(n, seed=n)
        got = generate_synthetic(kind, n, seed=n).data
        assert got.s.tobytes() == ((p + p.T) / 2.0).tobytes()
        assert got.exactly_symmetric

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_asymmetric_input_averages_bit_for_bit(self):
        # Across tile edges, with signed zeros, an inf, a NaN and sums that
        # overflow to inf.
        rng = np.random.default_rng(4)
        s = rng.standard_normal((2 * _TILE + 3, 2 * _TILE + 3))
        s[0, 1], s[1, 0] = -0.0, 0.0
        s[5, _TILE + 2], s[_TILE + 2, 5] = 1.5e308, 1.7e308
        s[-1, 0], s[0, -1] = -1.6e308, -1.6e308
        s[_TILE, 3], s[-2, -2] = np.inf, np.nan
        want = (s + s.T) / 2.0
        assert _symmetrize(s).tobytes() == want.tobytes()

    def test_loaded_asymmetric_csv_is_the_average(self, tmp_path):
        rng = np.random.default_rng(5)
        s = rng.random((_TILE + 5, _TILE + 5))
        path = tmp_path / "sim.csv"
        path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in s))
        m = load_similarity_csv(path)
        assert m.s.tobytes() == ((s + s.T) / 2.0).tobytes()
        assert m.exactly_symmetric

    @pytest.mark.parametrize("kind", ["image", "movie"])
    def test_build_holds_one_matrix(self, kind):
        # The whole-matrix average and check held three n x n arrays at once.
        tracemalloc.start()
        try:
            f = generate_synthetic(kind, 1024, seed=1).objective()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * f.s.nbytes, peak / f.s.nbytes


def _tiled_symmetric():
    """An exactly symmetric matrix of three row blocks, the last partial."""
    return generate_synthetic("image", 2 * _TILE + 5, seed=8).data.s.copy()


class TestDataValidation:
    def test_similarity_must_be_square(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(np.zeros((2, 3)))

    def test_similarity_must_be_symmetric(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [(-1, -1), (-1, 3), (3, -1)], ids=str)
    def test_similarity_non_finite_in_last_block(self, bad, at):
        s = _tiled_symmetric()
        s[at] = bad
        with pytest.raises(ValueError, match="contains non-finite entries"):
            SimilarityMatrix(s)

    def test_similarity_non_finite_beats_an_earlier_asymmetry(self):
        s = _tiled_symmetric()
        s[0, 1] += 1.0
        s[-1, -1] = np.nan
        with pytest.raises(ValueError, match="contains non-finite entries"):
            SimilarityMatrix(s)

    @pytest.mark.parametrize("at", [(-1, -3), (-3, 4), (_TILE - 1, _TILE), (_TILE, _TILE - 1)],
                             ids=["last-block", "last-row-block", "tile-edge", "mirror-edge"])
    def test_similarity_asymmetry_anywhere_rejected(self, at):
        s = _tiled_symmetric()
        s[at] += 2e-9
        with pytest.raises(ValueError, match="not symmetric within 1e-9"):
            SimilarityMatrix(s)

    def test_similarity_nudge_within_tolerance_is_not_exact(self):
        s = _tiled_symmetric()
        assert SimilarityMatrix(s).exactly_symmetric
        s[-1, 0] += 1e-10
        m = SimilarityMatrix(s)
        assert not m.exactly_symmetric
        assert m.s is s  # a float64 matrix is kept, not copied

    def test_similarity_empty_accepted(self):
        m = SimilarityMatrix(np.zeros((0, 0)))
        assert m.n == 0 and m.exactly_symmetric

    def test_graph_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(n=2, edges=[(0, 0, 1.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_graph_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            WeightedGraph(n=2, edges=[(0, 1, bad)])

    def test_coverage_rejects_nan_contribution(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SaturatedCoverageObjective(np.array([[1.0], [np.nan]]), np.array([5.0]))

    def test_coverage_rejects_nan_cap(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SaturatedCoverageObjective(np.array([[1.0], [2.0]]), np.array([np.nan]))

    def test_graph_rejects_duplicate(self):
        with pytest.raises(ValueError):
            WeightedGraph(n=2, edges=[(0, 1, 1.0), (1, 0, 2.0)])

    def test_instance_kind_data_mismatch(self):
        with pytest.raises(ValueError):
            Instance(kind="revenue", data=two_by_two())

    def test_instance_objective_dispatch(self):
        inst = generate_synthetic("synthetic-cut", 8, 0.5, seed=1)
        assert isinstance(inst.objective(), CutObjective)
        assert inst.n == 8
