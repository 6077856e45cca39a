"""Generator validation: covariance law, determinism, coupling exactness."""

import time

import numpy as np
import pytest

from fbmsde.errors import (
    EmbeddingError,
    FactorizationError,
    ParameterError,
    UsageError,
)
from fbmsde.fbm import (
    PANEL_WIDTH,
    CholeskySampler,
    CirculantSampler,
    FbmPath,
    Hurst,
    TimeGrid,
    _fgn_autocovariance,
    _toeplitz_cholesky,
    block_sums,
    make_sampler,
    mix_seed,
    subsample,
)

from oracles import (
    circulant_increments,
    dense_toeplitz_cholesky,
    empirical_increment_moment,
    fbm_covariance,
)


class TestCovariance:
    def test_diagonal_at_one(self):
        assert fbm_covariance(1.0, 1.0, 0.7) == 1.0

    def test_zero_time_node(self):
        assert fbm_covariance(0.5, 0.0, 0.7) == 0.0

    def test_cancelling_terms(self):
        # s = t - s makes the s^{2H} and |t-s|^{2H} terms cancel
        assert fbm_covariance(1.0, 0.5, 0.7) == pytest.approx(0.5, rel=1e-15)

    def test_symmetry(self):
        assert fbm_covariance(0.3, 0.9, 0.6) == fbm_covariance(0.9, 0.3, 0.6)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            fbm_covariance(-0.1, 0.5, 0.7)

    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.3, 1.2])
    def test_hurst_range(self, bad):
        with pytest.raises(ParameterError):
            Hurst(bad)


class TestSeedMixing:
    def test_counter_based(self):
        a = mix_seed(123, 0)
        b = mix_seed(123, 1)
        assert a != b
        assert mix_seed(123, 1) == b  # order independent

    def test_negative_index_rejected(self):
        with pytest.raises(UsageError):
            mix_seed(1, -1)


@pytest.mark.parametrize("sampler_cls", [CholeskySampler, CirculantSampler])
class TestSamplerContracts:
    def test_determinism_bitwise(self, sampler_cls):
        sampler = sampler_cls(Hurst(0.7), TimeGrid(1.0, 2))
        one = sampler.sample(42, 0)
        two = sampler.sample(42, 0)
        assert np.array_equal(one.values, two.values)
        assert np.array_equal(one.increments, two.increments)

    def test_starts_at_zero_and_finite(self, sampler_cls):
        path = sampler_cls(Hurst(0.7), TimeGrid(2.0, 37)).sample(7, 3)
        assert path.values[0] == 0.0
        assert np.isfinite(path.values).all()

    def test_cumsum_reproduces_values(self, sampler_cls):
        path = sampler_cls(Hurst(0.8), TimeGrid(1.0, 129)).sample(11, 5)
        assert np.array_equal(np.cumsum(path.increments), path.values[1:])

    @pytest.mark.parametrize("hurst", [0.51, 0.99])
    def test_domain_boundary_smoke(self, sampler_cls, hurst):
        path = sampler_cls(Hurst(hurst), TimeGrid(1.0, 64)).sample(1, 0)
        assert np.isfinite(path.values).all()

    def test_terminal_variance(self, sampler_cls):
        # Var(B_1) = 1 for T = 1; allow 5 standard errors of the var estimate
        m = 4000
        sampler = sampler_cls(Hurst(0.7), TimeGrid(1.0, 64))
        terminal = np.array([sampler.sample(314, i).values[-1] for i in range(m)])
        assert abs(terminal.var() - 1.0) <= 5.0 * np.sqrt(2.0 / m)


@pytest.mark.parametrize("sampler_cls", [CholeskySampler, CirculantSampler])
class TestBatchedSample:
    @pytest.mark.parametrize(
        "steps, indices",
        [(1, range(4)), (2, range(3, 7)), (37, range(5, 45)), (600, range(2, 9)),
         (2**13, range(6, 9))],
    )
    def test_rows_match_single_draws_bitwise(self, sampler_cls, steps, indices):
        sampler = sampler_cls(Hurst(0.7), TimeGrid(1.0, steps))
        batch = sampler.sample(23, indices)
        assert batch.path_index == indices
        assert batch.increments.shape == (len(indices), steps)
        for row, index in zip(batch.increments, indices):
            assert row.tobytes() == sampler.sample(23, index).increments.tobytes()

    def test_values_are_row_wise_cumulative_sums(self, sampler_cls):
        batch = sampler_cls(Hurst(0.7), TimeGrid(1.0, 37)).sample(3, range(1, 6))
        expected = np.zeros((5, 38))
        expected[:, 1:] = np.cumsum(batch.increments, axis=1)
        assert batch.values.tobytes() == expected.tobytes()
        assert not batch.values.flags.writeable
        assert not batch.increments.flags.writeable

    def test_subsample_of_a_batch_is_subsample_of_each_row(self, sampler_cls):
        sampler = sampler_cls(Hurst(0.7), TimeGrid(1.0, 48))
        indices = range(4, 9)
        batch = sampler.sample(5, indices)
        for factor in (2, 3, 16):
            coarse = subsample(batch, factor)
            assert coarse.grid.steps == 48 // factor
            for i, index in enumerate(indices):
                alone = subsample(sampler.sample(5, index), factor)
                assert coarse.increments[i].tobytes() == alone.increments.tobytes()
                assert coarse.values[i].tobytes() == alone.values.tobytes()


@pytest.mark.parametrize("steps", [1, 2, 37, 600, 2**13])
def test_circulant_batch_matches_paths_drawn_alone(steps):
    sampler = CirculantSampler(Hurst(0.7), TimeGrid(1.0, steps))
    batch = sampler.sample(29, range(3, 13))
    for row, index in zip(batch.increments, range(3, 13)):
        assert row.tobytes() == circulant_increments(sampler, 29, index).tobytes()


def test_batch_spans_sub_batches_ending_in_a_short_one(monkeypatch):
    import fbmsde.fbm as fbm_mod

    sampler = CirculantSampler(Hurst(0.7), TimeGrid(1.0, 37))
    # 128 embedding elements per path: sub-batches of 3, 3 and 2 paths
    monkeypatch.setattr(fbm_mod, "SUB_BATCH_ELEMENTS", 3 * 128)
    batch = sampler.sample(17, range(2, 10))
    for row, index in zip(batch.increments, range(2, 10)):
        assert row.tobytes() == sampler.sample(17, index).increments.tobytes()


def test_one_shot_functions_match_samplers():
    grid = TimeGrid(1.0, 16)
    assert np.array_equal(
        make_sampler("cholesky", 0.7, grid).sample(5).values,
        CholeskySampler(0.7, grid).sample(5).values,
    )
    assert np.array_equal(
        make_sampler("circulant", 0.7, grid).sample(5).values,
        CirculantSampler(0.7, grid).sample(5).values,
    )


def test_make_sampler_rejects_unknown_method():
    with pytest.raises(UsageError):
        make_sampler("hosking", 0.7, TimeGrid(1.0, 16))


def _assemble(panels: list, n: int) -> np.ndarray:
    """The dense lower factor held by the column panels."""
    dense = np.zeros((n, n))
    for p, panel in enumerate(panels):
        j = p * PANEL_WIDTH
        dense[j:, j : j + panel.shape[1]] = panel
    return dense


class TestToeplitzCholesky:
    @pytest.mark.parametrize("hurst", [0.51, 0.7, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 600])
    def test_panels_match_dense_oracle(self, n, hurst):
        gamma = _fgn_autocovariance(Hurst(hurst), 1.0 / n, n)
        panels = _toeplitz_cholesky(gamma)
        assert [panel.shape for panel in panels] == [
            (n - j, min(PANEL_WIDTH, n - j)) for j in range(0, n, PANEL_WIDTH)
        ]
        assert all(panel.flags.f_contiguous for panel in panels)
        factor = _assemble(panels, n)
        oracle = dense_toeplitz_cholesky(gamma)
        assert np.max(np.abs(factor - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_panel_draw_matches_dense_product(self, n):
        hurst, seed = Hurst(0.7), 13
        sampler = CholeskySampler(hurst, TimeGrid(1.0, n))
        factor = _assemble(_toeplitz_cholesky(_fgn_autocovariance(hurst, 1.0 / n, n)), n)
        for index in range(3):
            z = np.random.default_rng(mix_seed(seed, index)).standard_normal(n)
            dense = factor @ z
            drawn = sampler.sample(seed, index).increments
            assert np.max(np.abs(drawn - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_path_is_bitwise_the_same_alone_or_in_a_batch(self):
        grid = TimeGrid(1.0, 600)
        alone = CholeskySampler(0.7, grid).sample(21, 4)
        sampler = CholeskySampler(0.7, grid)
        batch = [sampler.sample(21, 1 + i) for i in range(6)]
        assert np.array_equal(batch[3].increments, alone.increments)
        assert np.array_equal(batch[3].values, alone.values)

    def test_later_pivot_named(self):
        # leading minors 1 and 0.75 are positive, the full determinant is -0.76
        with pytest.raises(FactorizationError) as excinfo:
            _toeplitz_cholesky(np.array([1.0, 0.5, -0.9]))
        assert excinfo.value.pivot == 3

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_nan_raises(self, at):
        gamma = np.array([1.0, 0.5, 0.25])
        gamma[at] = np.nan
        with pytest.raises(FactorizationError):
            _toeplitz_cholesky(gamma)


def test_circulant_covariance_on_fine_grid():
    # empirical covariance at the quarter nodes of a 4096-step grid stays
    # within 3 standard errors of R_H
    m, steps, hurst = 5000, 4096, 0.7
    grid = TimeGrid(1.0, steps)
    sampler = CirculantSampler(Hurst(hurst), grid)
    nodes = [steps // 4, steps // 2, 3 * steps // 4, steps]
    picked = np.stack(
        [sampler.sample(1234, i).values[nodes] for i in range(m)]
    )
    for a in range(4):
        for b in range(a, 4):
            products = picked[:, a] * picked[:, b]
            target = fbm_covariance(grid.times[nodes[a]], grid.times[nodes[b]], hurst)
            stderr = products.std(ddof=1) / np.sqrt(m)
            assert abs(products.mean() - target) <= 3.0 * stderr


def test_circulant_completes_at_large_scale():
    path = CirculantSampler(Hurst(0.9), TimeGrid(1.0, 2**14)).sample(8, 0)
    assert np.isfinite(path.values).all()


def test_single_step_is_standard_gaussian():
    # N = 1, T = 1: the lone increment is Normal(0, 1)
    sampler = CirculantSampler(Hurst(0.7), TimeGrid(1.0, 1))
    draws = np.array([sampler.sample(9, i).values[1] for i in range(20000)])
    stderr = np.sqrt(2.0 / draws.size)
    assert abs(draws.var() - 1.0) <= 3.0 * stderr


def test_standardized_node_statistics():
    # z-test on B_t / t^H over many paths: mean ~ 0, variance ~ 1
    m, node = 10000, 4
    grid = TimeGrid(1.0, 8)
    sampler = CirculantSampler(Hurst(0.7), grid)
    t = grid.times[node]
    z = np.array([sampler.sample(2718, i).values[node] for i in range(m)]) / t**0.7
    assert abs(z.mean()) <= 3.0 / np.sqrt(m)
    assert abs(z.var() - 1.0) <= 5.0 / np.sqrt(m)


def test_samplers_agree_statistically():
    # covariance estimate at a fixed node pair differs by <= 3 pooled stderr
    m = 10000
    grid = TimeGrid(1.0, 16)
    i_node, j_node = 8, 16
    prods = {}
    for name, cls in (("chol", CholeskySampler), ("circ", CirculantSampler)):
        sampler = cls(Hurst(0.7), grid)
        vals = np.stack([sampler.sample(99, k).values for k in range(m)])
        prods[name] = vals[:, i_node] * vals[:, j_node]
    diff = prods["chol"].mean() - prods["circ"].mean()
    pooled = np.sqrt(prods["chol"].var() / m + prods["circ"].var() / m)
    assert abs(diff) <= 3.0 * pooled


def test_circulant_beats_cholesky_at_scale():
    # O(N log N) vs O(N^3) setup + O(N^2) draw
    grid = TimeGrid(1.0, 2**12)
    start = time.perf_counter()
    CholeskySampler(Hurst(0.9), grid).sample(1)
    chol_time = time.perf_counter() - start
    start = time.perf_counter()
    CirculantSampler(Hurst(0.9), grid).sample(1)
    circ_time = time.perf_counter() - start
    assert circ_time * 5.0 < chol_time


class TestSubsample:
    def setup_method(self):
        self.path = CirculantSampler(Hurst(0.7), TimeGrid(1.0, 8)).sample(21, 0)

    def test_values_shared_bitwise(self):
        sub = subsample(self.path, 2)
        assert sub.grid.steps == 4
        assert sub.grid.horizon == self.path.grid.horizon
        for k in range(5):
            assert sub.values[k] == self.path.values[2 * k]

    def test_identity_factor(self):
        assert subsample(self.path, 1) is self.path

    def test_increments_are_block_sums(self):
        sub = subsample(self.path, 4)
        expected = self.path.increments.reshape(-1, 4).sum(axis=1)
        assert np.array_equal(sub.increments, expected)

    def test_composition(self):
        path = CirculantSampler(Hurst(0.7), TimeGrid(1.0, 2**13)).sample(3, 0)
        via_two = subsample(subsample(path, 2), 2**8)
        direct = subsample(path, 2**9)
        assert direct.grid.steps == 16
        assert np.array_equal(via_two.values, direct.values)

    def test_non_divisor_rejected(self):
        with pytest.raises(UsageError):
            subsample(self.path, 3)
        with pytest.raises(UsageError):
            subsample(self.path, 0)


class TestIncrementMoments:
    def make_paths(self, m=400, steps=64, hurst=0.7, seed=17):
        sampler = CirculantSampler(Hurst(hurst), TimeGrid(1.0, steps))
        return [sampler.sample(seed, i) for i in range(m)]

    def test_second_moment_scaling(self):
        paths = self.make_paths()
        lag, hurst = 4, 0.7
        h = paths[0].grid.h
        est = empirical_increment_moment(paths, 2.0, lag)
        expected = (lag * h) ** (2 * hurst)
        # empirical standard error of the pooled second moment estimate
        diffs = np.concatenate(
            [p.values[lag:] - p.values[:-lag] for p in paths]
        )
        stderr = np.std(diffs**2) / np.sqrt(len(paths))
        assert abs(est - expected) <= 3.0 * stderr

    def test_full_span_is_unit_variance(self):
        paths = self.make_paths(m=600)
        est = empirical_increment_moment(paths, 2.0, paths[0].grid.steps)
        terminal = np.array([p.values[-1] for p in paths])
        stderr = np.std(terminal**2) / np.sqrt(len(paths))
        assert abs(est - 1.0) <= 3.0 * stderr

    def test_zero_paths_give_zero(self):
        grid = TimeGrid(1.0, 8)
        zeros = [
            FbmPath(grid, Hurst(0.7), np.zeros(8), 0, i)
            for i in range(2)
        ]
        assert empirical_increment_moment(zeros, 2.0, 2) == 0.0

    def test_usage_errors(self):
        paths = self.make_paths(m=2, steps=8)
        with pytest.raises(UsageError):
            empirical_increment_moment([], 2.0, 1)
        with pytest.raises(UsageError):
            empirical_increment_moment(paths[:1], 2.0, 1)
        with pytest.raises(UsageError):
            empirical_increment_moment(paths, 0.5, 1)
        with pytest.raises(UsageError):
            empirical_increment_moment(paths, 2.0, 9)
        other = CirculantSampler(Hurst(0.8), TimeGrid(1.0, 8)).sample(1, 0)
        with pytest.raises(UsageError):
            empirical_increment_moment([paths[0], other], 2.0, 1)


class TestFailureModes:
    def test_cholesky_failure_names_pivot(self):
        # Toeplitz [[1, 2], [2, 1]]: the second leading minor is negative
        with pytest.raises(FactorizationError) as excinfo:
            _toeplitz_cholesky(np.array([1.0, 2.0]))
        assert excinfo.value.pivot == 2

    def test_embedding_failure_reports_most_negative(self, monkeypatch):
        import fbmsde.fbm as fbm_mod

        def indefinite(hurst, h, lags):
            gamma = np.zeros(lags)
            gamma[0] = 1.0
            gamma[1] = -0.9  # alternating row makes an eigenvalue ~ -0.8
            return gamma

        monkeypatch.setattr(fbm_mod, "_fgn_autocovariance", indefinite)
        with pytest.raises(EmbeddingError) as excinfo:
            CirculantSampler(Hurst(0.7), TimeGrid(1.0, 4))
        assert excinfo.value.most_negative < 0.0

    def test_block_sums_validates(self):
        with pytest.raises(UsageError):
            block_sums(np.arange(6.0), 4)
