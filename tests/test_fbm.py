"""Generator validation: covariance law, determinism, coupling exactness."""

import time
import tracemalloc

import numpy as np
import pytest

from fbmsde.errors import (
    EmbeddingError,
    FactorizationError,
    ParameterError,
    UsageError,
)
from fbmsde.fbm import (
    PANEL_DOUBLES,
    CholeskySampler,
    CirculantSampler,
    Hurst,
    TimeGrid,
    _fgn_autocovariance,
    _panel_width,
    _toeplitz_cholesky,
    make_sampler,
    mix_seed,
    path_values,
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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_outside_the_64_bit_range_rejected(self, seed):
        # the mix works mod 2^64, so such a seed would alias another one
        with pytest.raises(UsageError, match=r"\[0, 2\^64\)"):
            mix_seed(seed, 0)


@pytest.mark.parametrize("sampler_cls", [CholeskySampler, CirculantSampler])
class TestSamplerContracts:
    def test_determinism_bitwise(self, sampler_cls):
        sampler = sampler_cls(Hurst(0.7), TimeGrid(1.0, 2))
        one = sampler.sample(42, 0)
        two = sampler.sample(42, 0)
        assert one.tobytes() == two.tobytes()

    def test_starts_at_zero_and_finite(self, sampler_cls):
        values = path_values(sampler_cls(Hurst(0.7), TimeGrid(2.0, 37)).sample(7, 3))
        assert values.shape == (38,)
        assert values[0] == 0.0
        assert np.isfinite(values).all()

    def test_cumsum_reproduces_values(self, sampler_cls):
        increments = sampler_cls(Hurst(0.8), TimeGrid(1.0, 129)).sample(11, 5)
        assert np.array_equal(np.cumsum(increments), path_values(increments)[1:])

    @pytest.mark.parametrize("hurst", [0.51, 0.99])
    def test_domain_boundary_smoke(self, sampler_cls, hurst):
        increments = sampler_cls(Hurst(hurst), TimeGrid(1.0, 64)).sample(1, 0)
        assert np.isfinite(increments).all()

    def test_terminal_variance(self, sampler_cls):
        # Var(B_1) = 1 for T = 1; allow 5 standard errors of the var estimate
        m = 4000
        sampler = sampler_cls(Hurst(0.7), TimeGrid(1.0, 64))
        terminal = np.array([path_values(sampler.sample(314, i))[-1] for i in range(m)])
        assert abs(terminal.var() - 1.0) <= 5.0 * np.sqrt(2.0 / m)


@pytest.mark.parametrize("sampler_cls", [CholeskySampler, CirculantSampler])
class TestBatchedSample:
    @pytest.mark.parametrize(
        "steps, indices",
        [(1, range(4)), (2, range(3, 7)), (37, range(5, 45)), (600, range(2, 9)),
         (2**13, range(6, 9)), (1024, range(1, 5)), (2048, range(3, 6))],
    )
    def test_rows_match_single_draws_bitwise(self, sampler_cls, steps, indices):
        sampler = sampler_cls(Hurst(0.7), TimeGrid(1.0, steps))
        batch = sampler.sample(23, indices)
        assert batch.shape == (len(indices), steps)
        for row, index in zip(batch, indices):
            assert row.tobytes() == sampler.sample(23, index).tobytes()

    def test_values_are_row_wise_cumulative_sums(self, sampler_cls):
        batch = sampler_cls(Hurst(0.7), TimeGrid(1.0, 37)).sample(3, range(1, 6))
        expected = np.zeros((5, 38))
        expected[:, 1:] = np.cumsum(batch, axis=1)
        values = path_values(batch)
        assert values.tobytes() == expected.tobytes()
        assert not values.flags.writeable
        for i in range(5):
            assert path_values(batch[i]).tobytes() == values[i].tobytes()

    def test_sample_returns_a_read_only_array(self, sampler_cls):
        sampler = sampler_cls(Hurst(0.7), TimeGrid(1.0, 16))
        for index, shape in ((3, (16,)), (range(2, 5), (3, 16))):
            increments = sampler.sample(5, index)
            assert type(increments) is np.ndarray
            assert increments.shape == shape
            assert not increments.flags.writeable

    @pytest.mark.parametrize("steps", [16, 2048])
    @pytest.mark.parametrize("indices", [range(0), range(5, 5)])
    def test_empty_range_draws_an_empty_batch(self, sampler_cls, steps, indices):
        # 2048 Cholesky steps are past the kept-panel budget
        batch = sampler_cls(Hurst(0.7), TimeGrid(1.0, steps)).sample(3, indices)
        assert batch.shape == (0, steps)
        assert path_values(batch).shape == (0, steps + 1)

    def test_subsample_of_a_batch_is_subsample_of_each_row(self, sampler_cls):
        sampler = sampler_cls(Hurst(0.7), TimeGrid(1.0, 48))
        indices = range(4, 9)
        batch = sampler.sample(5, indices)
        for factor in (2, 3, 16):
            coarse = subsample(batch, factor)
            assert coarse.shape == (len(indices), 48 // factor)
            for i, index in enumerate(indices):
                alone = subsample(sampler.sample(5, index), factor)
                assert coarse[i].tobytes() == alone.tobytes()


@pytest.mark.parametrize("steps", [1, 2, 37, 600, 2**13])
def test_circulant_batch_matches_paths_drawn_alone(steps):
    sampler = CirculantSampler(Hurst(0.7), TimeGrid(1.0, steps))
    batch = sampler.sample(29, range(3, 13))
    for row, index in zip(batch, range(3, 13)):
        assert row.tobytes() == circulant_increments(sampler, 29, index).tobytes()


def test_batch_spans_sub_batches_ending_in_a_short_one(monkeypatch):
    import fbmsde.fbm as fbm_mod

    sampler = CirculantSampler(Hurst(0.7), TimeGrid(1.0, 600))
    # 2048 embedding elements per path: sub-batches of 3, 3 and 2 paths
    monkeypatch.setattr(fbm_mod, "SUB_BATCH_ELEMENTS", 3 * 2048)
    batch = sampler.sample(17, range(2, 10))
    for row, index in zip(batch, range(2, 10)):
        assert row.tobytes() == sampler.sample(17, index).tobytes()


def test_circulant_draw_temporaries_stay_within_one_sub_batch():
    # 16 paths of 2^13 steps, 2^14 embedding elements each: 2-path sub-batches
    sampler = CirculantSampler(Hurst(0.7), TimeGrid(1.0, 2**13))
    sampler.sample(5, range(2))  # the FFT fills its plan cache on first use
    tracemalloc.start()
    try:
        batch = sampler.sample(5, range(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the reused normals, xi and FFT output, 40 bytes per element of a 2^15
    # element sub-batch, measured 1.31 MB above the output; with 2^17
    # element sub-batches they measured 5.2 MB
    assert peak - batch.nbytes < 1.5e6


def test_cholesky_draw_generates_its_panels_once(monkeypatch):
    import fbmsde.fbm as fbm_mod

    calls = []
    real = fbm_mod._toeplitz_cholesky

    def generator(gamma):
        calls.append(len(gamma))
        return real(gamma)

    monkeypatch.setattr(fbm_mod, "_toeplitz_cholesky", generator)
    monkeypatch.setattr(fbm_mod, "SUB_BATCH_ELEMENTS", 1)
    kept = CholeskySampler(Hurst(0.7), TimeGrid(1.0, 600))
    kept.sample(17, range(5))
    kept.sample(17, 3)
    assert calls == [600]
    streamed = CholeskySampler(Hurst(0.7), TimeGrid(1.0, 2048))
    streamed.sample(17, range(5))
    streamed.sample(17, 3)
    assert calls == [600, 2048, 2048]


@pytest.mark.parametrize("steps, indices", [(600, range(2, 9)), (1500, range(3))])
def test_kept_and_streamed_panels_draw_the_same_bits(monkeypatch, steps, indices):
    import fbmsde.fbm as fbm_mod

    grid = TimeGrid(1.0, steps)
    # a budget on each side of the panels' size: 600 steps hold about 2e5
    # doubles, 1500 about 1.2e6
    monkeypatch.setattr(fbm_mod, "KEPT_PANEL_DOUBLES", 2**21)
    kept = CholeskySampler(Hurst(0.7), grid)
    monkeypatch.setattr(fbm_mod, "KEPT_PANEL_DOUBLES", 0)
    streamed = CholeskySampler(Hurst(0.7), grid)
    assert kept._kept is not None and streamed._kept is None
    a, b = kept.sample(31, indices), streamed.sample(31, indices)
    assert a.tobytes() == b.tobytes()


def test_streamed_cholesky_draw_does_not_hold_the_factor():
    # the whole factor would be N^2 / 2 doubles, 67 MB at 2^12 steps
    for steps in (2**12, 2**13):
        tracemalloc.start()
        try:
            CholeskySampler(0.7, TimeGrid(1.0, steps)).sample(5, range(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (N, width) panel buffer of PANEL_DOUBLES doubles (2 MB) plus the
        # batch's normals and output: measured 2.8-3.2 MB; (N, 256) buffers
        # measured 9.5 MB at 2^12 steps and 17.5 MB at 2^13
        assert peak < 4e6, steps


@pytest.mark.parametrize(
    "steps, width",
    [(1, 256), (1024, 256), (1025, 255), (2**12, 64), (2**13, 32), (2**17, 2), (2**19, 2)],
)
def test_panel_width_keeps_the_panel_buffer_within_its_budget(steps, width):
    assert _panel_width(steps) == width
    # two columns at least: a column is computed from its predecessor
    assert min(width, steps) * steps <= max(PANEL_DOUBLES, 2 * steps)


def test_one_shot_functions_match_samplers():
    grid = TimeGrid(1.0, 16)
    assert np.array_equal(
        make_sampler("cholesky", 0.7, grid).sample(5),
        CholeskySampler(0.7, grid).sample(5),
    )
    assert np.array_equal(
        make_sampler("circulant", 0.7, grid).sample(5),
        CirculantSampler(0.7, grid).sample(5),
    )


def test_make_sampler_rejects_unknown_method():
    with pytest.raises(UsageError):
        make_sampler("hosking", 0.7, TimeGrid(1.0, 16))


def _assemble(panels: list, n: int) -> np.ndarray:
    """The dense lower factor held by ``(j, panel)`` column panels."""
    dense = np.zeros((n, n))
    for j, panel in panels:
        dense[j:, j : j + panel.shape[1]] = panel
    return dense


def _copied_panels(gamma: np.ndarray) -> list:
    """The generated panels, each copied before the next overwrites it."""
    return [(j, panel.copy()) for j, panel in _toeplitz_cholesky(gamma)]


class TestToeplitzCholesky:
    @pytest.mark.parametrize("hurst", [0.51, 0.7, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 600])
    def test_panels_match_dense_oracle(self, monkeypatch, n, hurst):
        import fbmsde.fbm as fbm_mod

        gamma = _fgn_autocovariance(Hurst(hurst), 1.0 / n, n)
        oracle = dense_toeplitz_cholesky(gamma)
        # the narrow budget gives panels of 16 columns at 255-257 steps and
        # of 7 at 600, so a last panel narrower than the rest is covered; a
        # budget of one column per step gives the two-column floor
        for budget in (PANEL_DOUBLES, 600 * 7, n):
            monkeypatch.setattr(fbm_mod, "PANEL_DOUBLES", budget)
            width = _panel_width(n)
            yielded = list(_toeplitz_cholesky(gamma))
            assert [(j, panel.shape) for j, panel in yielded] == [
                (j, (n - j, min(width, n - j))) for j in range(0, n, width)
            ]
            # F-ordered views of the one buffer: unit stride down each column
            assert all(panel.strides[0] == panel.itemsize for _, panel in yielded)
            assert not any(panel.flags.writeable for _, panel in yielded)
            factor = _assemble(_copied_panels(gamma), n)
            assert np.max(np.abs(factor - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_panel_draw_matches_dense_product(self, n):
        hurst, seed = Hurst(0.7), 13
        sampler = CholeskySampler(hurst, TimeGrid(1.0, n))
        factor = _assemble(_copied_panels(_fgn_autocovariance(hurst, 1.0 / n, n)), n)
        for index in range(3):
            z = np.random.default_rng(mix_seed(seed, index)).standard_normal(n)
            dense = factor @ z
            drawn = sampler.sample(seed, index)
            assert np.max(np.abs(drawn - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_path_is_bitwise_the_same_alone_or_in_a_batch(self):
        grid = TimeGrid(1.0, 600)
        alone = CholeskySampler(0.7, grid).sample(21, 4)
        sampler = CholeskySampler(0.7, grid)
        batch = [sampler.sample(21, 1 + i) for i in range(6)]
        assert batch[3].tobytes() == alone.tobytes()

    def test_later_pivot_named(self):
        # leading minors 1 and 0.75 are positive, the full determinant is -0.76
        with pytest.raises(FactorizationError) as excinfo:
            list(_toeplitz_cholesky(np.array([1.0, 0.5, -0.9])))
        assert excinfo.value.pivot == 3

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_nan_raises(self, at):
        gamma = np.array([1.0, 0.5, 0.25])
        gamma[at] = np.nan
        with pytest.raises(FactorizationError):
            list(_toeplitz_cholesky(gamma))


def test_circulant_covariance_on_fine_grid():
    # empirical covariance at the quarter nodes of a 4096-step grid stays
    # within 3 standard errors of R_H
    m, steps, hurst = 5000, 4096, 0.7
    grid = TimeGrid(1.0, steps)
    sampler = CirculantSampler(Hurst(hurst), grid)
    nodes = [steps // 4, steps // 2, 3 * steps // 4, steps]
    picked = np.stack(
        [path_values(sampler.sample(1234, i))[nodes] for i in range(m)]
    )
    for a in range(4):
        for b in range(a, 4):
            products = picked[:, a] * picked[:, b]
            target = fbm_covariance(grid.times[nodes[a]], grid.times[nodes[b]], hurst)
            stderr = products.std(ddof=1) / np.sqrt(m)
            assert abs(products.mean() - target) <= 3.0 * stderr


def test_circulant_completes_at_large_scale():
    increments = CirculantSampler(Hurst(0.9), TimeGrid(1.0, 2**14)).sample(8, 0)
    assert np.isfinite(increments).all()


def test_single_step_is_standard_gaussian():
    # N = 1, T = 1: the lone increment is Normal(0, 1)
    sampler = CirculantSampler(Hurst(0.7), TimeGrid(1.0, 1))
    draws = np.array([sampler.sample(9, i)[0] for i in range(20000)])
    stderr = np.sqrt(2.0 / draws.size)
    assert abs(draws.var() - 1.0) <= 3.0 * stderr


def test_standardized_node_statistics():
    # z-test on B_t / t^H over many paths: mean ~ 0, variance ~ 1
    m, node = 10000, 4
    grid = TimeGrid(1.0, 8)
    sampler = CirculantSampler(Hurst(0.7), grid)
    t = grid.times[node]
    z = np.array([path_values(sampler.sample(2718, i))[node] for i in range(m)]) / t**0.7
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
        vals = path_values(sampler.sample(99, range(m)))
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

    def test_coarse_nodes_match_shared_fine_nodes_to_rounding(self):
        fine = path_values(self.path)
        coarse = path_values(subsample(self.path, 2))
        assert coarse.shape == (5,)
        # block summation reassociates the additions of the cumulative sum,
        # so each node may differ by the rounding of its 8 additions
        bound = 8 * np.finfo(float).eps * np.abs(self.path).sum()
        assert np.max(np.abs(coarse - fine[::2])) <= bound
        assert coarse[1] == fine[2]  # one block of two: the same sum

    def test_identity_factor(self):
        assert subsample(self.path, 1) is self.path
        batch = CirculantSampler(Hurst(0.7), TimeGrid(1.0, 8)).sample(21, range(3))
        # a copy would hold a second chunk of noise in every ladder worker
        assert subsample(batch, 1) is batch

    def test_increments_are_block_sums(self):
        sub = subsample(self.path, 4)
        expected = self.path.reshape(-1, 4).sum(axis=1)
        assert sub.tobytes() == expected.tobytes()
        assert not sub.flags.writeable

    def test_composition(self):
        path = CirculantSampler(Hurst(0.7), TimeGrid(1.0, 2**13)).sample(3, 0)
        via_two = subsample(subsample(path, 2), 2**8)
        direct = subsample(path, 2**9)
        assert direct.shape == via_two.shape == (16,)
        # two pairwise reductions and one reassociate the same 512 additions
        bound = 512 * np.finfo(float).eps * np.abs(path).reshape(16, -1).sum(axis=1)
        assert np.all(np.abs(via_two - direct) <= bound)

    def test_non_divisor_rejected(self):
        with pytest.raises(UsageError):
            subsample(self.path, 3)
        with pytest.raises(UsageError):
            subsample(self.path, 0)


class TestIncrementMoments:
    def make_paths(self, m=400, steps=64, hurst=0.7, seed=17):
        sampler = CirculantSampler(Hurst(hurst), TimeGrid(1.0, steps))
        return [path_values(sampler.sample(seed, i)) for i in range(m)]

    def test_second_moment_scaling(self):
        paths = self.make_paths()
        lag, hurst = 4, 0.7
        h = 1.0 / 64
        est = empirical_increment_moment(paths, 2.0, lag)
        expected = (lag * h) ** (2 * hurst)
        # empirical standard error of the pooled second moment estimate
        diffs = np.concatenate(
            [p[lag:] - p[:-lag] for p in paths]
        )
        stderr = np.std(diffs**2) / np.sqrt(len(paths))
        assert abs(est - expected) <= 3.0 * stderr

    def test_full_span_is_unit_variance(self):
        paths = self.make_paths(m=600)
        est = empirical_increment_moment(paths, 2.0, len(paths[0]) - 1)
        terminal = np.array([p[-1] for p in paths])
        stderr = np.std(terminal**2) / np.sqrt(len(paths))
        assert abs(est - 1.0) <= 3.0 * stderr

    def test_zero_paths_give_zero(self):
        zeros = [path_values(np.zeros(8)) for _ in range(2)]
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
        other = path_values(CirculantSampler(Hurst(0.7), TimeGrid(1.0, 16)).sample(1, 0))
        with pytest.raises(UsageError):
            empirical_increment_moment([paths[0], other], 2.0, 1)


# Toeplitz matrices with unit diagonal and off-diagonal a = 1 / (2 cos(phi)),
# zero elsewhere, have leading minors a^k sin((k + 1) phi) / sin(phi): the
# 400th is the first below zero for phi = pi / 400.5.
INDEFINITE_PIVOT = 400


def _tridiagonal_indefinite(hurst, h, lags):
    gamma = np.zeros(lags)
    gamma[0] = 1.0
    gamma[1] = 0.5 / np.cos(np.pi / (INDEFINITE_PIVOT + 0.5))
    return gamma


class TestFailureModes:
    def test_cholesky_failure_names_pivot(self):
        # Toeplitz [[1, 2], [2, 1]]: the second leading minor is negative
        with pytest.raises(FactorizationError) as excinfo:
            list(_toeplitz_cholesky(np.array([1.0, 2.0])))
        assert excinfo.value.pivot == 2

    @pytest.mark.parametrize("steps, kept", [(600, True), (2048, False)])
    def test_cholesky_failure_is_raised_where_the_panels_are_generated(
        self, monkeypatch, steps, kept
    ):
        import fbmsde.fbm as fbm_mod

        monkeypatch.setattr(fbm_mod, "_fgn_autocovariance", _tridiagonal_indefinite)
        grid = TimeGrid(1.0, steps)
        with pytest.raises(FactorizationError) as excinfo:
            sampler = CholeskySampler(Hurst(0.7), grid)
            assert not kept  # kept panels are generated by the constructor
            sampler.sample(3, range(2))
        assert excinfo.value.pivot == INDEFINITE_PIVOT
        assert "pivot 400" in str(excinfo.value)

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
        # block sums are taken by subsample, which checks the factor first
        with pytest.raises(UsageError):
            subsample(np.arange(6.0), 4)
        # the last axis of a batch is the one coarsened
        with pytest.raises(UsageError, match="does not divide 6 increments"):
            subsample(np.arange(12.0).reshape(2, 6), 4)
