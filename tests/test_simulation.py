"""Sampling distributions and Monte-Carlo violation estimates."""

import math
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from entangletext import (
    DistributionSpec,
    chsh,
    chsh_max_abs_batch,
    distribution_pmf,
    estimate_violation_probability,
    parameter_sweep,
)
from entangletext.simulation import _guide_buckets, _InverseCdfDraw


class TestDistributionSpec:
    def test_zipf_requires_exponent(self):
        with pytest.raises(ValueError):
            DistributionSpec(kind="zipf", support_bound=10)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            DistributionSpec.zipf(-0.5, 10)

    def test_zero_exponent_warns_and_degenerates(self):
        with pytest.warns(UserWarning, match="homogeneous") as record:
            spec = DistributionSpec.zipf(0.0, 5)
        assert record[0].filename == __file__  # the caller, not the generated __init__
        assert np.allclose(distribution_pmf(spec), 0.2)

    def test_poisson_requires_positive_mean(self):
        with pytest.raises(ValueError):
            DistributionSpec.poisson(0.0, 10)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            DistributionSpec.homogeneous(0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DistributionSpec(kind="cauchy", support_bound=10)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: DistributionSpec.zipf(math.nan, 10), "finite non-negative exponent"),
            (lambda: DistributionSpec.zipf(math.inf, 10), "finite non-negative exponent"),
            (lambda: DistributionSpec.poisson(math.nan, 10), "finite positive mean"),
            (lambda: DistributionSpec.poisson(math.inf, 10), "finite positive mean"),
            (lambda: DistributionSpec.zipf(1.0, 10.5), "support bound must be an integer"),
            (lambda: DistributionSpec.homogeneous(10.0), "support bound must be an integer"),
            (lambda: DistributionSpec.poisson(1.0, "10"), "support bound must be an integer"),
        ],
        ids=["zipf-nan", "zipf-inf", "poisson-nan", "poisson-inf", "bound-10.5", "bound-10.0",
             "bound-str"],
    )
    def test_meaningless_numbers_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_numpy_integer_bound_stored_as_int(self):
        bound = DistributionSpec.homogeneous(np.int64(7)).support_bound
        assert bound == 7 and type(bound) is int


class TestPmf:
    def test_zipf_normalization_example(self):
        pmf = distribution_pmf(DistributionSpec.zipf(1.0, 2))
        assert pmf == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_homogeneous(self):
        pmf = distribution_pmf(DistributionSpec.homogeneous(4))
        assert pmf == pytest.approx([0.25] * 4, abs=1e-15)

    def test_normalized_within_tolerance(self):
        specs = [
            DistributionSpec.zipf(0.7, 100),
            DistributionSpec.zipf(2.0, 500),
            DistributionSpec.homogeneous(37),
            DistributionSpec.poisson(10.0, 100),
            DistributionSpec.poisson(0.5, 3),
        ]
        for spec in specs:
            pmf = distribution_pmf(spec)
            assert len(pmf) == spec.support_bound
            assert (pmf >= 0).all()
            assert abs(pmf.sum() - 1.0) <= 1e-12

    def test_poisson_far_truncation_stable(self):
        # the untruncated mode (1000) sits far right of the support
        pmf = distribution_pmf(DistributionSpec.poisson(1000.0, 5))
        assert abs(pmf.sum() - 1.0) <= 1e-12
        assert (np.diff(pmf) > 0).all()  # increasing toward the mean

    def test_zipf_decreasing(self):
        pmf = distribution_pmf(DistributionSpec.zipf(0.7, 50))
        assert (np.diff(pmf) < 0).all()


def _inverse_cdf_draw(cdf, uniforms):
    """The guide-table draw, on keys of any shape, as float32 values."""
    out = np.empty(uniforms.shape, np.float32)
    return _InverseCdfDraw(cdf)(uniforms, out, np.empty(uniforms.shape, np.intp))


class _EveryMatrixClose(chsh._FloatVerdict):
    """A verdict that leaves every matrix to the exact kernel."""

    def decide(self, n):
        return np.zeros(n, dtype=bool), np.ones(n, dtype=bool)


def _draw(spec, rng, shape=(4, 4)):
    """Entries drawn as estimate_violation_probability draws them."""
    return _inverse_cdf_draw(np.cumsum(distribution_pmf(spec)), rng.random(shape))


class TestSampling:
    def test_support_bound_one_is_degenerate(self):
        counts = _draw(DistributionSpec.zipf(0.7, 1), np.random.default_rng(1))
        assert (counts == 1).all()

    def test_seed_determinism(self):
        spec = DistributionSpec.zipf(0.8, 40)
        a = _draw(spec, np.random.default_rng(7))
        b = _draw(spec, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_values_within_support(self):
        counts = _draw(DistributionSpec.poisson(5.0, 12), np.random.default_rng(3), (50, 4, 4))
        assert counts.min() >= 1 and counts.max() <= 12

    def test_inverse_cdf_boundary_clipped(self):
        cdf = np.array([0.5, 1.0 - 1e-16])
        draws = _inverse_cdf_draw(cdf, np.array([0.0, 0.499, 0.5, 1.0 - 1e-17]))
        assert draws.tolist() == [1, 1, 2, 2]

    def test_guide_buckets(self):
        # the smallest power of two >= 32 B, kept between 2**10 and 2**16
        assert [_guide_buckets(b) for b in (1, 10, 100, 500, 5000)] == [
            1024, 1024, 4096, 16384, 65536
        ]

    @pytest.mark.parametrize("bound", [1, 10, 500, 5000, 2**18])  # 2**18: most buckets straddle
    @pytest.mark.parametrize(
        "make",
        [
            lambda b: DistributionSpec.zipf(0.1, b),
            lambda b: DistributionSpec.zipf(1.0, b),
            lambda b: DistributionSpec.zipf(2.0, b),
            DistributionSpec.homogeneous,
            lambda b: DistributionSpec.poisson(b / 10, b),
        ],
        ids=["zipf0.1", "zipf1", "zipf2", "homogeneous", "poisson"],
    )
    def test_draw_equals_searchsorted_at_edge_keys(self, make, bound):
        spec = make(bound)
        cdf = np.cumsum(distribution_pmf(spec))
        k = _guide_buckets(bound)
        keys = np.concatenate(
            [
                np.arange(k + 1) / k,  # every bucket edge, 1.0 among them
                cdf,
                np.nextafter(cdf, 0.0),
                np.nextafter(cdf, 2.0),
                [0.0, 1.0 - 2**-53, 1.0],
            ]
        )
        want = np.minimum(np.searchsorted(cdf, keys, side="right") + 1, bound)
        assert np.array_equal(_inverse_cdf_draw(cdf, keys), want)

    # a sum that rounds below 1 clips in the searchsorted fallback; one far
    # below 1 also clips whole buckets of the table
    @pytest.mark.parametrize("last", [1.0 - 2**-40, 0.75])
    def test_cdf_ending_below_one_is_clipped(self, last):
        cdf = np.array([0.25, 0.5, last])
        keys = np.array([0.0, 0.25, 0.5, last, 0.875, 1.0 - 2**-41, 1.0 - 2**-53, 1.0])
        assert _inverse_cdf_draw(cdf, keys).tolist() == [1, 2, 3, 3, 3, 3, 3, 3]

    def test_empirical_histogram_matches_pmf(self):
        # 3-sigma per-value sanity on 1e5 draws
        spec = DistributionSpec.zipf(0.7, 8)
        pmf = distribution_pmf(spec)
        rng = np.random.default_rng(12345)
        draws = _inverse_cdf_draw(np.cumsum(pmf), rng.random(100_000))
        counts = np.bincount(draws.astype(np.intp), minlength=9)[1:]
        n = draws.size
        for value in range(8):
            expect = n * pmf[value]
            sigma = math.sqrt(n * pmf[value] * (1 - pmf[value]))
            assert abs(counts[value] - expect) <= 3 * sigma, value


class TestEstimates:
    def test_deterministic_given_seed(self):
        spec = DistributionSpec.zipf(0.7, 50)
        a = estimate_violation_probability(spec, 2000, 99)
        b = estimate_violation_probability(spec, 2000, 99)
        assert a == b

    def test_chunking_invariance(self):
        # the uniform stream does not depend on chunk size
        import entangletext.simulation as sim

        spec = DistributionSpec.zipf(1.0, 30)
        whole = estimate_violation_probability(spec, 3000, 5)
        original = sim._SAMPLE_CHUNK
        try:
            sim._SAMPLE_CHUNK = 700
            chunked = estimate_violation_probability(spec, 3000, 5)
        finally:
            sim._SAMPLE_CHUNK = original
        assert whole == chunked

    @pytest.mark.parametrize(
        "spec, n_samples, seed, n_violations",
        [
            (DistributionSpec.zipf(1.1, 100), 1, 0, 1),
            (DistributionSpec.zipf(1.1, 100), 2049, 3, 1770),  # a partial last chunk
            (DistributionSpec.zipf(0.7, 2000), 2049, 5, 1718),  # counts above the int64 bound
        ],
        ids=["one-sample", "partial-chunk", "B2000"],
    )
    def test_p_hat_is_the_exact_count(self, spec, n_samples, seed, n_violations):
        # the same uniforms in one draw, every matrix decided by the exact kernel
        draws = _draw(spec, np.random.default_rng(seed), (n_samples, 4, 4))
        assert int((chsh_max_abs_batch(draws)[0] > 2).sum()) == n_violations
        est = estimate_violation_probability(spec, n_samples, seed)
        assert est.p_hat == n_violations / n_samples
        if spec.support_bound == 2000:
            assert draws.max() >= 1722  # 4 x 1722 reaches the int64 bound of 6888

    def test_band_goes_to_the_kernel_in_batches_of_at_most_kernel_batch(self, monkeypatch):
        import entangletext.simulation as sim

        spec = DistributionSpec.zipf(1.1, 100)
        n_samples = 2 * sim._SAMPLE_CHUNK + 777
        want = estimate_violation_probability(spec, n_samples, 3)
        sizes = []

        def kernel(matrices):
            sizes.append(len(matrices))
            return chsh_max_abs_batch(matrices)

        monkeypatch.setattr(sim, "_FloatVerdict", _EveryMatrixClose)
        monkeypatch.setattr(sim, "chsh_max_abs_batch", kernel)
        assert estimate_violation_probability(spec, n_samples, 3) == want
        assert sum(sizes) == n_samples
        assert max(sizes) <= chsh._KERNEL_BATCH

    @pytest.mark.parametrize(
        "spec", [DistributionSpec.zipf(1.1, 100), DistributionSpec.poisson(50.0, 500)],
        ids=["zipf", "poisson"],
    )
    def test_the_kernel_gets_the_exact_counts(self, spec, monkeypatch):
        # every matrix goes to the kernel, drawn by searchsorted on its own
        # uniforms, never from the verdict's float32 counts
        import entangletext.simulation as sim

        n_samples = 2 * sim._SAMPLE_CHUNK + 777
        handed = []

        def kernel(matrices):
            handed.append(np.array(matrices))
            return chsh_max_abs_batch(matrices)

        monkeypatch.setattr(sim, "_FloatVerdict", _EveryMatrixClose)
        monkeypatch.setattr(sim, "chsh_max_abs_batch", kernel)
        estimate_violation_probability(spec, n_samples, 11)
        cdf = np.cumsum(distribution_pmf(spec))
        uniforms = np.random.default_rng(11).random((n_samples, 4, 4))
        want = np.minimum(np.searchsorted(cdf, uniforms, side="right") + 1, spec.support_bound)
        got = np.concatenate(handed)
        assert np.issubdtype(got.dtype, np.integer)
        assert np.array_equal(got, want)

    def test_one_estimate_stays_within_its_buffers(self):
        # 5,000-matrix chunks: 576 bytes per matrix, 128 of uniforms and 448
        # of verdict buffers, 2.88 MB, plus temporaries; a first call loads
        # the modules numpy imports lazily
        spec = DistributionSpec.zipf(1.0, 500)
        estimate_violation_probability(spec, 1, 5)
        tracemalloc.start()
        try:
            estimate_violation_probability(spec, 10_000, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.2e6

    def test_a_default_point_takes_two_chunks(self, monkeypatch):
        # the same estimate in 700-matrix chunks and as the point of a
        # 1-thread sweep
        import entangletext.simulation as sim

        chunks = []

        class Counted(chsh._FloatVerdict):
            def decide(self, n):
                chunks.append(n)
                return super().decide(n)

        spec = DistributionSpec.zipf(1.0, 100)
        monkeypatch.setattr(sim, "_FloatVerdict", Counted)
        estimate = estimate_violation_probability(spec, 10_000, sim._point_seed(7, 0))
        assert len(chunks) == 2
        monkeypatch.setenv("ENTANGLE_THREADS", "1")
        assert parameter_sweep("zipf", [1.0], [100], 10_000, 7).estimates == (estimate,)
        monkeypatch.setattr(sim, "_SAMPLE_CHUNK", 700)
        assert estimate_violation_probability(spec, 10_000, estimate.seed) == estimate
        assert len(chunks) == 2 + 2 + 15

    def test_std_err_formula(self):
        spec = DistributionSpec.zipf(0.7, 50)
        est = estimate_violation_probability(spec, 1500, 4)
        assert est.std_err == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / 1500), abs=1e-15
        )
        assert 0.0 <= est.p_hat <= 1.0

    def test_degenerate_bound_no_violations(self):
        est = estimate_violation_probability(DistributionSpec.zipf(0.7, 1), 500, 1)
        assert est.p_hat == 0.0

    def test_n_samples_validated(self):
        with pytest.raises(ValueError):
            estimate_violation_probability(DistributionSpec.homogeneous(5), 0, 1)

    @pytest.mark.parametrize("n_samples", [10.5, 100.0, "100"])
    def test_n_samples_must_be_an_integer(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            estimate_violation_probability(DistributionSpec.homogeneous(5), n_samples, 1)

    @pytest.mark.parametrize("seed", [1.5, "3"])
    @pytest.mark.parametrize("sweep", [False, True], ids=["estimate", "sweep"])
    def test_seed_must_be_an_integer(self, seed, sweep):
        with pytest.raises(ValueError, match="seed must be an integer"):
            if sweep:
                parameter_sweep("zipf", [1.0], [10], 50, seed)
            else:
                estimate_violation_probability(DistributionSpec.homogeneous(5), 50, seed)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            estimate_violation_probability(DistributionSpec.homogeneous(5), 50, -1)

    def test_numpy_integer_seed(self):
        spec = DistributionSpec.zipf(1.0, 30)
        assert estimate_violation_probability(
            spec, 500, np.int64(3)
        ) == estimate_violation_probability(spec, 500, 3)


class TestParameterSweep:
    def test_grid_size(self):
        cur = parameter_sweep("zipf", [0.5, 1.0], [10, 50], n_samples=200, seed=3)
        assert len(cur.grid) == len(cur.estimates) == 4
        assert cur.grid == ((0.5, 10), (1.0, 10), (0.5, 50), (1.0, 50))

    def test_homogeneous_ignores_parameters(self):
        cur = parameter_sweep("homogeneous", None, [10, 20], n_samples=100, seed=3)
        assert cur.grid == ((None, 10), (None, 20))

    def test_poisson_default_mean_is_tenth_of_bound(self):
        cur = parameter_sweep("poisson", None, [50, 100], n_samples=100, seed=3)
        assert cur.grid == ((5.0, 50), (10.0, 100))
        assert cur.estimates[0].spec.poisson_mean == 5.0

    def test_repeatable(self):
        a = parameter_sweep("zipf", [0.3, 0.7], [20], n_samples=400, seed=11)
        b = parameter_sweep("zipf", [0.3, 0.7], [20], n_samples=400, seed=11)
        assert a == b

    def test_each_worker_reuses_one_set_of_buffers(self, monkeypatch):
        # the points a pool thread samples share its buffers, which go with
        # the pool; an estimate off the pool keeps none
        import entangletext.simulation as sim

        made = []

        class Tracked(chsh._FloatVerdict):
            def __init__(self, capacity):
                super().__init__(capacity)
                made.append(weakref.ref(self))

        monkeypatch.setenv("ENTANGLE_THREADS", "2")
        monkeypatch.setattr(sim, "_FloatVerdict", Tracked)
        curves = parameter_sweep("zipf", [0.5, 1.0, 1.5, 2.0], [10, 50], n_samples=500, seed=3)
        assert 1 <= len(made) <= 2
        fresh = [estimate_violation_probability(e.spec, 500, e.seed) for e in curves.estimates]
        assert list(curves.estimates) == fresh
        assert len(made) <= 2 + len(fresh)
        assert all(ref() is None for ref in made)

    def test_a_two_thread_sweep_stays_within_two_estimates_buffers(self, monkeypatch):
        # each worker holds one estimate's buffers (test_one_estimate_stays_within_its_buffers)
        monkeypatch.setenv("ENTANGLE_THREADS", "2")
        parameter_sweep("zipf", [1.0], [500], 10, 3)  # loads what numpy imports lazily
        tracemalloc.start()
        try:
            parameter_sweep("zipf", [0.5, 1.0], [500], 10_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6.4e6

    def test_point_seeds_differ(self):
        cur = parameter_sweep("zipf", [0.5, 0.5], [20], n_samples=100, seed=11)
        assert cur.estimates[0].seed != cur.estimates[1].seed

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            parameter_sweep("zipf", [0.5], [], n_samples=10, seed=1)

    def test_zipf_default_is_the_figure_grid(self):
        cur = parameter_sweep("zipf", None, [10], n_samples=10, seed=1)
        assert [p for p, _ in cur.grid] == [round(0.1 * i, 10) for i in range(1, 21)]

    @pytest.mark.parametrize("kind", ["zipf", "poisson"])
    def test_empty_grid_rejected(self, kind):
        with pytest.raises(ValueError, match="empty"):
            parameter_sweep(kind, [], [10], n_samples=10, seed=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown distribution kind"):
            parameter_sweep("uniform", None, [10], n_samples=10, seed=1)


def test_import_leaves_scipy_out(subprocess_env):
    code = "import sys, entangletext; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
