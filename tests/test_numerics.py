import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import gammaincc

from specsense.numerics import (
    RngStream,
    complex_gaussian,
    gamma_sample,
    q_function,
    reg_lower_gamma,
    reg_upper_gamma,
)


def quad_upper_gamma(s: float, x: float) -> float:
    """Independent oracle: adaptive quadrature of the tail integral."""
    val, err = integrate.quad(lambda t: t ** (s - 1) * math.exp(-t), x, np.inf,
                              epsabs=0, epsrel=1e-12, limit=200)
    return val / math.gamma(s)


class TestRegUpperGamma:
    def test_at_zero(self):
        assert reg_upper_gamma(1.0, 0.0) == 1.0
        assert reg_upper_gamma(17.3, 0.0) == 1.0

    def test_shape_one_closed_form(self):
        # Q(1, x) = exp(-x)
        assert reg_upper_gamma(1.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-12)

    def test_against_quadrature(self):
        for s, x in [(20.0, 20.0), (0.5, 0.2), (3.0, 7.5), (35.0, 20.0),
                     (2.0, 40.0), (12.5, 12.0)]:
            assert reg_upper_gamma(s, x) == pytest.approx(
                quad_upper_gamma(s, x), rel=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = float(rng.uniform(0.1, 80.0))
            x = float(rng.uniform(0.0, 120.0))
            assert reg_upper_gamma(s, x) == pytest.approx(
                float(gammaincc(s, x)), rel=1e-11, abs=1e-300)

    def test_lower_complements_upper(self):
        for s, x in [(4.0, 2.0), (20.0, 30.0), (0.7, 0.1)]:
            assert reg_lower_gamma(s, x) + reg_upper_gamma(s, x) == pytest.approx(1.0)

    @given(s=st.floats(0.1, 60.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_x_and_bounded(self, s):
        xs = np.linspace(0.0, 5 * s + 10, 60)
        vals = [reg_upper_gamma(s, x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0
        assert vals[-1] < 0.05

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_upper_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_upper_gamma(-2.0, 1.0)
        with pytest.raises(ValueError):
            reg_upper_gamma(1.0, -0.5)
        with pytest.raises(ValueError):
            reg_upper_gamma(float("nan"), 1.0)
        with pytest.raises(ValueError):
            reg_upper_gamma(1.0, float("inf"))

    @given(st.lists(st.tuples(st.floats(0.1, 80.0), st.floats(0.0, 120.0)),
                    min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_elementwise_equals_scalar_calls(self, pairs):
        s, x = np.array(pairs).T
        for fn in (reg_upper_gamma, reg_lower_gamma):
            want = np.array([fn(a, b) for a, b in pairs])
            assert np.array_equal(fn(s, x), want)
            assert np.array_equal(fn(s[0], x), [fn(s[0], b) for b in x])  # broadcast
            assert type(fn(s[0], x[0])) is float

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5),
                                     (float("nan"), 1.0), (1.0, float("nan")),
                                     (float("inf"), 1.0), (1.0, float("inf"))])
    @pytest.mark.parametrize("where", [0, 4, 9])
    def test_one_bad_element_raises(self, bad, where):
        s, x = np.full(10, 3.0), np.linspace(0.0, 9.0, 10)
        s[where], x[where] = bad
        for fn in (reg_upper_gamma, reg_lower_gamma):
            with pytest.raises(ValueError):
                fn(s, x)
            with pytest.raises(ValueError):
                fn(s.reshape(2, 5), x.reshape(2, 5))


class TestQFunction:
    def test_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_far_tail(self):
        assert q_function(10.0) < 1e-20

    def test_reference_value(self):
        # high-precision oracle via mpmath's erfc
        import mpmath
        oracle = float(0.5 * mpmath.erfc(1.6449 / mpmath.sqrt(2)))
        assert q_function(1.6449) == pytest.approx(oracle, abs=1e-12)
        assert q_function(1.6449) == pytest.approx(0.05, abs=1e-4)

    def test_symmetry(self):
        for z in (-3.0, -0.4, 0.9, 2.5):
            assert q_function(z) + q_function(-z) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            q_function(float("nan"))


class TestGammaSample:
    def test_mean_and_variance(self):
        draws = gamma_sample(3.0, 2.0, RngStream(101), size=1_000_000)
        n = draws.size
        # mean  3/2, variance 3/4
        se_mean = math.sqrt(0.75 / n)
        assert abs(draws.mean() - 1.5) < 3 * se_mean
        var = draws.var(ddof=1)
        se_var = math.sqrt(np.var((draws - draws.mean()) ** 2) / n)
        assert abs(var - 0.75) < 3 * se_var

    def test_ks_against_analytic_cdf(self):
        draws = gamma_sample(2.5, 1.7, RngStream(102), size=100_000)
        res = stats.kstest(draws, lambda t: np.vectorize(reg_lower_gamma)(2.5, 1.7 * t))
        assert res.pvalue > 0.01

    def test_integer_shape_equals_sum_of_units(self):
        n = 3
        a = gamma_sample(float(n), 1.0, RngStream(103), size=100_000)
        g = RngStream(104).generator()
        b = gamma_sample(1.0, 1.0, g, size=(100_000, n)).sum(axis=1)
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_sample(0.0, 1.0, RngStream(1))
        with pytest.raises(ValueError):
            gamma_sample(1.0, -1.0, RngStream(1))


class TestComplexGaussian:
    def test_zero_variance(self):
        assert complex_gaussian(0.0, RngStream(1)) == 0j
        z = complex_gaussian(0.0, RngStream(1), size=5)
        assert np.all(z == 0)

    def test_power(self):
        z = complex_gaussian(2.0, RngStream(105), size=1_000_000)
        p = np.abs(z) ** 2
        # |z|^2 exponential with mean 2, sd 2
        assert abs(p.mean() - 2.0) < 3 * 2.0 / math.sqrt(p.size)

    def test_phase_uniform(self):
        z = complex_gaussian(1.0, RngStream(106), size=200_000)
        phases = np.angle(z)
        counts, _ = np.histogram(phases, bins=16, range=(-math.pi, math.pi))
        res = stats.chisquare(counts)
        assert res.pvalue > 0.01

    def test_magnitude_exponential(self):
        z = complex_gaussian(3.0, RngStream(107), size=100_000)
        res = stats.kstest(np.abs(z) ** 2, "expon", args=(0, 3.0))
        assert res.pvalue > 0.01


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(7, 3).generator().standard_normal(16)
        b = RngStream(7, 3).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(7, 3).generator().standard_normal(16)
        b = RngStream(7, 4).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        xs = np.array([RngStream(11, i).generator().standard_normal() for i in range(4000)])
        ys = np.array([RngStream(11, i + 4000).generator().standard_normal() for i in range(4000)])
        assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.05

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1, -1)

    def test_master_seed_outside_key_space_rejected(self):
        # the Philox key holds 128 bits: -1 would alias 2**128 - 1, and
        # 5 + 2**128 would alias 5
        RngStream(2**128 - 1).generator()
        for seed in (-1, 2**128, 5 + 2**128):
            with pytest.raises(ValueError, match="master_seed"):
                RngStream(seed)
