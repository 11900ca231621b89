import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaincc

from specsense.numerics import q_function, reg_upper_gamma, stream_seeker


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
        want = np.array([reg_upper_gamma(a, b) for a, b in pairs])
        assert np.array_equal(reg_upper_gamma(s, x), want)
        assert np.array_equal(reg_upper_gamma(s[0], x),
                              [reg_upper_gamma(s[0], b) for b in x])  # broadcast
        assert type(reg_upper_gamma(s[0], x[0])) is float

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5),
                                     (float("nan"), 1.0), (1.0, float("nan")),
                                     (float("inf"), 1.0), (1.0, float("inf"))])
    @pytest.mark.parametrize("where", [0, 4, 9])
    def test_one_bad_element_raises(self, bad, where):
        s, x = np.full(10, 3.0), np.linspace(0.0, 9.0, 10)
        s[where], x[where] = bad
        with pytest.raises(ValueError):
            reg_upper_gamma(s, x)
        with pytest.raises(ValueError):
            reg_upper_gamma(s.reshape(2, 5), x.reshape(2, 5))


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


def stream(seed: int, index: int) -> np.random.Generator:
    gen, seek = stream_seeker(seed)
    seek(index)
    return gen


class TestStreamSeeker:
    """The counter-based streams of `stream_seeker`."""

    def test_reproducible(self):
        a = stream(7, 3).standard_normal(16)
        b = stream(7, 3).standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = stream(7, 3).standard_normal(16)
        b = stream(7, 4).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        gen, seek = stream_seeker(11)
        xs, ys = np.empty(4000), np.empty(4000)
        for i in range(4000):
            seek(i)
            xs[i] = gen.standard_normal()
            seek(i + 4000)
            ys[i] = gen.standard_normal()
        assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.05

    def test_negative_index_rejected(self):
        seek = stream_seeker(1)[1]
        for index in (-1, 2**128):
            with pytest.raises(ValueError):
                seek(index)

    def test_master_seed_outside_key_space_rejected(self):
        # the Philox key holds 128 bits: -1 would alias 2**128 - 1, and
        # 5 + 2**128 would alias 5
        stream_seeker(2**128 - 1)[1](2**128 - 1)
        for seed in (-1, 2**128, 5 + 2**128):
            with pytest.raises(ValueError, match="master_seed"):
                stream_seeker(seed)

    @pytest.mark.parametrize("seed", [0, 7, 2**127 + 5])
    def test_seek_matches_philox_built_directly(self, seed):
        # stream i of seed s: Philox keyed by s, with i in the counter's
        # upper half; a fresh generator stands at stream 0
        m = (1 << 64) - 1

        def philox(i):
            return np.random.Generator(np.random.Philox(
                key=[seed & m, seed >> 64], counter=[0, 0, i & m, i >> 64]))

        gen, seek = stream_seeker(seed)
        assert np.array_equal(gen.standard_normal(9), philox(0).standard_normal(9))
        for i in (0, 5, (3 << 48) | 7, 2**64 + 3):
            gen.standard_normal(3)  # leave the generator mid-buffer
            seek(i)
            assert np.array_equal(gen.standard_normal(9), philox(i).standard_normal(9))
