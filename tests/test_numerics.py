import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from specsense.analysis import pd_alrd2_clt, pd_opt
from specsense.numerics import stream_seeker


class TestRegUpperGamma:
    """The regularized upper incomplete gamma Q(N, x) as the closed forms
    evaluate it: `pd_opt(N, alpha, snr, eta)` is Q(N, eta/(alpha*(1+snr)))."""

    def test_at_zero(self):
        assert pd_opt(1, 1.0, 0.0, 0.0) == 1.0
        assert pd_opt(17, 2.5, 0.3, 0.0) == 1.0

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 81))
            alpha, snr = float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.0, 10.0))
            x = float(rng.uniform(0.0, 120.0))
            eta = x * alpha * (1.0 + snr)
            assert pd_opt(n, alpha, snr, eta) == pytest.approx(
                float(gammaincc(n, eta / (alpha * (1.0 + snr)))), rel=1e-11, abs=1e-300)

    @given(n=st.integers(1, 80),
           pairs=st.lists(st.tuples(st.floats(0.1, 5.0), st.floats(0.0, 120.0)),
                          min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_elementwise_equals_scalar_calls(self, n, pairs):
        alpha, eta = np.array(pairs).T
        want = np.array([pd_opt(n, a, 0.5, e) for a, e in pairs])
        assert np.array_equal(pd_opt(n, alpha, 0.5, eta), want)
        assert np.array_equal(pd_opt(n, alpha[0], 0.5, eta),
                              [pd_opt(n, alpha[0], 0.5, e) for e in eta])  # broadcast
        assert type(pd_opt(n, alpha[0], 0.5, eta[0])) is float

    # each (alpha, eta) makes the tail argument eta/alpha negative or non-finite
    @pytest.mark.parametrize("bad", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5),
                                     (float("nan"), 1.0), (1.0, float("nan")),
                                     (float("inf"), float("inf")), (1.0, float("inf"))])
    @pytest.mark.parametrize("where", [0, 4, 9])
    def test_one_bad_element_raises(self, bad, where):
        alpha, eta = np.full(10, 3.0), np.linspace(0.0, 9.0, 10)
        alpha[where], eta[where] = bad
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                pd_opt(3, alpha, 0.0, eta)
            with pytest.raises(ValueError):
                pd_opt(3, alpha.reshape(2, 5), 0.0, eta.reshape(2, 5))


class TestQFunction:
    """The standard Gaussian tail Q(z) = erfc(z/sqrt(2))/2 that
    `pd_alrd2_clt` evaluates."""

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            pd_alrd2_clt(16, 4, 20, 1.0, 1.0, 0.0, math.nan)
        with pytest.raises(ValueError):
            pd_alrd2_clt(16, 4, 20, 1.0, math.nan, 0.0, 2.0)


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
