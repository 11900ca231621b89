import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from specsense.numerics import stream_seeker
from specsense.observation import band_split_indices
from specsense.signals import AWGN, ChannelSpec, NoisePrior, ScenarioConfig, SignalSpec
from test_montecarlo import complex_gaussian, spectrum_bins, squared_envelope


def make_spec(rolloff=0.25):
    return SignalSpec(54_000.0, rolloff, snr_linear=1.0)


# The per-bin reference sampler's building blocks (test_montecarlo).
class TestSquaredEnvelope:
    def test_zeros(self):
        assert np.all(squared_envelope(np.zeros(8, dtype=complex)) == 0)

    def test_pythagorean_sample(self):
        r = squared_envelope(np.array([3 + 4j]))
        assert r[0] == pytest.approx(25.0)

    def test_noise_mean(self):
        gen = stream_seeker(201)[0]
        z = complex_gaussian(1.0, gen, size=(5000, 20))
        r = squared_envelope(z)
        assert abs(r.mean() - 1.0) < 3 * 1.0 / np.sqrt(r.size)


class TestSpectrumBins:
    def test_zeros(self):
        assert np.all(spectrum_bins(np.zeros(16, dtype=complex)) == 0)

    def test_impulse_flat(self):
        z = np.zeros(20, dtype=complex)
        z[0] = 1.0
        np.testing.assert_allclose(spectrum_bins(z), np.ones(20))

    def test_parseval(self):
        gen = stream_seeker(202)[0]
        z = complex_gaussian(2.0, gen, size=31)
        w = spectrum_bins(z)
        ratio = w.sum() / (z.size * (np.abs(z) ** 2).sum())
        assert ratio == pytest.approx(1.0, rel=1e-9)

    def test_white_noise_bins_exponential(self):
        gen = stream_seeker(203)[0]
        alpha, n = 1.3, 20
        z = complex_gaussian(alpha, gen, size=(5000, n))
        w = np.abs(np.fft.fft(z, axis=1)) ** 2
        res = stats.kstest(w.ravel(), "expon", args=(0, n * alpha))
        assert res.pvalue > 0.01


def scenario(n, spec):
    return ScenarioConfig(n_samples=n, prior=NoisePrior(k=3, theta=3.0), signal=spec,
                          channel=ChannelSpec(AWGN), trials=1, master_seed=0)


class TestSplitBands:
    def test_critical_n20(self):
        geom = scenario(20, make_spec()).geometry
        assert (geom.l_inband, geom.p_excess) == (16, 4)

    def test_critical_n40(self):
        inband, excess = band_split_indices(40, make_spec())
        assert (inband.size, excess.size) == (32, 8)

    def test_band_edges_reference_geometry(self):
        # 54 kHz band at rolloff 0.25: excess band spans 27 kHz..33.75 kHz
        spec = make_spec()
        assert spec.bandwidth_hz / 2 == pytest.approx(27_000.0)
        assert (1 + spec.rolloff) * spec.bandwidth_hz / 2 == pytest.approx(33_750.0)
        inband, excess = band_split_indices(20, spec)
        freqs = np.fft.fftfreq(20, d=1.0 / spec.sample_rate_hz)
        assert np.max(np.abs(freqs[inband])) <= 27_000.0 + 1e-6
        assert np.max(np.abs(freqs[excess])) <= 33_750.0 + 1e-6
        assert np.min(np.abs(freqs[excess])) >= 27_000.0 - 1e-6

    @given(n=st.integers(6, 64))
    @settings(max_examples=30, deadline=None)
    def test_partition_exact(self, n):
        # critically sampled: every bin lands in exactly one side
        inband, excess = band_split_indices(n, make_spec())
        np.testing.assert_array_equal(np.sort(np.concatenate([inband, excess])),
                                      np.arange(n))
        geom = scenario(n, make_spec()).geometry
        assert geom.l_inband + geom.p_excess == n

    def test_h0_band_halves_identically_distributed(self):
        spec = make_spec()
        gen = stream_seeker(204)[0]
        z = complex_gaussian(1.0, gen, size=(6000, 20))
        w = np.abs(np.fft.fft(z, axis=1)) ** 2
        inband, excess = band_split_indices(20, spec)
        res = stats.ks_2samp(w[:, inband].ravel(), w[:, excess].ravel())
        assert res.pvalue > 0.01

    @given(n=st.integers(2, 300), rolloff=st.floats(0.0, 1.0, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_empty_excess_rejected(self, n, rolloff):
        # no band comes out empty: every bin lands in one band, and the
        # in-band bins are the L = round(N / (1 + rolloff)) nearest DC,
        # clamped to [1, N - 1], the negative frequency first on ties
        inband, excess = band_split_indices(n, make_spec(rolloff=rolloff))
        assert inband.size >= 1 and excess.size >= 1
        assert inband.size == min(max(round(n / (1 + rolloff)), 1), n - 1)
        np.testing.assert_array_equal(np.sort(np.concatenate([inband, excess])),
                                      np.arange(n))
        k = np.rint(np.fft.fftfreq(n) * n)  # signed bin frequencies
        assert max((abs(k[i]), k[i]) for i in inband) < min((abs(k[i]), k[i])
                                                               for i in excess)
