import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from specsense.errors import ConfigError
from specsense.numerics import complex_gaussian, stream_seeker
from specsense.observation import band_split_indices
from specsense.signals import AWGN, ChannelSpec, NoisePrior, ScenarioConfig, SignalSpec
from test_montecarlo import spectrum_bins, squared_envelope


def critical_spec(n=None, bandwidth=54_000.0, rolloff=0.25):
    return SignalSpec.critically_sampled(bandwidth, rolloff, snr_linear=1.0)


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
        geom = scenario(20, critical_spec()).geometry
        assert (geom.l_inband, geom.p_excess) == (16, 4)

    def test_critical_n40(self):
        inband, excess = band_split_indices(40, critical_spec())
        assert (inband.size, excess.size) == (32, 8)

    def test_band_edges_reference_geometry(self):
        # 54 kHz band at rolloff 0.25: excess band spans 27 kHz..33.75 kHz
        spec = critical_spec()
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
        inband, excess = band_split_indices(n, critical_spec())
        np.testing.assert_array_equal(np.sort(np.concatenate([inband, excess])),
                                      np.arange(n))
        geom = scenario(n, critical_spec()).geometry
        assert geom.l_inband + geom.p_excess == n

    def test_oversampled_discards_outer_bins(self):
        spec = SignalSpec(bandwidth_hz=54_000.0, rolloff=0.25,
                          sample_rate_hz=2.0 * 54_000.0, snr_linear=1.0)
        inband, excess = band_split_indices(40, spec)
        geom = scenario(40, spec).geometry
        assert geom.l_inband + geom.p_excess < 40
        assert (geom.l_inband, geom.p_excess) == (inband.size, excess.size)
        assert np.intersect1d(inband, excess).size == 0

    def test_h0_band_halves_identically_distributed(self):
        spec = critical_spec()
        gen = stream_seeker(204)[0]
        z = complex_gaussian(1.0, gen, size=(6000, 20))
        w = np.abs(np.fft.fft(z, axis=1)) ** 2
        inband, excess = band_split_indices(20, spec)
        res = stats.ks_2samp(w[:, inband].ravel(), w[:, excess].ravel())
        assert res.pvalue > 0.01

    @given(n=st.integers(1, 128),
           rolloff=st.floats(0.0, 1.0, exclude_min=True),
           oversampling=st.floats(1.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_empty_excess_rejected(self, n, rolloff, oversampling):
        # critically sampled up to 4x oversampled: a split either fails or
        # keeps at least one bin on each side, so no band comes out empty
        spec = SignalSpec(54_000.0, rolloff,
                          oversampling * (1.0 + rolloff) * 54_000.0, 1.0)
        try:
            inband, excess = band_split_indices(n, spec)
        except ConfigError:
            return
        assert inband.size >= 1 and excess.size >= 1
        assert np.intersect1d(inband, excess).size == 0

