import math

import numpy as np
import pytest
from scipy import stats

from specsense.errors import ConfigError
from specsense.numerics import RngStream, reg_lower_gamma
from specsense.observation import split_bands, spectrum_bins
from specsense.signals import (
    AWGN,
    ChannelSpec,
    NAKAGAMI,
    NoisePrior,
    RAYLEIGH,
    ScenarioConfig,
    SignalSpec,
    channel_gain,
    draw_noise_power,
    generate_bins,
    generate_time_block,
    raised_cosine_profile,
)


def make_cfg(snr=1.0, n=20, channel=ChannelSpec(AWGN),
             prior=NoisePrior(k=4, theta=4.0), trials=100, seed=7):
    spec = SignalSpec.critically_sampled(54_000.0, 0.25, snr)
    return ScenarioConfig(n_samples=n, prior=prior, signal=spec, channel=channel,
                          trials=trials, master_seed=seed)


class TestPriorTypes:
    def test_valid(self):
        p = NoisePrior(k=4, theta=4.0)
        assert p.mean_noise_power == 1.0
        assert p.precision_shape == 5.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            NoisePrior(k=0, theta=1.0)
        with pytest.raises(ValueError):
            NoisePrior(k=2, theta=0.0)

    def test_signal_spec_rate_check(self):
        with pytest.raises(ValueError):
            SignalSpec(bandwidth_hz=54_000.0, rolloff=0.25,
                       sample_rate_hz=54_000.0, snr_linear=1.0)
        with pytest.raises(ValueError):
            SignalSpec(54_000.0, 0.0, 67_500.0, 1.0)

    def test_master_seed_range(self):
        assert make_cfg(seed=2**128 - 1).master_seed == 2**128 - 1
        for seed in (-1, 2**128):
            with pytest.raises(ConfigError, match="master seed"):
                make_cfg(seed=seed)


class TestDrawNoisePower:
    def test_mean_is_theta_over_k(self):
        prior = NoisePrior(k=4, theta=4.0)
        a = draw_noise_power(prior, RngStream(301), size=1_000_000)
        # E[alpha] = theta/k = 1; Var exists for k >= 3
        sd = math.sqrt(np.var(a) / a.size)
        assert abs(a.mean() - 1.0) < 3 * sd

    def test_all_positive(self):
        a = draw_noise_power(NoisePrior(k=1, theta=1.0), RngStream(302), size=1_000_000)
        assert np.all(a > 0)

    def test_precision_median_matches_analytic(self):
        prior = NoisePrior(k=1, theta=1.0)
        lam = 1.0 / draw_noise_power(prior, RngStream(303), size=200_000)
        # median of Gamma(2, 1) by bisection on the regularized lower gamma
        lo, hi = 0.0, 20.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if reg_lower_gamma(2.0, mid) < 0.5:
                lo = mid
            else:
                hi = mid
        analytic = (lo + hi) / 2
        emp = np.median(lam)
        # standard error of the sample median via density at the median
        dens = analytic * math.exp(-analytic)
        se = 1.0 / (2 * dens * math.sqrt(lam.size))
        assert abs(emp - analytic) < 4 * se


class TestChannelGain:
    def test_awgn_is_unity(self):
        assert channel_gain(ChannelSpec(AWGN), RngStream(1)) == 1.0 + 0.0j

    def test_rayleigh_unit_power(self):
        h = channel_gain(ChannelSpec(RAYLEIGH), RngStream(304), size=1_000_000)
        p = np.abs(h) ** 2
        assert abs(p.mean() - 1.0) < 3 * p.std() / math.sqrt(p.size)

    def test_nakagami_one_equals_rayleigh(self):
        nak = channel_gain(ChannelSpec(NAKAGAMI, nakagami_m=1.0),
                           RngStream(305), size=100_000)
        ray = channel_gain(ChannelSpec(RAYLEIGH), RngStream(306), size=100_000)
        res = stats.ks_2samp(np.abs(nak), np.abs(ray))
        assert res.pvalue > 0.01

    def test_nakagami_unit_power_and_uniform_phase(self):
        h = channel_gain(ChannelSpec(NAKAGAMI, nakagami_m=2.0),
                         RngStream(307), size=500_000)
        p = np.abs(h) ** 2
        assert abs(p.mean() - 1.0) < 3 * p.std() / math.sqrt(p.size)
        counts, _ = np.histogram(np.angle(h), bins=16, range=(-math.pi, math.pi))
        assert stats.chisquare(counts).pvalue > 0.01

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            ChannelSpec(NAKAGAMI, nakagami_m=0.2)
        with pytest.raises(ValueError):
            ChannelSpec(NAKAGAMI)


class TestRaisedCosineProfile:
    def test_flat_transition_zero(self):
        b, beta = 54_000.0, 0.25
        assert raised_cosine_profile(0.0, b, beta) == 1.0
        assert raised_cosine_profile(0.3 * b, b, beta) == 1.0
        assert raised_cosine_profile(b / 2, b, beta) == pytest.approx(0.5)
        assert raised_cosine_profile(0.63 * b, b, beta) == 0.0


class TestGenerateTimeBlock:
    def test_h0_power(self):
        cfg = make_cfg()
        gen = RngStream(308).generator()
        total = np.concatenate([
            np.abs(generate_time_block(cfg, 1.0, None, gen)) ** 2
            for _ in range(5000)])
        assert abs(total.mean() - 1.0) < 3 * 1.0 / math.sqrt(total.size)

    def test_h1_power_additive(self):
        cfg = make_cfg(snr=1.0)
        gen = RngStream(309).generator()
        total = np.concatenate([
            np.abs(generate_time_block(cfg, 1.0, 1.0 + 0j, gen)) ** 2
            for _ in range(5000)])
        assert abs(total.mean() - 2.0) < 3 * 2.0 / math.sqrt(total.size)

    def test_h1_periodogram_matches_profile(self):
        # Excess/in-band signal power ratio of the averaged periodogram
        # should match the shaping profile (5% relative).
        cfg = make_cfg(snr=8.0)  # strong signal so noise bias is small
        spec = cfg.signal
        gen = RngStream(310).generator()
        acc = np.zeros(cfg.n_samples)
        blocks = 10_000
        for _ in range(blocks):
            z = generate_time_block(cfg, 1.0, 1.0 + 0j, gen)
            acc += spectrum_bins(z)
        x, y, _ = split_bands(acc / blocks, spec)
        noise_per_bin = cfg.n_samples * 1.0
        sig_x = x.sum() - x.size * noise_per_bin
        sig_y = y.sum() - y.size * noise_per_bin
        freqs = np.fft.fftfreq(cfg.n_samples, d=1.0 / spec.sample_rate_hz)
        prof = raised_cosine_profile(freqs, spec.bandwidth_hz, spec.rolloff)
        px, py, _ = split_bands(prof, spec)
        expected = py.sum() / px.sum()
        assert sig_y / sig_x == pytest.approx(expected, rel=0.05)


class TestGenerateBins:
    def test_h0_means(self):
        cfg = make_cfg()
        gen = RngStream(311).generator()
        xs, ys = [], []
        for _ in range(20_000):
            x, y = generate_bins(cfg, 1.0, None, gen)
            xs.append(x)
            ys.append(y)
        xs, ys = np.concatenate(xs), np.concatenate(ys)
        assert abs(xs.mean() - 20.0) < 3 * 20.0 / math.sqrt(xs.size)
        assert abs(ys.mean() - 20.0) < 3 * 20.0 / math.sqrt(ys.size)

    def test_h1_means(self):
        cfg = make_cfg(snr=1.0)
        gen = RngStream(312).generator()
        xs, ys = [], []
        for _ in range(20_000):
            x, y = generate_bins(cfg, 1.0, 1.0 + 0j, gen)
            xs.append(x)
            ys.append(y)
        xs, ys = np.concatenate(xs), np.concatenate(ys)
        assert abs(xs.mean() - 40.0) < 3 * 40.0 / math.sqrt(xs.size)
        assert abs(ys.mean() - 20.0) < 3 * 20.0 / math.sqrt(ys.size)

    def test_cross_path_h0_means_agree(self):
        # Direct bin sampling vs waveform -> FFT -> split, H0.
        cfg = make_cfg()
        gen = RngStream(313).generator()
        mx_direct, my_direct, mx_wave, my_wave = [], [], [], []
        for _ in range(10_000):
            x, y = generate_bins(cfg, 1.0, None, gen)
            mx_direct.append(x.mean())
            my_direct.append(y.mean())
            z = generate_time_block(cfg, 1.0, None, gen)
            xw, yw, _ = split_bands(spectrum_bins(z), cfg.signal)
            mx_wave.append(xw.mean())
            my_wave.append(yw.mean())
        assert np.mean(mx_wave) == pytest.approx(np.mean(mx_direct), rel=0.02)
        assert np.mean(my_wave) == pytest.approx(np.mean(my_direct), rel=0.02)

    def test_pinned_amplitude_mean(self):
        cfg = make_cfg(snr=1.0)
        gen = RngStream(314).generator()
        s = 4.0 + 3.0j
        xs = np.concatenate([
            generate_bins(cfg, 1.0, 1.0 + 0j, gen, s_amp=s)[0]
            for _ in range(20_000)])
        expect = abs(s) ** 2 + 20.0
        assert abs(xs.mean() - expect) < 3 * xs.std() / math.sqrt(xs.size)

    def test_noise_and_signal_bins_uncorrelated(self):
        cfg = make_cfg(snr=1.0, trials=1)
        gen = RngStream(315).generator()
        mx = np.empty(100_000)
        my = np.empty(100_000)
        for i in range(mx.size):
            x, y = generate_bins(cfg, 1.0, 1.0 + 0j, gen)
            mx[i] = x.mean()
            my[i] = y.mean()
        assert abs(np.corrcoef(mx, my)[0, 1]) < 0.01

    def test_noise_power_scaling(self):
        cfg = make_cfg()
        c = 3.7
        xs1 = np.concatenate([generate_bins(cfg, 1.0, None,
                                            RngStream(316, i).generator())[0]
                              for i in range(5000)])
        xs2 = np.concatenate([generate_bins(cfg, c, None,
                                            RngStream(316, i).generator())[0]
                              for i in range(5000)])
        assert xs2.mean() / xs1.mean() == pytest.approx(c, rel=1e-9)

    def test_h0_identical_across_channels(self):
        gens = RngStream(317).generator()
        samples = {}
        for name, ch in (("awgn", ChannelSpec(AWGN)),
                         ("rayleigh", ChannelSpec(RAYLEIGH))):
            cfg = make_cfg(channel=ch)
            samples[name] = np.concatenate([
                generate_bins(cfg, 1.0, None, gens)[0] for _ in range(5000)])
        res = stats.ks_2samp(samples["awgn"], samples["rayleigh"])
        assert res.pvalue > 0.01
