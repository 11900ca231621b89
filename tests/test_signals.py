import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc

from specsense.detectors import FREQ, TIME
from specsense.errors import ConfigError
from specsense.montecarlo import PHASE_EVAL_H0, PHASE_EVAL_H1, TRIAL_CHUNK, observe
from specsense.numerics import stream_seeker
from specsense.signals import (
    AWGN,
    ChannelSpec,
    MODEL,
    NAKAGAMI,
    NoisePrior,
    RAYLEIGH,
    ScenarioConfig,
    SignalSpec,
    WAVEFORM,
    channel_gain,
    draw_noise_power,
    raised_cosine_profile,
)


def make_cfg(snr=1.0, n=20, channel=ChannelSpec(AWGN),
             prior=NoisePrior(k=4, theta=4.0), trials=100, seed=7,
             noise_power=None, source=MODEL):
    spec = SignalSpec.critically_sampled(54_000.0, 0.25, snr)
    return ScenarioConfig(n_samples=n, prior=prior, signal=spec, channel=channel,
                          trials=trials, master_seed=seed,
                          noise_power=noise_power, source=source)


def draw(cfg, domain, phase, trials):
    """`trials` trials of one observation form through the engine."""
    cfg = replace(cfg, trials=trials)
    parts = [observe(cfg, {domain}, phase, block)[0][domain]
             for block in range(-(-trials // TRIAL_CHUNK))]
    if domain == TIME:
        return np.concatenate(parts)
    return tuple(np.concatenate(form) for form in zip(*parts))


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
        a = draw_noise_power(prior, stream_seeker(301)[0], size=1_000_000)
        # E[alpha] = theta/k = 1; Var exists for k >= 3
        sd = math.sqrt(np.var(a) / a.size)
        assert abs(a.mean() - 1.0) < 3 * sd

    def test_all_positive(self):
        a = draw_noise_power(NoisePrior(k=1, theta=1.0), stream_seeker(302)[0], size=1_000_000)
        assert np.all(a > 0)

    def test_precision_median_matches_analytic(self):
        prior = NoisePrior(k=1, theta=1.0)
        lam = 1.0 / draw_noise_power(prior, stream_seeker(303)[0], size=200_000)
        # median of Gamma(2, 1) by bisection on the regularized lower gamma
        lo, hi = 0.0, 20.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if gammainc(2.0, mid) < 0.5:
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
        assert channel_gain(ChannelSpec(AWGN), stream_seeker(1)[0]) == 1.0 + 0.0j

    def test_rayleigh_unit_power(self):
        h = channel_gain(ChannelSpec(RAYLEIGH), stream_seeker(304)[0], size=1_000_000)
        p = np.abs(h) ** 2
        assert abs(p.mean() - 1.0) < 3 * p.std() / math.sqrt(p.size)

    def test_nakagami_one_equals_rayleigh(self):
        nak = channel_gain(ChannelSpec(NAKAGAMI, nakagami_m=1.0),
                           stream_seeker(305)[0], size=100_000)
        ray = channel_gain(ChannelSpec(RAYLEIGH), stream_seeker(306)[0], size=100_000)
        res = stats.ks_2samp(np.abs(nak), np.abs(ray))
        assert res.pvalue > 0.01

    def test_nakagami_unit_power_and_uniform_phase(self):
        h = channel_gain(ChannelSpec(NAKAGAMI, nakagami_m=2.0),
                         stream_seeker(307)[0], size=500_000)
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
    """The engine's time samples, on both sources, against their laws."""

    def test_h0_power(self):
        for source in (MODEL, WAVEFORM):
            cfg = make_cfg(noise_power=1.0, seed=308, source=source)
            total = draw(cfg, TIME, PHASE_EVAL_H0, 5000)
            assert abs(total.mean() - 1.0) < 3 * 1.0 / math.sqrt(total.size), source

    def test_h1_power_additive(self):
        for source in (MODEL, WAVEFORM):
            cfg = make_cfg(snr=1.0, noise_power=1.0, seed=309, source=source)
            total = draw(cfg, TIME, PHASE_EVAL_H1, 5000)
            assert abs(total.mean() - 2.0) < 3 * 2.0 / math.sqrt(total.size), source

    def test_h1_periodogram_matches_profile(self):
        # Excess/in-band signal power ratio of the averaged periodogram
        # should match the shaping profile (5% relative).
        cfg = make_cfg(snr=8.0, noise_power=1.0, seed=310,  # noise bias is small
                       source=WAVEFORM)
        spec = cfg.signal
        x, y = (b.mean(axis=0) for b in draw(cfg, FREQ, PHASE_EVAL_H1, 10_000))
        noise_per_bin = cfg.n_samples * 1.0
        sig_x = x.sum() - x.size * noise_per_bin
        sig_y = y.sum() - y.size * noise_per_bin
        freqs = np.fft.fftfreq(cfg.n_samples, d=1.0 / spec.sample_rate_hz)
        prof = raised_cosine_profile(freqs, spec.bandwidth_hz, spec.rolloff)
        inband, excess = cfg.bands
        expected = prof[excess].sum() / prof[inband].sum()
        assert sig_y / sig_x == pytest.approx(expected, rel=0.05)


class TestGenerateBins:
    """The engine's model-source bins against their laws."""

    def test_h0_means(self):
        cfg = make_cfg(noise_power=1.0, seed=311)
        xs, ys = draw(cfg, FREQ, PHASE_EVAL_H0, 20_000)
        assert abs(xs.mean() - 20.0) < 3 * 20.0 / math.sqrt(xs.size)
        assert abs(ys.mean() - 20.0) < 3 * 20.0 / math.sqrt(ys.size)

    def test_h1_means(self):
        cfg = make_cfg(snr=1.0, noise_power=1.0, seed=312)
        xs, ys = draw(cfg, FREQ, PHASE_EVAL_H1, 20_000)
        assert abs(xs.mean() - 40.0) < 3 * 40.0 / math.sqrt(xs.size)
        assert abs(ys.mean() - 20.0) < 3 * 20.0 / math.sqrt(ys.size)

    def test_cross_path_h0_means_agree(self):
        # Direct bin sampling vs waveform -> FFT -> split, H0.
        cfg = make_cfg(noise_power=1.0, seed=313)
        x, y = draw(cfg, FREQ, PHASE_EVAL_H0, 10_000)
        xw, yw = draw(replace(cfg, source=WAVEFORM), FREQ, PHASE_EVAL_H0, 10_000)
        assert xw.mean() == pytest.approx(x.mean(), rel=0.02)
        assert yw.mean() == pytest.approx(y.mean(), rel=0.02)

    def test_pinned_amplitude_mean(self):
        s = 4.0 + 3.0j
        cfg = replace(make_cfg(snr=1.0, noise_power=1.0, seed=314), pinned_signal=s)
        xs = draw(cfg, FREQ, PHASE_EVAL_H1, 20_000)[0]
        expect = abs(s) ** 2 + 20.0
        assert abs(xs.mean() - expect) < 3 * xs.std() / math.sqrt(xs.size)

    def test_noise_and_signal_bins_uncorrelated(self):
        cfg = make_cfg(snr=1.0, noise_power=1.0, seed=315)
        x, y = draw(cfg, FREQ, PHASE_EVAL_H1, 100_000)
        assert abs(np.corrcoef(x.mean(axis=1), y.mean(axis=1))[0, 1]) < 0.01

    def test_noise_power_scaling(self):
        # the same trials at another pinned noise power scale by it
        cfg = make_cfg(noise_power=1.0, seed=316)
        c = 3.7
        xs1 = draw(cfg, FREQ, PHASE_EVAL_H0, 5000)[0]
        xs2 = draw(replace(cfg, noise_power=c), FREQ, PHASE_EVAL_H0, 5000)[0]
        assert xs2.mean() / xs1.mean() == pytest.approx(c, rel=1e-9)

    def test_h0_identical_across_channels(self):
        # an idle channel reads no channel field: the same bins, bit for bit
        samples = [draw(make_cfg(channel=ch, seed=317), FREQ, PHASE_EVAL_H0, 5000)
                   for ch in (ChannelSpec(AWGN), ChannelSpec(RAYLEIGH))]
        for a, b in zip(*samples):
            assert np.array_equal(a, b)
