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
    spec = SignalSpec(54_000.0, 0.25, snr)
    return ScenarioConfig(n_samples=n, prior=prior, signal=spec, channel=channel,
                          trials=trials, master_seed=seed,
                          noise_power=noise_power, source=source)


def draw(cfg, domain, phase, trials):
    """`trials` trials of one observation form through the engine: sum(r)
    for TIME, the pair (sum(x), sum(y)) for FREQ."""
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
        h2 = channel_gain(ChannelSpec(AWGN), stream_seeker(1)[0], size=(2, 5))
        assert h2.dtype == float
        assert np.array_equal(h2, np.ones((2, 5)))

    def test_rayleigh_unit_power(self):
        h2 = channel_gain(ChannelSpec(RAYLEIGH), stream_seeker(304)[0], size=1_000_000)
        assert h2.dtype == float
        assert abs(h2.mean() - 1.0) < 3 * h2.std() / math.sqrt(h2.size)
        # the power of a unit circular complex Gaussian gain is Exp(1)
        assert stats.kstest(h2[:100_000], stats.expon.cdf).pvalue > 0.01

    def test_nakagami_one_equals_rayleigh(self):
        nak = channel_gain(ChannelSpec(NAKAGAMI, nakagami_m=1.0),
                           stream_seeker(305)[0], size=100_000)
        ray = channel_gain(ChannelSpec(RAYLEIGH), stream_seeker(306)[0], size=100_000)
        res = stats.ks_2samp(nak, ray)
        assert res.pvalue > 0.01

    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_nakagami_power_is_gamma(self, m):
        h2 = channel_gain(ChannelSpec(NAKAGAMI, nakagami_m=m),
                          stream_seeker(307)[0], size=500_000)
        assert abs(h2.mean() - 1.0) < 3 * h2.std() / math.sqrt(h2.size)
        res = stats.kstest(h2[:100_000], stats.gamma(m, scale=1.0 / m).cdf)
        assert res.pvalue > 0.01

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            ChannelSpec(NAKAGAMI, nakagami_m=0.2)
        with pytest.raises(ValueError):
            ChannelSpec(NAKAGAMI)

    @pytest.mark.parametrize("m", [math.inf, math.nan])
    def test_non_finite_m_rejected(self, m):
        with pytest.raises(ConfigError, match="finite nakagami_m"):
            ChannelSpec(NAKAGAMI, nakagami_m=m)

    @pytest.mark.parametrize("kind", [AWGN, RAYLEIGH])
    def test_m_on_other_kind_rejected(self, kind):
        with pytest.raises(ConfigError, match="nakagami_m is set"):
            ChannelSpec(kind, nakagami_m=2.0)


class TestRaisedCosineProfile:
    def test_flat_transition_zero(self):
        b, beta = 54_000.0, 0.25
        assert raised_cosine_profile(0.0, b, beta) == 1.0
        assert raised_cosine_profile(0.3 * b, b, beta) == 1.0
        assert raised_cosine_profile(b / 2, b, beta) == pytest.approx(0.5)
        assert raised_cosine_profile(0.63 * b, b, beta) == 0.0


def assert_mean(sample, want):
    """The sample mean lies within 3 standard errors of `want`."""
    assert abs(sample.mean() - want) < 3 * sample.std() / math.sqrt(sample.size)


class TestGenerateTimeBlock:
    """The engine's sums of squared envelopes, on both sources, against
    their laws: E[sum(r)] = N * alpha * g, with g = 1 + snr on an occupied
    unfaded channel."""

    def test_h0_power(self):
        for source in (MODEL, WAVEFORM):
            cfg = make_cfg(noise_power=1.0, seed=308, source=source)
            sums = draw(cfg, TIME, PHASE_EVAL_H0, 5000)
            assert sums.shape == (5000,)
            assert_mean(sums, 20.0)

    def test_h1_power_additive(self):
        for source in (MODEL, WAVEFORM):
            cfg = make_cfg(snr=1.0, noise_power=1.0, seed=309, source=source)
            assert_mean(draw(cfg, TIME, PHASE_EVAL_H1, 5000), 40.0)

    def test_h1_periodogram_matches_profile(self):
        # Excess/in-band signal power ratio of the averaged periodogram
        # should match the shaping profile (5% relative): the engine's
        # mean bin sums less their noise, L and P bins of power N * alpha
        cfg = make_cfg(snr=8.0, noise_power=1.0, seed=310,  # noise bias is small
                       source=WAVEFORM, trials=10_000)
        spec, geom = cfg.signal, cfg.geometry
        x, y = (sums.mean() for sums in draw(cfg, FREQ, PHASE_EVAL_H1, cfg.trials))
        noise_per_bin = cfg.n_samples * 1.0
        sig_x = x - geom.l_inband * noise_per_bin
        sig_y = y - geom.p_excess * noise_per_bin
        freqs = np.fft.fftfreq(cfg.n_samples, d=1.0 / spec.sample_rate_hz)
        prof = raised_cosine_profile(freqs, spec.bandwidth_hz, spec.rolloff)
        inband, excess = cfg.bands
        expected = prof[excess].sum() / prof[inband].sum()
        assert sig_y / sig_x == pytest.approx(expected, rel=0.05)


class TestBinGroups:
    """The waveform source's bins, grouped by their signal gain."""

    # the ids earlier versions of the suite reported, kept comparable
    @pytest.mark.parametrize("n", [16, 20, 128], ids=["16-None", "20-None", "128-None"])
    def test_groups_count_every_bin_once(self, n):
        cfg = make_cfg(n=n, source=WAVEFORM)
        geom = cfg.geometry
        counts = [c.sum() for c, _ in cfg.bin_groups]
        assert counts == [geom.l_inband, geom.p_excess]
        assert geom.l_inband + geom.p_excess == n
        # the gains average to 1 over the N bins: the signal keeps its power
        assert sum((c * g).sum() for c, g in cfg.bin_groups) == pytest.approx(n)

    def test_critical_in_band_group_counts(self):
        # beta 0.25: symmetric bin pairs share a gain, the flat part is one group
        sizes = [make_cfg(n=n).bin_groups[0][0].size for n in (16, 32, 64, 100, 128)]
        assert sizes == [3, 5, 7, 11, 14]

    def test_flat_mask_is_one_group_per_band(self):
        # a flat mask gives every bin the gain 1, g = 1 + snr |h|^2, so
        # each band is one Gamma sum.  In band that is the model source's
        # law; in the excess band it is not, since the model source's
        # sum(y) carries no signal
        cfg = make_cfg(n=20, source=WAVEFORM)
        cfg.__dict__["shaping"] = np.ones(20)  # fills the cached property
        (l_counts, l_gains), (p_counts, p_gains) = cfg.bin_groups
        assert (l_counts.tolist(), p_counts.tolist()) == ([16], [4])
        assert l_gains.tolist() == p_gains.tolist() == [1.0]



class TestGenerateBins:
    """The engine's model-source bin sums against their laws:
    E[sum(x)] = N * alpha * L * g and E[sum(y)] = N * alpha * P, with
    L = 16 and P = 4 at N = 20."""

    def test_h0_means(self):
        cfg = make_cfg(noise_power=1.0, seed=311)
        xs, ys = draw(cfg, FREQ, PHASE_EVAL_H0, 20_000)
        assert xs.shape == ys.shape == (20_000,)
        assert_mean(xs, 20.0 * 16)
        assert_mean(ys, 20.0 * 4)

    def test_h1_means(self):
        cfg = make_cfg(snr=1.0, noise_power=1.0, seed=312)
        xs, ys = draw(cfg, FREQ, PHASE_EVAL_H1, 20_000)
        assert_mean(xs, 20.0 * 16 * 2.0)
        assert_mean(ys, 20.0 * 4)

    def test_cross_path_h0_means_agree(self):
        # Direct sum sampling vs waveform -> FFT -> split -> sums, H0.
        cfg = make_cfg(noise_power=1.0, seed=313)
        x, y = draw(cfg, FREQ, PHASE_EVAL_H0, 10_000)
        xw, yw = draw(replace(cfg, source=WAVEFORM), FREQ, PHASE_EVAL_H0, 10_000)
        assert xw.mean() == pytest.approx(x.mean(), rel=0.02)
        assert yw.mean() == pytest.approx(y.mean(), rel=0.02)

    def test_noise_and_signal_bins_uncorrelated(self):
        cfg = make_cfg(snr=1.0, noise_power=1.0, seed=315)
        x, y = draw(cfg, FREQ, PHASE_EVAL_H1, 100_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.01

    def test_noise_power_scaling(self):
        # the same trials at another pinned noise power scale by it
        cfg = make_cfg(noise_power=1.0, seed=316)
        c = 3.7
        xs1 = draw(cfg, FREQ, PHASE_EVAL_H0, 5000)[0]
        xs2 = draw(replace(cfg, noise_power=c), FREQ, PHASE_EVAL_H0, 5000)[0]
        assert xs2.mean() / xs1.mean() == pytest.approx(c, rel=1e-9)

    def test_h0_identical_across_channels(self):
        # an idle channel reads no channel field: the same sums, bit for bit
        samples = [draw(make_cfg(channel=ch, seed=317), FREQ, PHASE_EVAL_H0, 5000)
                   for ch in (ChannelSpec(AWGN), ChannelSpec(RAYLEIGH))]
        for a, b in zip(*samples):
            assert np.array_equal(a, b)
