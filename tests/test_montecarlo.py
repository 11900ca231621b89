import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import brentq
from scipy.special import betainc, gammainc

from specsense import montecarlo
from specsense.analysis import pd_alrd1, pfa_alrd2_exact
from specsense.detectors import DETECTORS, FREQ, TIME, mu_glrd1, rho_glrd2
from specsense.errors import ConfigError, NumericFailure
from specsense.montecarlo import (
    KIND_BINS,
    KIND_PRIOR,
    KIND_TIME,
    PHASE_CALIBRATION,
    PHASE_EVAL_H0,
    PHASE_EVAL_H1,
    TRIAL_CHUNK,
    calibrate,
    calibration_cdfs,
    observe,
    roc_sweep_channels,
    stream_index,
    trial_statistics,
    wilson_interval,
)
from specsense.numerics import reg_upper_gamma, stream_seeker
from specsense.observation import band_split_indices
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
    draw_noise_power,
)

PHASES = (PHASE_CALIBRATION, PHASE_EVAL_H0, PHASE_EVAL_H1)
PRIOR = NoisePrior(k=3, theta=3.0)


def make_cfg(snr=1.0, n=20, trials=5000, seed=99,
             channel=ChannelSpec(AWGN), noise_power=None, source="model",
             prior=PRIOR, rate=None):
    """A scenario, critically sampled unless a sample `rate` is given."""
    spec = SignalSpec.critically_sampled(54_000.0, 0.25, snr)
    if rate is not None:
        spec = replace(spec, sample_rate_hz=rate)
    return ScenarioConfig(n_samples=n, prior=prior, signal=spec,
                          channel=channel, trials=trials,
                          master_seed=seed, noise_power=noise_power, source=source)


def kind_generator(seed, phase, block, kind):
    """A generator on the stream of one kind of variate of one block,
    built directly on its Philox key and counter.  The stream index is
    (phase << 40) | (block << 2) | kind, in the upper half of the
    counter; the master seed is the key."""
    index = (phase << 40) | (block << 2) | kind
    mask = (1 << 64) - 1
    return np.random.Generator(np.random.Philox(
        key=np.array([seed & mask, seed >> 64], dtype=np.uint64),
        counter=np.array([0, 0, index & mask, index >> 64], dtype=np.uint64)))


def squared_envelope(z):
    """Elementwise |z(n)|^2 of a complex sample block."""
    return np.abs(z) ** 2


def complex_gaussian(variance, gen, size):
    """Circular complex Gaussian samples with E[|z|^2] = variance, an
    array of shape `size`: real and imaginary parts are independent
    N(0, variance / 2), so |z|^2 is exponential with mean `variance` and
    the phase is uniform."""
    z = gen.standard_normal(2 * int(np.prod(size))).view(complex)
    return math.sqrt(variance / 2.0) * z.reshape(size)


def spectrum_bins(z):
    """Magnitude-squared bins of the unnormalized forward DFT over the
    last axis: sum(w) = N * sum(|z|^2) (Parseval), and white noise of
    per-sample variance a yields i.i.d. exponential bins of mean N * a."""
    return squared_envelope(np.fft.fft(z))


def reference_time_samples(cfg, phase, block, alpha, h):
    """A block's N time samples per trial, for all TRIAL_CHUNK rows:
    white noise of per-sample variance alpha, plus on an occupied
    channel with a nonzero SNR a signal of per-sample power alpha * snr
    times |h|^2.  The model source's signal is white and multiplied by
    the complex gain h; the waveform source's is white symbols shaped by
    `cfg.shaping` and scaled by sqrt(alpha * snr * h / power), with h the
    power gain |h|^2.  `alpha` and `h` are columns."""
    n, snr = cfg.n_samples, cfg.signal.snr_linear
    gen = kind_generator(cfg.master_seed, phase, block, KIND_TIME)
    z = np.sqrt(alpha / 2.0) * gen.standard_normal((TRIAL_CHUNK, 2 * n)).view(complex)
    if phase != PHASE_EVAL_H1 or snr == 0.0:
        return z
    sym = gen.standard_normal((TRIAL_CHUNK, 2 * n)).view(complex)
    if cfg.source == MODEL:
        return h * (np.sqrt(alpha * snr / 2.0) * sym) + z
    mask = cfg.shaping
    power = np.sum(mask**2) / n**2  # E[|s|^2] of the shaped white symbols
    s = np.fft.ifft(mask * (math.sqrt(0.5) * sym), axis=1)
    return np.sqrt(alpha * snr * h / power) * s + z


def power_gain(channel, gen, size):
    """Channel power gains |h|^2: 1 on AWGN, Gamma(m, rate m) on
    Nakagami-m, and Exp(1) (m = 1) on Rayleigh."""
    if channel.kind == AWGN:
        return np.ones(size)
    m = 1.0 if channel.kind == RAYLEIGH else channel.nakagami_m
    return gen.standard_gamma(m, size) / m


def complex_gain(channel, gen, size):
    """Complex channel gains h of the same power law: 1 on AWGN, a unit
    circular complex Gaussian on Rayleigh, and on Nakagami-m an amplitude
    sqrt(Gamma(m, rate m)) with an independent uniform phase."""
    if channel.kind == AWGN:
        return np.ones(size, dtype=complex)
    if channel.kind == RAYLEIGH:
        return complex_gaussian(1.0, gen, size)
    amp = np.sqrt(gen.gamma(channel.nakagami_m, 1.0 / channel.nakagami_m, size))
    return amp * np.exp(1j * gen.uniform(-math.pi, math.pi, size))


def reference_prior(cfg, phase, block, gain=power_gain):
    """A block's noise powers and channel gains for all TRIAL_CHUNK rows,
    from its `KIND_PRIOR` stream.  `gain` draws the gains: `power_gain`,
    the stream layout, gives |h|^2, and `complex_gain` gives h.  An idle
    channel draws no gain, and its gain is None."""
    prior = kind_generator(cfg.master_seed, phase, block, KIND_PRIOR)
    if cfg.noise_power is None:
        alpha = draw_noise_power(cfg.prior, prior, TRIAL_CHUNK)
    else:
        alpha = np.full(TRIAL_CHUNK, cfg.noise_power)
    h = gain(cfg.channel, prior, TRIAL_CHUNK) if phase == PHASE_EVAL_H1 else None
    return alpha, h


def first_rows(cfg, block, obs, alpha):
    """A block's observations and noise powers without the rows past
    cfg.trials."""
    rows = min(TRIAL_CHUNK, cfg.trials - block * TRIAL_CHUNK)
    obs = {k: v[:rows] if k == TIME else tuple(part[:rows] for part in v)
           for k, v in obs.items()}
    return obs, alpha[:rows]


def reference_block(cfg, domains, phase, block):
    """One block's per-sample and per-bin observations and noise powers,
    computed the plain way: a generator built directly on each kind's
    stream, every buffer drawn and every row computed for all TRIAL_CHUNK
    trials, and the rows past cfg.trials dropped at the end.

    This is the per-bin sampler.  On the waveform source it draws the N
    time samples, shapes the signal and takes the FFT and the band split.
    On the model source it draws a complex channel gain (`complex_gain`)
    and the N envelopes and the L + P bins of each trial from the model's
    law.  `observe` replaces both by Gamma sums (and the model's complex
    gain by the power gain): the samplers are held to each other in law
    (`TestSamplersAgree`)."""
    alpha, h = reference_prior(cfg, phase, block,
                               power_gain if cfg.source == WAVEFORM else complex_gain)
    a, hc = alpha[:, None], (None if h is None else h[:, None])

    obs = {}
    if cfg.source == WAVEFORM or TIME in domains:
        z = reference_time_samples(cfg, phase, block, a, hc)
        if TIME in domains:
            obs[TIME] = squared_envelope(z)
        if FREQ in domains and cfg.source == WAVEFORM:
            w = spectrum_bins(z)
            inband, excess = cfg.bands
            # contiguous rows, so that each row sums as it would alone
            obs[FREQ] = w.take(inband, axis=1), w.take(excess, axis=1)
    if FREQ in domains and cfg.source == MODEL:
        gen = kind_generator(cfg.master_seed, phase, block, KIND_BINS)
        geom, scale = cfg.geometry, cfg.n_samples * a
        y = scale * gen.standard_exponential((TRIAL_CHUNK, geom.p_excess))
        if phase != PHASE_EVAL_H1:
            x = scale * gen.standard_exponential((TRIAL_CHUNK, geom.l_inband))
        else:
            def normals():
                return gen.standard_normal((TRIAL_CHUNK, 2 * geom.l_inband)).view(complex)
            v = np.sqrt(scale / 2.0) * normals()
            e = 0.0
            if cfg.signal.snr_linear != 0.0:
                e = hc * (np.sqrt(scale * cfg.signal.snr_linear / 2.0) * normals())
            x = np.abs(e + v) ** 2
        obs[FREQ] = x, y
    return first_rows(cfg, block, obs, alpha)


def reduce_block(block):
    """A per-bin block reduced to the sums `observe` returns: sum(r) per
    trial, and sum(x) and sum(y) per trial."""
    obs, alpha = block
    sums = {k: v.sum(axis=1) if k == TIME else tuple(part.sum(axis=1) for part in v)
            for k, v in obs.items()}
    return sums, alpha


def reference_grouped_sums(cfg, domains, phase, block):
    """The waveform source's sums and noise powers, computed the plain way.

    Each band's bins with equal mask^2 (`cfg.shaping`) form a group, by
    ascending mask^2.  A group of m bins is one Gamma(m) column, drawn for
    all TRIAL_CHUNK trials and scaled on occupied trials with signal by
    g = 1 + snr * |h|^2 * N * mask^2 / sum(mask^2): the discarded groups
    from `KIND_TIME`, then the excess-band and the in-band groups from
    `KIND_BINS`.  A band's row sums times N * alpha are its bin sums, and
    sum(r) is alpha times the three bands' row sums."""
    alpha, h2 = reference_prior(cfg, phase, block)
    n, snr = cfg.n_samples, cfg.signal.snr_linear
    mask2 = cfg.shaping**2
    inband, excess = cfg.bands
    discarded = np.setdiff1d(np.arange(n), np.concatenate([inband, excess]))

    def total(kind_gen, bins):
        values, counts = np.unique(mask2[bins], return_counts=True)
        gam = kind_gen.standard_gamma(counts, (TRIAL_CHUNK, counts.size))
        if phase == PHASE_EVAL_H1 and snr != 0.0:
            gam = gam * (1.0 + snr * h2[:, None]
                         * (n * values / mask2.sum()))
        return gam.sum(axis=1)

    u_d = total(kind_generator(cfg.master_seed, phase, block, KIND_TIME), discarded)
    gen = kind_generator(cfg.master_seed, phase, block, KIND_BINS)
    u_y = total(gen, excess)
    u_x = total(gen, inband)
    obs = {}
    if TIME in domains:
        obs[TIME] = alpha * (u_x + u_y + u_d)
    if FREQ in domains:
        obs[FREQ] = n * alpha * u_x, n * alpha * u_y
    return first_rows(cfg, block, obs, alpha)


def reference_sums(cfg, domains, phase, block):
    """One block's sums and noise powers, computed the plain way; this
    defines the stream layout, and `observe` must match it bit for bit.

    On the waveform source they are `reference_grouped_sums`.  On the
    model source each sum is one Gamma variate, drawn for all TRIAL_CHUNK
    trials: sum(r) = alpha * g * G_N from `KIND_TIME`, then from
    `KIND_BINS` sum(y) = N * alpha * G_P and sum(x) = N * alpha * g * G_L,
    with g = 1 + snr * |h|^2 on occupied trials with signal."""
    if cfg.source == WAVEFORM:
        return reference_grouped_sums(cfg, domains, phase, block)
    alpha, h2 = reference_prior(cfg, phase, block)
    n, snr = cfg.n_samples, cfg.signal.snr_linear
    g = 1.0 + snr * h2 if phase == PHASE_EVAL_H1 and snr != 0.0 else np.ones(TRIAL_CHUNK)
    obs = {}
    if TIME in domains:
        gen = kind_generator(cfg.master_seed, phase, block, KIND_TIME)
        obs[TIME] = alpha * g * gen.standard_gamma(n, TRIAL_CHUNK)
    if FREQ in domains:
        gen = kind_generator(cfg.master_seed, phase, block, KIND_BINS)
        geom, scale = cfg.geometry, n * alpha
        sum_y = scale * gen.standard_gamma(geom.p_excess, TRIAL_CHUNK)
        sum_x = scale * g * gen.standard_gamma(geom.l_inband, TRIAL_CHUNK)
        obs[FREQ] = sum_x, sum_y
    return first_rows(cfg, block, obs, alpha)


def blocks(cfg):
    return range(-(-cfg.trials // TRIAL_CHUNK))


def block_statistics(cfg, names, phase, reference):
    """Statistics of all of cfg's trials, one `reference` block at a time."""
    rows = {name: DETECTORS[name] for name in names}
    domains = {row.domain for row in rows.values()}
    out = {name: [] for name in names}
    for block in blocks(cfg):
        obs, alpha = reference(cfg, domains, phase, block)
        for name, row in rows.items():
            out[name].append(row.statistic(obs[row.domain], alpha, cfg.prior))
    return {name: np.concatenate(parts) for name, parts in out.items()}


def reference_statistics(cfg, names, phase):
    """Statistics of all of cfg's trials from the sums reference, which
    the engine matches bit for bit."""
    return block_statistics(cfg, names, phase, reference_sums)


def per_bin_statistics(cfg, names, phase):
    """Statistics of all of cfg's trials from the per-bin sampler."""
    return block_statistics(cfg, names, phase,
                            lambda *key: reduce_block(reference_block(*key)))


def assert_same_block(got, want):
    (obs, alpha), (ref, ref_alpha) = got, want
    assert np.array_equal(alpha, ref_alpha)
    assert obs.keys() == ref.keys()
    if TIME in ref:
        assert np.array_equal(obs[TIME], ref[TIME])
    if FREQ in ref:
        for g, w in zip(obs[FREQ], ref[FREQ], strict=True):
            assert np.array_equal(g, w)


def roc_sweep(cfg, names, grid):
    """ROC points on cfg's own channel."""
    return roc_sweep_channels(cfg, names, grid, [cfg.channel])[0]


def assert_same_statistics(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


class TestComplexGaussian:
    def test_zero_variance(self):
        z = complex_gaussian(0.0, stream_seeker(1)[0], size=(2, 5))
        assert z.shape == (2, 5) and z.dtype == complex
        assert np.all(z == 0)

    def test_power(self):
        z = complex_gaussian(2.0, stream_seeker(105)[0], size=1_000_000)
        p = np.abs(z) ** 2
        # |z|^2 exponential with mean 2, sd 2
        assert abs(p.mean() - 2.0) < 3 * 2.0 / math.sqrt(p.size)

    def test_phase_uniform(self):
        z = complex_gaussian(1.0, stream_seeker(106)[0], size=200_000)
        phases = np.angle(z)
        counts, _ = np.histogram(phases, bins=16, range=(-math.pi, math.pi))
        res = stats.chisquare(counts)
        assert res.pvalue > 0.01

    def test_magnitude_exponential(self):
        z = complex_gaussian(3.0, stream_seeker(107)[0], size=100_000)
        res = stats.kstest(np.abs(z) ** 2, "expon", args=(0, 3.0))
        assert res.pvalue > 0.01


class TestWilson:
    def test_interval_brackets_rate(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_coverage(self):
        rng = np.random.default_rng(0)
        p, n, covered = 0.3, 400, 0
        for _ in range(1000):
            k = rng.binomial(n, p)
            lo, hi = wilson_interval(k, n)
            covered += lo <= p <= hi
        assert covered >= 930


class TestTrialEngine:
    def test_deterministic(self):
        cfg = make_cfg()
        a = trial_statistics(cfg, ["optimal", "alrd2"], PHASE_EVAL_H1)
        b = trial_statistics(cfg, ["optimal", "alrd2"], PHASE_EVAL_H1)
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_order_independent(self):
        # trial i's statistic does not depend on how many trials run
        small = trial_statistics(make_cfg(trials=10), ["alrd1"], PHASE_EVAL_H0)
        large = trial_statistics(make_cfg(trials=200), ["alrd1"], PHASE_EVAL_H0)
        assert np.array_equal(small["alrd1"], large["alrd1"][:10])

    def test_phases_disjoint(self):
        cfg = make_cfg()
        cal = trial_statistics(cfg, ["alrd1"], PHASE_CALIBRATION)["alrd1"]
        ev = trial_statistics(cfg, ["alrd1"], PHASE_EVAL_H0)["alrd1"]
        assert not np.array_equal(cal, ev)

    def test_unknown_detector(self):
        with pytest.raises(ConfigError):
            trial_statistics(make_cfg(), ["bogus"], PHASE_EVAL_H0)

    def test_zero_snr_hypotheses_indistinguishable(self):
        cfg = make_cfg(snr=0.0, trials=20_000)
        for det in ("alrd1", "alrd2"):
            pfa = np.mean(trial_statistics(cfg, [det], PHASE_EVAL_H0)[det] > 4.0)
            pd = np.mean(trial_statistics(cfg, [det], PHASE_EVAL_H1)[det] > 4.0)
            se = math.sqrt(pfa * (1 - pfa) / cfg.trials
                           + pd * (1 - pd) / cfg.trials)
            assert abs(pd - pfa) <= 3 * se + 1e-12

    def test_zero_threshold_always_decides_h1(self):
        cfg = make_cfg(trials=2000)
        stats = trial_statistics(cfg, ["alrd1"], PHASE_EVAL_H0)["alrd1"]
        assert np.all(stats > 0.0)

    def test_alrd1_fixed_alpha_matches_closed_form(self):
        cfg = make_cfg(trials=100_000, noise_power=1.0)
        stats = trial_statistics(cfg, ["alrd1"], PHASE_EVAL_H0)["alrd1"]
        for eta in (8.0, 10.0, 14.0):
            emp = float(np.mean(stats > eta))
            assert abs(emp - pd_alrd1(20, 1.0, PRIOR, 0.0, eta)) < 0.01

    def test_waveform_source_runs_and_matches_h0_rates(self):
        cfg_m = make_cfg(trials=20_000, noise_power=1.0)
        cfg_w = replace(cfg_m, source=WAVEFORM)
        sm = trial_statistics(cfg_m, ["alrd2"], PHASE_EVAL_H0)["alrd2"]
        sw = trial_statistics(cfg_w, ["alrd2"], PHASE_EVAL_H0)["alrd2"]
        thr = np.quantile(sm, 0.9)
        # same H0 law through either path
        assert abs(np.mean(sw > thr) - 0.1) < 0.01

    @pytest.mark.parametrize("n, rate", [(20, None), (100, None), (37, 90_000.0)])
    def test_waveform_bins_match_split_bands(self, n, rate):
        # the waveform source's bin groups partition the band split's
        # in-band, excess-band and discarded bins (an oversampled block
        # discards some), each group at its bins' gain N mask^2 / sum(mask^2)
        cfg = make_cfg(n=n, source=WAVEFORM, noise_power=1.3, trials=5, rate=rate)
        inband, excess = band_split_indices(n, cfg.signal)
        discarded = np.setdiff1d(np.arange(n), np.concatenate([inband, excess]))
        assert (discarded.size > 0) == (rate is not None)
        gain = n * cfg.shaping**2 / np.sum(cfg.shaping**2)
        for bins, (counts, gains) in zip((inband, excess, discarded), cfg.bin_groups,
                                         strict=True):
            assert counts.sum() == bins.size
            assert np.all(np.diff(gains) > 0)
            assert np.array_equal(np.repeat(gains, counts), np.sort(gain[bins]))
        # the discarded bins lie beyond the shaped band
        assert np.all(cfg.bin_groups[2][1] == 0.0)
        obs, alpha = observe(cfg, {FREQ}, PHASE_EVAL_H1, 0)
        assert np.array_equal(alpha, np.full(5, 1.3))
        assert obs[FREQ][0].shape == obs[FREQ][1].shape == (5,)
        # and the engine computes the grouped-sums reference's statistics
        cfg = replace(cfg, trials=40)
        assert_same_statistics(trial_statistics(cfg, ["alrd2"], PHASE_EVAL_H1),
                               reference_statistics(cfg, ["alrd2"], PHASE_EVAL_H1))

    @pytest.mark.parametrize("source", [MODEL, WAVEFORM])
    def test_h0_phases_ignore_the_channel(self, source):
        # idle-channel trials draw no gain and read no channel field, so
        # the calibration and H0 evaluation phases match on every channel
        names = ["optimal", "alrd1", "alrd2"]
        awgn = make_cfg(trials=300, source=source)
        others = [replace(awgn, channel=ChannelSpec(RAYLEIGH)),
                  replace(awgn, channel=ChannelSpec(NAKAGAMI, nakagami_m=2.0))]
        for phase in (PHASE_CALIBRATION, PHASE_EVAL_H0):
            ref = trial_statistics(awgn, names, phase)
            for cfg in others:
                got = trial_statistics(cfg, names, phase)
                for name in names:
                    assert np.array_equal(got[name], ref[name]), (cfg, phase, name)
        # the occupied phase does read the channel
        h1 = trial_statistics(awgn, ["alrd2"], PHASE_EVAL_H1)["alrd2"]
        for cfg in others:
            assert not np.array_equal(
                trial_statistics(cfg, ["alrd2"], PHASE_EVAL_H1)["alrd2"], h1)


class TestBlockEngine:
    """The block engine against the per-block sums reference, bit for bit."""

    VARIANTS = {
        "awgn": {},
        "rayleigh": {"channel": ChannelSpec(RAYLEIGH)},
        "nakagami": {"channel": ChannelSpec(NAKAGAMI, nakagami_m=2.0)},
        "pinned-noise": {"channel": ChannelSpec(RAYLEIGH), "noise_power": 1.7},
        "zero-snr": {"channel": ChannelSpec(RAYLEIGH), "snr": 0.0},
        "oversampled": {"channel": ChannelSpec(RAYLEIGH), "n": 37, "rate": 90_000.0},
    }

    @pytest.mark.parametrize("names", [["optimal", "alrd1", "alrd2"], ["alrd1"],
                                       ["alrd2"]])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("source", [MODEL, WAVEFORM])
    def test_matches_reference(self, source, variant, names):
        cfg = make_cfg(trials=40, source=source, **self.VARIANTS[variant])
        domains = {DETECTORS[name].domain for name in names}
        for phase in PHASES:
            assert_same_block(observe(cfg, domains, phase, 0),
                              reference_sums(cfg, domains, phase, 0))
            assert_same_statistics(trial_statistics(cfg, names, phase),
                                   reference_statistics(cfg, names, phase))

    @pytest.mark.parametrize("source", [MODEL, WAVEFORM])
    def test_matches_reference_across_chunks(self, source):
        # counts on both sides of every block boundary; each is a prefix
        # of the longest run's reference
        names = ["optimal", "alrd1", "alrd2"]
        counts = [1, TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1, 2 * TRIAL_CHUNK + 3]
        cfg = make_cfg(trials=max(counts), source=source, n=16,
                       channel=ChannelSpec(NAKAGAMI, nakagami_m=2.0))
        for phase in PHASES:
            ref = reference_statistics(cfg, names, phase)
            for count in counts:
                got = trial_statistics(replace(cfg, trials=count), names, phase)
                assert_same_statistics(got, {k: v[:count] for k, v in ref.items()})

    @given(trials=st.integers(1, 2 * TRIAL_CHUNK + 8),
           seed=st.integers(0, (1 << 128) - 1))
    @settings(max_examples=15, deadline=None)
    def test_prefix_stable_across_chunk_boundaries(self, trials, seed):
        names = ["optimal", "alrd2"]
        cfg = make_cfg(trials=trials, seed=seed, channel=ChannelSpec(RAYLEIGH))
        full = replace(cfg, trials=2 * TRIAL_CHUNK + 8)
        part = trial_statistics(cfg, names, PHASE_EVAL_H1)
        assert_same_statistics(part, {k: v[:trials] for k, v in
                                      trial_statistics(full, names, PHASE_EVAL_H1).items()})
        # every block is the reference's block, and its rows are the first
        # rows of the same block of a longer run
        for phase in PHASES:
            for block in blocks(cfg):
                obs, alpha = observe(cfg, {TIME, FREQ}, phase, block)
                assert_same_block((obs, alpha),
                                  reference_sums(cfg, {TIME, FREQ}, phase, block))
                rows = alpha.size
                longer, alpha_longer = observe(full, {TIME, FREQ}, phase, block)
                assert np.array_equal(alpha, alpha_longer[:rows])
                assert np.array_equal(obs[TIME], longer[TIME][:rows])
                for g, w in zip(obs[FREQ], longer[FREQ]):
                    assert np.array_equal(g, w[:rows])

    def test_trial_count_beyond_stream_layout_rejected(self):
        with pytest.raises(ConfigError, match="trial index"):
            trial_statistics(make_cfg(trials=(1 << 48) + 1), ["alrd1"],
                             PHASE_EVAL_H0)
        # a block outside the trials or the stream layout is rejected
        # before any draw
        last = (1 << 48) // TRIAL_CHUNK
        for trials, block in ((5, 1), (5, -1), (1 << 48, last), (1 << 50, last)):
            with pytest.raises(ConfigError, match="block index"):
                observe(make_cfg(trials=trials), {TIME}, PHASE_EVAL_H0, block)
        observe(make_cfg(trials=1 << 48), {TIME}, PHASE_EVAL_H0, last - 1)

    def test_block_failure_reaches_the_caller(self, monkeypatch):
        failure = NumericFailure("block 1 failed")
        observe = montecarlo.observe

        def failing(cfg, domains, phase, block):
            if block == 1:
                raise failure
            return observe(cfg, domains, phase, block)

        monkeypatch.setattr(montecarlo, "observe", failing)
        cfg = make_cfg(trials=2500)
        names = ["optimal", "alrd1", "alrd2"]
        with pytest.raises(NumericFailure) as caught:
            trial_statistics(cfg, names, PHASE_EVAL_H0)
        assert caught.value is failure
        with pytest.raises(NumericFailure) as caught:
            roc_sweep_channels(cfg, names, [0.1], [ChannelSpec(RAYLEIGH)])
        assert caught.value is failure

    @pytest.mark.parametrize("source", [MODEL, WAVEFORM])
    def test_roc_sweep_matches_reference_across_blocks(self, source):
        # 2500 trials: three blocks per phase, the last one short
        names = ["optimal", "alrd1", "alrd2"]
        channels = [ChannelSpec(RAYLEIGH), ChannelSpec(NAKAGAMI, nakagami_m=2.0)]
        grid = [0.05, 0.1, 0.5]
        cfg = make_cfg(trials=2500, source=source, n=16)
        sweeps = roc_sweep_channels(cfg, names, grid, channels)
        cal = reference_statistics(cfg, names, PHASE_CALIBRATION)
        s0 = reference_statistics(cfg, names, PHASE_EVAL_H0)
        for channel, sweep in zip(channels, sweeps, strict=True):
            s1 = reference_statistics(replace(cfg, channel=channel), names,
                                      PHASE_EVAL_H1)
            for name in names:
                ordered = np.sort(cal[name])
                for p, point in zip(grid, sweep[name], strict=True):
                    eta = ordered[math.ceil((1 - Fraction(repr(p))) * cfg.trials) - 1]
                    assert point.threshold == eta
                    assert point.pfa_empirical == np.mean(s0[name] > eta)
                    assert point.pd_empirical == np.mean(s1[name] > eta)


class TestStreamLayout:
    """Properties of the (phase, block, kind) stream layout."""

    NAMES = ["optimal", "alrd1", "glrd1", "alrd2", "glrd2"]

    @given(phases=st.lists(st.sampled_from(PHASES), min_size=2, max_size=2, unique=True),
           block_ids=st.lists(st.integers(0, (1 << 38) - 1), min_size=2, max_size=2),
           kinds=st.lists(st.sampled_from([KIND_PRIOR, KIND_TIME, KIND_BINS]),
                          min_size=2, max_size=2))
    def test_phases_never_share_a_stream(self, phases, block_ids, kinds):
        a, b = (stream_index(*key) for key in zip(phases, block_ids, kinds))
        assert a != b
        assert 0 <= a < 1 << 128 and 0 <= b < 1 << 128

    def test_streams_are_distinct_within_a_phase(self):
        keys = [(phase, block, kind) for phase in PHASES
                for block in (0, 1, 2, (1 << 38) - 1)
                for kind in (KIND_PRIOR, KIND_TIME, KIND_BINS)]
        assert len({stream_index(*key) for key in keys}) == len(keys)

    @pytest.fixture(scope="class")
    def whole_list(self):
        cfgs = {source: make_cfg(trials=TRIAL_CHUNK + 5, source=source,
                                 channel=ChannelSpec(RAYLEIGH))
                for source in (MODEL, WAVEFORM)}
        return cfgs, {(source, phase): trial_statistics(cfg, self.NAMES, phase)
                      for source, cfg in cfgs.items() for phase in PHASES}

    @given(names=st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    @settings(max_examples=10, deadline=None)
    def test_values_do_not_depend_on_the_detector_list(self, whole_list, names):
        cfgs, whole = whole_list
        for (source, phase), want in whole.items():
            got = trial_statistics(cfgs[source], names, phase)
            assert_same_statistics(got, {name: want[name] for name in names})


class TestSamplersAgree:
    """The engine's Gamma sums against the per-bin sampler, in law: a
    two-sample Anderson-Darling test of each detector's statistics, per
    phase, channel and pinned noise power, at fixed, independent seeds.
    On the waveform source the per-bin sampler takes the FFT of shaped
    time samples."""

    NAMES = ["optimal", "alrd1", "alrd2"]
    VARIANTS = {
        "awgn": {},
        "rayleigh": {"channel": ChannelSpec(RAYLEIGH)},
        "nakagami": {"channel": ChannelSpec(NAKAGAMI, nakagami_m=2.0)},
        "pinned-noise": {"channel": ChannelSpec(RAYLEIGH), "noise_power": 1.7},
    }

    def assert_same_law(self, cfg, phase):
        engine = trial_statistics(cfg, self.NAMES, phase)
        per_bin = per_bin_statistics(replace(cfg, master_seed=cfg.master_seed + 1),
                                     self.NAMES, phase)
        for name in self.NAMES:
            with warnings.catch_warnings():
                # the p-value is clipped to [0.001, 0.25], with a warning
                warnings.simplefilter("ignore", UserWarning)
                res = stats.anderson_ksamp([engine[name], per_bin[name]])
            assert res.pvalue > 0.001, (name, res.statistic)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("phase", PHASES)
    def test_same_law_as_the_per_bin_sampler(self, phase, variant):
        self.assert_same_law(replace(make_cfg(trials=5000), **self.VARIANTS[variant]),
                             phase)

    @pytest.mark.parametrize("channel", [ChannelSpec(AWGN), ChannelSpec(RAYLEIGH),
                                         ChannelSpec(NAKAGAMI, nakagami_m=2.0)],
                             ids=lambda ch: ch.kind)
    @pytest.mark.parametrize("n, rate", [(20, None), (128, None), (37, 90_000.0)])
    @pytest.mark.parametrize("phase", PHASES)
    def test_waveform_same_law_as_the_fft_sampler(self, phase, n, rate, channel):
        self.assert_same_law(make_cfg(trials=5000, source=WAVEFORM, n=n, rate=rate,
                                      channel=channel), phase)


class TestExactH0Laws:
    """Calibration-phase statistics against their exact H0 laws
    (Kolmogorov-Smirnov, at a fixed seed)."""

    @pytest.mark.parametrize("source", [MODEL, WAVEFORM])
    @pytest.mark.parametrize("n", [20, 40])
    def test_statistics_follow_their_exact_laws(self, n, source):
        k, theta = PRIOR.k, PRIOR.theta
        cfg = make_cfg(n=n, trials=20_000, source=source,
                       channel=ChannelSpec(RAYLEIGH))
        cal = trial_statistics(cfg, ["optimal", "alrd1"], PHASE_CALIBRATION)
        # sum(r) / alpha ~ Gamma(N); sum(r) / theta = G_N / G_(k+1) under
        # the prior is beta prime (N, k + 1)
        laws = {"optimal": lambda t: gammainc(n, t),
                "alrd1": lambda t: betainc(n, k + 1, t / (1.0 + t))}
        for name, cdf in laws.items():
            assert stats.kstest(cal[name], cdf).pvalue > 0.001, name
        pinned = replace(cfg, noise_power=1.0)
        geom = pinned.geometry
        t = trial_statistics(pinned, ["alrd2"], PHASE_CALIBRATION)["alrd2"]
        res = stats.kstest(t, lambda eta: 1.0 - pfa_alrd2_exact(
            geom.l_inband, geom.p_excess, n, 1.0, theta, eta))
        assert res.pvalue > 0.001


class TestCalibration:
    def test_one_run_for_every_detector(self):
        # every detector's sorted sample comes from the same trials as a
        # joint run
        names = ["optimal", "alrd1", "alrd2"]
        cfg = make_cfg(trials=500)
        cdfs = calibration_cdfs(cfg, names)
        joint = trial_statistics(cfg, names, PHASE_CALIBRATION)
        for name in names:
            assert np.array_equal(cdfs[name], np.sort(joint[name]))

    def test_median_threshold(self):
        cfg = make_cfg(trials=4000)
        thr = calibrate(cfg, ["alrd1"], [0.5])["alrd1"][0]
        stats = trial_statistics(cfg, ["alrd1"], PHASE_CALIBRATION)["alrd1"]
        assert thr == np.sort(stats)[math.ceil(0.5 * stats.size) - 1]

    @pytest.mark.parametrize("trials", [1000, 10_000, 40_000])
    def test_threshold_leaves_floor_p_n_samples_above(self, trials):
        # the presets' target grid, as far as the trial count admits it;
        # in floats, 1.0 - 0.7 = 0.30000000000000004 took one rank too many.
        # A two-sided glrd1's calibration values are its log-GLRs, and its
        # level leaves the same count above it.
        grid = [p for p in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95)
                if p * trials >= 100]
        cfg = replace(make_cfg(trials=trials), glr_two_sided=True)
        cdfs = calibration_cdfs(cfg, ["alrd1", "glrd1"])
        thresholds = calibrate(cfg, ["alrd1", "glrd1"], grid)

        def above(name, eta):
            return int(np.sum(cdfs[name] > eta))

        for p, eta, gamma in zip(grid, thresholds["alrd1"], thresholds["glrd1"],
                                 strict=True):
            mass = Fraction(str(p))
            assert above("alrd1", eta) == math.floor(mass * trials), p
            assert above("glrd1", gamma) == math.floor(mass * trials), p

    def test_requires_enough_trials(self):
        with pytest.raises(ConfigError):
            calibrate(make_cfg(trials=500), ["alrd1"], [0.05])

    @pytest.mark.parametrize("grid, match", [
        ([0.5, 0.1], "ascending"), ([0.0, 0.5], r"\(0, 1\)"),
        ([0.01], "not enough trials"), ([], "must not be empty")])
    def test_bad_grid_rejected_before_any_trial(self, monkeypatch, grid, match):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(montecarlo, "observe", no_trials)
        cfg = replace(make_cfg(trials=2000), glr_two_sided=True)
        names = ["alrd1", "glrd1"]
        with pytest.raises(ConfigError, match=match):
            calibrate(cfg, names, grid)
        with pytest.raises(ConfigError, match=match):
            roc_sweep_channels(cfg, names, grid, [cfg.channel])

    def test_matches_analytic_inversion_at_fixed_alpha(self):
        cfg = make_cfg(trials=100_000, noise_power=1.0)
        target = 0.1
        thr = calibrate(cfg, ["optimal"], [target])["optimal"][0]
        # invert the closed form by bisection
        lo, hi = 0.0, 100.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if reg_upper_gamma(20, mid) > target:
                lo = mid
            else:
                hi = mid
        analytic = (lo + hi) / 2
        # quantile standard error via the statistic's density at the threshold
        dens = math.exp((20 - 1) * math.log(analytic) - analytic
                        - math.lgamma(20))
        se = math.sqrt(target * (1 - target) / cfg.trials) / dens
        assert abs(thr - analytic) < 2 * se

    def test_holdout_pfa_reproduces_target(self):
        cfg = make_cfg(trials=100_000)
        thr = calibrate(cfg, ["alrd2"], [0.1])["alrd2"][0]
        fresh = replace(cfg, master_seed=cfg.master_seed + 1)
        stats = trial_statistics(fresh, ["alrd2"], PHASE_EVAL_H0)["alrd2"]
        assert abs(np.mean(stats > thr) - 0.1) < 0.01

    def test_independent_seed_within_ten_percent(self):
        cfg = make_cfg(trials=100_000)
        grid = [0.05, 0.2]
        for target, thr in zip(grid, calibrate(cfg, ["alrd1"], grid)["alrd1"]):
            fresh = replace(cfg, master_seed=12345)
            stats = trial_statistics(fresh, ["alrd1"], PHASE_EVAL_H0)["alrd1"]
            emp = float(np.mean(stats > thr))
            assert 0.9 * target <= emp <= 1.1 * target

    def test_two_sided_band_mass(self):
        cfg = replace(make_cfg(trials=100_000), glr_two_sided=True)
        gamma = calibrate(cfg, ["glrd1"], [0.1])["glrd1"][0]
        assert gamma > 0  # above log 1, so the band has two finite edges
        fresh = replace(cfg, master_seed=777)
        stats = trial_statistics(fresh, ["glrd1"], PHASE_EVAL_H0)["glrd1"]
        assert abs(np.mean(stats > gamma) - 0.1) < 0.01

    @pytest.mark.parametrize("name", ["glrd1", "glrd2"])
    def test_two_sided_rule_is_the_likelihood_band(self, name):
        # On fresh H0 trials, a log-GLR above the calibrated level gamma is
        # a statistic inside the band (t1, t2) where the GLR exceeds
        # exp(gamma): t1 and t2 are the roots of log_lr - gamma on each side
        # of the peak.  The GLR tends to 1 from above as t grows, so a level
        # at or below 0 leaves t2 infinite, and one below the GLR at t = 0
        # leaves t1 at -inf.
        cfg = replace(make_cfg(trials=20_000), glr_two_sided=True)
        row, geom = DETECTORS[name], cfg.geometry
        peak = (mu_glrd1(cfg.n_samples, PRIOR.k, 1.0) if name == "glrd1" else
                rho_glrd2(geom.l_inband, geom.p_excess, PRIOR.k, 1.0))
        raw = trial_statistics(replace(cfg, glr_two_sided=False), [name],
                               PHASE_EVAL_H0)[name]
        mapped = trial_statistics(cfg, [name], PHASE_EVAL_H0)[name]
        assert np.array_equal(mapped, row.log_lr(cfg, raw))
        grid = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9]
        for p, gamma in zip(grid, calibrate(cfg, [name], grid)[name], strict=True):
            def excess(t):
                return float(row.log_lr(cfg, t)) - gamma

            t1 = brentq(excess, 0.0, peak, xtol=1e-13) if excess(0.0) < 0 else -math.inf
            t2 = math.inf
            if gamma > 0:
                hi = 2.0 * peak
                while excess(hi) > 0:
                    hi *= 2.0
                t2 = brentq(excess, peak, hi, xtol=1e-13)
            assert t1 < peak < t2, p
            assert np.array_equal(mapped > gamma, (t1 < raw) & (raw < t2)), p

    def test_two_sided_level_below_a_deep_peak_is_one_sided(self):
        # with an informative prior the peak sits deep in the H0 tail, above
        # the one-sided threshold; the calibrated level then lies below
        # log 1, the band has no upper edge, and its lower edge is that
        # threshold, so calibration has nothing to warn about
        prior = NoisePrior(k=16, theta=16.0)
        cfg = replace(make_cfg(trials=50_000, prior=prior, noise_power=1.0),
                      glr_two_sided=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma = calibrate(cfg, ["glrd1"], [0.1])["glrd1"][0]
        eta = calibrate(replace(cfg, glr_two_sided=False), ["glrd1"], [0.1])["glrd1"][0]
        assert gamma < 0
        assert eta < mu_glrd1(20, prior.k, 1.0)
        assert gamma == DETECTORS["glrd1"].log_lr(cfg, eta)


class TestRocSweep:
    def test_points_and_monotonicity(self):
        cfg = make_cfg(trials=20_000)
        pts = roc_sweep(cfg, ["alrd2"], [0.01, 0.05, 0.1, 0.3, 0.6])["alrd2"]
        pds = [p.pd_empirical for p in pts]
        for a, b, pa, pb in zip(pts, pts[1:], pds, pds[1:]):
            assert pb >= pa - (a.pd_ci_high - a.pd_ci_low)
        for p in pts:
            assert p.pd_ci_low <= p.pd_empirical <= p.pd_ci_high
            assert abs(p.pfa_empirical - p.pfa_target) < 0.02

    def test_endpoint_target_near_one(self):
        cfg = make_cfg(trials=20_000)
        pts = roc_sweep(cfg, ["alrd1"], [0.99])["alrd1"]
        assert pts[0].pd_empirical > 0.97

    def test_larger_blocks_improve_every_detector(self):
        # Quick version at 2e4 trials: improvement everywhere within noise,
        # clear CI separation for the excess-band detector.  The full
        # separation claim for all detectors runs in the acceptance suite
        # at 1e5 trials, where the traditional detector's small gain
        # resolves.
        grid = [0.02, 0.05, 0.1, 0.2, 0.4]
        detectors = ["optimal", "alrd1", "alrd2"]
        small = roc_sweep(make_cfg(n=20, trials=20_000), detectors, grid)
        large = roc_sweep(make_cfg(n=40, trials=20_000), detectors, grid)
        for det in detectors:
            separated = 0
            for a, b in zip(small[det], large[det]):
                assert b.pd_empirical >= a.pd_empirical - 0.02
                separated += b.pd_ci_low > a.pd_ci_high
            if det == "alrd2":
                assert separated >= 3, det

    def test_grid_validation(self):
        cfg = make_cfg(trials=20_000)
        with pytest.raises(ConfigError):
            roc_sweep(cfg, ["alrd1"], [0.5, 0.1])
        with pytest.raises(ConfigError):
            roc_sweep(cfg, ["alrd1"], [0.0, 0.5])

    def test_shared_h0_phases_match_single_channel_sweeps(self):
        cfg = make_cfg(trials=2000)
        channels = [ChannelSpec(AWGN), ChannelSpec(RAYLEIGH),
                    ChannelSpec(NAKAGAMI, nakagami_m=2.0)]
        names, grid = ["optimal", "alrd2"], [0.05, 0.1, 0.3]
        shared = roc_sweep_channels(cfg, names, grid, channels)
        assert len(shared) == len(channels)
        for channel, points in zip(channels, shared):
            assert points == roc_sweep(replace(cfg, channel=channel), names, grid)

    def test_fading_channels_run(self):
        cfg = make_cfg(trials=5000, channel=ChannelSpec(RAYLEIGH))
        pts = roc_sweep(cfg, ["alrd2"], [0.1, 0.3])["alrd2"]
        assert all(0 <= p.pd_empirical <= 1 for p in pts)

    def test_two_sided_flag_calibrates_band(self):
        cfg = replace(make_cfg(trials=50_000), glr_two_sided=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            banded = roc_sweep(cfg, ["glrd1"], [0.1, 0.3])["glrd1"]
        plain = roc_sweep(replace(cfg, glr_two_sided=False), ["glrd1"],
                          [0.1, 0.3])["glrd1"]
        for b in banded:
            assert abs(b.pfa_empirical - b.pfa_target) < 0.01
        # at 0.1 the level lies above log 1, so the band has an upper edge;
        # at 0.3 it lies below, and the rule is the one-sided rule
        assert banded[0].threshold > 0 > banded[1].threshold
        assert banded[1].threshold == DETECTORS["glrd1"].log_lr(cfg, plain[1].threshold)
        assert banded[1].pd_empirical == plain[1].pd_empirical

    def test_two_sided_is_one_sided_below_a_deep_peak(self):
        # an informative prior puts the peak deep in the H0 tail: every
        # calibrated level lies below log 1, so the rule keeps only its
        # lower edge and decides as the one-sided rule does, silently
        prior = NoisePrior(k=16, theta=16.0)
        cfg = replace(make_cfg(trials=5000, prior=prior, noise_power=1.0),
                      glr_two_sided=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            two = roc_sweep(cfg, ["alrd1", "glrd1"], [0.1, 0.2])
        one = roc_sweep(replace(cfg, glr_two_sided=False), ["glrd1"], [0.1, 0.2])
        assert two["alrd1"] == one["glrd1"]
        for b, o in zip(two["glrd1"], one["glrd1"], strict=True):
            assert b.threshold < 0
            assert b.threshold == DETECTORS["glrd1"].log_lr(cfg, o.threshold)
            assert (b.pfa_empirical, b.pd_empirical) == (o.pfa_empirical, o.pd_empirical)

    @pytest.mark.parametrize("source", [MODEL, WAVEFORM])
    def test_two_sided_pd_non_decreasing_along_the_grid(self, source):
        # the level falls as the target grows, so each H1 region holds the
        # last one and every count can only grow
        cfg = replace(make_cfg(n=100, trials=5000, source=source), glr_two_sided=True)
        grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        for name, points in roc_sweep(cfg, ["glrd1", "glrd2"], grid).items():
            pd = [p.pd_empirical for p in points]
            assert pd == sorted(pd), (name, pd)

    def test_two_sided_accepts_target_095(self):
        # the rule has no budget to split, so any target in (0, 1) calibrates
        cfg = replace(make_cfg(trials=2000), glr_two_sided=True)
        points = roc_sweep(cfg, ["glrd1"], [0.1, 0.95])["glrd1"]
        assert abs(points[1].pfa_empirical - 0.95) < 0.03
        assert calibrate(cfg, ["glrd1"], [0.95])["glrd1"] == [points[1].threshold]
