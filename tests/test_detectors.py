import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc

from specsense.errors import ConfigError
from specsense.detectors import (
    DETECTORS,
    FREQ,
    TIME,
    detector,
    log_glrd1,
    mu_glrd1,
)
from specsense.numerics import stream_seeker
from specsense.signals import ChannelSpec, NoisePrior, ScenarioConfig, SignalSpec

PRIOR = NoisePrior(k=4, theta=2.0)


def statistic(name, obs, alpha=1.0, prior=PRIOR):
    """Detector `name`'s statistic of the sums `obs`: sum(r), or the pair
    (sum(x), sum(y))."""
    return DETECTORS[name].statistic(obs, alpha, prior)


class TestEnergyStatistics:
    def test_t_opt_zeros_and_ones(self):
        # the optimal statistic is the energy sum over the true noise power
        assert statistic("optimal", np.zeros(20).sum()) == 0.0
        assert statistic("optimal", np.ones(20).sum()) == 20.0
        assert statistic("optimal", np.ones(20).sum(), alpha=2.0) == 10.0

    def test_t_opt_h0_distribution(self):
        # Under H0 the sum of N squared envelopes is Gamma(N, scale alpha),
        # so the optimal statistic is Gamma(N, scale 1).
        rng = stream_seeker(401)[0]
        n, alpha = 20, 1.3
        z = math.sqrt(alpha / 2) * (rng.standard_normal((100_000, n))
                                    + 1j * rng.standard_normal((100_000, n)))
        t = statistic("optimal", (np.abs(z) ** 2).sum(axis=1), alpha)
        res = stats.kstest(t, lambda t: gammainc(n, t))
        assert res.pvalue > 0.01

    def test_t_alrd1_is_scaled_energy(self):
        assert statistic("alrd1", np.full(20, 1.0).sum(),
                         prior=NoisePrior(k=1, theta=2.0)) == pytest.approx(10.0)
        rng = stream_seeker(402)[0]
        for _ in range(50):
            sum_r = rng.exponential(1.0, 20).sum()
            assert statistic("alrd1", sum_r) == pytest.approx(sum_r / PRIOR.theta)

    def test_order_preserved(self):
        rng = stream_seeker(403)[0]
        a = [rng.exponential(1.0, 20).sum() for _ in range(200)]
        b = [statistic("alrd1", x) for x in a]
        assert np.array_equal(np.argsort(a), np.argsort(b))


class TestExcessBandStatistics:
    def test_t_alrd2_arithmetic(self):
        xy = np.ones(16).sum(), np.ones(4).sum()
        assert statistic("alrd2", xy, prior=NoisePrior(k=1, theta=1.0)) == pytest.approx(3.2)

    def test_large_excess_energy_drives_to_zero(self):
        assert statistic("alrd2", (np.ones(16).sum(), np.full(4, 1e12).sum())) < 1e-10

    def test_phi_equivalent_to_ratio_rule(self):
        # the alrd2 statistic exceeds eta iff the linearized form
        # sum(x) - eta*sum(y) exceeds eta * theta, trial by trial
        rng = stream_seeker(404)[0]
        eta = 3.7
        for _ in range(100_000 // 100):
            x = rng.exponential(20.0, (100, 16)).sum(axis=-1)
            y = rng.exponential(20.0, (100, 4)).sum(axis=-1)
            left = statistic("alrd2", (x, y)) > eta
            right = x - eta * y > eta * PRIOR.theta
            assert np.array_equal(left, right)


def grid_argmax(fn, hi, step):
    grid = np.arange(step, hi, step)
    return grid[np.argmax(fn(grid))]


def scenario(snr=1.0, prior=PRIOR, n_samples=20):
    """By default N 20, critically sampled: L 16 in-band and P 4 excess
    bins."""
    return ScenarioConfig(n_samples, prior, SignalSpec(54_000.0, 0.25, snr),
                          ChannelSpec(), trials=1, master_seed=1)


class TestGlrExtrema:
    def test_mu_reference_value(self):
        assert mu_glrd1(20, 4, 1.0) == pytest.approx(16.346, abs=5e-4)

    def test_mu_is_argmax(self):
        for n, k, g in [(20, 4, 1.0), (40, 2, 0.5), (12, 8, 2.0)]:
            mu = mu_glrd1(n, k, g)
            star = grid_argmax(lambda t: log_glrd1(t, n, k, g), 4 * mu, 1e-3)
            assert abs(star - mu) < 2e-3

    def test_mu_increases_with_snr(self):
        mus = [mu_glrd1(20, 4, g) for g in np.linspace(0.05, 4.0, 25)]
        assert all(a < b for a, b in zip(mus, mus[1:]))

    def test_mu_rejects_k_zero(self):
        with pytest.raises(ValueError):
            mu_glrd1(20, 0, 1.0)

    # the frequency-domain GLR is the time-domain one on the L in-band
    # bins at the excess band's posterior: (L, k + P) in place of (N, k)

    def test_rho_is_argmax(self):
        for l, p, k, g in [(16, 4, 4, 1.0), (32, 8, 2, 0.7), (10, 3, 6, 2.5)]:
            rho = mu_glrd1(l, k + p, g)
            star = grid_argmax(lambda t: log_glrd1(t, l, k + p, g), 4 * rho, 1e-3)
            assert abs(star - rho) < 2e-3

    def test_rho_reduces_to_mu_without_excess(self):
        # the glrd2 row's log-GLR is log_glrd1 at (L, k + P), bit for bit
        for n, k, g in [(20, 4, 1.0), (40, 2, 0.7), (128, 3, 2.5)]:
            cfg = scenario(snr=g, prior=NoisePrior(k=k, theta=2.0), n_samples=n)
            l, p = cfg.geometry.l_inband, cfg.geometry.p_excess
            t = np.array([0.0, 0.5 * l, 3.0 * l, mu_glrd1(l, k + p, g)])
            assert np.array_equal(DETECTORS["glrd2"].log_lr(cfg, t),
                                  log_glrd1(t, l, k + p, g))

    def test_rho_increases_with_snr(self):
        rhos = [mu_glrd1(16, 4 + 4, g) for g in np.linspace(0.05, 4.0, 25)]
        assert all(a < b for a, b in zip(rhos, rhos[1:]))


class TestLikelihoodValues:
    def test_origin_value(self):
        for n, g in ((20, 1.0), (2000, 1.0)):
            assert log_glrd1(0.0, n, 4, g) == pytest.approx(n * math.log(1 / (1 + g)))
        # the log form stays finite where the GLR itself underflows
        assert (1 / 2) ** 2000 == 0.0

    def test_zero_snr_flat(self):
        for t in (0.0, 1.0, 7.7, 30.0):
            assert log_glrd1(t, 20, 4, 0.0) == 0.0
            assert log_glrd1(t, 16, 4 + 4, 0.0) == 0.0

    def test_unimodal(self):
        mu = mu_glrd1(20, 4, 1.0)
        grid = np.arange(0.0, 4 * mu, 1e-3 * mu)
        signs = np.sign(np.diff(log_glrd1(grid, 20, 4, 1.0)))
        signs[signs == 0] = 1
        assert np.count_nonzero(np.diff(signs)) == 1

    def test_log_lr_on_array_matches_scalar_calls(self):
        t = np.array([0.0, 0.5, 2.0, 16.3, 40.0, 1e6])
        for vals, one in ((log_glrd1(t, 20, 4, 1.0), lambda v: log_glrd1(v, 20, 4, 1.0)),
                          (log_glrd1(t, 16, 4 + 4, 2.0),
                           lambda v: log_glrd1(v, 16, 4 + 4, 2.0))):
            assert vals.shape == t.shape
            assert vals.tolist() == [float(one(float(v))) for v in t]


class TestDecisionRules:
    """A two-sided GLR detector decides H1 when its log-GLR exceeds a level."""

    def test_glrd1_cases(self):
        # a positive level cuts a band around the peak: H0 below and far above
        cfg = scenario()
        row, mu = DETECTORS["glrd1"], mu_glrd1(20, PRIOR.k, 1.0)
        gamma = row.log_lr(cfg, mu) / 2
        assert gamma > 0
        stats = [statistic("glrd1", s) for s in (0.0, mu * PRIOR.theta, 1e6)]
        assert [bool(row.log_lr(cfg, t) > gamma) for t in stats] == [False, True, False]

    def test_glrd2_above_band_is_h0(self):
        cfg = scenario()
        row, rho = DETECTORS["glrd2"], mu_glrd1(16, PRIOR.k + 4, 1.0)
        gamma = row.log_lr(cfg, rho) / 2
        xy = np.full(16, 100.0).sum(), np.full(4, 1.0).sum()
        t = statistic("glrd2", xy)
        assert t > rho and not row.log_lr(cfg, t) > gamma

    def test_one_sided_reduction_exact(self):
        # the GLR tends to 1 from above as t grows, so a level at or below
        # log 1 = 0 leaves only a lower edge t1: the ALR twin's one-sided rule
        t = stream_seeker(405)[0].exponential(2.0, 10_000)
        cfg, t1 = scenario(), 1.0
        for name in ("glrd1", "glrd2"):
            row = DETECTORS[name]
            gamma = row.log_lr(cfg, t1)
            assert gamma < 0
            assert np.array_equal(row.log_lr(cfg, t) > gamma, t > t1), name


class TestDetectionBeatsFalseAlarm:
    def test_pd_at_least_pfa_all_detectors(self):
        # At positive SNR every detector's H1 exceedance dominates H0's.
        rng = stream_seeker(406)[0]
        trials, n, l, p = 100_000, 20, 16, 4
        alpha, snr, theta = 1.0, 1.0, PRIOR.theta

        s0 = rng.gamma(n, alpha, trials)
        s1 = rng.gamma(n, alpha * (1 + snr), trials)
        x0 = rng.gamma(l, n * alpha, trials)
        x1 = rng.gamma(l, n * alpha * (1 + snr), trials)
        y0 = rng.gamma(p, n * alpha, trials)
        y1 = rng.gamma(p, n * alpha, trials)

        pairs = {
            "optimal": (s0 / alpha, s1 / alpha),
            "alrd1": (s0 / theta, s1 / theta),
            "alrd2": (x0 / (theta + y0), x1 / (theta + y1)),
        }
        for name, (h0_stats, h1_stats) in pairs.items():
            for q in (0.5, 0.8, 0.95):
                thr = np.quantile(h0_stats, q)
                pfa = np.mean(h0_stats > thr)
                pd = np.mean(h1_stats > thr)
                se = math.sqrt(pfa * (1 - pfa) / trials + pd * (1 - pd) / trials)
                assert pd >= pfa - 3 * se, (name, q)


class TestDetectorTable:
    def test_unknown_detector(self):
        with pytest.raises(ConfigError):
            detector("nope")

    def test_glr_rows_share_their_alr_twins_statistic(self):
        for alr, glr in (("alrd1", "glrd1"), ("alrd2", "glrd2")):
            assert DETECTORS[glr].statistic is DETECTORS[alr].statistic
            assert DETECTORS[glr].law is DETECTORS[alr].law
            assert DETECTORS[glr].domain == DETECTORS[alr].domain

    def test_optimal_normalizes_by_true_noise(self):
        # the table reads sums: 20 envelopes of 2.0 sum to 40.0
        assert DETECTORS["optimal"].statistic(40.0, 2.0, PRIOR) == 20.0

    def test_peaks_only_on_glr_rows(self):
        # only the GLR rows carry a log-GLR, and each peaks where its
        # extremum formula says, at the scenario's N, L, P, k and SNR
        cfg = scenario()
        assert (cfg.geometry.l_inband, cfg.geometry.p_excess) == (16, 4)
        grid = np.linspace(0.0, 60.0, 7)
        assert {name for name, row in DETECTORS.items() if row.log_lr} == {"glrd1", "glrd2"}
        assert np.array_equal(DETECTORS["glrd1"].log_lr(cfg, grid),
                              log_glrd1(grid, 20, 4, 1.0))
        assert np.array_equal(DETECTORS["glrd2"].log_lr(cfg, grid),
                              log_glrd1(grid, 16, 4 + 4, 1.0))
        for name, peak in (("glrd1", mu_glrd1(20, 4, 1.0)),
                           ("glrd2", mu_glrd1(16, 4 + 4, 1.0))):
            star = grid_argmax(lambda t: DETECTORS[name].log_lr(cfg, t), 4 * peak, 1e-3)
            assert abs(star - peak) < 2e-3, name

    def test_block_statistic_equals_row_by_row(self):
        rng = stream_seeker(407)[0]
        trials = 300
        alpha = 1.0 / rng.gamma(PRIOR.k + 1, 1.0 / PRIOR.theta, trials)
        # the sums of each trial's envelopes and bins, as observe returns them
        blocks = {TIME: rng.exponential(1.0, (trials, 20)).sum(axis=1),
                  FREQ: (rng.exponential(20.0, (trials, 16)).sum(axis=1),
                         rng.exponential(20.0, (trials, 4)).sum(axis=1))}
        for name, row in DETECTORS.items():
            block = blocks[row.domain]
            whole = row.statistic(block, alpha, PRIOR)
            if row.domain == FREQ:
                rows = [row.statistic((x, y), a, PRIOR)
                        for x, y, a in zip(*block, alpha)]
            else:
                rows = [row.statistic(r, a, PRIOR) for r, a in zip(block, alpha)]
            assert whole.shape == (trials,)
            assert np.array_equal(whole, np.array(rows)), name
