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
    ThresholdSpec,
    detector,
    lr_glrd1_value,
    lr_glrd2_value,
    mu_glrd1,
    rho_glrd2,
)
from specsense.numerics import stream_seeker
from specsense.signals import ChannelSpec, NoisePrior, ScenarioConfig, SignalSpec

PRIOR = NoisePrior(k=4, theta=2.0)


def statistic(name, obs, alpha=1.0, prior=PRIOR):
    """Detector `name`'s statistic of the sums `obs`: sum(r), or the pair
    (sum(x), sum(y))."""
    return DETECTORS[name].statistic(obs, alpha, prior)


class TestThresholdSpec:
    def test_single_is_upper_open_band(self):
        t = ThresholdSpec(eta1=2.0)
        assert t.eta1 == 2.0 and t.eta2 == math.inf
        assert t.decide(3.0) and not t.decide(1.0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ThresholdSpec(eta1=2.0, eta2=1.0)

    def test_decide_on_array_matches_scalar_verdicts(self):
        s = np.array([-1.0, 2.0, 2.5, 9.999, 10.0, 40.0, math.inf])
        for spec in (ThresholdSpec(eta1=2.0), ThresholdSpec(eta1=2.0, eta2=10.0)):
            verdicts = spec.decide(s)
            assert verdicts.dtype == bool
            assert verdicts.tolist() == [bool(spec.decide(float(v))) for v in s]


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
    vals = np.array([fn(t) for t in grid])
    return grid[np.argmax(vals)]


class TestGlrExtrema:
    def test_mu_reference_value(self):
        assert mu_glrd1(20, 4, 1.0) == pytest.approx(16.346, abs=5e-4)

    def test_mu_is_argmax(self):
        for n, k, g in [(20, 4, 1.0), (40, 2, 0.5), (12, 8, 2.0)]:
            mu = mu_glrd1(n, k, g)
            star = grid_argmax(lambda t: lr_glrd1_value(t, n, k, g), 4 * mu, 1e-3)
            assert abs(star - mu) < 2e-3

    def test_mu_increases_with_snr(self):
        mus = [mu_glrd1(20, 4, g) for g in np.linspace(0.05, 4.0, 25)]
        assert all(a < b for a, b in zip(mus, mus[1:]))

    def test_mu_rejects_k_zero(self):
        with pytest.raises(ValueError):
            mu_glrd1(20, 0, 1.0)

    def test_rho_is_argmax(self):
        for l, p, k, g in [(16, 4, 4, 1.0), (32, 8, 2, 0.7), (10, 3, 6, 2.5)]:
            rho = rho_glrd2(l, p, k, g)
            star = grid_argmax(lambda t: lr_glrd2_value(t, l, p, k, g), 4 * rho, 1e-3)
            assert abs(star - rho) < 2e-3

    def test_rho_reduces_to_mu_without_excess(self):
        assert rho_glrd2(20, 0, 4, 1.3) == pytest.approx(mu_glrd1(20, 4, 1.3))
        # with an excess band, k + P takes the place of k exactly
        for l, p, k, g in [(16, 4, 4, 1.0), (32, 8, 2, 0.7), (102, 26, 3, 2.5)]:
            assert rho_glrd2(l, p, k, g) == mu_glrd1(l, k + p, g)
            for t in (0.0, 0.5 * l, 3.0 * l):
                assert lr_glrd2_value(t, l, p, k, g) == lr_glrd1_value(t, l, k + p, g)

    def test_rho_increases_with_snr(self):
        rhos = [rho_glrd2(16, 4, 4, g) for g in np.linspace(0.05, 4.0, 25)]
        assert all(a < b for a, b in zip(rhos, rhos[1:]))


class TestLikelihoodValues:
    def test_origin_value(self):
        n, g = 20, 1.0
        assert lr_glrd1_value(0.0, n, 4, g) == pytest.approx((1 / (1 + g)) ** n)

    def test_zero_snr_flat(self):
        for t in (0.0, 1.0, 7.7, 30.0):
            assert lr_glrd1_value(t, 20, 4, 0.0) == 1.0
            assert lr_glrd2_value(t, 16, 4, 4, 0.0) == 1.0

    def test_unimodal(self):
        mu = mu_glrd1(20, 4, 1.0)
        grid = np.arange(0.0, 4 * mu, 1e-3 * mu)
        vals = np.array([lr_glrd1_value(t, 20, 4, 1.0) for t in grid])
        signs = np.sign(np.diff(vals))
        signs[signs == 0] = 1
        assert np.count_nonzero(np.diff(signs)) == 1


class TestDecisionRules:
    def test_glrd1_cases(self):
        thr = ThresholdSpec(eta1=2.0, eta2=10.0)
        prior = NoisePrior(k=1, theta=1.0)
        verdicts = [thr.decide(statistic("glrd1", np.full(20, v).sum(), prior=prior))
                    for v in (0.05, 0.25, 1.0)]             # stat = 1, 5, 20
        assert verdicts == [False, True, False]

    def test_glrd2_above_band_is_h0(self):
        thr = ThresholdSpec(eta1=1.0, eta2=4.0)
        prior = NoisePrior(k=1, theta=1.0)
        xy = np.full(16, 100.0).sum(), np.full(4, 1.0).sum()
        assert not thr.decide(statistic("glrd2", xy, prior=prior))

    def test_one_sided_reduction_exact(self):
        rng = stream_seeker(405)[0]
        eta = 4.0
        band = ThresholdSpec(eta1=eta)
        prior = PRIOR
        for _ in range(1000):
            r = rng.exponential(1.0, 20)
            x = rng.exponential(20.0, 16)
            y = rng.exponential(20.0, 4)
            for t in (statistic("alrd1", r.sum(), prior=prior),
                      statistic("alrd2", (x.sum(), y.sum()), prior=prior)):
                assert band.decide(t) == (t > eta)


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
        cfg = ScenarioConfig(20, PRIOR, SignalSpec.critically_sampled(54_000.0, 0.25, 1.0),
                             ChannelSpec(), trials=1, master_seed=1)
        assert (cfg.geometry.l_inband, cfg.geometry.p_excess) == (16, 4)
        peaks = {name: row.peak(cfg)
                 for name, row in DETECTORS.items() if row.peak is not None}
        assert peaks == {"glrd1": mu_glrd1(20, 4, 1.0),
                         "glrd2": rho_glrd2(16, 4, 4, 1.0)}

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
