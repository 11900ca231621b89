import math

import numpy as np
import pytest

from specsense.analysis import (
    average_over_prior,
    map_noise_power,
    pd_alrd1,
    pd_alrd2_clt,
    pd_opt,
    pfa_alrd1,
    pfa_alrd2_clt,
    pfa_alrd2_exact,
    pfa_opt,
    posterior_update,
    proposed_statistic_moments,
    traditional_statistic_moments,
)
from specsense.numerics import RngStream
from specsense.signals import ChannelSpec, H0, H1, NoisePrior, RAYLEIGH


class TestPosteriorUpdate:
    def test_reference_mapping(self):
        post = posterior_update(NoisePrior(k=2, theta=1.0), y_mean=0.5, p_excess=4)
        assert (post.shape, post.rate) == (7.0, 3.0)

    def test_zero_energy_adds_count_only(self):
        prior = NoisePrior(k=3, theta=2.0)
        post = posterior_update(prior, y_mean=0.0, p_excess=5)
        assert post.shape == 3 + 5 + 1
        assert post.rate == prior.theta

    def test_sequential_equals_joint(self):
        prior = NoisePrior(k=2, theta=1.5)
        y1, p1 = 0.8, 3
        y2, p2 = 2.0, 5
        first = posterior_update(prior, y1, p1)
        chained = posterior_update(NoisePrior(k=2 + p1, theta=first.rate), y2, p2)
        pooled_mean = (p1 * y1 + p2 * y2) / (p1 + p2)
        joint = posterior_update(prior, pooled_mean, p1 + p2)
        assert chained.shape == pytest.approx(joint.shape)
        assert chained.rate == pytest.approx(joint.rate)

    def test_matches_grid_quadrature(self):
        prior = NoisePrior(k=3, theta=2.0)
        y_mean, p = 4.0, 6
        post = posterior_update(prior, y_mean, p)
        hi = (post.shape + 12 * math.sqrt(post.shape)) / post.rate
        lam = np.linspace(1e-12, hi, 40_001)
        log_u = (prior.k + p) * np.log(lam) - (prior.theta + p * y_mean) * lam
        u = np.exp(log_u - log_u.max())
        quad = u / np.trapezoid(u, lam)
        tv = 0.5 * np.trapezoid(np.abs(quad - post.pdf(lam)), lam)
        assert tv < 1e-3


class TestMapEstimates:
    def test_reference_value(self):
        est = map_noise_power(NoisePrior(k=2, theta=1.0), snr=1.0, hypothesis=H0,
                              x=np.full(16, 1.0), y=np.full(4, 0.5))
        assert est == pytest.approx(19.0 / 22.0)

    def test_zero_snr_hypotheses_agree(self):
        rng = RngStream(501).generator()
        r = rng.exponential(1.0, 20)
        prior = NoisePrior(k=4, theta=4.0)
        assert map_noise_power(prior, 0.0, H0, r=r) == pytest.approx(
            map_noise_power(prior, 0.0, H1, r=r))

    def test_grid_argmax_time(self):
        rng = RngStream(502).generator()
        prior = NoisePrior(k=4, theta=2.0)
        r = rng.exponential(1.2, 20)
        for hyp, gain in ((H0, 1.0), (H1, 2.0)):
            c = prior.theta + r.sum() / gain
            alphas = np.arange(1e-4, 2.0, 1e-4)
            objective = -(20 + prior.k) * np.log(alphas) - c / alphas
            ref = alphas[np.argmax(objective)]
            est = map_noise_power(prior, 1.0, hyp, r=r)
            assert est == pytest.approx(ref, abs=1e-4)

    def test_grid_argmax_freq(self):
        rng = RngStream(503).generator()
        prior = NoisePrior(k=3, theta=1.0)
        x = rng.exponential(25.0, 16)
        y = rng.exponential(20.0, 4)
        for hyp, gain in ((H0, 1.0), (H1, 2.0)):
            c = prior.theta + y.sum() + x.sum() / gain
            lams = np.linspace(1e-6, 4 * (16 + 3 + 4) / c, 400_001)
            objective = (16 + 3 + 4) * np.log(lams) - c * lams
            ref = 1.0 / lams[np.argmax(objective)]
            est = map_noise_power(prior, 1.0, hyp, x=x, y=y)
            assert est == pytest.approx(ref, rel=1e-4)

    def test_requires_time_samples_or_both_bands(self):
        with pytest.raises(ValueError):
            map_noise_power(NoisePrior(k=3, theta=1.0), 1.0, H0, x=np.ones(16))


class TestIncompleteGammaForms:
    def test_zero_threshold(self):
        assert pfa_opt(20, 1.0, 0.0) == 1.0
        assert pd_opt(20, 1.0, 1.0, 0.0) == 1.0
        assert pfa_alrd1(20, 1.0, NoisePrior(k=4, theta=4.0), 0.0) == 1.0

    def test_zero_snr_collapses(self):
        for eta in (5.0, 20.0, 35.0):
            assert pd_opt(20, 1.0, 0.0, eta) == pfa_opt(20, 1.0, eta)

    def test_reference_value(self):
        assert pfa_opt(20, 1.0, 20.0) == pytest.approx(0.4703, abs=5e-5)

    def test_opt_matches_simulation(self):
        rng = RngStream(504).generator()
        n, alpha, snr = 20, 1.0, 1.0
        s0 = rng.gamma(n, alpha, 100_000)
        s1 = rng.gamma(n, alpha * (1 + snr), 100_000)
        for eta in (14.0, 20.0, 27.0):
            assert abs(np.mean(s0 > eta) - pfa_opt(n, alpha, eta)) < 0.01
            assert abs(np.mean(s1 > eta) - pd_opt(n, alpha, snr, eta)) < 0.01

    def test_alrd1_scaling_identity(self):
        prior = NoisePrior(k=4, theta=2.0)
        for eta in (3.0, 10.0, 18.0):
            assert pfa_alrd1(20, 1.0, prior, eta) == pytest.approx(
                pfa_opt(20, 1.0, eta * prior.theta))

    def test_alrd1_matches_simulation(self):
        rng = RngStream(505).generator()
        n, alpha, prior = 20, 1.0, NoisePrior(k=4, theta=2.0)
        stats0 = rng.gamma(n, alpha, 100_000) / prior.theta
        stats1 = rng.gamma(n, alpha * 2.0, 100_000) / prior.theta
        for eta in (8.0, 10.0, 14.0):
            assert abs(np.mean(stats0 > eta) - pfa_alrd1(n, alpha, prior, eta)) < 0.01
            assert abs(np.mean(stats1 > eta)
                       - pd_alrd1(n, alpha, prior, 1.0, eta)) < 0.01

    def test_outputs_in_unit_interval_and_monotone(self):
        prior = NoisePrior(k=2, theta=2.0)
        etas = np.linspace(0.0, 40.0, 81)
        for fn in (lambda e: pfa_opt(20, 1.0, e),
                   lambda e: pfa_alrd1(20, 1.0, prior, e),
                   lambda e: pfa_alrd2_clt(16, 4, 20, 1.0, prior.theta, e)):
            vals = [fn(e) for e in etas]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestCltForms:
    def test_half_at_centered_threshold(self):
        # eta solving theta*eta = alpha*N*(L - P*eta) centers the statistic
        l, p, n, alpha, theta = 16, 4, 20, 1.0, 1.0
        eta = n * alpha * l / (theta + n * alpha * p)
        assert pfa_alrd2_clt(l, p, n, alpha, theta, eta) == pytest.approx(0.5)

    def test_tail_decreases_on_grid(self):
        # The Gaussian form keeps a small positive asymptote as eta grows
        # (it puts mass below zero where the exponential sum has none), so
        # the tail statement is monotone decrease over the working range.
        vals = [pfa_alrd2_clt(16, 4, 20, 1.0, 1.0, eta) for eta in (5, 20, 80, 300)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.03

    def test_pfa_reference_against_simulation(self):
        rng = RngStream(506).generator()
        l, p, n, alpha, theta = 16, 4, 20, 1.0, 1.0
        x = rng.exponential(n * alpha, (100_000, l)).sum(axis=1)
        y = rng.exponential(n * alpha, (100_000, p)).sum(axis=1)
        for eta in (1.2, 1.6, 2.0):
            emp = np.mean(x - eta * y > eta * theta)
            assert abs(emp - pfa_alrd2_clt(l, p, n, alpha, theta, eta)) < 0.03

    def test_pfa_approximation_envelope(self):
        # With only 20 bins the Gaussian approximation is loose away from
        # the small-eta regime; its error stays within 0.05 over the
        # working threshold range (worst near the distribution center).
        rng = RngStream(536).generator()
        l, p, n, alpha, theta = 16, 4, 20, 1.0, 1.0
        x = rng.exponential(n * alpha, (100_000, l)).sum(axis=1)
        y = rng.exponential(n * alpha, (100_000, p)).sum(axis=1)
        for eta in (3.5, 4.0, 5.0, 8.0, 12.0):
            emp = np.mean(x - eta * y > eta * theta)
            assert abs(emp - pfa_alrd2_clt(l, p, n, alpha, theta, eta)) < 0.05

    def test_pd_reduces_to_pfa_without_signal(self):
        for eta in (2.0, 4.0, 7.0):
            assert pd_alrd2_clt(16, 4, 20, 1.0, 1.0, eta, 0j, 0j) == pytest.approx(
                pfa_alrd2_clt(16, 4, 20, 1.0, 1.0, eta))

    def test_pd_phase_invariance(self):
        h = 0.8 * np.exp(1j * 0.7)
        s = 5.0 * np.exp(-1j * 0.7)
        base = pd_alrd2_clt(16, 4, 20, 1.0, 1.0, 4.0, complex(h), complex(s))
        rot = pd_alrd2_clt(16, 4, 20, 1.0, 1.0, 4.0,
                           complex(h * np.exp(1j * 1.3)),
                           complex(s * np.exp(-1j * 1.3)))
        assert rot == pytest.approx(base, rel=1e-12)

    def test_pd_pinned_against_simulation(self):
        rng = RngStream(507).generator()
        l, p, n, alpha, theta = 16, 4, 20, 1.0, 1.0
        scale = n * alpha
        for h, s in ((1 + 0j, 1 + 0j), (1 + 0j, 5 + 2j), (0.6 + 0.3j, 6 - 1j)):
            v = math.sqrt(scale / 2) * (rng.standard_normal((100_000, l))
                                        + 1j * rng.standard_normal((100_000, l)))
            x = (np.abs(h * s + v) ** 2).sum(axis=1)
            y = rng.exponential(scale, (100_000, p)).sum(axis=1)
            for eta in (1.2, 2.0):
                emp = np.mean(x - eta * y > eta * theta)
                cf = pd_alrd2_clt(l, p, n, alpha, theta, eta, h, s)
                assert abs(emp - cf) < 0.03
            # loose envelope in the mid-threshold region
            for eta in (5.0, 8.0):
                emp = np.mean(x - eta * y > eta * theta)
                cf = pd_alrd2_clt(l, p, n, alpha, theta, eta, h, s)
                assert abs(emp - cf) < 0.05


def quadrature_pfa_alrd2(l, p, n, alpha, theta, eta):
    """Independent oracle: the Erlang tail of sum(x) integrated over the
    Gamma(P) density of sum(y)/(N*alpha) by mpmath quadrature."""
    mpmath = pytest.importorskip("mpmath")

    def integrand(u):
        c = eta * (theta / (n * alpha) + u)
        return (mpmath.gammainc(l, c, mpmath.inf, regularized=True)
                * u ** (p - 1) * mpmath.exp(-u) / mpmath.gamma(p))

    with mpmath.workdps(30):
        return float(mpmath.quad(integrand, [0, p / 2, p, 2 * p, 4 * p, mpmath.inf]))


class TestExactPfaAlrd2:
    @pytest.mark.parametrize("l, p, n, alpha, theta, eta", [
        (16, 4, 20, 1.0, 1.0, 2.0),
        (16, 4, 20, 1.0, 1.0, 3.951),
        (16, 4, 20, 1.0, 1.0, 8.0),
        (16, 4, 20, 1.0, 1.0, 21.447),
        (16, 4, 20, 1.0, 3.0, 11.07),
        (102, 26, 128, 1.0, 3.0, 4.5),
    ])
    def test_matches_quadrature_oracle(self, l, p, n, alpha, theta, eta):
        exact = pfa_alrd2_exact(l, p, n, alpha, theta, eta)
        assert exact == pytest.approx(
            quadrature_pfa_alrd2(l, p, n, alpha, theta, eta), abs=1e-10)

    def test_reference_value(self):
        assert pfa_alrd2_exact(16, 4, 20, 1.0, 3.0, 11.07) == pytest.approx(
            0.0507, abs=5e-5)

    def test_zero_threshold(self):
        assert pfa_alrd2_exact(16, 4, 20, 1.0, 1.0, 0.0) == 1.0

    def test_unit_interval_and_nonincreasing(self):
        etas = np.linspace(0.0, 60.0, 121)
        vals = [pfa_alrd2_exact(16, 4, 20, 1.0, 1.0, e) for e in etas]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_empty_excess_band(self):
        with pytest.raises(ValueError):
            pfa_alrd2_exact(16, 0, 20, 1.0, 1.0, 4.0)


class TestAverageOverPrior:
    def test_constant_function(self):
        res = average_over_prior(lambda a, h, s: 0.37, NoisePrior(k=2, theta=2.0),
                                 mc_draws=500, rng=RngStream(508))
        assert res.value == pytest.approx(0.37)
        assert res.stderr == pytest.approx(0.0, abs=1e-15)

    def test_concentrated_prior_recovers_conditional(self):
        prior = NoisePrior(k=400, theta=400.0)  # mean 1, tight
        fn = lambda a, h, s: pfa_alrd1(20, a, prior, 10.0)
        res = average_over_prior(fn, prior, mc_draws=20_000, rng=RngStream(509))
        conditional = pfa_alrd1(20, 1.0, prior, 10.0)
        assert res.value == pytest.approx(conditional, rel=0.01)

    def test_matches_generative_pipeline(self):
        prior = NoisePrior(k=4, theta=4.0)
        n, eta = 20, 8.0
        fn = lambda a, h, s: pfa_alrd1(n, a, prior, eta)
        res = average_over_prior(fn, prior, mc_draws=100_000, rng=RngStream(510))
        gen = RngStream(511).generator()
        alphas = 1.0 / gen.gamma(prior.precision_shape, 1 / prior.theta, 100_000)
        stats = gen.gamma(n, 1.0, 100_000) * alphas / prior.theta
        emp = np.mean(stats > eta)
        assert abs(res.value - emp) < 0.01

    def test_stderr_shrinks_with_draws(self):
        prior = NoisePrior(k=4, theta=4.0)
        fn = lambda a, h, s: pfa_alrd1(20, a, prior, 8.0)
        small = average_over_prior(fn, prior, 2_000, RngStream(512))
        large = average_over_prior(fn, prior, 32_000, RngStream(513))
        assert large.stderr < small.stderr
        assert large.stderr == pytest.approx(small.stderr / 4.0, rel=0.35)

    def test_channel_and_signal_draws(self):
        prior = NoisePrior(k=4, theta=4.0)
        seen = []
        fn = lambda a, h, s: seen.append((h, s)) or 0.5
        average_over_prior(fn, prior, 10, RngStream(514),
                           channel=ChannelSpec(RAYLEIGH), draw_signal=True)
        hs = np.array([abs(h) for h, _ in seen])
        ss = np.array([abs(s) for _, s in seen])
        assert np.all(hs > 0) and np.all(ss > 0)


class TestStatisticMoments:
    def test_zero_snr_reference(self):
        m = traditional_statistic_moments(20, 1.0, 0.0)
        assert (m.mean, m.variance) == (20.0, 20.0)

    def test_traditional_against_simulation(self):
        rng = RngStream(515).generator()
        n, alpha, snr = 20, 1.0, 1.0
        stat = rng.exponential(alpha * (1 + snr), (1_000_000, n)).sum(axis=1)
        ref = traditional_statistic_moments(n, alpha, snr)
        se_mean = math.sqrt(ref.variance / stat.size)
        assert abs(stat.mean() - ref.mean) < 3 * se_mean
        var = stat.var(ddof=1)
        se_var = math.sqrt(np.var((stat - stat.mean()) ** 2) / stat.size)
        assert abs(var - ref.variance) < 3 * se_var

    def test_proposed_derived_against_simulation(self):
        rng = RngStream(516).generator()
        l, p, n, alpha, snr, eta = 16, 4, 20, 1.0, 1.0, 4.0
        x = rng.exponential(n * alpha * (1 + snr), (1_000_000, l)).sum(axis=1)
        y = rng.exponential(n * alpha, (1_000_000, p)).sum(axis=1)
        phi = x - eta * y
        ref = proposed_statistic_moments(l, p, n, alpha, snr, eta).derived
        se_mean = math.sqrt(ref.variance / phi.size)
        assert abs(phi.mean() - ref.mean) < 3 * se_mean
        var = phi.var(ddof=1)
        se_var = math.sqrt(np.var((phi - phi.mean()) ** 2) / phi.size)
        assert abs(var - ref.variance) < 3 * se_var

    def test_printed_form_reported_not_asserted(self):
        m = proposed_statistic_moments(16, 4, 20, 1.0, 1.0, 4.0)
        assert m.printed.mean != pytest.approx(m.derived.mean)
        assert math.isfinite(m.printed.variance)
