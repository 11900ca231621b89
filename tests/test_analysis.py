import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaincc
from scipy.stats import gamma, norm

from specsense.analysis import (
    average_over_prior,
    map_noise_power,
    pd_alrd1,
    pd_alrd2_clt,
    pd_opt,
    pfa_alrd2_exact,
    posterior_update,
    proposed_statistic_moments,
    traditional_statistic_moments,
)
from specsense.numerics import stream_seeker
from specsense.signals import (
    AWGN,
    NAKAGAMI,
    RAYLEIGH,
    ChannelSpec,
    NoisePrior,
    draw_noise_power,
)
from test_montecarlo import power_gain


class TestPosteriorUpdate:
    def test_reference_mapping(self):
        post = posterior_update(NoisePrior(k=2, theta=1.0), y_sum=2.0, p_excess=4)
        assert post == NoisePrior(k=6, theta=3.0)
        assert post.precision_shape == 7.0

    @pytest.mark.parametrize("y_sum", [-0.5, math.nan, math.inf])
    def test_rejects_a_bin_mean_it_cannot_use(self, y_sum):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            posterior_update(NoisePrior(k=2, theta=1.0), y_sum, 4)

    def test_zero_energy_adds_count_only(self):
        prior = NoisePrior(k=3, theta=2.0)
        post = posterior_update(prior, y_sum=0.0, p_excess=5)
        assert post.precision_shape == 3 + 5 + 1
        assert post.theta == prior.theta

    def test_sequential_equals_joint(self):
        # the posterior is a NoisePrior, so it is the next update's prior
        prior = NoisePrior(k=2, theta=1.5)
        y1, p1 = 2.4, 3
        y2, p2 = 10.0, 5
        chained = posterior_update(posterior_update(prior, y1, p1), y2, p2)
        joint = posterior_update(prior, y1 + y2, p1 + p2)
        assert chained.k == joint.k
        assert chained.theta == pytest.approx(joint.theta)

    def test_matches_grid_quadrature(self):
        prior = NoisePrior(k=3, theta=2.0)
        y_sum, p = 24.0, 6
        post = posterior_update(prior, y_sum, p)
        shape, rate = post.precision_shape, post.theta
        hi = (shape + 12 * math.sqrt(shape)) / rate
        lam = np.linspace(1e-12, hi, 40_001)
        log_u = (prior.k + p) * np.log(lam) - (prior.theta + y_sum) * lam
        u = np.exp(log_u - log_u.max())
        quad = u / np.trapezoid(u, lam)
        tv = 0.5 * np.trapezoid(np.abs(quad - post.pdf(lam)), lam)
        assert tv < 1e-3

    def test_pdf_scalar_and_support(self):
        # a scalar gives a Python float; the density is zero off lam > 0
        post = posterior_update(NoisePrior(k=3, theta=2.0), 24.0, 6)
        shape, rate = post.precision_shape, post.theta
        at_one = post.pdf(1.0)
        assert type(at_one) is float
        assert at_one == pytest.approx(math.exp(
            shape * math.log(rate) - rate - math.lgamma(shape)))
        assert post.pdf(0.0) == 0.0 and post.pdf(-1.0) == 0.0
        assert post.pdf(np.array([-1.0, 1.0]))[1] == at_one

    @pytest.mark.parametrize("shape, rate", [
        (2.0, 1.0), (9.0, 0.02), (40.0, 2.5e4), (400.0, 7.0)])
    def test_pdf_matches_scipy_stats_gamma(self, shape, rate):
        # the log-space density against scipy.stats, a test-only oracle;
        # the grid runs from below zero past the far tail.  A NoisePrior's
        # precision shape k + 1 is an integer >= 2.
        post = NoisePrior(k=int(shape) - 1, theta=rate)
        assert post.precision_shape == shape
        hi = (shape + 30.0 * math.sqrt(shape) + 30.0) / rate
        lam = np.concatenate([[-1.0, -1e-300, 0.0], np.linspace(0.0, hi, 4001)[1:]])
        ours = post.pdf(lam)
        oracle = gamma.pdf(lam, shape, scale=1.0 / rate)
        assert np.all(ours[lam < 0.0] == 0.0)
        live = oracle > 1e-250
        assert live.sum() > 1000
        np.testing.assert_allclose(ours[live], oracle[live], rtol=1e-12, atol=0.0)
        assert np.all(ours[~live] <= 1e-240)


def bin_map(prior, snr, x, y):
    """The MAP noise power from in-band bins x and excess-band bins y: the
    time-domain form on x at the excess band's posterior."""
    return map_noise_power(posterior_update(prior, float(np.sum(y)), np.size(y)), snr, x)


class TestMapEstimates:
    def test_reference_value(self):
        est = bin_map(NoisePrior(k=2, theta=1.0), 0.0, np.full(16, 1.0), np.full(4, 0.5))
        assert est == pytest.approx(19.0 / 22.0)

    def test_grid_argmax_time(self):
        rng = stream_seeker(502)[0]
        prior = NoisePrior(k=4, theta=2.0)
        r = rng.exponential(1.2, 20)
        for snr in (0.0, 1.0):
            c = prior.theta + r.sum() / (1.0 + snr)
            alphas = np.arange(1e-4, 2.0, 1e-4)
            objective = -(20 + prior.k) * np.log(alphas) - c / alphas
            ref = alphas[np.argmax(objective)]
            est = map_noise_power(prior, snr, r)
            assert est == pytest.approx(ref, abs=1e-4)

    def test_grid_argmax_freq(self):
        rng = stream_seeker(503)[0]
        prior = NoisePrior(k=3, theta=1.0)
        x = rng.exponential(25.0, 16)
        y = rng.exponential(20.0, 4)
        for snr in (0.0, 1.0):
            c = prior.theta + y.sum() + x.sum() / (1.0 + snr)
            lams = np.linspace(1e-6, 4 * (16 + 3 + 4) / c, 400_001)
            objective = (16 + 3 + 4) * np.log(lams) - c * lams
            ref = 1.0 / lams[np.argmax(objective)]
            est = bin_map(prior, snr, x, y)
            assert est == pytest.approx(ref, rel=1e-4)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 50), theta=st.floats(1e-3, 1e3), snr=st.floats(0.0, 100.0),
           x=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=64),
           y=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=32))
    def test_bin_estimate_is_the_posteriors_exactly(self, k, theta, snr, x, y):
        # through the posterior the estimate is (theta + sum(y) +
        # sum(x)/(1+snr)) / (L + k + P), bit for bit: theta + sum(y) is
        # added first either way, and the counts add exactly
        x, y = np.array(x), np.array(y)
        direct = ((theta + float(np.sum(y)) + float(np.sum(x)) / (1.0 + snr))
                  / (x.size + k + y.size))
        assert bin_map(NoisePrior(k=k, theta=theta), snr, x, y) == direct


class TestZeroSignal:
    def test_matches_the_h0_oracles(self):
        # each detection form at zero signal is its false-alarm law
        n, l, p, alpha, theta = 20, 16, 4, 1.3, 3.0
        prior = NoisePrior(k=3, theta=theta)
        eta = np.linspace(0.0, 60.0, 2_001)
        assert np.array_equal(pd_opt(n, 1.0, 0.0, eta), gammaincc(n, eta))
        assert np.array_equal(pd_alrd1(n, alpha, prior, 0.0, eta),
                              gammaincc(n, eta * theta / alpha))
        na = n * alpha
        h0 = norm.sf(theta * eta, loc=na * (l - p * eta),
                     scale=na * np.sqrt(l + p * eta * eta))
        np.testing.assert_allclose(
            pd_alrd2_clt(l, p, n, alpha, theta, 0.0, eta), h0, rtol=0, atol=1e-13)


def quad_upper_gamma(s: float, x: float) -> float:
    """Independent oracle: adaptive quadrature of the tail integral."""
    val, err = integrate.quad(lambda t: t ** (s - 1) * math.exp(-t), x, np.inf,
                              epsabs=0, epsrel=1e-12, limit=200)
    return val / math.gamma(s)


class TestIncompleteGammaForms:
    def test_shape_one_closed_form(self):
        # Q(1, x) = exp(-x), at the tail argument eta/(alpha*(1+snr)) = ln 2
        assert pd_opt(1, 1.0, 0.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-12)
        assert pd_opt(1, 2.0, 1.0, 4 * math.log(2.0)) == pytest.approx(0.5, rel=1e-12)

    def test_against_quadrature(self):
        for n, x in [(20, 20.0), (1, 0.2), (3, 7.5), (35, 20.0), (2, 40.0),
                     (12, 12.0)]:
            assert pd_opt(n, 1.0, 0.0, x) == pytest.approx(
                quad_upper_gamma(n, x), rel=1e-10)

    @given(n=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_eta_and_bounded(self, n):
        vals = pd_opt(n, 1.0, 0.0, np.linspace(0.0, 5 * n + 10, 60))
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals[0] == 1.0
        assert vals[-1] < 0.05

    def test_domain_errors(self):
        for n in (0, -2):
            with pytest.raises(ValueError, match="at least one sample"):
                pd_opt(n, 1.0, 0.0, 1.0)
        for eta in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="tail argument"):
                pd_opt(1, 1.0, 0.0, eta)

    def test_zero_threshold(self):
        assert pd_opt(20, 1.0, 0.0, 0.0) == 1.0
        assert pd_opt(20, 1.0, 1.0, 0.0) == 1.0
        assert pd_alrd1(20, 1.0, NoisePrior(k=4, theta=4.0), 0.0, 0.0) == 1.0

    def test_zero_snr_collapses(self):
        # at zero signal pd_opt is the false-alarm law Q(N, eta/alpha)
        for eta in (5.0, 20.0, 35.0):
            assert pd_opt(20, 1.0, 0.0, eta) == gammaincc(20, eta)

    def test_reference_value(self):
        assert pd_opt(20, 1.0, 0.0, 20.0) == pytest.approx(0.4703, abs=5e-5)

    def test_opt_matches_simulation(self):
        rng = stream_seeker(504)[0]
        n, alpha, snr = 20, 1.0, 1.0
        s0 = rng.gamma(n, alpha, 100_000)
        s1 = rng.gamma(n, alpha * (1 + snr), 100_000)
        for eta in (14.0, 20.0, 27.0):
            assert abs(np.mean(s0 > eta) - pd_opt(n, alpha, 0.0, eta)) < 0.01
            assert abs(np.mean(s1 > eta) - pd_opt(n, alpha, snr, eta)) < 0.01

    def test_alrd1_scaling_identity(self):
        prior = NoisePrior(k=4, theta=2.0)
        for eta in (3.0, 10.0, 18.0):
            assert pd_alrd1(20, 1.0, prior, 0.0, eta) == pytest.approx(
                pd_opt(20, 1.0, 0.0, eta * prior.theta))

    def test_alrd1_matches_simulation(self):
        rng = stream_seeker(505)[0]
        n, alpha, prior = 20, 1.0, NoisePrior(k=4, theta=2.0)
        stats0 = rng.gamma(n, alpha, 100_000) / prior.theta
        stats1 = rng.gamma(n, alpha * 2.0, 100_000) / prior.theta
        for eta in (8.0, 10.0, 14.0):
            assert abs(np.mean(stats0 > eta) - pd_alrd1(n, alpha, prior, 0.0, eta)) < 0.01
            assert abs(np.mean(stats1 > eta)
                       - pd_alrd1(n, alpha, prior, 1.0, eta)) < 0.01

    def test_outputs_in_unit_interval_and_monotone(self):
        prior = NoisePrior(k=2, theta=2.0)
        etas = np.linspace(0.0, 40.0, 81)
        for fn in (lambda e: pd_opt(20, 1.0, 0.0, e),
                   lambda e: pd_alrd1(20, 1.0, prior, 0.0, e),
                   lambda e: pd_alrd2_clt(16, 4, 20, 1.0, prior.theta, 0.0, e)):
            vals = [fn(e) for e in etas]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestCltForms:
    def test_half_at_centered_threshold(self):
        # eta solving theta*eta = alpha*N*(L - P*eta) centers the statistic
        l, p, n, alpha, theta = 16, 4, 20, 1.0, 1.0
        eta = n * alpha * l / (theta + n * alpha * p)
        assert pd_alrd2_clt(l, p, n, alpha, theta, 0.0, eta) == pytest.approx(0.5)

    def test_tail_decreases_on_grid(self):
        # The Gaussian form keeps a small positive asymptote as eta grows
        # (it puts mass below zero where the exponential sum has none), so
        # the tail statement is monotone decrease over the working range.
        vals = [pd_alrd2_clt(16, 4, 20, 1.0, 1.0, 0.0, eta) for eta in (5, 20, 80, 300)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.03

    def test_pfa_reference_against_simulation(self):
        rng = stream_seeker(506)[0]
        l, p, n, alpha, theta = 16, 4, 20, 1.0, 1.0
        x = rng.exponential(n * alpha, (100_000, l)).sum(axis=1)
        y = rng.exponential(n * alpha, (100_000, p)).sum(axis=1)
        for eta in (1.2, 1.6, 2.0):
            emp = np.mean(x - eta * y > eta * theta)
            assert abs(emp - pd_alrd2_clt(l, p, n, alpha, theta, 0.0, eta)) < 0.03

    def test_pfa_approximation_envelope(self):
        # With only 20 bins the Gaussian approximation is loose away from
        # the small-eta regime; its error stays within 0.05 over the
        # working threshold range (worst near the distribution center).
        rng = stream_seeker(536)[0]
        l, p, n, alpha, theta = 16, 4, 20, 1.0, 1.0
        x = rng.exponential(n * alpha, (100_000, l)).sum(axis=1)
        y = rng.exponential(n * alpha, (100_000, p)).sum(axis=1)
        for eta in (3.5, 4.0, 5.0, 8.0, 12.0):
            emp = np.mean(x - eta * y > eta * theta)
            assert abs(emp - pd_alrd2_clt(l, p, n, alpha, theta, 0.0, eta)) < 0.05

    def test_pd_reduces_to_pfa_without_signal(self):
        # at snr = 0 the statistic's mean is N*alpha*(L - P*eta) and its
        # variance (N*alpha)^2 * (L + P*eta^2): the H0 Gaussian tail
        for eta in (2.0, 4.0, 7.0):
            h0 = norm.sf(eta, loc=20 * (16 - 4 * eta), scale=20 * math.sqrt(16 + 4 * eta * eta))
            assert pd_alrd2_clt(16, 4, 20, 1.0, 1.0, 0.0, eta) == pytest.approx(h0)

    def test_pd_pinned_against_simulation(self):
        rng = stream_seeker(507)[0]
        l, p, n, alpha, theta = 16, 4, 20, 1.0, 1.0
        scale = n * alpha
        for h, s in ((1 + 0j, 1 + 0j), (1 + 0j, 5 + 2j), (0.6 + 0.3j, 6 - 1j)):
            v = math.sqrt(scale / 2) * (rng.standard_normal((100_000, l))
                                        + 1j * rng.standard_normal((100_000, l)))
            x = (np.abs(h * s + v) ** 2).sum(axis=1)
            y = rng.exponential(scale, (100_000, p)).sum(axis=1)
            snr = abs(h * s) ** 2 / scale  # the pinned per-bin power over N*alpha
            for eta in (1.2, 2.0):
                emp = np.mean(x - eta * y > eta * theta)
                cf = pd_alrd2_clt(l, p, n, alpha, theta, snr, eta)
                assert abs(emp - cf) < 0.03
            # loose envelope in the mid-threshold region
            for eta in (5.0, 8.0):
                emp = np.mean(x - eta * y > eta * theta)
                cf = pd_alrd2_clt(l, p, n, alpha, theta, snr, eta)
                assert abs(emp - cf) < 0.05


ELEMENTWISE_PRIOR = NoisePrior(k=3, theta=3.0)
# every closed form as a function of (alpha, snr, eta), each also at zero
# signal, where it is the detector's false-alarm law
ELEMENTWISE_FORMS = {
    "pfa_opt": lambda a, snr, eta: pd_opt(20, a, 0.0, eta),
    "pd_opt": lambda a, snr, eta: pd_opt(20, a, snr, eta),
    "pfa_alrd1": lambda a, snr, eta: pd_alrd1(20, a, ELEMENTWISE_PRIOR, 0.0, eta),
    "pd_alrd1": lambda a, snr, eta: pd_alrd1(20, a, ELEMENTWISE_PRIOR, snr, eta),
    "pfa_alrd2_clt": lambda a, snr, eta: pd_alrd2_clt(16, 4, 20, a, 3.0, 0.0, eta),
    "pd_alrd2_clt": lambda a, snr, eta: pd_alrd2_clt(16, 4, 20, a, 3.0, snr, eta),
}
GAMMA_FORMS = ("pfa_opt", "pd_opt", "pfa_alrd1", "pd_alrd1")


class TestElementwise:
    @pytest.mark.parametrize("name", sorted(ELEMENTWISE_FORMS))
    @given(points=st.lists(st.tuples(st.floats(0.05, 5.0), st.floats(0.0, 10.0),
                                     st.floats(0.0, 80.0)), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_array_call_equals_scalar_calls(self, name, points):
        fn = ELEMENTWISE_FORMS[name]
        alpha, snr, eta = np.array(points).T
        assert np.array_equal(fn(alpha, snr, eta), [fn(*pt) for pt in points])
        # a threshold grid against per-row noise powers and SNRs
        grid = fn(alpha[:, None], snr[:, None], eta)
        assert np.array_equal(grid, [[fn(a, s, e) for e in eta]
                                     for a, s, _ in points])
        assert type(fn(*points[0])) is float

    @pytest.mark.parametrize("name", sorted(ELEMENTWISE_FORMS))
    def test_dense_grid_equals_scalar_calls(self, name):
        # a dense grid meets the few inputs (about 3 in 10^4) where libm's
        # pow(x, 2) and x*x round apart, which a few random points rarely hit
        fn = ELEMENTWISE_FORMS[name]
        eta = np.linspace(0.0, 80.0, 20_001)
        assert np.array_equal(fn(0.7, 1.3, eta), [fn(0.7, 1.3, e) for e in eta.tolist()])

    @pytest.mark.parametrize("name", sorted(ELEMENTWISE_FORMS))
    @pytest.mark.parametrize("where", [0, 5, 9])
    def test_one_bad_element_raises(self, name, where):
        fn = ELEMENTWISE_FORMS[name]
        alpha, snr, eta = np.ones(10), np.full(10, 2.0), np.linspace(1.0, 30.0, 10)
        for arr, bad in ((alpha, np.nan), (eta, np.nan), (eta, np.inf)):
            kept = arr[where]
            arr[where] = bad
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                fn(alpha, snr, eta)
            arr[where] = kept
        if name in GAMMA_FORMS:  # a negative incomplete-gamma argument
            eta[where] = -1.0
            with pytest.raises(ValueError):
                fn(alpha, snr, eta)


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
        etas = np.linspace(-1.0, 60.0, 123)
        vals = pfa_alrd2_exact(16, 4, 20, 1.0, 1.0, etas)
        # elementwise over eta: one array call gives the scalar calls' values
        assert np.array_equal(vals, [pfa_alrd2_exact(16, 4, 20, 1.0, 1.0, e)
                                     for e in etas])
        assert np.all(vals[etas <= 0] == 1.0)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals) <= 0)

    def test_rejects_empty_excess_band(self):
        with pytest.raises(ValueError):
            pfa_alrd2_exact(16, 0, 20, 1.0, 1.0, 4.0)


def per_draw_reference(point_fn, prior, mc_draws, gen, channel):
    """Reference: the per-draw loop, one `point_fn` call per prior draw
    on Python scalars, over the same draws in the same order; the channel
    amplitudes are the square roots of the power gains, and the third
    argument is 0."""
    alphas = draw_noise_power(prior, gen, size=mc_draws)
    gains = np.sqrt(power_gain(channel, gen, mc_draws))
    vals = np.array([point_fn(float(a), float(g), 0.0) for a, g in zip(alphas, gains)])
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(mc_draws))


class TestAverageOverPrior:
    def test_constant_function(self):
        calls = []

        def fn(a, h, s):
            calls.append((a, h, s))
            return 0.37  # a scalar counts for every draw

        res = average_over_prior(fn, NoisePrior(k=2, theta=2.0),
                                 mc_draws=500, seed=508)
        [(a, h, s)] = calls
        assert a.shape == h.shape == s.shape == (500,)
        assert np.all(h == 1.0) and np.all(s == 0.0)  # AWGN by default
        assert res.value == pytest.approx(0.37)
        assert res.stderr == pytest.approx(0.0, abs=1e-15)

    def test_concentrated_prior_recovers_conditional(self):
        prior = NoisePrior(k=400, theta=400.0)  # mean 1, tight
        fn = lambda a, h, s: pd_alrd1(20, a, prior, 0.0, 10.0)
        res = average_over_prior(fn, prior, mc_draws=20_000, seed=509)
        conditional = pd_alrd1(20, 1.0, prior, 0.0, 10.0)
        assert res.value == pytest.approx(conditional, rel=0.01)

    def test_matches_generative_pipeline(self):
        prior = NoisePrior(k=4, theta=4.0)
        n, eta = 20, 8.0
        fn = lambda a, h, s: pd_alrd1(n, a, prior, 0.0, eta)
        res = average_over_prior(fn, prior, mc_draws=100_000, seed=510)
        gen = stream_seeker(511)[0]
        alphas = 1.0 / gen.gamma(prior.precision_shape, 1 / prior.theta, 100_000)
        stats = gen.gamma(n, 1.0, 100_000) * alphas / prior.theta
        emp = np.mean(stats > eta)
        assert abs(res.value - emp) < 0.01

    def test_stderr_shrinks_with_draws(self):
        prior = NoisePrior(k=4, theta=4.0)
        fn = lambda a, h, s: pd_alrd1(20, a, prior, 0.0, 8.0)
        small = average_over_prior(fn, prior, 2_000, 512)
        large = average_over_prior(fn, prior, 32_000, 513)
        assert large.stderr < small.stderr
        assert large.stderr == pytest.approx(small.stderr / 4.0, rel=0.35)

    def test_channel_and_signal_draws(self):
        prior = NoisePrior(k=4, theta=4.0)
        seen = []
        fn = lambda a, h, s: seen.append((h, s)) or 0.5
        average_over_prior(fn, prior, 10, 514, channel=ChannelSpec(RAYLEIGH))
        [(h, s)] = seen  # one call with every draw
        assert h.shape == s.shape == (10,)
        assert np.all(h > 0) and np.all(s == 0.0)  # no signal is drawn

    def test_benchmark_call(self):
        # the call of the benchmark's closed_forms workload: a three-argument
        # function that ignores its third, a fading channel and an int seed
        prior, n, snr, eta = NoisePrior(k=3, theta=3.0), 20, 1.0, 20.0
        res = average_over_prior(
            lambda a, h, s: pd_alrd1(n, a, prior, snr * abs(h) ** 2, eta),
            prior, 2000, 20260809, channel=ChannelSpec(RAYLEIGH))
        assert res.draws == 2000
        assert 0.0 <= res.value <= 1.0
        assert res.stderr > 0.0

    @pytest.mark.parametrize("channel", [
        None,  # the default argument
        ChannelSpec(AWGN),
        ChannelSpec(RAYLEIGH),
        ChannelSpec(NAKAGAMI, nakagami_m=2.0),
    ], ids=["default", "awgn", "rayleigh", "nakagami"])
    def test_matches_per_draw_loop_bit_for_bit(self, channel):
        prior = NoisePrior(k=3, theta=3.0)
        fn = lambda a, h, s: pd_alrd1(20, a, prior, 1.5 * h * h, 16.0)
        if channel is None:
            res = average_over_prior(fn, prior, 3_000, 517)
            channel = ChannelSpec(AWGN)
        else:
            res = average_over_prior(fn, prior, 3_000, 517, channel=channel)
        value, stderr = per_draw_reference(fn, prior, 3_000, stream_seeker(517)[0], channel)
        assert (res.value, res.stderr, res.draws) == (value, stderr, 3_000)
        assert 0.0 < value < 1.0

    def test_rejects_a_result_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            average_over_prior(lambda a, h, s: a[:-1], NoisePrior(k=3, theta=3.0),
                               50, 518)


class TestStatisticMoments:
    def test_zero_snr_reference(self):
        m = traditional_statistic_moments(20, 1.0, 0.0)
        assert (m.mean, m.variance) == (20.0, 20.0)

    def test_traditional_against_simulation(self):
        rng = stream_seeker(515)[0]
        n, alpha, snr = 20, 1.0, 1.0
        stat = rng.exponential(alpha * (1 + snr), (1_000_000, n)).sum(axis=1)
        ref = traditional_statistic_moments(n, alpha, snr)
        se_mean = math.sqrt(ref.variance / stat.size)
        assert abs(stat.mean() - ref.mean) < 3 * se_mean
        var = stat.var(ddof=1)
        se_var = math.sqrt(np.var((stat - stat.mean()) ** 2) / stat.size)
        assert abs(var - ref.variance) < 3 * se_var

    def test_proposed_derived_against_simulation(self):
        rng = stream_seeker(516)[0]
        l, p, n, alpha, snr, eta = 16, 4, 20, 1.0, 1.0, 4.0
        x = rng.exponential(n * alpha * (1 + snr), (1_000_000, l)).sum(axis=1)
        y = rng.exponential(n * alpha, (1_000_000, p)).sum(axis=1)
        phi = x - eta * y
        ref = proposed_statistic_moments(l, p, n, alpha, snr, eta)
        se_mean = math.sqrt(ref.variance / phi.size)
        assert abs(phi.mean() - ref.mean) < 3 * se_mean
        var = phi.var(ddof=1)
        se_var = math.sqrt(np.var((phi - phi.mean()) ** 2) / phi.size)
        assert abs(var - ref.variance) < 3 * se_var
