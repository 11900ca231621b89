"""Self-contained oracle battery behind the `validate` CLI command.

Each check recomputes a closed-form result by an independent route
(quadrature, grid search, an exact finite sum, or direct Monte Carlo
from the bin model) and compares at a fixed tolerance.  Tolerances
include a guard band over the Monte Carlo noise at the battery's trial
counts so that verdicts are stable across seeds; genuine formula errors
exceed them by orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    map_noise_power,
    pd_alrd2_clt,
    pfa_alrd2_exact,
    posterior_update,
    proposed_statistic_moments,
    traditional_statistic_moments,
)
from .detectors import log_glrd1, mu_glrd1
from .signals import NoisePrior

DEFAULT_SEED = 20260809
MC_TRIALS = 200_000  # per check that samples the bin model


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# Conjugacy of the precision posterior
# ---------------------------------------------------------------------------

def check_conjugacy(seed: int = DEFAULT_SEED) -> CheckResult:
    """Grid-quadrature Bayes posterior vs the closed conjugate form.

    Compares densities in total variation and the cumulative
    distribution through `scipy.special.gammaincc`, so a corrupted
    incomplete-gamma routine is caught here.
    """
    from scipy.special import gammaincc

    rng = np.random.default_rng(seed)
    worst_tv = 0.0
    worst_cdf = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 12))
        theta = float(rng.uniform(0.3, 8.0))
        p = int(rng.integers(1, 12))
        y_mean = float(rng.uniform(0.05, 30.0))
        prior = NoisePrior(k=k, theta=theta)
        post = posterior_update(prior, p * y_mean, p)
        shape, rate = post.precision_shape, post.theta

        # quadrature posterior on the precision: prior pdf times the
        # exponential-bin likelihood, normalized on a dense grid
        hi = (shape + 12.0 * math.sqrt(shape)) / rate
        lam = np.linspace(1e-12, hi, 40_001)
        log_unnorm = (k * np.log(lam) - theta * lam
                      + p * np.log(lam) - lam * p * y_mean)
        log_unnorm -= np.max(log_unnorm)
        unnorm = np.exp(log_unnorm)
        quad = unnorm / np.trapezoid(unnorm, lam)

        closed = post.pdf(lam)
        tv = 0.5 * np.trapezoid(np.abs(quad - closed), lam)
        worst_tv = max(worst_tv, float(tv))

        # cumulative check through the incomplete-gamma routine
        quad_cdf = np.concatenate(
            [[0.0], np.cumsum((quad[1:] + quad[:-1]) / 2.0 * np.diff(lam))])
        probe = np.linspace(0.1, 0.9, 9)
        idx = np.searchsorted(quad_cdf, probe)
        for i in np.clip(idx, 1, lam.size - 1):
            closed_cdf = 1.0 - gammaincc(shape, rate * lam[i])
            worst_cdf = max(worst_cdf, abs(closed_cdf - quad_cdf[i]))
    passed = worst_tv < 1e-3 and worst_cdf < 5e-4
    return CheckResult("posterior_conjugacy", passed,
                       f"max TV {worst_tv:.2e}, max CDF gap {worst_cdf:.2e}")


# ---------------------------------------------------------------------------
# MAP estimates vs grid search
# ---------------------------------------------------------------------------

def _grid_argmax_time(n: int, k: int, theta: float, scaled_energy: float) -> float:
    """Argmax over noise power of the time-domain MAP objective,
    a^-(N+k) * exp(-(theta + scaled_energy)/a), by direct evaluation."""
    c = theta + scaled_energy
    alphas = np.arange(1e-4, 4.0 * c / (n + k) + 1e-4, 1e-4)
    log_obj = -(n + k) * np.log(alphas) - c / alphas
    return float(alphas[np.argmax(log_obj)])


def _grid_argmax_freq(l: int, p: int, k: int, c: float) -> float:
    """Argmax over the precision of lam^(L+k+P) * exp(-c*lam), inverted
    to a noise power."""
    lam_star_hint = (l + k + p) / c
    lams = np.arange(1e-4, 4.0 * lam_star_hint + 1e-4, 1e-4 * lam_star_hint)
    log_obj = (l + k + p) * np.log(lams) - c * lams
    return 1.0 / float(lams[np.argmax(log_obj)])


def check_map_estimates(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 10))
        theta = float(rng.uniform(0.5, 6.0))
        n = int(rng.integers(8, 48))
        snr = float(rng.uniform(0.0, 3.0))
        prior = NoisePrior(k=k, theta=theta)

        r = rng.exponential(rng.uniform(0.5, 2.0), size=n)
        for snr_i in (0.0, snr):  # idle and occupied
            est = map_noise_power(prior, snr_i, r)
            ref = _grid_argmax_time(n, k, theta, float(np.sum(r)) / (1.0 + snr_i))
            worst = max(worst, abs(est - ref) / ref)

        l = int(rng.integers(6, 32))
        p = int(rng.integers(1, 10))
        x = rng.exponential(rng.uniform(5.0, 40.0), size=l)
        y = rng.exponential(rng.uniform(5.0, 40.0), size=p)
        post = posterior_update(prior, float(np.sum(y)), p)
        for snr_i in (0.0, snr):
            est = map_noise_power(post, snr_i, x)
            c = theta + float(np.sum(y)) + float(np.sum(x)) / (1.0 + snr_i)
            ref = _grid_argmax_freq(l, p, k, c)
            worst = max(worst, abs(est - ref) / ref)
    passed = worst < 1e-3
    return CheckResult("map_grid_search", passed, f"max relative gap {worst:.2e}")


# ---------------------------------------------------------------------------
# Gaussian approximations vs direct bin-model Monte Carlo
# ---------------------------------------------------------------------------

def check_clt(seed: int = DEFAULT_SEED) -> CheckResult:
    """The Gaussian performance form against the exact idle-channel law
    and against direct bin-model sampling with a pinned signal.

    With 20 bins the approximation error itself reaches about 0.045 near
    the distribution center; the 0.05 bound here is the measured envelope
    plus Monte Carlo noise.  A formula defect (wrong sign, wrong scale)
    misses by several tenths.
    """
    rng = np.random.default_rng(seed)
    l, p, n = 16, 4, 20
    alpha, theta = 1.0, 1.0
    scale = n * alpha

    etas = np.array([1.2, 1.6, 2.0, 6.0, 8.0])
    cf = pd_alrd2_clt(l, p, n, alpha, theta, 0.0, etas)  # no signal: Pfa
    worst = np.max(np.abs(pfa_alrd2_exact(l, p, n, alpha, theta, etas) - cf))

    s, snr = 6.0 + 2.0j, 2.0  # per-bin power |s|^2 = 40 = N*alpha*snr
    v = math.sqrt(scale / 2.0) * (rng.standard_normal((MC_TRIALS, l))
                                  + 1j * rng.standard_normal((MC_TRIALS, l)))
    x = np.abs(s + v) ** 2
    y = rng.exponential(scale, size=(MC_TRIALS, p))
    etas = np.array([1.2, 2.0, 6.0])  # one column per threshold
    phi = x.sum(axis=1)[:, None] - etas * y.sum(axis=1)[:, None]
    cf = pd_alrd2_clt(l, p, n, alpha, theta, snr, etas)
    worst = float(max(worst, np.max(np.abs(np.mean(phi > etas * theta, axis=0) - cf))))
    passed = worst < 0.05
    return CheckResult("clt_vs_monte_carlo", passed, f"max |emp - cf| {worst:.4f}")


def check_moments(seed: int = DEFAULT_SEED) -> CheckResult:
    """Empirical H1 moments vs the closed moment formulas.

    Uses a 4-standard-error band (rather than 3) so the verdict is
    stable under seed variation; a wrong formula misses by far more.
    """
    rng = np.random.default_rng(seed)
    n, alpha, snr = 20, 1.0, 1.0
    worst_se = 0.0

    r = rng.exponential(alpha * (1.0 + snr), size=(MC_TRIALS, n))
    stat = r.sum(axis=1)
    ref = traditional_statistic_moments(n, alpha, snr)
    worst_se = max(worst_se, _moment_gap_in_se(stat, ref.mean, ref.variance))

    l, p, eta = 16, 4, 4.0
    scale = n * alpha
    x = rng.exponential(scale * (1.0 + snr), size=(MC_TRIALS, l))
    y = rng.exponential(scale, size=(MC_TRIALS, p))
    phi = x.sum(axis=1) - eta * y.sum(axis=1)
    refp = proposed_statistic_moments(l, p, n, alpha, snr, eta)
    worst_se = max(worst_se, _moment_gap_in_se(phi, refp.mean, refp.variance))

    passed = worst_se < 4.0
    return CheckResult("h1_statistic_moments", passed,
                       f"max gap {worst_se:.2f} standard errors")


def _moment_gap_in_se(samples: np.ndarray, mean: float, variance: float) -> float:
    n = samples.size
    m_emp = float(np.mean(samples))
    v_emp = float(np.var(samples, ddof=1))
    se_mean = math.sqrt(variance / n)
    centered = samples - m_emp
    se_var = math.sqrt(max(float(np.var(centered**2, ddof=1)), 1e-300) / n)
    return max(abs(m_emp - mean) / se_mean, abs(v_emp - variance) / se_var)


# ---------------------------------------------------------------------------
# GLR unimodality
# ---------------------------------------------------------------------------

def check_glr_unimodality(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    detail = "all extremum locations confirmed"
    for _ in range(10):
        n = int(rng.integers(8, 64))
        k = int(rng.integers(1, 16))
        p = int(rng.integers(1, 12))
        snr = float(rng.uniform(0.1, 4.0))

        mu = mu_glrd1(n, k, snr)
        if not _single_peak(lambda t: log_glrd1(t, n, k, snr), mu):
            ok, detail = False, f"time-domain GLR not unimodal at N={n}, k={k}"
            break
        # the frequency-domain GLR: the time-domain one at (L, k + P)
        rho = mu_glrd1(n, k + p, snr)
        if not _single_peak(lambda t: log_glrd1(t, n, k + p, snr), rho):
            ok, detail = False, f"frequency-domain GLR not unimodal at L={n}, P={p}"
            break
    return CheckResult("glr_unimodality", ok, detail)


def _single_peak(fn, extremum: float) -> bool:
    """Whether the elementwise `fn` rises to one maximum, at `extremum`
    to within one grid step, and falls, on a grid up to 4 * extremum."""
    step = 1e-3 * extremum
    grid = np.arange(0.0, 4.0 * extremum, step)
    vals = fn(grid)
    diffs = np.diff(vals)
    signs = np.sign(diffs)
    signs[signs == 0] = 1
    flips = np.flatnonzero(np.diff(signs) != 0)
    if flips.size != 1:
        return False
    return abs(grid[flips[0] + 1] - extremum) <= step


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------

def run_validation(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [
        check_conjugacy(seed),
        check_map_estimates(seed),
        check_clt(seed),
        check_moments(seed),
        check_glr_unimodality(seed),
    ]
