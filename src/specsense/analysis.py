"""Closed-form performance: posterior update, MAP noise estimates,
detection probabilities, prior averaging, moments.

Conventions.  All detection expressions are conditional on the true
noise power alpha unless averaged explicitly.  Each statistic has one
law: its detection probability at zero signal (snr = 0) is its
false-alarm probability.  Thresholds are on the statistic scales
defined in `detectors`: the optimal detector's threshold applies to the
energy sum divided by the true noise power (`pd_opt` at alpha = 1; other
alpha values describe the raw energy sum), the ALRD1/GLRD1 threshold to
sum(r)/theta (so its tail argument is eta*theta/(alpha*(1+snr))), and
the ALRD2/GLRD2 threshold to sum(x)/(theta + sum(y)).

The incomplete-gamma and Gaussian forms (`pd_opt` to `pd_alrd2_clt`)
are elementwise: eta, alpha and snr may be arrays that broadcast, so a
threshold grid, a set of prior draws or an (idle, occupied) signal axis
is one scipy call; squares are written x*x, which rounds the same
on scalars and arrays.

The Gaussian (CLT) expression for the excess-band detectors uses the
linearized statistic sum(x) - eta*sum(y) compared against eta*theta,
with bin model: excess bins exponential of mean N*alpha; in-band bins
|e + v|^2 with noise bin v of power N*alpha and signal contribution e
of fixed power N*alpha*snr (the engine draws e Gaussian of that power,
so at snr > 0 this is not the law of the simulated trials).

Next to it, `pfa_alrd2_exact` gives the exact H0 false-alarm
probability of the ALRD2 ratio as a finite sum (integer L).  The tests
hold the exact form to 1e-10 against an mpmath quadrature oracle and to
0.03 against simulation (acceptance criterion 6); the Gaussian form is
held to a 0.05 envelope at 20 bins, since with so few bins its own
approximation error reaches about 0.045.

Every `scipy` submodule is imported inside the function that calls it:
the CLI imports this module for every command, and `roc`, `cdf` and
`calibrate` evaluate no closed form, so they never load one.
`tests/test_imports.py` holds `import specsense.cli` to that, and
`validate` to loading no `scipy.stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import stream_seeker
from .signals import ChannelSpec, NoisePrior, channel_gain, draw_noise_power


# ---------------------------------------------------------------------------
# Posterior and MAP estimation from the excess band
# ---------------------------------------------------------------------------

def posterior_update(prior: NoisePrior, y_sum: float, p_excess: int) -> NoisePrior:
    """Conjugate update from P excess-band bins of sum y_sum: the
    precision posterior Gamma(k + 1 + P, theta + y_sum), the prior's own
    family at k + P and theta + y_sum."""
    if p_excess < 1:
        raise ValueError("need at least one excess-band bin")
    if not 0.0 <= y_sum < math.inf:
        raise ValueError(f"excess-band sum must be finite and nonnegative, got {y_sum}")
    return NoisePrior(k=prior.k + p_excess, theta=prior.theta + y_sum)


def map_noise_power(prior: NoisePrior, snr: float, r: np.ndarray) -> float:
    """MAP estimate of the noise power from N samples r of power
    alpha*(1+snr), (theta + sum(r)/(1+snr)) / (N + k); snr = 0 is the
    idle channel (H0).  The in-band bins' estimate is this at the
    excess band's posterior: `map_noise_power(posterior_update(prior,
    sum(y), P), snr, x)`, (theta + sum(y) + sum(x)/(1+snr)) / (L + k + P).
    """
    return (prior.theta + float(np.sum(r)) / (1.0 + snr)) / (np.size(r) + prior.k)


# ---------------------------------------------------------------------------
# Incomplete-gamma performance of the known-noise and time-domain detectors
# ---------------------------------------------------------------------------

def pd_opt(n_samples: int, alpha: float, snr: float, eta: float) -> float:
    """Detection probability of the energy sum at threshold eta; at
    snr = 0 the false-alarm probability.

    The energy sum is Gamma(N, alpha*(1+snr)), so this is the regularized
    upper incomplete gamma Q(N, eta/(alpha*(1+snr))), `scipy.special.gammaincc`.
    A tail argument that is non-finite or negative is a `ValueError`.
    """
    from scipy.special import gammaincc

    if n_samples < 1:
        raise ValueError("need at least one sample")
    x = np.asarray(eta / (alpha * (1.0 + snr)), dtype=float)
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if bad.any():
        raise ValueError(f"tail argument must be finite and >= 0, got {x[bad][0]}")
    out = gammaincc(n_samples, x)
    return float(out) if out.ndim == 0 else out


def pd_alrd1(n_samples: int, alpha: float, prior: NoisePrior, snr: float,
             eta: float) -> float:
    """Detection probability of sum(r)/theta at threshold eta; at snr = 0
    the false-alarm probability.

    The statistic is the energy sum scaled by 1/theta, so the tail
    argument is eta*theta/(alpha*(1+snr)).
    """
    return pd_opt(n_samples, alpha, snr, eta * prior.theta)


# ---------------------------------------------------------------------------
# Exact and Gaussian-approximation performance of the excess-band detectors
# ---------------------------------------------------------------------------

def pfa_alrd2_exact(l_inband: int, p_excess: int, n_samples: int, alpha: float,
                    theta: float, eta):
    """Exact P(sum(x) > eta*(theta + sum(y)) | H0), the false-alarm
    probability of the ratio sum(x)/(theta + sum(y)) at threshold eta,
    elementwise over eta (a scalar gives a Python float).

    Under H0 with alpha known, sum(x) ~ Gamma(L, N*alpha) and
    sum(y) ~ Gamma(P, N*alpha) are independent.  Conditional on sum(y)
    the tail is the Erlang sum P(Poisson(c) <= L-1) at
    c = eta*(theta + sum(y))/(N*alpha) = a + eta*sum(y)/(N*alpha), with
    a = eta*theta/(N*alpha).  Split the Poisson variable into the
    independent parts A ~ Poisson(a) and B ~ Poisson(eta*sum(y)/(N*alpha));
    averaged over sum(y), B is negative binomial with P successes of
    probability 1/(1+eta).  So the tail is P(A + B <= L-1), the O(L) sum

        sum_{j<L} Poisson(j; a) * NB_cdf(L-1-j; P, 1/(1+eta)).
    """
    from scipy.special import gammaln, nbdtr, xlogy

    if l_inband < 1 or p_excess < 1:
        raise ValueError("need at least one in-band and one excess-band bin")
    eta = np.asarray(eta, dtype=float)
    e = np.where(eta > 0, eta, 1.0)[..., None]  # j runs along the trailing axis
    a = e * theta / (n_samples * alpha)
    j = np.arange(l_inband)
    pois = np.exp(xlogy(j, a) - a - gammaln(j + 1.0))
    tail = np.sum(pois * nbdtr(l_inband - 1 - j, p_excess, 1.0 / (1.0 + e)), axis=-1)
    out = np.where(eta > 0, np.minimum(1.0, tail), 1.0)  # eta <= 0 always decides H1
    return float(out) if out.ndim == 0 else out


def pd_alrd2_clt(l_inband: int, p_excess: int, n_samples: int, alpha: float,
                 theta: float, snr: float, eta: float) -> float:
    """Gaussian approximation of the detection probability with a
    deterministic per-bin signal power |h*s|^2 = N*alpha*snr.

    Each in-band bin is |h*s + v|^2 with noise power N*alpha, so it has
    mean N*alpha*(1 + snr) and variance (N*alpha)^2*(1 + 2*snr).  At
    snr = 0 it is the Gaussian approximation of the false-alarm
    probability, with mean N*alpha*(L - P*eta) and variance
    (N*alpha)^2*(L + P*eta^2).  The tail is the standard Gaussian
    Q(z) = erfc(z/sqrt(2))/2; a non-finite z is a `ValueError`.
    """
    from scipy.special import erfc

    na = n_samples * alpha
    ps = na * snr
    mean = l_inband * (ps + na) - eta * p_excess * na
    var = l_inband * (na * na + 2.0 * na * ps) + p_excess * (eta * eta) * (na * na)
    z = np.asarray((theta * eta - mean) / np.sqrt(var))
    if not np.isfinite(z).all():
        raise ValueError("the Gaussian tail needs a finite argument")
    out = 0.5 * erfc(z / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Averaging conditional probabilities over the prior
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AveragedProbability:
    value: float
    stderr: float
    draws: int


def average_over_prior(point_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                       prior: NoisePrior, mc_draws: int, seed: int,
                       channel: ChannelSpec = ChannelSpec()) -> AveragedProbability:
    """Monte Carlo average of a conditional probability over the prior.

    `point_fn(alphas, gains, zeros)` is called once with three arrays of
    length `mc_draws`: noise powers from the prior, real channel
    amplitudes |h| = sqrt(`signals.channel_gain`) (all 1 on AWGN, which
    draws nothing) and zeros.  The closed forms take a gain only through
    snr*|h|^2, so a real amplitude carries the whole channel law.  The
    zeros keep the three-argument `lambda a, h, s: ...` of the
    benchmark's `closed_forms` workload working; the ROADMAP's
    dead-weight sweep deletes this function once that workload reads the
    exact prior-averaged laws.  `point_fn` returns one value per draw, as
    the closed forms above do, or a scalar that counts for every draw.
    The draws come from stream 0 of `numerics.stream_seeker(seed)`.
    Returns the mean with its standard error.
    """
    if mc_draws < 1:
        raise ValueError("mc_draws must be >= 1")
    gen = stream_seeker(seed)[0]
    alphas = draw_noise_power(prior, gen, size=mc_draws)
    gains = np.sqrt(channel_gain(channel, gen, size=mc_draws))
    vals = point_fn(alphas, gains, np.zeros(mc_draws))
    vals = np.broadcast_to(np.asarray(vals, dtype=float), (mc_draws,))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(mc_draws)) if mc_draws > 1 else 0.0
    return AveragedProbability(value=float(np.mean(vals)), stderr=stderr, draws=mc_draws)


# ---------------------------------------------------------------------------
# Statistic moments under H1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentPair:
    mean: float
    variance: float


def traditional_statistic_moments(n_samples: int, alpha: float,
                                  snr: float) -> MomentPair:
    """Mean and variance of the energy sum under H1 (i.i.d. exponential
    envelopes of mean alpha*(1+snr))."""
    m = n_samples * alpha * (1.0 + snr)
    return MomentPair(mean=m, variance=n_samples * (alpha * (1.0 + snr)) ** 2)


def proposed_statistic_moments(l_inband: int, p_excess: int, n_samples: int,
                               alpha: float, snr: float, eta: float) -> MomentPair:
    """Mean and variance of the linearized excess-band statistic
    sum(x) - eta * sum(y) under H1, from the bin model: independent
    in-band bins, exponential of mean N*alpha*(1+snr), and excess bins of
    mean N*alpha."""
    na = n_samples * alpha
    return MomentPair(
        mean=na * (l_inband * (1.0 + snr) - p_excess * eta),
        variance=na**2 * (l_inband * (1.0 + snr) ** 2 + p_excess * eta**2),
    )
