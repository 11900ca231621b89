"""Decision statistics and rules for the five detectors.

Names follow the usual spectrum-sensing shorthand: the optimal energy
detector (known noise power), the average-likelihood-ratio detectors
(ALRD1 on time samples under the noise prior, ALRD2 on split frequency
bins with the excess band folded into the denominator), and their
generalized-likelihood-ratio counterparts (GLRD1/GLRD2).  Every detector
decides H1 when its statistic exceeds a threshold.  A GLR detector's
likelihood ratio is unimodal in its ALR twin's statistic, so by default
it takes the twin's one-sided rule; run two-sided, its statistic is its
own log-GLR (`Detector.log_lr`), and the one-sided rule on that is the
GLRT's band around the likelihood peak.

Statistic conventions.  The detectors read an observation only through
its sums, so the `DETECTORS` table's statistics take the sums
themselves: `optimal` divides the energy sum sum(r) of the squared
envelopes by the true noise power, ALRD1 and GLRD1 divide it by the
prior rate theta, and ALRD2 and GLRD2 read sum(x) / (theta + sum(y)).
All thresholds in this package live on these scales, or on the log-GLR
scale of a two-sided GLR detector.  Each row also names its closed-form
law in `analysis` (ALRD2's assumes a deterministic per-bin signal power;
the engine draws a Gaussian one).  Each GLR detector is its ALR twin,
statistic and law, plus its log-GLR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import analysis
from .errors import ConfigError


# ---------------------------------------------------------------------------
# GLR likelihood values and extremum locations
# ---------------------------------------------------------------------------

def mu_glrd1(n_samples: int, k: int, snr: float) -> float:
    """Location of the single maximum of the time-domain GLR in the
    scaled statistic t = sum(r)/theta.

    mu = [N(2+g) + sqrt((2+g)^2 N^2 + 4k(1+g)(2N+k))] / (2k)
    """
    if k < 1:
        raise ValueError("prior shape offset k must be >= 1 (k = 0 divides by zero)")
    n = float(n_samples)
    g = float(snr)
    disc = (2.0 + g) ** 2 * n**2 + 4.0 * k * (1.0 + g) * (2.0 * n + k)
    return (n * (2.0 + g) + math.sqrt(disc)) / (2.0 * k)


def rho_glrd2(l_inband: int, p_excess: int, k: int, snr: float) -> float:
    """Location of the single maximum of the frequency-domain GLR in
    t = sum(x) / (theta + sum(y)): `mu_glrd1` with L in place of N and
    k+P in place of k.
    """
    if k + p_excess < 1:
        raise ValueError("k + P must be >= 1")
    return mu_glrd1(l_inband, k + p_excess, snr)


def log_glrd1(t, n_samples: int, k: int, snr: float):
    """Log of the time-domain GLR at statistic value t = sum(r)/theta,
    elementwise over an array of t:

    N log(1 - g/(1+g+t)) + g (N+k) t / ((1+t)(1+g+t)),

    which does not underflow where the GLR's factor ((1+t)/(1+g+t))^N does.
    """
    g = float(snr)
    return (n_samples * np.log1p(-g / (1.0 + g + t))
            + g * (n_samples + k) * t / ((1.0 + t) * (1.0 + g + t)))


def log_glrd2(t, l_inband: int, p_excess: int, k: int, snr: float):
    """Log of the frequency-domain GLR at t = sum(x)/(theta + sum(y)):
    `log_glrd1` with L in place of N and k+P in place of k."""
    return log_glrd1(t, l_inband, k + p_excess, snr)


# ---------------------------------------------------------------------------
# Detector table used by the Monte Carlo engine and `curves`
# ---------------------------------------------------------------------------

TIME = "time"
FREQ = "freq"


@dataclass(frozen=True)
class Detector:
    """One detector: the observation form it reads, how it decides, its law.

    `statistic(obs, alpha, prior)` reads the sums that
    `montecarlo.observe` returns, elementwise over trials: sum(r) (TIME)
    or the pair (sum(x), sum(y)) (FREQ).  Only `optimal` reads alpha,
    normalizing its energy sum by the true noise power so one threshold
    applies across trials with varying noise.  `law(cfg, alpha, snr, eta)`
    is the closed-form P(statistic > eta) at noise power alpha (at snr = 0
    the false-alarm probability), elementwise.  A GLR row's `log_lr(cfg,
    t)` is its log-GLR at statistic values t at the scenario's SNR,
    elementwise; it peaks at `mu_glrd1` or `rho_glrd2`.  With
    cfg.glr_two_sided set, the Monte Carlo engine's block loop maps the
    row's statistic through it.
    """

    domain: str
    statistic: Callable
    law: Callable
    log_lr: Callable | None = None


# The laws look `analysis` up at call time, so a patched or traced form runs.
_ALRD1 = Detector(TIME, lambda sum_r, alpha, prior: sum_r / prior.theta,
                  lambda cfg, alpha, snr, eta: analysis.pd_alrd1(
                      cfg.n_samples, alpha, cfg.prior, snr, eta))
_ALRD2 = Detector(FREQ, lambda xy, alpha, prior: xy[0] / (prior.theta + xy[1]),
                  lambda cfg, alpha, snr, eta: analysis.pd_alrd2_clt(
                      cfg.geometry.l_inband, cfg.geometry.p_excess, cfg.n_samples,
                      alpha, cfg.prior.theta, snr, eta))

DETECTORS = {
    # a statistic divided by the true noise power has its law at alpha = 1
    "optimal": Detector(TIME, lambda sum_r, alpha, prior: sum_r / alpha,
                        lambda cfg, alpha, snr, eta: analysis.pd_opt(
                            cfg.n_samples, 1.0, snr, eta)),
    "alrd1": _ALRD1,
    "glrd1": replace(_ALRD1, log_lr=lambda cfg, t: log_glrd1(
        t, cfg.n_samples, cfg.prior.k, cfg.signal.snr_linear)),
    "alrd2": _ALRD2,
    "glrd2": replace(_ALRD2, log_lr=lambda cfg, t: log_glrd2(
        t, cfg.geometry.l_inband, cfg.geometry.p_excess, cfg.prior.k,
        cfg.signal.snr_linear)),
}


def detector(name: str) -> Detector:
    try:
        return DETECTORS[name]
    except KeyError:
        raise ConfigError(
            f"unknown detector {name!r}; expected one of {sorted(DETECTORS)}"
        ) from None
