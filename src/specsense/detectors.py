"""Decision statistics and rules for the five detectors.

Names follow the usual spectrum-sensing shorthand: the optimal energy
detector (known noise power), the average-likelihood-ratio detectors
(ALRD1 on time samples under the noise prior, ALRD2 on split frequency
bins with the excess band folded into the denominator), and their
generalized-likelihood-ratio counterparts (GLRD1/GLRD2) whose exact
likelihood ratio is unimodal in the statistic, giving a two-sided rule.
In practice the upper tail beyond the likelihood maximum carries
negligible mass, so the one-sided form (upper threshold at infinity) is
the default operating mode.

Statistic conventions.  The detectors read an observation only through
its sums, so the `DETECTORS` table's statistics take the sums
themselves: `optimal` divides the energy sum sum(r) of the squared
envelopes by the true noise power, ALRD1 and GLRD1 divide it by the
prior rate theta, and ALRD2 and GLRD2 read sum(x) / (theta + sum(y)).
All thresholds in this package live on these scales.  Each row also
names its closed-form law in `analysis` (ALRD2's assumes a deterministic
per-bin signal power; the engine draws a Gaussian one).  Each GLR
detector is its ALR twin, statistic and law, plus a likelihood peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from . import analysis
from .errors import ConfigError

_INF = float("inf")


@dataclass(frozen=True)
class ThresholdSpec:
    """One- or two-sided decision thresholds.

    A single-threshold rule is the band (eta, +inf).  For the two-sided
    GLR rules both ends are finite and must bracket the likelihood
    extremum.
    """

    eta1: float
    eta2: float = _INF

    def __post_init__(self):
        if not self.eta1 < self.eta2:
            raise ValueError(f"need eta1 < eta2, got ({self.eta1}, {self.eta2})")

    def decide(self, statistic):
        """H1 verdict per statistic value (elementwise on arrays)."""
        return (self.eta1 < statistic) & (statistic < self.eta2)


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


def lr_glrd1_value(t: float, n_samples: int, k: int, snr: float) -> float:
    """Time-domain GLR evaluated at statistic value t = sum(r)/theta."""
    n = float(n_samples)
    g = float(snr)
    ratio = (1.0 + t) / (1.0 + g + t)
    return ratio**n * math.exp(g * (n + k) * t / ((1.0 + t) * (1.0 + g + t)))


def lr_glrd2_value(t: float, l_inband: int, p_excess: int, k: int, snr: float) -> float:
    """Frequency-domain GLR evaluated at t = sum(x)/(theta + sum(y))."""
    return lr_glrd1_value(t, l_inband, k + p_excess, snr)


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
    the false-alarm probability), elementwise.  `peak(cfg)` locates the
    likelihood maximum of a GLR detector in the scenario cfg; a row with a
    peak takes the band rule when two-sided operation is requested.
    """

    domain: str
    statistic: Callable
    law: Callable
    peak: Callable | None = None


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
    "glrd1": replace(_ALRD1, peak=lambda cfg: mu_glrd1(
        cfg.n_samples, cfg.prior.k, cfg.signal.snr_linear)),
    "alrd2": _ALRD2,
    "glrd2": replace(_ALRD2, peak=lambda cfg: rho_glrd2(
        cfg.geometry.l_inband, cfg.geometry.p_excess, cfg.prior.k, cfg.signal.snr_linear)),
}


def detector(name: str) -> Detector:
    try:
        return DETECTORS[name]
    except KeyError:
        raise ConfigError(
            f"unknown detector {name!r}; expected one of {sorted(DETECTORS)}"
        ) from None
