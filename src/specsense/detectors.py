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

Statistic conventions: `t_opt` is the plain energy sum of the squared
envelopes; `t_alrd1` divides it by the prior rate theta; `t_alrd2` is
sum(x) / (theta + sum(y)).  All thresholds in this package live on these
scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .signals import NoisePrior

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

    def decide(self, statistic: float) -> bool:
        return self.eta1 < statistic < self.eta2


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def t_opt(r: np.ndarray) -> float:
    """Energy statistic sum(r); decide H1 when it exceeds the threshold."""
    return float(np.asarray(r).sum())


def t_alrd1(r: np.ndarray, prior: NoisePrior) -> float:
    """Prior-scaled energy statistic sum(r) / theta."""
    return float(np.asarray(r).sum()) / prior.theta


def t_alrd2(x: np.ndarray, y: np.ndarray, prior: NoisePrior) -> float:
    """Excess-band-normalized statistic sum(x) / (theta + sum(y))."""
    return float(np.asarray(x).sum()) / (prior.theta + float(np.asarray(y).sum()))


def phi_statistic(x: np.ndarray, y: np.ndarray, eta: float) -> float:
    """Linearized form sum(x) - eta * sum(y).

    Deciding H1 when it exceeds eta * theta is algebraically identical to
    t_alrd2 > eta; this form is what the Gaussian-approximation
    performance expressions are written for.
    """
    return float(np.asarray(x).sum()) - eta * float(np.asarray(y).sum())


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
    t = sum(x) / (theta + sum(y)); same algebraic form as `mu_glrd1`
    with L in place of N and k+P in place of k.
    """
    kp = k + p_excess
    if kp < 1:
        raise ValueError("k + P must be >= 1")
    l = float(l_inband)
    g = float(snr)
    disc = (2.0 + g) ** 2 * l**2 + 4.0 * kp * (1.0 + g) * (2.0 * l + kp)
    return (l * (2.0 + g) + math.sqrt(disc)) / (2.0 * kp)


def lr_glrd1_value(t: float, n_samples: int, k: int, snr: float) -> float:
    """Time-domain GLR evaluated at statistic value t = sum(r)/theta."""
    n = float(n_samples)
    g = float(snr)
    ratio = (1.0 + t) / (1.0 + g + t)
    return ratio**n * math.exp(g * (n + k) * t / ((1.0 + t) * (1.0 + g + t)))


def lr_glrd2_value(t: float, l_inband: int, p_excess: int, k: int, snr: float) -> float:
    """Frequency-domain GLR evaluated at t = sum(x)/(theta + sum(y))."""
    l = float(l_inband)
    g = float(snr)
    ratio = (1.0 + t) / (1.0 + g + t)
    return ratio**l * math.exp(
        g * (l + k + p_excess) * t / ((1.0 + t) * (1.0 + g + t)))


# ---------------------------------------------------------------------------
# Registry used by the Monte Carlo engine
# ---------------------------------------------------------------------------

TIME = "time"
FREQ = "freq"


@dataclass(frozen=True)
class DetectorDef:
    name: str
    domain: str          # which observation form the statistic consumes
    two_sided_capable: bool = False


DETECTORS = {
    "optimal": DetectorDef("optimal", TIME),
    "alrd1": DetectorDef("alrd1", TIME),
    "glrd1": DetectorDef("glrd1", TIME, two_sided_capable=True),
    "alrd2": DetectorDef("alrd2", FREQ),
    "glrd2": DetectorDef("glrd2", FREQ, two_sided_capable=True),
}


def detector_def(name: str) -> DetectorDef:
    try:
        return DETECTORS[name]
    except KeyError:
        raise ConfigError(
            f"unknown detector {name!r}; expected one of {sorted(DETECTORS)}"
        ) from None


def detector_statistic(name: str, *, prior: NoisePrior,
                       r: np.ndarray | None = None,
                       x: np.ndarray | None = None,
                       y: np.ndarray | None = None,
                       true_noise_power: float | None = None) -> float:
    """Statistic value for a registered detector on one trial.

    The optimal detector is the known-noise-power reference: its energy
    sum is normalized by the trial's true noise power so a single
    threshold applies across trials with varying noise.
    """
    d = detector_def(name)
    if d.domain == TIME:
        if r is None:
            raise ConfigError(f"detector {name!r} needs time-domain samples")
        if name == "optimal":
            if true_noise_power is None:
                raise ConfigError("optimal detector needs the true noise power")
            return t_opt(r) / true_noise_power
        return t_alrd1(r, prior)
    if x is None or y is None:
        raise ConfigError(f"detector {name!r} needs split frequency bins")
    return t_alrd2(x, y, prior)
