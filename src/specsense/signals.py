"""Scenario description, and the noise-power, channel-gain and spectral
shaping laws of a trial.

The receiver's noise power is uncertain: the noise *precision* (inverse
power) follows a Gamma(k+1, theta) prior, so the prior mean noise power
is theta/k.  Each trial draws a noise power from that prior, a channel
power gain |h|^2, and then the sums of its envelopes and bins, under
white bins (model source) or under the bin law of a raised-cosine shaped
signal (waveform source); `montecarlo.observe` draws them.  The
detectors read the channel only through the received signal power, so
the power gain is the whole channel law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .observation import BandGeometry, band_split_indices

AWGN = "awgn"
RAYLEIGH = "rayleigh"
NAKAGAMI = "nakagami"

MODEL = "model"
WAVEFORM = "waveform"


@dataclass(frozen=True)
class NoisePrior:
    """Gamma prior on the noise precision: 1/alpha ~ Gamma(k+1, theta).

    k >= 1 guarantees the prior mean noise power theta/k exists.  The
    family is conjugate to the excess band, so the posterior after it
    (`analysis.posterior_update`) is a `NoisePrior` too.
    """

    k: int
    theta: float

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ConfigError(f"prior shape offset k must be an integer >= 1, got {self.k}")
        if not (self.theta > 0 and math.isfinite(self.theta)):
            raise ConfigError(f"prior rate theta must be positive, got {self.theta}")

    @property
    def precision_shape(self) -> float:
        return self.k + 1.0

    @property
    def mean_noise_power(self) -> float:
        return self.theta / self.k

    def pdf(self, lam):
        """Density of the precision, the prior or the posterior after the
        excess band, Gamma(precision_shape, rate theta), at lam; zero for
        lam < 0, and a scalar gives a Python float.  Written in log space
        with `scipy.special`, not `scipy.stats`, whose import costs more
        than the whole CLI's."""
        from scipy.special import gammaln, xlogy

        lam = np.asarray(lam, dtype=float)
        shape = self.precision_shape
        x = self.theta * np.maximum(lam, 0.0)
        dens = self.theta * np.exp(xlogy(shape - 1.0, x) - x - gammaln(shape))
        out = np.where(lam < 0.0, 0.0, dens)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class SignalSpec:
    """Occupied-band description: bandwidth, roll-off and SNR.  Blocks
    are critically sampled, at `sample_rate_hz` = (1 + rolloff) *
    bandwidth, so every DFT bin lies in the occupied band."""

    bandwidth_hz: float
    rolloff: float
    snr_linear: float

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth must be positive")
        if not (0.0 < self.rolloff <= 1.0):
            raise ConfigError(f"rolloff must lie in (0, 1], got {self.rolloff}")
        if self.snr_linear < 0:
            raise ConfigError("snr must be nonnegative")

    @property
    def sample_rate_hz(self) -> float:
        return (1.0 + self.rolloff) * self.bandwidth_hz


@dataclass(frozen=True)
class ChannelSpec:
    """Channel gain law; fading kinds are normalized to E[|h|^2] = 1.
    Only a Nakagami channel takes `nakagami_m`, a finite m >= 0.5."""

    kind: str = AWGN
    nakagami_m: float | None = None

    def __post_init__(self):
        if self.kind not in (AWGN, RAYLEIGH, NAKAGAMI):
            raise ConfigError(f"unknown channel kind {self.kind!r}")
        if self.kind != NAKAGAMI:
            if self.nakagami_m is not None:
                raise ConfigError(f"nakagami_m is set on a {self.kind} channel")
        elif not (self.nakagami_m is not None and 0.5 <= self.nakagami_m < math.inf):
            raise ConfigError(f"nakagami channel requires a finite nakagami_m >= 0.5, "
                              f"got {self.nakagami_m}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte Carlo experiment leg.

    It names no hypothesis: the trial phase decides whether the channel
    is idle or occupied.  `noise_power` pins the noise power instead of
    drawing it from the prior.  `source` selects direct model sampling
    ("model") or the shaped-waveform path ("waveform").  `glr_two_sided`
    makes the GLR detectors' statistics their log-GLRs, which needs a
    nonzero SNR.
    """

    n_samples: int
    prior: NoisePrior
    signal: SignalSpec
    channel: ChannelSpec
    trials: int
    master_seed: int
    noise_power: float | None = None
    source: str = MODEL
    glr_two_sided: bool = False

    def __post_init__(self):
        if self.n_samples < 2:
            raise ConfigError("need at least two samples per block")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if not 0 <= self.master_seed < 1 << 128:
            raise ConfigError("master seed must lie in [0, 2**128)")
        if self.source not in (MODEL, WAVEFORM):
            raise ConfigError(f"unknown observation source {self.source!r}")
        if self.noise_power is not None and self.noise_power <= 0:
            raise ConfigError("pinned noise power must be positive")
        if self.glr_two_sided and self.signal.snr_linear == 0.0:
            raise ConfigError("glr_two_sided needs a nonzero linear SNR, but snr_db "
                              "gives 0: the log-GLR is then identically 0")

    @cached_property
    def geometry(self) -> BandGeometry:
        """Bin counts of `bands`."""
        inband, excess = self.bands
        return BandGeometry(l_inband=inband.size, p_excess=excess.size)

    @cached_property
    def bands(self):
        """In-band and excess-band DFT bin indices, split once per scenario."""
        return band_split_indices(self.n_samples, self.signal)

    @cached_property
    def shaping(self) -> np.ndarray:
        """Waveform shaping: the square root of the raised-cosine profile
        on the DFT grid."""
        spec = self.signal
        freqs = np.fft.fftfreq(self.n_samples, d=1.0 / spec.sample_rate_hz)
        return np.sqrt(raised_cosine_profile(freqs, spec.bandwidth_hz, spec.rolloff))

    @cached_property
    def bin_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The waveform source's DFT bins grouped by signal gain: for the
        in-band and excess-band bins in turn, the bin count of each group
        and its gain c = N * mask^2 / sum(mask^2), by ascending c.  A
        group holds the bins of one band with equal mask^2, so its bins
        share the power law N * alpha * (1 + snr * |h|^2 * c) * Exp(1)."""
        mask2 = self.shaping**2
        groups = []
        for bins in self.bands:
            values, counts = np.unique(mask2[bins], return_counts=True)
            groups.append((counts, self.n_samples * values / mask2.sum()))
        return tuple(groups)


def draw_noise_power(prior: NoisePrior, gen: np.random.Generator, size) -> np.ndarray:
    """Noise powers alpha = 1/lambda with lambda ~ Gamma(k+1, theta), an
    array of shape `size`."""
    return 1.0 / gen.gamma(prior.precision_shape, 1.0 / prior.theta, size)


def channel_gain(channel: ChannelSpec, gen: np.random.Generator, size) -> np.ndarray:
    """Channel power gains |h|^2, a real array of shape `size`.

    AWGN is the unfaded reference (|h|^2 = 1 exactly).  Nakagami-m draws
    |h|^2 ~ Gamma(m, rate m), which has mean 1; Rayleigh is m = 1, the
    Exp(1) power of a unit circular complex Gaussian gain.
    """
    if channel.kind == AWGN:
        return np.ones(size)
    m = 1.0 if channel.kind == RAYLEIGH else channel.nakagami_m
    return gen.standard_gamma(m, size) / m


def raised_cosine_profile(f, bandwidth_hz: float, rolloff: float):
    """Normalized raised-cosine power profile at frequency f (peak 1).

    Flat out to (1-rolloff)B/2, cosine transition down to zero at
    (1+rolloff)B/2, value 1/2 at the nominal band edge B/2.
    """
    f = np.abs(np.asarray(f, dtype=float))
    inner = (1.0 - rolloff) * bandwidth_hz / 2.0
    outer = (1.0 + rolloff) * bandwidth_hz / 2.0
    profile = np.zeros_like(f)
    profile[f <= inner] = 1.0
    transition = (f > inner) & (f <= outer)
    profile[transition] = 0.5 * (1.0 + np.cos(
        math.pi * (f[transition] - inner) / (rolloff * bandwidth_hz)))
    return profile if profile.ndim else float(profile)

