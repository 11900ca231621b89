"""Monte Carlo trial engine: observations, statistic sampling, threshold
calibration, empirical CDFs and ROC sweeps.

`observe` is the library's one observation model.  Trials run in blocks
of `TRIAL_CHUNK`, and each (phase, block, kind of variate) owns its own
counter-based random stream: calibration, H0 evaluation and H1
evaluation never share randomness, results do not depend on execution
order, on the trial count or on the detector list, and rerunning with
the same configuration and master seed is bit-identical.  The phase also
picks the hypothesis: only `PHASE_EVAL_H1` trials see an occupied
channel.  Calibration and H0 evaluation trials draw no channel gain and
read no channel field, so they are the same for every channel, and
`roc_sweep_channels` runs them once for all the channels of one
`n_samples` value.

Every buffer of a block is one whole-array draw, and the scaling,
mixing, FFTs, band split and statistics run on the whole block, one row
per trial.

Calibration has one path: `calibration_cdfs` runs the H0 calibration
trials of a whole detector list at once and `calibrate` reads the
thresholds off those CDFs; `roc_sweep_channels` and the `roc`,
`calibrate` and `cdf` commands all go through it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import detectors as det
from . import signals as sig
from .errors import ConfigError, NumericFailure
from .numerics import stream_seeker
from .observation import spectrum_bins, squared_envelope

PHASE_CALIBRATION = 1
PHASE_EVAL_H0 = 2
PHASE_EVAL_H1 = 3

# share of a band rule's false-alarm budget placed above its upper edge
_UPPER_SHARE = Fraction(1, 10)

# Trials per block.  It is part of the stream layout: every block draws
# its variates for TRIAL_CHUNK trials, so changing it moves every output.
# It is fixed, never derived from the trial count, so trial i does not
# depend on the trial count and peak memory stays flat as trials grow.
TRIAL_CHUNK = 1024

# The kinds of variate a block draws, each from its own stream.
KIND_PRIOR = 0  # noise precision, then channel gain
KIND_TIME = 1   # time samples: noise, then signal
KIND_BINS = 2   # model-source frequency bins

# Stream index bits below the phase: block, then kind.
_BLOCK_BITS = 38
_KIND_BITS = 2


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054
                    ) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# Trial engine
# ---------------------------------------------------------------------------

def stream_index(phase: int, block: int, kind: int) -> int:
    """The `numerics.stream_seeker` stream of kind `kind` (`KIND_PRIOR`,
    `KIND_TIME` or `KIND_BINS`) of block `block` in `phase`:
    (phase << 40) | (block << 2) | kind.  A block outside [0, 2**38), the
    blocks of 2**48 trials, is a `ConfigError`."""
    if not 0 <= block < 1 << _BLOCK_BITS:
        raise ConfigError("block index out of range")
    return (((phase << _BLOCK_BITS) | block) << _KIND_BITS) | kind


def observe(cfg: sig.ScenarioConfig, domains: set[str], phase: int,
            block: int) -> tuple[dict, np.ndarray]:
    """Observations of block `block` of `phase`, trials block * TRIAL_CHUNK
    up to the next block or cfg.trials, one row per trial, plus their
    noise powers alpha.

    `obs[TIME]` holds the squared envelopes r and `obs[FREQ]` the split
    bins (x in-band, y excess-band), for each domain of `domains`.  Each
    kind of variate reads its own stream (`stream_index`), in this order:

    - `KIND_PRIOR`: the noise precisions (unless the noise power is
      pinned), then the channel gains (occupied channel, unless pinned);
    - `KIND_TIME`: the time samples' white noise, then their signal
      (occupied channel, nonzero SNR).  On the waveform source the signal
      is white symbols shaped by the square root of the raised-cosine
      profile (`cfg.shaping`), and both observation forms come from it;
    - `KIND_BINS` (model source): the excess-band exponentials, then the
      in-band exponentials (idle channel) or the in-band noise and then
      the signal (occupied channel, unless the signal is pinned).

    Every buffer is one whole-array draw of TRIAL_CHUNK rows, also in a
    short last block: numpy's gamma sampler rejects a varying number of
    candidates, so drawing fewer rows would shift every later buffer.  A
    row thus depends on (cfg, phase, trial) alone, not on the trial count
    or on the other domains observed.  A block holding none of the
    trials 0 .. cfg.trials - 1 is a `ConfigError`.
    """
    start = block * TRIAL_CHUNK
    if not 0 <= start < cfg.trials:
        raise ConfigError("block index out of range")
    rows = min(TRIAL_CHUNK, cfg.trials - start)
    gen, seek = stream_seeker(cfg.master_seed)
    occupied = phase == PHASE_EVAL_H1
    n, snr = cfg.n_samples, cfg.signal.snr_linear
    signal = occupied and snr != 0.0

    def normals(width: int) -> np.ndarray:
        """The stream's next complex normals, E|c|^2 = 2, one row per trial."""
        return gen.standard_normal((TRIAL_CHUNK, 2 * width))[:rows].view(complex)

    seek(stream_index(phase, block, KIND_PRIOR))
    alpha = (np.full(rows, cfg.noise_power) if cfg.noise_power is not None
             else sig.draw_noise_power(cfg.prior, gen, TRIAL_CHUNK)[:rows])
    if cfg.pinned_channel is not None:
        h = complex(cfg.pinned_channel)
    elif occupied:
        h = sig.channel_gain(cfg.channel, gen, TRIAL_CHUNK)[:rows, None]

    obs = {}
    if cfg.source == sig.WAVEFORM or det.TIME in domains:
        seek(stream_index(phase, block, KIND_TIME))
        z = np.sqrt(alpha / 2.0)[:, None] * normals(n)
        if signal:
            s, power = normals(n), 2.0
            if cfg.source == sig.WAVEFORM:
                mask, power = cfg.shaping
                s = np.fft.ifft(mask * (math.sqrt(0.5) * s), axis=1)
            z = h * (np.sqrt(alpha * snr / power)[:, None] * s) + z
        if det.TIME in domains:
            obs[det.TIME] = squared_envelope(z)
        if det.FREQ in domains and cfg.source == sig.WAVEFORM:
            w = spectrum_bins(z)
            inband, excess = cfg.bands
            # take keeps each trial's bins contiguous, so each row sums as alone
            obs[det.FREQ] = w.take(inband, axis=1), w.take(excess, axis=1)
    if det.FREQ in domains and cfg.source == sig.MODEL:
        seek(stream_index(phase, block, KIND_BINS))
        geom = cfg.geometry
        scale = (n * alpha)[:, None]
        y = scale * gen.standard_exponential((TRIAL_CHUNK, geom.p_excess))[:rows]
        if not occupied:
            x = scale * gen.standard_exponential((TRIAL_CHUNK, geom.l_inband))[:rows]
        else:
            v = np.sqrt(scale / 2.0) * normals(geom.l_inband)
            if cfg.pinned_signal is not None:
                v = h * cfg.pinned_signal + v
            elif signal:
                v = h * (np.sqrt(scale * snr / 2.0) * normals(geom.l_inband)) + v
            x = np.abs(v) ** 2
        obs[det.FREQ] = x, y
    return obs, alpha


def trial_statistics(cfg: sig.ScenarioConfig, detector_names: Sequence[str],
                     phase: int) -> dict[str, np.ndarray]:
    """Statistic samples for several detectors over the same trials.

    Trials 0 .. cfg.trials - 1 of `phase` are observed (`observe`) one
    block of `TRIAL_CHUNK` trials at a time and reduced by the detector
    table.  Returns one array of length cfg.trials per detector name.
    """
    if cfg.trials > TRIAL_CHUNK << _BLOCK_BITS:
        raise ConfigError("trial index out of range")
    rows = {name: det.detector(name) for name in detector_names}
    domains = {row.domain for row in rows.values()}
    out = {name: np.empty(cfg.trials) for name in rows}
    for start in range(0, cfg.trials, TRIAL_CHUNK):
        obs, alpha = observe(cfg, domains, phase, start // TRIAL_CHUNK)
        for name, row in rows.items():
            out[name][start:start + alpha.size] = row.statistic(
                obs[row.domain], alpha, cfg.prior)
    for name, vals in out.items():
        if not np.all(np.isfinite(vals)):
            raise NumericFailure(f"non-finite statistic produced by {name!r}")
    return out


# ---------------------------------------------------------------------------
# Empirical CDF and calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalCdf:
    """Empirical distribution of a decision statistic."""

    values: np.ndarray  # sorted ascending

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalCdf":
        return cls(values=np.sort(np.asarray(samples, dtype=float)))

    def evaluate(self, t):
        """Fraction of samples <= t, elementwise over an array of t."""
        return np.searchsorted(self.values, t, side="right") / self.values.size

    def quantile(self, q: float | Fraction) -> float:
        """Smallest sample value v with evaluate(v) >= q.  A `Fraction`
        level is exact: the rank ceil(q * n) is then not rounded."""
        if not (0 < q <= 1):
            raise ValueError("quantile level must lie in (0, 1]")
        n = self.values.size
        idx = max(0, math.ceil(q * n) - 1)
        return float(self.values[idx])


def calibration_cdfs(cfg: sig.ScenarioConfig,
                     names: Sequence[str]) -> dict[str, EmpiricalCdf]:
    """H0 distributions of several decision statistics, all read off the
    same calibration-phase trials."""
    cal = trial_statistics(cfg, names, PHASE_CALIBRATION)
    return {name: EmpiricalCdf.from_samples(vals) for name, vals in cal.items()}


def _thresholds(cdf: EmpiricalCdf, p: float, banded: bool) -> det.ThresholdSpec:
    """Thresholds with H0 decision mass p, read off the calibration CDF.

    One-sided: P(stat > eta1 | H0) = p.  Banded: the upper tail gets
    `_UPPER_SHARE` of the budget, P(stat > eta2 | H0) = _UPPER_SHARE * p
    and P(stat > eta1 | H0) = (1 + _UPPER_SHARE) * p.  A threshold of
    upper mass m leaves floor(m * n) of the n samples above it, with m
    taken exactly from the decimal p (in floats, 1.0 - 0.7 overshoots).
    """
    mass = Fraction(repr(p))
    if not banded:
        return det.ThresholdSpec(eta1=cdf.quantile(1 - mass))
    p_lo = (1 + _UPPER_SHARE) * mass
    if p_lo >= 1:
        raise ConfigError(
            f"target false-alarm probability {p:g} too large for a band rule "
            f"(need below {float(1 / (1 + _UPPER_SHARE)):.4g})")
    return det.ThresholdSpec(eta1=cdf.quantile(1 - p_lo),
                             eta2=cdf.quantile(1 - _UPPER_SHARE * mass))


def calibrate(cfg: sig.ScenarioConfig, names: Sequence[str],
              pfa_grid: Iterable[float]) -> dict[str, list[det.ThresholdSpec]]:
    """Thresholds per detector at each target false-alarm probability,
    calibrated on the shared H0 calibration trials.

    GLR detectors use the one-sided rule unless cfg.glr_two_sided is
    set, in which case the band rule of `_thresholds` is calibrated, with
    one warning per detector when some band misses the likelihood peak.
    """
    grid = [float(p) for p in pfa_grid]
    if any(not (0.0 < p < 1.0) for p in grid):
        raise ConfigError("pfa targets must lie in (0, 1)")
    if grid != sorted(grid):
        raise ConfigError("pfa targets must be ascending")
    if grid and min(grid) * cfg.trials < 100:
        raise ConfigError("not enough trials for the smallest pfa target")

    snr = cfg.signal.snr_linear
    specs = {}
    for name, cdf in calibration_cdfs(cfg, names).items():
        row = det.detector(name)
        banded = cfg.glr_two_sided and row.peak is not None
        specs[name] = [_thresholds(cdf, p, banded) for p in grid]
        if not banded or snr == 0.0:  # no likelihood peak without signal
            continue
        geom = cfg.geometry if row.domain == det.FREQ else None
        peak = row.peak(cfg.n_samples, geom, cfg.prior.k, snr)
        missed = [f"{p:g}" for p, spec in zip(grid, specs[name])
                  if not spec.eta1 < peak < spec.eta2]
        if missed:
            warnings.warn(
                f"{name}: two-sided thresholds at targets {', '.join(missed)} "
                f"do not bracket the likelihood peak at {peak:.4g}; the band "
                f"rule is not operating in its intended regime", stacklevel=2)
    return specs


# ---------------------------------------------------------------------------
# ROC sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RocPoint:
    pfa_target: float
    pfa_empirical: float
    pd_empirical: float
    pd_ci_low: float
    pd_ci_high: float
    threshold: float


def roc_sweep_channels(cfg: sig.ScenarioConfig, detector_names: Sequence[str],
                       pfa_grid: Iterable[float],
                       channels: Sequence[sig.ChannelSpec]
                       ) -> list[Mapping[str, list[RocPoint]]]:
    """ROC points for several detectors over shared trials, one mapping
    per channel of `channels` (cfg with its channel replaced).

    Per target false-alarm probability: calibrate the threshold on H0
    calibration trials, measure the realized Pfa on fresh H0 trials, and
    the detection probability (with Wilson interval) on H1 trials.  The
    three phases use disjoint random streams.  Calibration and H0
    evaluation read no channel field, so they run once for every
    channel; only the H1 phase runs per channel.  Thresholds come from
    `calibrate`; a band rule reports its lower edge.
    """
    grid = [float(p) for p in pfa_grid]
    specs = calibrate(cfg, detector_names, grid)
    s0 = trial_statistics(cfg, detector_names, PHASE_EVAL_H0)
    pfa = {name: [float(np.mean(spec.decide(s0[name]))) for spec in specs[name]]
           for name in detector_names}

    sweeps = []
    for channel in channels:
        s1 = trial_statistics(replace(cfg, channel=channel), detector_names,
                              PHASE_EVAL_H1)
        out: dict[str, list[RocPoint]] = {}
        for name in detector_names:
            points = []
            for p, spec, pfa_emp in zip(grid, specs[name], pfa[name]):
                k = int(np.sum(spec.decide(s1[name])))
                lo, hi = wilson_interval(k, cfg.trials)
                points.append(RocPoint(pfa_target=p, pfa_empirical=pfa_emp,
                                       pd_empirical=k / cfg.trials, pd_ci_low=lo,
                                       pd_ci_high=hi, threshold=spec.eta1))
            out[name] = points
        sweeps.append(out)
    return sweeps

