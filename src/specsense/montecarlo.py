"""Monte Carlo trial engine: statistic sampling, threshold calibration,
empirical CDFs and ROC sweeps.

Every trial owns its own counter-based random stream, indexed by
(phase, trial): calibration, H0 evaluation and H1 evaluation never share
randomness, results do not depend on execution order, and rerunning with
the same configuration and master seed is bit-identical.  The phase also
picks the hypothesis: only `PHASE_EVAL_H1` trials see an occupied
channel.  Calibration and H0 evaluation trials draw no channel gain and
read no channel field, so they are the same for every channel.

Calibration has one path: `calibration_cdfs` runs the H0 calibration
trials of a whole detector list at once and `calibrate` reads the
thresholds off those CDFs; `roc_sweep_multi` and the `roc`, `calibrate`
and `cdf` commands all go through it.  The list matters: on the model
source a trial draws its bins after its time samples only when a
time-domain detector shares the run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import detectors as det
from . import signals as sig
from .errors import ConfigError, NumericFailure
from .numerics import RngStream, complex_gaussian
from .observation import spectrum_bins, squared_envelope

PHASE_CALIBRATION = 1
PHASE_EVAL_H0 = 2
PHASE_EVAL_H1 = 3

# share of a band rule's false-alarm budget placed above its upper edge
_UPPER_SHARE = 0.1

_TRIAL_BITS = 48


def trial_stream(master_seed: int, phase: int, trial: int) -> RngStream:
    """Disjoint per-trial stream; phase tags keep calibration and
    evaluation randomness separate."""
    if trial >= 1 << _TRIAL_BITS:
        raise ConfigError("trial index out of range")
    return RngStream(master_seed, (phase << _TRIAL_BITS) | trial)


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
# Per-trial simulation
# ---------------------------------------------------------------------------

def _simulate_trial(cfg: sig.ScenarioConfig, domains: set[str], phase: int,
                    trial: int):
    """One trial's observation per domain plus the drawn noise power.

    Only a `PHASE_EVAL_H1` trial sees an occupied channel and draws a
    channel gain and a signal.  Model source: time samples are white
    (signal and noise i.i.d. per sample), frequency bins come straight
    from the bin model.  Waveform source: a single shaped block feeds
    both observation forms.
    """
    gen = trial_stream(cfg.master_seed, phase, trial).generator()
    if cfg.noise_power is not None:
        alpha = cfg.noise_power
    else:
        alpha = float(sig.draw_noise_power(cfg.prior, gen))
    h = None
    if phase == PHASE_EVAL_H1:
        h = complex(cfg.pinned_channel if cfg.pinned_channel is not None
                    else sig.channel_gain(cfg.channel, gen))

    obs = {}
    if cfg.source == sig.WAVEFORM:
        z = sig.generate_time_block(cfg, alpha, h, gen)
        if det.TIME in domains:
            obs[det.TIME] = squared_envelope(z)
        if det.FREQ in domains:
            w = spectrum_bins(z)
            inband, excess = cfg.bands
            obs[det.FREQ] = w[inband], w[excess]
        return obs, alpha

    n = cfg.n_samples
    snr = cfg.signal.snr_linear
    if det.TIME in domains:
        z = complex_gaussian(alpha, gen, size=n)
        if h is not None:
            z = h * complex_gaussian(alpha * snr, gen, size=n) + z
        obs[det.TIME] = squared_envelope(z)
    if det.FREQ in domains:
        obs[det.FREQ] = sig.generate_bins(cfg, alpha, h, gen, s_amp=cfg.pinned_signal)
    return obs, alpha


def trial_statistics(cfg: sig.ScenarioConfig, detector_names: Sequence[str],
                     phase: int) -> dict[str, np.ndarray]:
    """Statistic samples for several detectors over the same trials.

    The channel is occupied only in `PHASE_EVAL_H1`.  Returns one array
    of length cfg.trials per detector name.
    """
    rows = {name: det.detector(name) for name in detector_names}
    domains = {row.domain for row in rows.values()}
    out = {name: np.empty(cfg.trials) for name in rows}
    for i in range(cfg.trials):
        obs, alpha = _simulate_trial(cfg, domains, phase, i)
        for name, row in rows.items():
            out[name][i] = row.statistic(obs[row.domain], alpha, cfg.prior)
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

    def evaluate(self, t: float) -> float:
        """Fraction of samples <= t."""
        return float(np.searchsorted(self.values, t, side="right")) / self.values.size

    def quantile(self, q: float) -> float:
        """Smallest sample value v with evaluate(v) >= q."""
        if not (0.0 < q <= 1.0):
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
    and P(stat > eta1 | H0) = (1 + _UPPER_SHARE) * p.
    """
    if not banded:
        return det.ThresholdSpec(eta1=cdf.quantile(1.0 - p))
    p_lo = (1.0 + _UPPER_SHARE) * p
    if p_lo >= 1.0:
        raise ConfigError(
            f"target false-alarm probability {p:g} too large for a band rule "
            f"(need below {1.0 / (1.0 + _UPPER_SHARE):.4g})")
    return det.ThresholdSpec(eta1=cdf.quantile(1.0 - p_lo),
                             eta2=cdf.quantile(1.0 - _UPPER_SHARE * p))


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


def roc_sweep_multi(cfg: sig.ScenarioConfig, detector_names: Sequence[str],
                    pfa_grid: Iterable[float]) -> Mapping[str, list[RocPoint]]:
    """ROC points for several detectors over shared trials.

    Per target false-alarm probability: calibrate the threshold on H0
    calibration trials, measure the realized Pfa on fresh H0 trials, and
    the detection probability (with Wilson interval) on H1 trials.  The
    three phases use disjoint random streams.  Thresholds come from
    `calibrate`; a band rule reports its lower edge.
    """
    grid = [float(p) for p in pfa_grid]
    specs = calibrate(cfg, detector_names, grid)
    s0 = trial_statistics(cfg, detector_names, PHASE_EVAL_H0)
    s1 = trial_statistics(cfg, detector_names, PHASE_EVAL_H1)

    out: dict[str, list[RocPoint]] = {}
    for name in detector_names:
        points = []
        for p, spec in zip(grid, specs[name]):
            pfa_emp = float(np.mean(spec.decide(s0[name])))
            k = int(np.sum(spec.decide(s1[name])))
            lo, hi = wilson_interval(k, cfg.trials)
            points.append(RocPoint(pfa_target=p, pfa_empirical=pfa_emp,
                                   pd_empirical=k / cfg.trials,
                                   pd_ci_low=lo, pd_ci_high=hi, threshold=spec.eta1))
        out[name] = points
    return out
