"""Monte Carlo trial engine: observations, statistic sampling, threshold
calibration, empirical CDFs and ROC sweeps.

`observe` is the library's one observation model.  Every trial owns its
own counter-based random stream, indexed by (phase, trial): calibration,
H0 evaluation and H1 evaluation never share randomness, results do not
depend on execution order or on the trial count, and rerunning with the
same configuration and master seed is bit-identical.  The phase also
picks the hypothesis: only `PHASE_EVAL_H1` trials see an occupied
channel.  Calibration and H0 evaluation trials draw no channel gain and
read no channel field, so they are the same for every channel, and
`roc_sweep_channels` runs them once for all the channels of one
`n_samples` value.

`observe` reaches each trial's stream by moving one Philox generator to
the trial's counter, not by building a generator per trial.  Only the
draws run trial by trial: the noise precision, the channel gain and the
raw normal or exponential variates, each into its row of a buffer.
Scaling, mixing, FFTs, the band split and the statistics then run on
whole chunks of `TRIAL_CHUNK` trials, one row per trial.

Calibration has one path: `calibration_cdfs` runs the H0 calibration
trials of a whole detector list at once and `calibrate` reads the
thresholds off those CDFs; `roc_sweep_channels` and the `roc`,
`calibrate` and `cdf` commands all go through it.  The list matters: on
the model source a trial draws its bins after its time samples only when
a time-domain detector shares the run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
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
_UPPER_SHARE = 0.1

# A trial's stream index is (phase << _TRIAL_BITS) | trial.
_TRIAL_BITS = 48

# Trials whose arithmetic runs as one block.  It is fixed, never derived
# from the trial count, so peak memory stays flat as trials grow.
TRIAL_CHUNK = 1024


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

def observe(cfg: sig.ScenarioConfig, domains: set[str], phase: int,
            trials: range) -> tuple[dict, np.ndarray]:
    """Observations of the ascending range `trials` in `phase`, one row
    per trial, plus their noise powers alpha.

    `obs[TIME]` holds the squared envelopes r and `obs[FREQ]` the split
    bins (x in-band, y excess-band), for each domain of `domains`.  Trial
    i reads stream `(phase << 48) | i` of
    `numerics.stream_seeker(cfg.master_seed)`, so its row depends on
    (cfg, phase, i) alone.

    Each trial's stream is read in this order: its noise precision
    (unless the noise power is pinned), its channel gain (occupied
    channel only, unless pinned), then the raw variates of each
    observation form.  Model source: white time samples, noise then
    signal; then the excess bins and either the in-band bins (idle) or
    in-band noise and signal (occupied).  Waveform source: one block of
    noise then signal symbols, shaped by the square root of the
    raised-cosine profile (`cfg.shaping`) and transformed into both forms.

    Every row is bit-identical to drawing its trial alone, one
    `numerics.complex_gaussian` block at a time on a fresh generator; the
    tests hold the engine to that per-trial reference.  A zero-variance
    complex Gaussian draws nothing, which a zero SNR mirrors here; an SNR
    so small that alpha * snr underflows to 0 is not mirrored.
    """
    if trials and not 0 <= trials[0] <= trials[-1] < 1 << _TRIAL_BITS:
        raise ConfigError("trial index out of range")
    gen, seek = stream_seeker(cfg.master_seed)
    base = phase << _TRIAL_BITS
    occupied = phase == PHASE_EVAL_H1
    m, n = len(trials), cfg.n_samples
    snr = cfg.signal.snr_linear
    draws = []  # (sampler, buffer) in stream order

    def raw(sampler: str, width: int) -> np.ndarray:
        buf = np.empty((m, width))
        draws.append((getattr(gen, sampler), buf))
        return buf

    if cfg.source == sig.WAVEFORM:
        t_raw = raw("standard_normal", 4 * n if occupied else 2 * n)
    else:
        if det.TIME in domains:
            t_raw = raw("standard_normal", 4 * n if occupied and snr != 0.0 else 2 * n)
        if det.FREQ in domains:
            geom = cfg.geometry
            p, l = geom.p_excess, geom.l_inband
            e_raw = raw("standard_exponential", p if occupied else p + l)
            if occupied:
                signal = snr != 0.0 and cfg.pinned_signal is None
                b_raw = raw("standard_normal", 4 * l if signal else 2 * l)

    lam = np.empty(m)
    h = np.full(m, complex(cfg.pinned_channel if cfg.pinned_channel is not None
                           else 1.0))
    draw_lam = cfg.noise_power is None
    draw_h = occupied and cfg.pinned_channel is None
    shape, scale = cfg.prior.precision_shape, 1.0 / cfg.prior.precision_rate
    for j, i in enumerate(trials):
        seek(base | i)
        if draw_lam:
            lam[j] = gen.gamma(shape, scale)
        if draw_h:
            h[j] = sig.channel_gain(cfg.channel, gen)
        for fill, buf in draws:
            fill(out=buf[j])

    alpha = 1.0 / lam if draw_lam else np.full(m, cfg.noise_power)
    hc = h[:, None]
    obs = {}
    if cfg.source == sig.WAVEFORM:
        c = t_raw.view(complex)
        z = np.sqrt(alpha / 2.0)[:, None] * c[:, :n]
        if occupied:
            mask, power = cfg.shaping
            s = np.fft.ifft(mask * (math.sqrt(0.5) * c[:, n:]), axis=1)
            s *= np.sqrt(alpha * snr / power)[:, None]
            z = hc * s + z
        if det.TIME in domains:
            obs[det.TIME] = squared_envelope(z)
        if det.FREQ in domains:
            w = spectrum_bins(z)
            inband, excess = cfg.bands
            # take keeps each trial's bins contiguous, so each row sums as alone
            obs[det.FREQ] = w.take(inband, axis=1), w.take(excess, axis=1)
        return obs, alpha

    if det.TIME in domains:
        c = t_raw.view(complex)
        z = np.sqrt(alpha / 2.0)[:, None] * c[:, :n]
        if occupied and snr != 0.0:
            z = hc * (np.sqrt(alpha * snr / 2.0)[:, None] * c[:, n:]) + z
        obs[det.TIME] = squared_envelope(z)
    if det.FREQ in domains:
        bin_scale = (n * alpha)[:, None]
        y = bin_scale * e_raw[:, :p]
        if not occupied:
            x = bin_scale * e_raw[:, p:]
        else:
            c = b_raw.view(complex)
            v = np.sqrt(bin_scale / 2.0) * c[:, :l]
            if cfg.pinned_signal is not None:
                # a Python complex product, as the per-trial reference forms
                # it: numpy's complex multiply may round differently
                v = np.array([complex(g) * cfg.pinned_signal for g in h])[:, None] + v
            elif snr != 0.0:
                v = hc * (np.sqrt(bin_scale * snr / 2.0) * c[:, l:]) + v
            x = np.abs(v) ** 2
        obs[det.FREQ] = x, y
    return obs, alpha


def trial_statistics(cfg: sig.ScenarioConfig, detector_names: Sequence[str],
                     phase: int) -> dict[str, np.ndarray]:
    """Statistic samples for several detectors over the same trials.

    Trials 0 .. cfg.trials - 1 of `phase` are observed (`observe`) one
    chunk of `TRIAL_CHUNK` trials at a time and reduced by the detector
    table.  Returns one array of length cfg.trials per detector name.
    """
    if cfg.trials > 1 << _TRIAL_BITS:
        raise ConfigError("trial index out of range")
    rows = {name: det.detector(name) for name in detector_names}
    domains = {row.domain for row in rows.values()}
    out = {name: np.empty(cfg.trials) for name in rows}
    for start in range(0, cfg.trials, TRIAL_CHUNK):
        stop = min(start + TRIAL_CHUNK, cfg.trials)
        obs, alpha = observe(cfg, domains, phase, range(start, stop))
        for name, row in rows.items():
            out[name][start:stop] = row.statistic(obs[row.domain], alpha, cfg.prior)
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

