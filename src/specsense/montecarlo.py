"""Monte Carlo trial engine: observations, statistic sampling, threshold
calibration on sorted H0 samples, and ROC sweeps.

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

Every buffer of a block is one whole-array draw, and the scaling, sums
and statistics run on the whole block, one row per trial.  The
detectors read only sums, so each trial's sums are drawn as Gamma
variates: one per sum on the model source, at a cost that does not grow
with the block size N, and one per group of equal-gain bins on the
waveform source, whose shaping makes the bins' signal powers unequal.

The blocks of a call run in order, in the calling thread.

Calibration has one path: `calibration_cdfs` runs the H0 calibration
trials of a whole detector list at once and sorts each detector's
statistics, and `calibrate` reads the thresholds off those sorted
arrays at exact ranks, for `roc_sweep_channels` too; the `roc`,
`calibrate` and `cdf` commands all go through it.  Every detector has
one decision rule, H1 when its statistic exceeds the threshold.  With
cfg.glr_two_sided set, `trial_statistics` maps each GLR detector's
statistic through its log-GLR (`detectors.Detector.log_lr`), so that
rule is the GLRT's band around the likelihood peak, calibrated like
every other detector: the threshold is the log-GLR level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import detectors as det
from . import signals as sig
from .errors import ConfigError, NumericFailure
from .numerics import stream_seeker

PHASE_CALIBRATION = 1
PHASE_EVAL_H0 = 2
PHASE_EVAL_H1 = 3

# Trials per block.  It is part of the stream layout: every block draws
# its variates for TRIAL_CHUNK trials, so changing it moves every output.
# It is fixed, never derived from the trial count, so trial i does not
# depend on the trial count and the block buffers stay the same size as
# trials grow.  Peak memory still grows: `trial_statistics` returns one
# float64 per detector and trial, and `roc_sweep_channels` keeps a leg's
# H0 and H1 statistics, so `roc fig4` (three detectors) peaks about 48
# bytes higher per trial.
TRIAL_CHUNK = 1024

# The kinds of variate a block draws, each from its own stream.
KIND_PRIOR = 0  # noise precision, then channel power gain
KIND_TIME = 1   # model source: sum(r)'s G_N; waveform: the discarded bins
KIND_BINS = 2   # sum(y)'s G_P, then sum(x)'s G_L; waveform: their groups

# Stream index bits below the phase: block, then kind.
_BLOCK_BITS = 38
_KIND_BITS = 2


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054  # the standard normal 97.5% quantile
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
    up to the next block or cfg.trials, one entry per trial, plus their
    noise powers alpha.

    The detectors read an observation only through its sums, so that is
    what `observe` returns, for each domain of `domains`: `obs[TIME]` is
    sum(r), the sum of the squared envelopes, and `obs[FREQ]` the pair
    (sum(x), sum(y)) of in-band and excess-band bin sums.  Each kind of
    variate reads its own stream (`stream_index`), in this order:

    - `KIND_PRIOR`: the noise precisions (unless the noise power is
      pinned), then the channel power gains |h|^2 (occupied channel);
    - `KIND_TIME`: on the model source, the Gamma(N) variate G_N of
      sum(r) = alpha * g * G_N; on the waveform source, the discarded
      bins' groups (`cfg.bin_groups`; there are none unless the block is
      oversampled);
    - `KIND_BINS`: on the model source, the Gamma(P) variate G_P of
      sum(y) = N * alpha * G_P, then the Gamma(L) variate G_L of
      sum(x) = N * alpha * g * G_L; on the waveform source, the
      excess-band groups, then the in-band groups.

    Here g = 1 + snr * |h|^2 on occupied trials with a nonzero SNR, and
    1 otherwise.  These are the model source's laws exactly: given alpha
    and |h|^2 its envelopes and bins are independent exponentials.

    The waveform source's forward DFT undoes the inverse DFT that shaped
    its signal (`cfg.shaping`), and white noise has white bins, so given
    alpha and |h|^2 its bins are independent: |Z_k|^2 ~ N * alpha * g_k *
    Exp(1), g_k = 1 + snr * |h|^2 * c_k (`cfg.bin_groups`) where g is not
    1, and 1 where it is.  Each group is a column of Gamma(count) variates
    scaled by its g_k; a band's row sum times N * alpha is its bin sum,
    and sum(r) is alpha times all three bands' row sums (Parseval).

    Every buffer is one whole-array draw of TRIAL_CHUNK rows, also in a
    short last block: numpy's gamma sampler rejects a varying number of
    candidates, so drawing fewer rows would shift every later buffer.
    The waveform source draws every group whatever `domains` holds.  A
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

    seek(stream_index(phase, block, KIND_PRIOR))
    alpha = (np.full(TRIAL_CHUNK, cfg.noise_power) if cfg.noise_power is not None
             else sig.draw_noise_power(cfg.prior, gen, TRIAL_CHUNK))
    if occupied:
        h2 = sig.channel_gain(cfg.channel, gen, TRIAL_CHUNK)

    obs = {}
    if cfg.source == sig.WAVEFORM:
        def band_total(counts, gains):
            """Per trial, a band's bin sum in units of N * alpha."""
            gam = gen.standard_gamma(counts, (TRIAL_CHUNK, counts.size))
            if signal:
                gam *= 1.0 + snr * h2[:, None] * gains
            return gam.sum(axis=1)

        inband, excess, discarded = cfg.bin_groups
        seek(stream_index(phase, block, KIND_TIME))
        u_d = band_total(*discarded)
        seek(stream_index(phase, block, KIND_BINS))
        u_y = band_total(*excess)
        u_x = band_total(*inband)
        if det.TIME in domains:
            obs[det.TIME] = (alpha * (u_x + u_y + u_d))[:rows]
        if det.FREQ in domains:
            obs[det.FREQ] = (n * alpha * u_x)[:rows], (n * alpha * u_y)[:rows]
        return obs, alpha[:rows]

    g = 1.0 + snr * h2 if signal else 1.0
    if det.TIME in domains:
        seek(stream_index(phase, block, KIND_TIME))
        obs[det.TIME] = (alpha * g * gen.standard_gamma(n, TRIAL_CHUNK))[:rows]
    if det.FREQ in domains:
        seek(stream_index(phase, block, KIND_BINS))
        geom, scale = cfg.geometry, n * alpha
        sum_y = scale * gen.standard_gamma(geom.p_excess, TRIAL_CHUNK)
        sum_x = scale * g * gen.standard_gamma(geom.l_inband, TRIAL_CHUNK)
        obs[det.FREQ] = sum_x[:rows], sum_y[:rows]
    return obs, alpha[:rows]


def trial_statistics(cfg: sig.ScenarioConfig, detector_names: Sequence[str],
                     phase: int) -> dict[str, np.ndarray]:
    """Statistic samples for several detectors over the same trials:
    trials 0 .. cfg.trials - 1 of `phase`, one array of length cfg.trials
    per detector name.

    The blocks of `TRIAL_CHUNK` trials run in order: each is observed
    (`observe`) and reduced by the detector table into its slice of the
    output.  With cfg.glr_two_sided set, each GLR detector's samples are
    then mapped through its log-GLR (`detectors.Detector.log_lr`).
    A trial count beyond the stream layout is a `ConfigError` raised
    before anything is allocated, and a non-finite statistic a
    `NumericFailure`.
    """
    if cfg.trials > TRIAL_CHUNK << _BLOCK_BITS:
        raise ConfigError("trial index out of range")
    rows = {name: det.detector(name) for name in detector_names}
    domains = {row.domain for row in rows.values()}
    out = {name: np.empty(cfg.trials) for name in rows}
    for block in range(-(-cfg.trials // TRIAL_CHUNK)):
        obs, alpha = observe(cfg, domains, phase, block)
        start = block * TRIAL_CHUNK
        for name, row in rows.items():
            out[name][start:start + alpha.size] = row.statistic(
                obs[row.domain], alpha, cfg.prior)
    for name, row in rows.items():
        if cfg.glr_two_sided and row.log_lr is not None:
            out[name] = row.log_lr(cfg, out[name])
        if not np.all(np.isfinite(out[name])):
            raise NumericFailure(f"non-finite statistic produced by {name!r}")
    return out


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibration_cdfs(cfg: sig.ScenarioConfig,
                     names: Sequence[str]) -> dict[str, np.ndarray]:
    """H0 distributions of several decision statistics, all read off the
    same calibration-phase trials: per detector, its cfg.trials
    calibration statistics sorted ascending."""
    cal = trial_statistics(cfg, names, PHASE_CALIBRATION)
    return {name: np.sort(vals) for name, vals in cal.items()}


def _target_grid(cfg: sig.ScenarioConfig, pfa_grid: Iterable[float]) -> list[float]:
    """The target false-alarm probabilities as floats, checked before any
    trial runs: at least one, each in (0, 1), ascending, and the smallest
    one leaving at least 100 calibration trials above its threshold."""
    grid = [float(p) for p in pfa_grid]
    if not grid:
        raise ConfigError("pfa targets must not be empty")
    if any(not (0.0 < p < 1.0) for p in grid):
        raise ConfigError("pfa targets must lie in (0, 1)")
    if grid != sorted(grid):
        raise ConfigError("pfa targets must be ascending")
    if grid[0] * cfg.trials < 100:
        raise ConfigError("not enough trials for the smallest pfa target")
    return grid


def calibrate(cfg: sig.ScenarioConfig, names: Sequence[str],
              pfa_grid: Iterable[float]) -> dict[str, list[float]]:
    """Thresholds per detector at each target false-alarm probability,
    calibrated on the shared H0 calibration trials (`calibration_cdfs`).

    A target grid that no calibration could meet is a `ConfigError`
    raised before any trial runs (`_target_grid`).  The threshold at
    target p is the calibration statistic of rank ceil((1 - p) * n): it
    leaves floor(p * n) of the n statistics above it, with p * n taken
    exactly from the decimal p (in floats, 1.0 - 0.7 overshoots).
    """
    grid = _target_grid(cfg, pfa_grid)
    ranks = [math.ceil((1 - Fraction(repr(p))) * cfg.trials) for p in grid]
    return {name: [float(cal[r - 1]) for r in ranks]
            for name, cal in calibration_cdfs(cfg, names).items()}


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
    channel; only the H1 phase runs per channel.  Thresholds are those of
    `calibrate`, which rejects a bad target grid before any trial runs,
    and a trial decides H1 when its statistic exceeds the threshold.
    """
    grid = _target_grid(cfg, pfa_grid)
    thresholds = calibrate(cfg, detector_names, grid)

    def exceedances(stats: dict[str, np.ndarray], name: str) -> list[int]:
        """Per threshold of `name`, how many of its statistics exceed it:
        one 1-D comparison at a time, never a (threshold, trial) array."""
        return [int(np.count_nonzero(stats[name] > eta)) for eta in thresholds[name]]

    s0 = trial_statistics(cfg, detector_names, PHASE_EVAL_H0)
    pfa = {name: [k / cfg.trials for k in exceedances(s0, name)]
           for name in detector_names}

    sweeps = []
    for channel in channels:
        s1 = trial_statistics(replace(cfg, channel=channel), detector_names,
                              PHASE_EVAL_H1)
        out: dict[str, list[RocPoint]] = {}
        for name in detector_names:
            points = []
            for p, eta, pfa_emp, k in zip(grid, thresholds[name], pfa[name],
                                          exceedances(s1, name)):
                lo, hi = wilson_interval(k, cfg.trials)
                points.append(RocPoint(pfa_target=p, pfa_empirical=pfa_emp,
                                       pd_empirical=k / cfg.trials, pd_ci_low=lo,
                                       pd_ci_high=hi, threshold=eta))
            out[name] = points
        sweeps.append(out)
    return sweeps

