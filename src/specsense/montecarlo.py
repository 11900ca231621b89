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
`n_samples` value.  Its H1 trials differ between channels only in the
channel power gains, so each H1 block is drawn once (`draw_block`) and
only the gains, the scaling and the statistics run per channel
(`scale_block`); `observe` is the two steps on one channel.

Every buffer of a block is one whole-array draw, and the scaling, sums
and statistics run on the whole block, one row per trial.  The
detectors read only sums, so each trial's sums are drawn as Gamma
variates: one per sum on the model source, at a cost that does not grow
with the block size N, and one per group of equal-gain bins on the
waveform source, whose shaping makes the bins' signal powers unequal.
Blocks are critically sampled, so the in-band and excess-band groups
hold every bin, and sum(r) is their total (Parseval).

The blocks of a phase run in order, in the calling thread, on one
stream seeker.  Only calibration keeps its statistics: the evaluation
phases reduce each block at once to one exceedance count per (detector,
threshold) and drop it.

Calibration has one path: `calibration_cdfs` runs the H0 calibration
trials of a whole detector list at once and sorts each detector's
statistics, and `calibrate` reads the thresholds off those sorted
arrays at exact ranks, for `roc_sweep_channels` too; the `roc`,
`calibrate` and `cdf` commands all go through it.  Every detector has
one decision rule, H1 when its statistic exceeds the threshold.  With
cfg.glr_two_sided set, the block loop maps each GLR detector's
statistic through its log-GLR (`detectors.Detector.log_lr`), so that
rule is the GLRT's band around the likelihood peak, calibrated like
every other detector: the threshold is the log-GLR level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# trials grow.  Peak memory still grows with calibration:
# `trial_statistics` returns one float64 per detector and trial, which
# `calibration_cdfs` sorts in place, so `roc fig6` (three detectors)
# peaks about 24 bytes higher per trial, whatever its channel count.
TRIAL_CHUNK = 1024

# The kinds of variate a block draws, each from its own stream.
KIND_PRIOR = 0  # noise precision, then channel power gain
KIND_TIME = 1   # model source: sum(r)'s G_N
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
    noise powers alpha: the block's channel-free draws (`draw_block`) on
    a stream seeker of its own, scaled on cfg.channel (`scale_block`).

    The detectors read an observation only through its sums, so that is
    what `observe` returns, for each domain of `domains`: `obs[TIME]` is
    sum(r), the sum of the squared envelopes, and `obs[FREQ]` the pair
    (sum(x), sum(y)) of in-band and excess-band bin sums.  The engine's
    block loop calls the two steps itself, with one seeker per phase and
    one draw per block for every channel.
    """
    gen, seek = stream_seeker(cfg.master_seed)
    drawn = draw_block(cfg, domains, phase, block, gen, seek)
    return scale_block(cfg, domains, drawn, cfg.channel, gen)


def draw_block(cfg: sig.ScenarioConfig, domains: set[str], phase: int, block: int,
               gen: np.random.Generator, seek) -> tuple:
    """The variates of block `block` of `phase` that no channel changes,
    drawn by `gen` and `seek` of `numerics.stream_seeker(cfg.master_seed)`:
    (rows, alpha, prior_state, gammas), with rows the block's trial count.

    Each kind of variate reads its own stream (`stream_index`), in this
    order:

    - `KIND_PRIOR`: the noise powers alpha (unless the noise power is
      pinned); on occupied trials with a nonzero SNR the channel power
      gains |h|^2 follow them, and `prior_state` is the generator state
      from which `scale_block` draws them (else None);
    - `KIND_TIME`: on the model source, the Gamma(N) variate G_N of
      sum(r);
    - `KIND_BINS`: on the model source, the Gamma(P) variate G_P of
      sum(y), then the Gamma(L) variate G_L of sum(x); on the waveform
      source, the excess-band groups (`cfg.bin_groups`), then the
      in-band groups.

    `gammas` maps TIME to G_N and FREQ to (G_P, G_L) on the model source,
    one entry per domain of `domains`; on the waveform source it is the
    (in-band, excess-band) pair of group matrices, one Gamma(count)
    column per group of `cfg.bin_groups`.

    Every buffer is one whole-array draw of TRIAL_CHUNK rows, also in a
    short last block: numpy's gamma sampler rejects a varying number of
    candidates, so drawing fewer rows would shift every later buffer.
    The waveform source draws both bands' groups whatever `domains`
    holds, since sum(r) reads them too.  A row thus depends on (cfg,
    phase, trial) alone, not on the trial count or on the other domains
    observed.  A block holding none of the trials 0 .. cfg.trials - 1 is
    a `ConfigError`.
    """
    start = block * TRIAL_CHUNK
    if not 0 <= start < cfg.trials:
        raise ConfigError("block index out of range")
    seek(stream_index(phase, block, KIND_PRIOR))
    alpha = (np.full(TRIAL_CHUNK, cfg.noise_power) if cfg.noise_power is not None
             else sig.draw_noise_power(cfg.prior, gen, TRIAL_CHUNK))
    signal = phase == PHASE_EVAL_H1 and cfg.signal.snr_linear != 0.0
    prior_state = gen.bit_generator.state if signal else None

    if cfg.source == sig.WAVEFORM:
        (inband, _), (excess, _) = cfg.bin_groups
        seek(stream_index(phase, block, KIND_BINS))
        gam_y = gen.standard_gamma(excess, (TRIAL_CHUNK, excess.size))
        gam_x = gen.standard_gamma(inband, (TRIAL_CHUNK, inband.size))
        gammas = gam_x, gam_y
    else:
        gammas = {}
        if det.TIME in domains:
            seek(stream_index(phase, block, KIND_TIME))
            gammas[det.TIME] = gen.standard_gamma(cfg.n_samples, TRIAL_CHUNK)
        if det.FREQ in domains:
            seek(stream_index(phase, block, KIND_BINS))
            geom = cfg.geometry
            g_p = gen.standard_gamma(geom.p_excess, TRIAL_CHUNK)
            gammas[det.FREQ] = g_p, gen.standard_gamma(geom.l_inband, TRIAL_CHUNK)
    return min(TRIAL_CHUNK, cfg.trials - start), alpha, prior_state, gammas


def scale_block(cfg: sig.ScenarioConfig, domains: set[str], drawn: tuple,
                channel: sig.ChannelSpec,
                gen: np.random.Generator) -> tuple[dict, np.ndarray]:
    """The sums of a block drawn by `draw_block` on `channel`, and its
    noise powers, as `observe` returns them.

    With a signal in the block, `gen` is set to the saved `KIND_PRIOR`
    state and draws the channel power gains |h|^2 there, so each channel
    reads the stream positions it would read alone.  The shared variates
    are scaled into new arrays, never in place.  Here g = 1 + snr * |h|^2
    on occupied trials with a nonzero SNR, and 1 otherwise.

    On the model source sum(r) = alpha * g * G_N, sum(y) = N * alpha *
    G_P and sum(x) = N * alpha * g * G_L.  These are the model source's
    laws exactly: given alpha and |h|^2 its envelopes and bins are
    independent exponentials.

    The waveform source's forward DFT undoes the inverse DFT that shaped
    its signal (`cfg.shaping`), and white noise has white bins, so given
    alpha and |h|^2 its bins are independent: |Z_k|^2 ~ N * alpha * g_k *
    Exp(1), g_k = 1 + snr * |h|^2 * c_k (`cfg.bin_groups`) where g is not
    1, and 1 where it is.  Each group is a column of Gamma(count) variates
    scaled by its g_k; a band's row sum times N * alpha is its bin sum,
    and sum(r) is alpha times both bands' row sums (Parseval).
    """
    rows, alpha, prior_state, gammas = drawn
    n, snr = cfg.n_samples, cfg.signal.snr_linear
    h2 = None
    if prior_state is not None:
        gen.bit_generator.state = prior_state
        h2 = sig.channel_gain(channel, gen, TRIAL_CHUNK)

    obs = {}
    if cfg.source == sig.WAVEFORM:
        def band_total(gam, gains):
            """Per trial, a band's bin sum in units of N * alpha."""
            if h2 is not None:
                gam = gam * (1.0 + snr * h2[:, None] * gains)
            return gam.sum(axis=1)

        (gam_x, gam_y), ((_, g_x), (_, g_y)) = gammas, cfg.bin_groups
        u_x, u_y = band_total(gam_x, g_x), band_total(gam_y, g_y)
        if det.TIME in domains:
            obs[det.TIME] = (alpha * (u_x + u_y))[:rows]
        if det.FREQ in domains:
            obs[det.FREQ] = (n * alpha * u_x)[:rows], (n * alpha * u_y)[:rows]
        return obs, alpha[:rows]

    g = 1.0 + snr * h2 if h2 is not None else 1.0
    if det.TIME in domains:
        obs[det.TIME] = (alpha * g * gammas[det.TIME])[:rows]
    if det.FREQ in domains:
        g_p, g_l = gammas[det.FREQ]
        scale = n * alpha
        obs[det.FREQ] = (scale * g * g_l)[:rows], (scale * g_p)[:rows]
    return obs, alpha[:rows]


def _detector_rows(cfg: sig.ScenarioConfig,
                   names: Sequence[str]) -> dict[str, det.Detector]:
    """The detector table rows of `names`.  A trial count beyond the
    stream layout is a `ConfigError`, raised before anything is drawn or
    allocated."""
    if cfg.trials > TRIAL_CHUNK << _BLOCK_BITS:
        raise ConfigError("trial index out of range")
    return {name: det.detector(name) for name in names}


def _block_statistics(cfg: sig.ScenarioConfig, rows: Mapping[str, det.Detector],
                      phase: int, channels: Sequence[sig.ChannelSpec]):
    """The engine's one block loop: per block of `phase`, in order, one
    {name: statistics} per channel of `channels`.

    One stream seeker serves the whole phase.  Each block is drawn once
    (`draw_block`), then scaled on each channel (`scale_block`) and
    reduced by the detector table; with cfg.glr_two_sided set, each GLR
    row's statistics are mapped through its log-GLR
    (`detectors.Detector.log_lr`).  A non-finite statistic is a
    `NumericFailure`.
    """
    gen, seek = stream_seeker(cfg.master_seed)
    domains = {row.domain for row in rows.values()}
    for block in range(-(-cfg.trials // TRIAL_CHUNK)):
        drawn = draw_block(cfg, domains, phase, block, gen, seek)
        per_channel = []
        for channel in channels:
            obs, alpha = scale_block(cfg, domains, drawn, channel, gen)
            stats = {}
            for name, row in rows.items():
                v = row.statistic(obs[row.domain], alpha, cfg.prior)
                if cfg.glr_two_sided and row.log_lr is not None:
                    v = row.log_lr(cfg, v)
                if not np.all(np.isfinite(v)):
                    raise NumericFailure(f"non-finite statistic produced by {name!r}")
                stats[name] = v
            per_channel.append(stats)
        yield per_channel


def trial_statistics(cfg: sig.ScenarioConfig, detector_names: Sequence[str],
                     phase: int) -> dict[str, np.ndarray]:
    """Statistic samples for several detectors over the same trials:
    trials 0 .. cfg.trials - 1 of `phase`, one array of length cfg.trials
    per detector name, filled block by block by the engine's block loop
    (`_block_statistics`) on cfg.channel.

    A trial count beyond the stream layout is a `ConfigError` raised
    before anything is allocated, and a non-finite statistic a
    `NumericFailure`.
    """
    rows = _detector_rows(cfg, detector_names)
    out = {name: np.empty(cfg.trials) for name in rows}
    for block, (stats,) in enumerate(_block_statistics(cfg, rows, phase, [cfg.channel])):
        start = block * TRIAL_CHUNK
        for name, v in stats.items():
            out[name][start:start + v.size] = v
    return out


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibration_cdfs(cfg: sig.ScenarioConfig,
                     names: Sequence[str]) -> dict[str, np.ndarray]:
    """H0 distributions of several decision statistics, all read off the
    same calibration-phase trials: per detector, its cfg.trials
    calibration statistics sorted ascending, in place."""
    cal = trial_statistics(cfg, names, PHASE_CALIBRATION)
    for vals in cal.values():
        vals.sort()
    return cal


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
    per channel of `channels`.

    Per target false-alarm probability: calibrate the threshold on H0
    calibration trials, measure the realized Pfa on fresh H0 trials, and
    the detection probability (with Wilson interval) on H1 trials.  The
    three phases use disjoint random streams.  Calibration and H0
    evaluation read no channel field, so they run once for every
    channel, and each H1 block is drawn once for every channel: only the
    |h|^2 draw, the scaling and the counts run per channel.  Thresholds
    are those of `calibrate`, which rejects a bad target grid before any
    trial runs, and a trial decides H1 when its statistic exceeds the
    threshold.
    """
    grid = _target_grid(cfg, pfa_grid)
    thresholds = calibrate(cfg, detector_names, grid)
    rows = _detector_rows(cfg, detector_names)
    etas = {name: np.array(thresholds[name]) for name in rows}

    def exceedances(phase: int, phase_channels) -> list[dict[str, list[int]]]:
        """Per channel, per detector, how many trials of `phase` exceed
        each of its thresholds.  Each block's statistics are counted at
        once, one sort per (detector, block), and dropped."""
        counts = [{name: np.zeros(eta.size, dtype=np.int64) for name, eta in etas.items()}
                  for _ in phase_channels]
        for per_channel in _block_statistics(cfg, rows, phase, phase_channels):
            for count, stats in zip(counts, per_channel):
                for name, v in stats.items():
                    count[name] += v.size - np.searchsorted(np.sort(v), etas[name],
                                                            side="right")
        return [{name: k.tolist() for name, k in count.items()} for count in counts]

    (k0,) = exceedances(PHASE_EVAL_H0, [cfg.channel])
    sweeps = []
    for k1 in exceedances(PHASE_EVAL_H1, channels):
        out: dict[str, list[RocPoint]] = {}
        for name in detector_names:
            points = []
            for p, eta, n0, n1 in zip(grid, thresholds[name], k0[name], k1[name]):
                lo, hi = wilson_interval(n1, cfg.trials)
                points.append(RocPoint(pfa_target=p, pfa_empirical=n0 / cfg.trials,
                                       pd_empirical=n1 / cfg.trials, pd_ci_low=lo,
                                       pd_ci_high=hi, threshold=eta))
            out[name] = points
        sweeps.append(out)
    return sweeps
