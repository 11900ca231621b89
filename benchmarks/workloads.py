"""Benchmark workloads: configs generated from a seed, and one pass over them.

A workload is a list of closed-loop operations: each `specsense` CLI
command, or public `analysis` call, is issued only after the previous one
returns.  The seed only picks the master seeds written into the configs;
the shape of every workload (legs, trial counts, grids) is fixed, so the
amount of work per pass is the same for every seed.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

PHASES = 3  # calibration, H0 evaluation and H1 evaluation trials per ROC leg

FIG_TARGETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
WAVEFORM_TARGETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

# Shared by every config, as in the presets: prior mean noise power 1.
COMMON = {
    "snr_db": "0",
    "bandwidth_hz": "54000",
    "rolloff": "0.25",
    "prior_k": "3",
    "prior_theta": "3",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must look like."""

    verb: str                 # roc, cdf or curves
    config: Path
    detectors: tuple[str, ...]
    n_samples: tuple[int, ...]
    channels: tuple[str, ...]
    trials: int
    targets: tuple[float, ...] = ()
    grid_points: int = 0      # curves threshold grid size
    two_sided: bool = False   # GLR detectors use the band rule

    @property
    def csv_name(self) -> str:
        return f"{self.config.stem}_{self.verb}.csv"

    @property
    def legs(self) -> int:
        """ROC legs, or CDF tables, this command computes."""
        if self.verb == "roc":
            return len(self.n_samples) * len(self.channels)
        if self.verb == "cdf":
            return len(self.detectors)
        return 0

    @property
    def mc_trials(self) -> int:
        """Monte Carlo trials summed over legs and phases."""
        if self.verb == "roc":
            return self.legs * PHASES * self.trials
        if self.verb == "cdf":
            return self.legs * self.trials
        return 0

    @property
    def points(self) -> int:
        """Closed-form (threshold, detector) points evaluated."""
        if self.verb == "curves":
            return len(self.detectors) * self.grid_points
        return 0


@dataclass(frozen=True)
class PriorAverage:
    """`analysis.average_over_prior` of the ALRD1 detection probability
    over the noise prior and a Rayleigh channel, at one threshold."""

    config: Path
    n_samples: int
    eta: float
    draws: int


@dataclass
class Plan:
    """Everything one workload runs per pass, built from the seed."""

    work_unit: str
    commands: list[Command]
    averages: list[PriorAverage] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return sum(c.mc_trials for c in self.commands)

    @property
    def legs(self) -> int:
        return sum(c.legs for c in self.commands)

    @property
    def draws(self) -> int:
        return sum(a.draws for a in self.averages)

    @property
    def work(self) -> int:
        """Work per pass: MC trials, or closed-form points plus prior draws."""
        if self.work_unit == "trials":
            return self.trials
        return sum(c.points for c in self.commands) + self.draws

    @property
    def operations(self) -> int:
        return len(self.commands) + len(self.averages)


def _write_config(path: Path, items: dict[str, str]) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(62)


def _fmt_list(values) -> str:
    return ", ".join(str(v) for v in values)


def _roc(path, rng, detectors, n_samples, channels, trials, targets, extra=()):
    items = {"detectors": _fmt_list(detectors), "n_samples": _fmt_list(n_samples),
             "trials": str(trials), "master_seed": str(_seed(rng)),
             "channels": _fmt_list(channels), **COMMON,
             "pfa_targets": _fmt_list(targets), **dict(extra)}
    _write_config(path, items)
    return Command("roc", path, tuple(detectors), tuple(n_samples),
                   tuple(channels), trials, tuple(targets),
                   two_sided=items.get("glr_two_sided") == "true")


def _cdf(path, rng, detector, trials):
    _write_config(path, {"detectors": detector, "n_samples": "20",
                         "trials": str(trials), "master_seed": str(_seed(rng)),
                         "channels": "awgn", **COMMON, "cdf_points": "250"})
    return Command("cdf", path, (detector,), (20,), ("awgn",), trials)


def figures_model(rng: random.Random, cfg_dir: Path, tiny: bool) -> Plan:
    """fig6-shaped ROC plus fig2/fig3-shaped CDFs on the model source."""
    trials = 1_000 if tiny else 10_000
    targets = FIG_TARGETS[3:] if tiny else FIG_TARGETS
    commands = [
        _roc(cfg_dir / "fig6.conf", rng, ("optimal", "alrd1", "alrd2"), (20, 40),
             ("rayleigh", "nakagami"), trials, targets, {"nakagami_m": "2"}),
        _cdf(cfg_dir / "fig2.conf", rng, "alrd1", trials),
        _cdf(cfg_dir / "fig3.conf", rng, "alrd2", trials),
    ]
    return Plan("trials", commands)


def roc_waveform_short(rng: random.Random, cfg_dir: Path, tiny: bool) -> Plan:
    """Many short waveform-source ROC legs, FFT sizes not all powers of two."""
    n_samples = (16, 100) if tiny else (16, 32, 64, 100, 128)
    trials = 500 if tiny else 1_000
    targets = WAVEFORM_TARGETS[1:] if tiny else WAVEFORM_TARGETS
    commands = [
        _roc(cfg_dir / "waveform.conf", rng, ("optimal", "alrd1", "glrd2"),
             n_samples, ("awgn", "rayleigh"), trials, targets,
             {"source": "waveform", "glr_two_sided": "true"}),
    ]
    return Plan("trials", commands)


def closed_forms(rng: random.Random, cfg_dir: Path, tiny: bool) -> Plan:
    """Dense closed-form curves plus prior-averaged detection probability."""
    points = 201 if tiny else 10_001
    n_avg, draws = (3, 200) if tiny else (20, 2_000)
    commands, averages = [], []
    for n in (20, 40):
        path = cfg_dir / f"curves_n{n}.conf"
        _write_config(path, {"detectors": "optimal, alrd1, glrd1, alrd2",
                             "n_samples": str(n), "trials": "10000",
                             "master_seed": str(_seed(rng)),
                             "channels": "rayleigh", **COMMON,
                             "threshold_min": "0", "threshold_max": "60",
                             "threshold_points": str(points)})
        commands.append(Command("curves", path, ("optimal", "alrd1", "glrd1", "alrd2"),
                                (n,), ("rayleigh",), 10_000, grid_points=points))
        # thresholds spread over where the averaged Pd moves from ~1 to ~0
        top = 2.0 * n
        averages += [PriorAverage(path, n, top * (i + 1) / n_avg, draws)
                     for i in range(n_avg)]
    return Plan("points", commands, averages)


WORKLOADS = {
    "figures_model": figures_model,
    "roc_waveform_short": roc_waveform_short,
    "closed_forms": closed_forms,
}


def build_plan(workload: str, seed: int, cfg_dir: Path, tiny: bool = False) -> Plan:
    """Write the workload's configs for this seed and return its plan."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(seed), cfg_dir, tiny)


@dataclass
class PassResult:
    seconds: float
    failed: list[str]                      # operations that failed, with reason
    averages: list


def run_pass(plan: Plan, out_dir: Path) -> PassResult:
    """Run every operation of the plan once, closed loop, and time the pass.

    CLI output goes to `out_dir`; anything the library prints to stdout is
    swallowed so the benchmark's own result line stays last.
    """
    from specsense import analysis, cli
    from specsense.config import load_experiment

    failed, averages = [], []
    sink = io.StringIO()
    t0 = time.perf_counter()
    for cmd in plan.commands:
        argv = [cmd.verb, str(cmd.config), "--out", str(out_dir)]
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception:  # keep measuring; the failure is counted
            code = traceback.format_exc()
        if code != 0:
            failed.append(f"{' '.join(argv)}: exit {code}")
    for avg in plan.averages:
        try:
            exp = load_experiment(avg.config)
            n, eta, snr = avg.n_samples, avg.eta, exp.snr_linear
            averages.append(analysis.average_over_prior(
                lambda a, h, s: analysis.pd_alrd1(n, a, exp.prior, snr * abs(h) ** 2, eta),
                exp.prior, avg.draws, exp.master_seed, channel=exp.channels[0]))
        except Exception:
            averages.append(None)
            failed.append(f"average_over_prior eta={avg.eta}: {traceback.format_exc()}")
    seconds = time.perf_counter() - t0
    return PassResult(seconds, failed, averages)
