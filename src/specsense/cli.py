"""Command-line front end.

Commands: `roc`, `cdf`, `curves`, `calibrate`, `validate`.  Each
file-emitting command writes CSV (6 significant digits) whose first line
references the manifest hash, plus a JSON manifest describing the run.
Exit codes: 0 success, 1 configuration or usage error, 2 numeric
failure, 3 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__, analysis, montecarlo, svgplot
from .config import ExperimentConfig, load_experiment
from .errors import ConfigError, NumericFailure
from .signals import MODEL, NAKAGAMI, ChannelSpec
from .validation import DEFAULT_SEED, run_validation

_CONVENTION_NOTES = (
    "thresholds live on the statistic scales of specsense.detectors; "
    "scaled-statistic closed forms use tail argument eta*theta/alpha",
    "excess-band CLT detection probability uses the bin-model moments "
    "(analysis.pd_alrd2_clt); the alternative printed moment form is exposed "
    "as proposed_statistic_moments(...).printed for reporting only",
    "prior_k and prior_theta are experiment configuration choices",
)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _channel_label(ch: ChannelSpec) -> str:
    if ch.kind == NAKAGAMI:
        return f"nakagami(m={ch.nakagami_m:g})"
    return ch.kind


def _manifest(command: str, exp: ExperimentConfig) -> tuple[dict, str]:
    stable = {
        "command": command,
        "config": exp.echo,
        "master_seed": exp.master_seed,
        "notes": list(_CONVENTION_NOTES),
        "tool_version": __version__,
    }
    digest = hashlib.sha256(
        json.dumps(stable, sort_keys=True).encode()).hexdigest()[:16]
    manifest = dict(stable)
    manifest["manifest_hash"] = digest
    return manifest, digest


def _write_csv(path: Path, digest: str, header: list[str],
               rows: list[list[str]]) -> None:
    lines = [f"# manifest: {digest}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _load(args) -> ExperimentConfig:
    exp = load_experiment(args.config)
    if getattr(args, "seed", None) is not None:
        exp = replace(exp, master_seed=args.seed,
                      echo={**exp.echo, "master_seed": str(args.seed)})
    if getattr(args, "trials", None) is not None:
        if args.trials < 1:
            raise ConfigError("--trials must be positive")
        exp = replace(exp, trials=args.trials,
                      echo={**exp.echo, "trials": str(args.trials)})
    return exp


def _check_finite(*values) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise NumericFailure("non-finite value in command output")


def _run(args, command: str, header: list[str],
         rows: Callable[[ExperimentConfig], tuple[list[list[str]], list]],
         check: Callable[[ExperimentConfig], None] | None = None,
         plot: tuple[str, str, str] | None = None) -> int:
    """Run one file-emitting command.

    `check(exp)` rejects the experiment before anything is written;
    `rows(exp)` returns the CSV rows and the (label, xs, ys) series that
    `--svg` draws with the `plot` x label, y label and title.
    """
    started = time.perf_counter()
    exp = _load(args)
    if check is not None:
        check(exp)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_stem = Path(args.config).stem
    stem = f"{config_stem}_{command}"
    manifest, digest = _manifest(command, exp)

    table, series = rows(exp)
    csv_path = out_dir / f"{stem}.csv"
    _write_csv(csv_path, digest, header, table)
    if plot is not None and args.svg:
        xlabel, ylabel, title = plot
        svgplot.write_line_plot(out_dir / f"{stem}.svg", series, xlabel, ylabel,
                                f"{title} ({config_stem})",
                                comment=f"manifest: {digest}")
    # not hashed: the hash names the experiment, not the machine that ran it
    manifest["duration_seconds"] = round(time.perf_counter() - started, 3)
    manifest["versions"] = {"python": platform.python_version(),
                            "numpy": np.__version__, "scipy": scipy.__version__}
    (out_dir / f"{stem}_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {csv_path} ({len(table)} rows)")
    return 0


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_roc(args) -> int:
    def check(exp):
        if not exp.pfa_targets:
            raise ConfigError("roc requires pfa_targets")

    def rows(exp):
        table, series = [], []
        for n in exp.n_samples:
            # one calibration and H0 evaluation per N, shared by its channels
            sweeps = montecarlo.roc_sweep_channels(
                exp.scenario(n, exp.channels[0]), exp.detectors, exp.pfa_targets,
                exp.channels)
            for ch, points in zip(exp.channels, sweeps):
                for name in exp.detectors:
                    pts = points[name]
                    for pt in pts:
                        _check_finite(pt.pfa_empirical, pt.pd_empirical, pt.threshold)
                        table.append([name, str(n), _fmt(exp.snr_db),
                                      _channel_label(ch), _fmt(pt.pfa_target),
                                      _fmt(pt.pfa_empirical), _fmt(pt.pd_empirical),
                                      _fmt(pt.pd_ci_low), _fmt(pt.pd_ci_high),
                                      _fmt(pt.threshold)])
                    series.append((f"{name} N={n} {_channel_label(ch)}",
                                   [pt.pfa_empirical for pt in pts],
                                   [pt.pd_empirical for pt in pts]))
        return table, series

    return _run(args, "roc",
                ["detector", "n_samples", "snr_db", "channel", "pfa_target",
                 "pfa_emp", "pd_emp", "pd_ci_low", "pd_ci_high", "threshold"],
                rows, check,
                ("false-alarm probability", "detection probability", "ROC"))


def cmd_cdf(args) -> int:
    def check(exp):
        if len(exp.n_samples) != 1 or len(exp.channels) != 1:
            raise ConfigError("cdf expects a single n_samples value and channel")

    def rows(exp):
        cdfs = montecarlo.calibration_cdfs(
            exp.scenario(exp.n_samples[0], exp.channels[0]), exp.detectors)
        table, series = [], []
        for name, cdf in cdfs.items():
            grid = np.linspace(cdf.values[0], cdf.values[-1], exp.cdf_points)
            vals = cdf.evaluate(grid)
            _check_finite(grid, vals)
            table.extend([name, _fmt(t), _fmt(c)]
                         for t, c in zip(grid.tolist(), vals.tolist()))
            series.append((name, list(grid), vals.tolist()))
        return table, series

    return _run(args, "cdf", ["detector", "statistic_value", "cdf"], rows, check,
                ("statistic value", "cdf", "H0 statistic CDF"))


def cmd_curves(args) -> int:
    def geometry(exp):
        return exp.scenario(exp.n_samples[0], exp.channels[0]).geometry

    def check(exp):
        if len(exp.n_samples) != 1 or len(exp.channels) != 1:
            raise ConfigError("curves expects a single n_samples value and channel")
        if exp.threshold_grid is None:
            raise ConfigError(
                "curves requires threshold_min/threshold_max/threshold_points")
        if exp.source != MODEL or exp.glr_two_sided:
            raise ConfigError("curves evaluates the model source's one-sided closed "
                              "forms; source = waveform and glr_two_sided do not apply")
        geometry(exp)

    def rows(exp):
        n = exp.n_samples[0]
        geom = geometry(exp)
        alpha = (exp.noise_power if exp.noise_power is not None
                 else exp.prior.mean_noise_power)
        snr = exp.snr_linear
        h = exp.pinned_channel if exp.pinned_channel is not None else 1.0 + 0.0j
        snr_h = snr * abs(h) ** 2  # the time samples' SNR through the gain
        s = (exp.pinned_signal if exp.pinned_signal is not None
             else complex(math.sqrt(n * alpha * snr)))
        grid = np.linspace(*exp.threshold_grid)
        table = []
        for name in exp.detectors:
            if name == "optimal":
                pfa = analysis.pfa_opt(n, 1.0, grid)
                pd = analysis.pd_opt(n, 1.0, snr_h, grid)
            elif name in ("alrd1", "glrd1"):
                pfa = analysis.pfa_alrd1(n, alpha, exp.prior, grid)
                pd = analysis.pd_alrd1(n, alpha, exp.prior, snr_h, grid)
            else:
                pfa = analysis.pfa_alrd2_clt(geom.l_inband, geom.p_excess, n,
                                             alpha, exp.prior.theta, grid)
                pd = analysis.pd_alrd2_clt(geom.l_inband, geom.p_excess, n,
                                           alpha, exp.prior.theta, grid, h, s)
            _check_finite(pfa, pd)
            table.extend([name, _fmt(thr), _fmt(a), _fmt(b)] for thr, a, b
                         in zip(grid.tolist(), pfa.tolist(), pd.tolist()))
        return table, []

    return _run(args, "curves", ["detector", "threshold", "pfa_cf", "pd_cf"],
                rows, check)


def cmd_calibrate(args) -> int:
    def rows(exp):
        table = []
        for n in exp.n_samples:
            # calibration reads no channel field: one run per N
            specs = montecarlo.calibrate(exp.scenario(n, exp.channels[0]),
                                         exp.detectors, [args.pfa])
            for ch in exp.channels:
                for name in exp.detectors:
                    thr = specs[name][0].eta1
                    _check_finite(thr)
                    table.append([name, str(n), _channel_label(ch),
                                  _fmt(args.pfa), _fmt(thr)])
                    print(f"{name} N={n} {_channel_label(ch)}: "
                          f"threshold {thr:.6g} at target pfa {args.pfa:g}")
        return table, []

    return _run(args, "calibrate",
                ["detector", "n_samples", "channel", "pfa_target", "threshold"],
                rows)


def cmd_validate(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    if not 0 <= seed < 1 << 128:
        raise ConfigError("master seed must lie in [0, 2**128)")
    results = run_validation(seed)
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_passed &= res.passed
        print(f"{status} {res.name}: {res.detail}")
    if not all_passed:
        print("validation failed")
        return 3
    print(f"all {len(results)} checks passed (seed {seed})")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a config error (exit 1), not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specsense",
                     description="Spectrum-sensing detector experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None,
                      help="override the master seed")
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("config", help="experiment config file (key = value)")
    files.add_argument("--out", default=".", help="output directory")
    run = argparse.ArgumentParser(add_help=False, parents=[files, seed])
    run.add_argument("--trials", type=int, default=None,
                     help="override the trial count")
    svg = argparse.ArgumentParser(add_help=False)
    svg.add_argument("--svg", action="store_true", help="also write an SVG figure")
    pfa = argparse.ArgumentParser(add_help=False)
    pfa.add_argument("--pfa", type=float, required=True,
                     help="target false-alarm probability")

    for name, fn, help_text, parents in (
            ("roc", cmd_roc, "empirical ROC sweep", [run, svg]),
            ("cdf", cmd_cdf, "H0 statistic CDF table", [run, svg]),
            ("curves", cmd_curves, "closed-form Pfa/Pd vs threshold", [files]),
            ("calibrate", cmd_calibrate, "empirical threshold at a target Pfa",
             [run, pfa]),
            ("validate", cmd_validate, "run the oracle check battery", [seed])):
        sub.add_parser(name, help=help_text, parents=parents).set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
