"""Command-line front end.

Commands: `roc`, `cdf`, `curves`, `calibrate`, `validate`.  Each
file-emitting command writes CSV (6 significant digits, `%`-formatted)
whose first line references the manifest hash, plus a JSON manifest
describing the run.  `curves` evaluates and formats each distinct
closed-form law once, and a detector sharing a law (a GLR row and its
ALR twin) writes those rows under its own name.  `main` builds the
argument parser on its first call and reuses it.
Exit codes: 0 success, 1 configuration or usage error, 2 numeric
failure, 3 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import platform
import sys
import time
import warnings
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, montecarlo, svgplot
from .config import ExperimentConfig, load_experiment
from .detectors import detector
from .errors import ConfigError, NumericFailure
from .signals import AWGN, MODEL, NAKAGAMI, ChannelSpec
from .validation import DEFAULT_SEED, run_validation

_CONVENTION_NOTES = (
    "thresholds live on the statistic scales of specsense.detectors; "
    "scaled-statistic closed forms use tail argument eta*theta/alpha",
    "excess-band CLT detection probability uses the bin-model moments "
    "(analysis.pd_alrd2_clt)",
    "prior_k and prior_theta are experiment configuration choices",
)


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
               lines: list[str]) -> None:
    path.write_text("\n".join([f"# manifest: {digest}", ",".join(header), *lines])
                    + "\n")


def _load(args) -> ExperimentConfig:
    flags = {"master_seed": getattr(args, "seed", None),
             "trials": getattr(args, "trials", None)}
    return load_experiment(args.config, {key: str(value) for key, value
                                         in flags.items() if value is not None})


def _run(args, command: str, header: list[str],
         rows: Callable[[ExperimentConfig], tuple[list[str], list]],
         check: Callable[[ExperimentConfig], None] | None = None,
         plot: tuple[str, str, str] | None = None) -> int:
    """Run one file-emitting command.

    Loading the config checks every scenario leg, `check(exp)` rejects
    what the command cannot run, and `--out` must name a directory or a
    path that can become one, before anything is drawn or printed;
    `rows(exp)` returns the CSV lines and the (label, xs, ys) series that
    `--svg` draws with the `plot` x label, y label and title.  Nothing is
    written, and `--out` is not created, until `rows` returns.
    """
    started = time.perf_counter()
    exp = _load(args)
    if check is not None:
        check(exp)
    out_dir = Path(args.out)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out_dir}: {existing} is not a directory")
    config_stem = Path(args.config).stem
    stem = f"{config_stem}_{command}"
    manifest, digest = _manifest(command, exp)

    table, series = rows(exp)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    _write_csv(csv_path, digest, header, table)
    if plot is not None and args.svg:
        xlabel, ylabel, title = plot
        svgplot.write_line_plot(out_dir / f"{stem}.svg", series, xlabel, ylabel,
                                f"{title} ({config_stem})",
                                comment=f"manifest: {digest}")
    # not hashed: the hash names the experiment, not the machine that ran it
    manifest["duration_seconds"] = round(time.perf_counter() - started, 3)
    import scipy  # here, not at the top: only the manifest reads it
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
    def rows(exp):
        table, series = [], []
        for cfg in exp.scenarios:
            n = cfg.n_samples
            # one calibration and H0 evaluation per N, shared by its channels
            sweeps = montecarlo.roc_sweep_channels(
                cfg, exp.detectors, exp.pfa_targets, exp.channels)
            for ch, points in zip(exp.channels, sweeps):
                for name in exp.detectors:
                    pts = points[name]
                    table.extend(
                        "%s,%d,%.6g,%s,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g"
                        % (name, n, exp.snr_db, _channel_label(ch), pt.pfa_target,
                           pt.pfa_empirical, pt.pd_empirical, pt.pd_ci_low,
                           pt.pd_ci_high, pt.threshold) for pt in pts)
                    series.append((f"{name} N={n} {_channel_label(ch)}",
                                   [pt.pfa_empirical for pt in pts],
                                   [pt.pd_empirical for pt in pts]))
        return table, series

    return _run(args, "roc",
                ["detector", "n_samples", "snr_db", "channel", "pfa_target",
                 "pfa_emp", "pd_emp", "pd_ci_low", "pd_ci_high", "threshold"],
                rows, plot=("false-alarm probability", "detection probability", "ROC"))


def cmd_cdf(args) -> int:
    def check(exp):
        if len(exp.scenarios) != 1 or len(exp.channels) != 1:
            raise ConfigError("cdf expects a single n_samples value and channel")

    def rows(exp):
        cdfs = montecarlo.calibration_cdfs(exp.scenarios[0], exp.detectors)
        table, series = [], []
        for name, cal in cdfs.items():
            grid = np.linspace(cal[0], cal[-1], exp.cdf_points)
            # the fraction of calibration statistics at or below each point
            vals = np.searchsorted(cal, grid, side="right") / cal.size
            table.extend(map(f"{name},%.6g,%.6g".__mod__,
                             zip(grid.tolist(), vals.tolist())))
            series.append((name, list(grid), vals.tolist()))
        return table, series

    return _run(args, "cdf", ["detector", "statistic_value", "cdf"], rows, check,
                ("statistic value", "cdf", "H0 statistic CDF"))


def cmd_curves(args) -> int:
    def check(exp):
        if len(exp.scenarios) != 1 or len(exp.channels) != 1:
            raise ConfigError("curves expects a single n_samples value and channel")
        if exp.threshold_grid is None:
            raise ConfigError(
                "curves requires threshold_min/threshold_max/threshold_points")
        cfg = exp.scenarios[0]
        if cfg.source != MODEL or cfg.glr_two_sided:
            raise ConfigError("curves evaluates the model source's one-sided closed "
                              "forms; source = waveform and glr_two_sided do not apply")

    def rows(exp):
        if exp.channels[0].kind != AWGN:  # the closed forms are conditional on h
            warnings.warn(f"curves ignores the {_channel_label(exp.channels[0])} fade: its "
                          "columns are at |h|^2 = 1 until fading-averaged closed forms exist")
        cfg = exp.scenarios[0]
        alpha = (cfg.noise_power if cfg.noise_power is not None
                 else exp.prior.mean_noise_power)
        snr = exp.snr_linear * np.array([[0.0], [1.0]])  # rows: idle (Pfa), occupied (Pd)
        grid = np.linspace(*exp.threshold_grid)
        thresholds = list(map("%.6g".__mod__, grid.tolist()))  # shared by every law
        table, law_rows = [], {}
        for name in exp.detectors:
            # a GLR row shares its twin's law: the first detector to use a
            # law evaluates and formats it, the others reuse its rows
            law = detector(name).law
            if law not in law_rows:
                try:  # an overflow or a nan on the way would write a wrong value
                    with np.errstate(over="raise", invalid="raise"):
                        cf = law(cfg, alpha, snr, grid)
                except FloatingPointError as exc:
                    raise NumericFailure(f"{name} closed form: {exc}") from None
                if not np.isfinite(cf).all():
                    raise NumericFailure("non-finite value in command output")
                pfa, pd = cf
                law_rows[law] = list(map("%s,%.6g,%.6g".__mod__,
                                         zip(thresholds, pfa.tolist(), pd.tolist())))
            table.extend(map(f"{name},".__add__, law_rows[law]))
        return table, []

    return _run(args, "curves", ["detector", "threshold", "pfa_cf", "pd_cf"],
                rows, check)


def cmd_calibrate(args) -> int:
    def rows(exp):
        table = []
        for cfg in exp.scenarios:
            n = cfg.n_samples
            # calibration reads no channel field: one run per N
            thresholds = montecarlo.calibrate(cfg, exp.detectors, [args.pfa])
            for ch in exp.channels:
                for name in exp.detectors:
                    thr = thresholds[name][0]
                    table.append("%s,%d,%s,%.6g,%.6g"
                                 % (name, n, _channel_label(ch), args.pfa, thr))
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


@functools.cache  # built on the first `main` call, not at import
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
    except MemoryError as exc:  # say, trials or threshold_points too large
        print(f"config error: the run does not fit in memory: {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
