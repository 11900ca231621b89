"""Flat key = value experiment configuration files.

One key per line, `#` starts a comment, lists are comma separated,
booleans are true/false.  SNR is given in dB and converted to the linear
ratio internally.  `_KEYS` lists every key with its parser and its
default; a key without one is `REQUIRED`.  The prior parameters are
required: results depend on them and no silent default is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .detectors import detector
from .errors import ConfigError
from .signals import (
    MODEL,
    NAKAGAMI,
    ChannelSpec,
    NoisePrior,
    ScenarioConfig,
    SignalSpec,
)


def _text(value: str, key: str) -> str:
    return value


def _lower(value: str, key: str) -> str:
    return value.lower()


def _bool(value: str, key: str) -> bool:
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


def _float(value: str, key: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {value!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite")
    return v


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {value!r}") from None


def _list(item):
    """Parser of a comma-separated, nonempty list of distinct `item` values."""
    def parse(value: str, key: str) -> tuple:
        items = tuple(item(v.strip(), key) for v in value.split(",") if v.strip())
        if not items:
            raise ConfigError(f"{key} list is empty")
        if len(set(items)) < len(items):
            raise ConfigError(f"duplicate {key} in {value!r}")
        return items
    return parse


REQUIRED = object()

# key -> (parser, default); the missing required keys are named in this order
_KEYS = {
    "detectors": (_list(_text), REQUIRED),
    "n_samples": (_list(_int), REQUIRED),
    "trials": (_int, REQUIRED),
    "master_seed": (_int, REQUIRED),
    "snr_db": (_float, REQUIRED),
    "bandwidth_hz": (_float, 54000.0),
    "rolloff": (_float, 0.25),
    "channels": (_list(_lower), REQUIRED),
    "nakagami_m": (_float, None),
    "prior_k": (_int, REQUIRED),
    "prior_theta": (_float, REQUIRED),
    "pfa_targets": (_list(_float), ()),
    "noise_power": (_float, None),  # None: drawn from the prior
    "source": (_lower, MODEL),
    "glr_two_sided": (_bool, False),
    "threshold_min": (_float, None),
    "threshold_max": (_float, None),
    "threshold_points": (_int, None),
    "cdf_points": (_int, 200),
}


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value mapping from config text."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description: one checked scenario leg per
    `n_samples` value, each with the first of `channels`."""

    detectors: tuple[str, ...]
    scenarios: tuple[ScenarioConfig, ...]
    channels: tuple[ChannelSpec, ...]
    master_seed: int
    snr_db: float
    prior: NoisePrior
    pfa_targets: tuple[float, ...]
    threshold_grid: tuple[float, float, int] | None
    cdf_points: int
    echo: dict[str, str]

    @property
    def snr_linear(self) -> float:
        return self.scenarios[0].signal.snr_linear


def experiment_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    missing = [key for key, (_, default) in _KEYS.items()
               if default is REQUIRED and key not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    v = {key: parse(raw[key], key) if key in raw else default
         for key, (parse, default) in _KEYS.items()}

    detectors = v["detectors"]
    rows = [detector(name) for name in detectors]

    prior = NoisePrior(k=v["prior_k"], theta=v["prior_theta"])
    nakagami_m = v["nakagami_m"]
    channels = tuple(ChannelSpec(name, nakagami_m if name == NAKAGAMI else None)
                     for name in v["channels"])
    if nakagami_m is not None and all(ch.kind != NAKAGAMI for ch in channels):
        raise ConfigError("nakagami_m is set but no channel is nakagami")

    threshold_grid = (v["threshold_min"], v["threshold_max"], v["threshold_points"])
    if threshold_grid == (None, None, None):
        threshold_grid = None
    elif None in threshold_grid:
        raise ConfigError("threshold_min, threshold_max and threshold_points go together")
    elif threshold_grid[1] <= threshold_grid[0] or threshold_grid[2] < 2:
        raise ConfigError("invalid threshold grid")
    elif threshold_grid[0] < 0:
        raise ConfigError("threshold_min must be >= 0: statistics are nonnegative")

    if v["glr_two_sided"] and all(row.log_lr is None for row in rows):
        raise ConfigError("glr_two_sided is set but neither glrd1 nor glrd2 is listed")
    if v["cdf_points"] < 200:
        raise ConfigError(f"cdf_points must be at least 200, got {v['cdf_points']}")

    try:
        snr = 10.0 ** (v["snr_db"] / 10.0)
    except OverflowError:
        raise ConfigError(f"snr_db: {v['snr_db']:g} dB overflows a float") from None
    signal = SignalSpec(v["bandwidth_hz"], v["rolloff"], snr)
    scenarios = tuple(
        ScenarioConfig(n_samples=n, prior=prior, signal=signal, channel=channels[0],
                       trials=v["trials"], master_seed=v["master_seed"],
                       noise_power=v["noise_power"], source=v["source"],
                       glr_two_sided=v["glr_two_sided"])
        for n in v["n_samples"])

    return ExperimentConfig(
        detectors=detectors,
        scenarios=scenarios,
        channels=channels,
        master_seed=v["master_seed"],
        snr_db=v["snr_db"],
        prior=prior,
        pfa_targets=v["pfa_targets"],
        threshold_grid=threshold_grid,
        cdf_points=v["cdf_points"],
        echo=dict(sorted(raw.items())),
    )


def load_experiment(path: str | Path,
                    overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse and check the config at `path`; `overrides` replace raw
    values of the file's keys before parsing."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return experiment_from_mapping({**parse_config_text(text), **(overrides or {})})
