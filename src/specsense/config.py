"""Flat key = value experiment configuration files.

One key per line, `#` starts a comment, lists are comma separated,
booleans are true/false.  SNR is given in dB and converted to the linear
ratio internally.  The prior parameters are mandatory: results depend on
them and no silent default is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .detectors import FREQ, TIME, detector
from .errors import ConfigError
from .signals import (
    AWGN,
    MODEL,
    NAKAGAMI,
    RAYLEIGH,
    WAVEFORM,
    ChannelSpec,
    NoisePrior,
    ScenarioConfig,
    SignalSpec,
)

_KNOWN_KEYS = {
    "detectors", "n_samples", "trials", "master_seed",
    "snr_db", "bandwidth_hz", "rolloff", "sample_rate_hz",
    "channels", "nakagami_m",
    "prior_k", "prior_theta",
    "pfa_targets",
    "noise_power",
    "pinned_channel_re", "pinned_channel_im",
    "pinned_signal_re", "pinned_signal_im",
    "source", "glr_two_sided",
    "threshold_min", "threshold_max", "threshold_points",
    "cdf_points",
}

_REQUIRED_KEYS = ("detectors", "n_samples", "trials", "master_seed",
                  "snr_db", "channels", "prior_k", "prior_theta")


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
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def _parse_bool(value: str, key: str) -> bool:
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


def _parse_float(value: str, key: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {value!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite")
    return v


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {value!r}") from None


def _parse_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


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


def _build_channel(name: str, nakagami_m: float | None) -> ChannelSpec:
    name = name.lower()
    if name == AWGN:
        return ChannelSpec(AWGN)
    if name == RAYLEIGH:
        return ChannelSpec(RAYLEIGH)
    if name == NAKAGAMI:
        if nakagami_m is None:
            raise ConfigError("nakagami channel requires nakagami_m")
        return ChannelSpec(NAKAGAMI, nakagami_m=nakagami_m)
    raise ConfigError(f"unknown channel {name!r}")


def experiment_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    detectors = tuple(_parse_list(raw["detectors"]))
    if not detectors:
        raise ConfigError("detector list is empty")
    rows = [detector(name) for name in detectors]
    if len(set(detectors)) < len(detectors):
        raise ConfigError(f"duplicate detector names in {raw['detectors']!r}")
    n_samples = tuple(_parse_int(v, "n_samples") for v in _parse_list(raw["n_samples"]))
    if not n_samples:
        raise ConfigError("n_samples list is empty")

    prior = NoisePrior(k=_parse_int(raw["prior_k"], "prior_k"),
                       theta=_parse_float(raw["prior_theta"], "prior_theta"))

    nakagami_m = (_parse_float(raw["nakagami_m"], "nakagami_m")
                  if "nakagami_m" in raw else None)
    channels = tuple(_build_channel(name, nakagami_m)
                     for name in _parse_list(raw["channels"]))
    if not channels:
        raise ConfigError("channel list is empty")
    if nakagami_m is not None and all(ch.kind != NAKAGAMI for ch in channels):
        raise ConfigError("nakagami_m is set but no channel is nakagami")

    pfa_targets = tuple(_parse_float(v, "pfa_targets")
                        for v in _parse_list(raw.get("pfa_targets", "")))

    pinned_channel = None
    if "pinned_channel_re" in raw or "pinned_channel_im" in raw:
        pinned_channel = complex(
            _parse_float(raw.get("pinned_channel_re", "0"), "pinned_channel_re"),
            _parse_float(raw.get("pinned_channel_im", "0"), "pinned_channel_im"))
    if pinned_channel is not None and len(channels) > 1:
        raise ConfigError("pinned_channel_re/_im fix the gain of every channel: list one")
    pinned_signal = None
    if "pinned_signal_re" in raw or "pinned_signal_im" in raw:
        pinned_signal = complex(
            _parse_float(raw.get("pinned_signal_re", "0"), "pinned_signal_re"),
            _parse_float(raw.get("pinned_signal_im", "0"), "pinned_signal_im"))

    threshold_grid = None
    if any(k in raw for k in ("threshold_min", "threshold_max", "threshold_points")):
        try:
            threshold_grid = (
                _parse_float(raw["threshold_min"], "threshold_min"),
                _parse_float(raw["threshold_max"], "threshold_max"),
                _parse_int(raw["threshold_points"], "threshold_points"),
            )
        except KeyError as exc:
            raise ConfigError(
                "threshold_min, threshold_max and threshold_points go together"
            ) from None
        if threshold_grid[1] <= threshold_grid[0] or threshold_grid[2] < 2:
            raise ConfigError("invalid threshold grid")
        if threshold_grid[0] < 0:
            raise ConfigError("threshold_min must be >= 0: statistics are nonnegative")

    source = raw.get("source", MODEL).lower()
    if pinned_signal is not None and (
            source == WAVEFORM or any(row.domain == TIME for row in rows)):
        raise ConfigError("pinned_signal_re/_im apply to the model source and "
                          "its frequency-domain detectors (alrd2, glrd2) only")
    glr_two_sided = _parse_bool(raw.get("glr_two_sided", "false"), "glr_two_sided")
    if glr_two_sided and all(row.peak is None for row in rows):
        raise ConfigError("glr_two_sided is set but neither glrd1 nor glrd2 is listed")

    cdf_points = _parse_int(raw.get("cdf_points", "200"), "cdf_points")
    if cdf_points < 200:
        raise ConfigError(f"cdf_points must be at least 200, got {cdf_points}")

    master_seed = _parse_int(raw["master_seed"], "master_seed")
    snr_db = _parse_float(raw["snr_db"], "snr_db")
    bandwidth = _parse_float(raw.get("bandwidth_hz", "54000"), "bandwidth_hz")
    rolloff = _parse_float(raw.get("rolloff", "0.25"), "rolloff")
    rate = (_parse_float(raw["sample_rate_hz"], "sample_rate_hz")
            if "sample_rate_hz" in raw else (1.0 + rolloff) * bandwidth)
    signal = SignalSpec(bandwidth, rolloff, rate, 10.0 ** (snr_db / 10.0))
    trials = _parse_int(raw["trials"], "trials")
    noise_power = (_parse_float(raw["noise_power"], "noise_power")
                   if "noise_power" in raw else None)
    scenarios = tuple(
        ScenarioConfig(n_samples=n, prior=prior, signal=signal, channel=channels[0],
                       trials=trials, master_seed=master_seed, noise_power=noise_power,
                       pinned_channel=pinned_channel, pinned_signal=pinned_signal,
                       source=source, glr_two_sided=glr_two_sided)
        for n in n_samples)
    if any(row.domain == FREQ for row in rows):
        for cfg in scenarios:
            _ = cfg.geometry  # rejects a band split with too few bins

    return ExperimentConfig(
        detectors=detectors,
        scenarios=scenarios,
        channels=channels,
        master_seed=master_seed,
        snr_db=snr_db,
        prior=prior,
        pfa_targets=pfa_targets,
        threshold_grid=threshold_grid,
        cdf_points=cdf_points,
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
