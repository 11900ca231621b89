"""Band geometry and spectral shaping.

Shows how a critically sampled block splits into in-band and excess-band
bins, and that the shaped signal's averaged periodogram follows the
raised-cosine profile while the excess band stays noise-dominated.
"""

import numpy as np

from specsense.detectors import FREQ
from specsense.montecarlo import PHASE_EVAL_H1, TRIAL_CHUNK, observe
from specsense.signals import (
    ChannelSpec,
    NoisePrior,
    ScenarioConfig,
    SignalSpec,
    WAVEFORM,
    raised_cosine_profile,
)

BANDWIDTH = 54_000.0
ROLLOFF = 0.25


def main():
    spec = SignalSpec.critically_sampled(BANDWIDTH, ROLLOFF, snr_linear=4.0)
    print(f"bandwidth {BANDWIDTH/1e3:.0f} kHz, rolloff {ROLLOFF}, "
          f"sample rate {spec.sample_rate_hz/1e3:.2f} kHz")
    print(f"nominal band edge +-{BANDWIDTH/2/1e3:.2f} kHz, outer edge "
          f"+-{(1+ROLLOFF)*BANDWIDTH/2/1e3:.2f} kHz")
    blocks = 4000
    scenario = {n: ScenarioConfig(n_samples=n, prior=NoisePrior(k=3, theta=3.0),
                                  signal=spec, channel=ChannelSpec("awgn"),
                                  trials=blocks, master_seed=20260809,
                                  noise_power=1.0, source=WAVEFORM)
                for n in (20, 40)}
    for n, cfg in scenario.items():
        geom = cfg.geometry
        print(f"N={n:3d} samples -> L={geom.l_inband} in-band bins, "
              f"P={geom.p_excess} excess-band bins")

    cfg = scenario[20]
    parts = [observe(cfg, {FREQ}, PHASE_EVAL_H1, b)[0][FREQ]
             for b in range(-(-blocks // TRIAL_CHUNK))]
    x, y = (np.concatenate(bins).mean(axis=0) for bins in zip(*parts))

    freqs = np.fft.fftfreq(20, d=1.0 / spec.sample_rate_hz)
    profile = raised_cosine_profile(freqs, BANDWIDTH, ROLLOFF)
    inband, excess = cfg.bands
    px, py = profile[inband], profile[excess]

    print(f"\naveraged periodogram over {blocks} occupied blocks "
          f"(noise power 1, snr 4):")
    print(f"  mean in-band bin power     {x.mean():8.2f}")
    print(f"  mean excess-band bin power {y.mean():8.2f}")
    sig_ratio = (y.sum() - y.size * 20.0) / (x.sum() - x.size * 20.0)
    print(f"  excess/in-band signal power ratio: measured {sig_ratio:.4f}, "
          f"profile predicts {py.sum() / px.sum():.4f}")
    print(f"  each excess bin carries {py.mean() / px.mean():.1%} of an in-band "
          f"bin's mean signal power; the excess band holds "
          f"{py.sum() / (px.sum() + py.sum()):.1%} of the signal energy")
    print("the detectors treat the excess band as noise-only, which "
          "calibration absorbs")


if __name__ == "__main__":
    main()
