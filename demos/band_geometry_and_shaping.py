"""Band geometry and spectral shaping.

Shows how a critically sampled block splits into in-band and excess-band
bins, and that the shaped signal's averaged periodogram follows the
raised-cosine profile while the excess band stays noise-dominated.
"""

import numpy as np

from specsense.numerics import RngStream
from specsense.observation import band_geometry, spectrum_bins, split_bands
from specsense.signals import (
    ChannelSpec,
    NoisePrior,
    ScenarioConfig,
    SignalSpec,
    generate_time_block,
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
    for n in (20, 40):
        geom = band_geometry(n, spec)
        print(f"N={n:3d} samples -> L={geom.l_inband} in-band bins, "
              f"P={geom.p_excess} excess-band bins")

    cfg = ScenarioConfig(n_samples=20, prior=NoisePrior(k=3, theta=3.0),
                         signal=spec, channel=ChannelSpec("awgn"),
                         trials=1, master_seed=1)
    gen = RngStream(20260809).generator()
    acc = np.zeros(20)
    blocks = 4000
    for _ in range(blocks):
        acc += spectrum_bins(generate_time_block(cfg, 1.0, 1.0 + 0j, gen))
    x, y, geom = split_bands(acc / blocks, spec)

    freqs = np.fft.fftfreq(20, d=1.0 / spec.sample_rate_hz)
    profile = raised_cosine_profile(freqs, BANDWIDTH, ROLLOFF)
    px, py, _ = split_bands(profile, spec)

    print(f"\naveraged periodogram over {blocks} occupied blocks "
          f"(noise power 1, snr 4):")
    print(f"  mean in-band bin power     {x.mean():8.2f}")
    print(f"  mean excess-band bin power {y.mean():8.2f}")
    sig_ratio = (y.sum() - geom.p_excess * 20.0) / (x.sum() - geom.l_inband * 20.0)
    print(f"  excess/in-band signal power ratio: measured {sig_ratio:.4f}, "
          f"profile predicts {py.sum() / px.sum():.4f}")
    print("the excess band carries a few percent of the signal power; the "
          "detectors treat it as noise-only, which calibration absorbs")


if __name__ == "__main__":
    main()
