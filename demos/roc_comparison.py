"""ROC comparison under noise-power uncertainty.

The point of the excess-band detectors: when the noise power is drawn
fresh each trial from the prior, the traditional prior-scaled energy
detector degrades, while normalizing by the observed excess-band energy
recovers much of the loss.  Includes fading runs, which share one
calibration and one idle-channel evaluation with the unfaded run.
"""

from specsense.montecarlo import roc_sweep_channels
from specsense.signals import ChannelSpec, NoisePrior, ScenarioConfig, SignalSpec

DETECTORS = ["optimal", "alrd1", "alrd2"]
GRID = [0.02, 0.05, 0.1, 0.2, 0.4]


def sweep(channels, n=20, snr=1.0, trials=20_000):
    """One ROC sweep per channel; only the occupied-channel trials differ."""
    spec = SignalSpec(54_000.0, 0.25, snr)
    cfg = ScenarioConfig(n_samples=n, prior=NoisePrior(k=3, theta=3.0),
                         signal=spec, channel=channels[0], trials=trials,
                         master_seed=20260809)
    return roc_sweep_channels(cfg, DETECTORS, GRID, channels)


def show(title, points):
    print(title)
    print("  target  " + "  ".join(f"{d:>8s}" for d in DETECTORS))
    for i, target in enumerate(GRID):
        row = "  ".join(f"{points[d][i].pd_empirical:8.3f}" for d in DETECTORS)
        print(f"  {target:6.2f}  {row}")
    print()


def main():
    awgn, rayleigh, nakagami = sweep([ChannelSpec("awgn"), ChannelSpec("rayleigh"),
                                      ChannelSpec("nakagami", nakagami_m=2.0)])
    show("unfaded channel, snr 0 dB, N=20 (Pd per false-alarm target):", awgn)
    show("unfaded channel, snr 0 dB, N=40:", sweep([ChannelSpec("awgn")], n=40)[0])
    show("rayleigh fading, snr 0 dB, N=20:", rayleigh)
    show("nakagami m=2 fading, snr 0 dB, N=20:", nakagami)
    print("reading: 'optimal' knows the per-trial noise power (upper bound);")
    print("'alrd2' tracks it via the excess band and beats 'alrd1', which")
    print("leans on the prior alone; doubling N helps alrd2 far more.")


if __name__ == "__main__":
    main()
