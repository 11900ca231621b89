"""One sensing block through every detector.

Generates a single occupied-channel trial, forms both observation
types, evaluates each decision statistic, and shows the Bayesian
machinery behind the excess-band detectors: the precision posterior
and the MAP noise-power estimates.
"""

import numpy as np

from specsense.analysis import map_noise_power, posterior_update
from specsense.detectors import (
    FREQ,
    TIME,
    ThresholdSpec,
    mu_glrd1,
    rho_glrd2,
    t_alrd1,
    t_alrd2,
    t_opt,
)
from specsense.montecarlo import PHASE_EVAL_H1, observe
from specsense.signals import ChannelSpec, NoisePrior, ScenarioConfig, SignalSpec


def main():
    prior = NoisePrior(k=3, theta=3.0)
    spec = SignalSpec.critically_sampled(54_000.0, 0.25, snr_linear=1.0)
    cfg = ScenarioConfig(n_samples=20, prior=prior, signal=spec,
                         channel=ChannelSpec("awgn"), trials=1, master_seed=7)
    obs, alphas = observe(cfg, {TIME, FREQ}, PHASE_EVAL_H1, 0)  # block 0: trial 0
    r = obs[TIME][0]
    x, y = (bins[0] for bins in obs[FREQ])
    alpha = float(alphas[0])
    print(f"prior: precision ~ Gamma({prior.precision_shape:.0f}, "
          f"{prior.theta}), mean noise power {prior.mean_noise_power:.2f}")
    print(f"this trial's true noise power: {alpha:.3f}\n")

    n = cfg.n_samples
    geom = cfg.geometry

    print("time-domain statistics (threshold scale: energy sum):")
    print(f"  energy sum              {t_opt(r):9.3f}")
    print(f"  prior-scaled energy     {t_alrd1(r, prior):9.3f}")
    print(f"  GLR peak location       {mu_glrd1(n, prior.k, spec.snr_linear):9.3f}")

    print("\nfrequency-domain statistics "
          f"(L={geom.l_inband}, P={geom.p_excess}):")
    eta = 5.0
    print(f"  excess-normalized ratio {t_alrd2(x, y, prior):9.3f}")
    print(f"  linearized form         {x.sum() - eta * y.sum():9.3f} "
          f"(vs cutoff eta*theta = {eta * prior.theta:.1f})")
    print(f"  GLR peak location       "
          f"{rho_glrd2(geom.l_inband, geom.p_excess, prior.k, spec.snr_linear):9.3f}")

    post = posterior_update(prior, float(np.mean(y)), geom.p_excess)
    print(f"\nprecision posterior after the excess band: "
          f"Gamma({post.shape:.0f}, {post.rate:.2f})")
    # Bins carry power on the N*alpha scale (unnormalized DFT), so the
    # posterior tracks the bin-scale noise power, shrunk toward the
    # prior; the detectors only ever use it through calibrated ratios.
    print(f"posterior mean bin power {post.rate / (post.shape - 1):7.2f}   "
          f"observed excess-bin mean {np.mean(y):7.2f}   "
          f"true bin-scale power {n * alpha:7.2f}")

    for hyp in ("h0", "h1"):
        est = map_noise_power(prior, spec.snr_linear, hyp, x=x, y=y)
        print(f"MAP bin-scale noise power assuming {hyp}: {est:7.2f}")

    stat = t_alrd2(x, y, prior)
    occupied = ThresholdSpec(eta1=5.0, eta2=50.0).decide(stat)
    print(f"\nband rule on the ratio statistic: statistic "
          f"{stat:.3f} -> {'occupied' if occupied else 'idle'}")


if __name__ == "__main__":
    main()
