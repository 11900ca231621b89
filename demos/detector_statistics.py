"""One sensing block through every detector.

Draws a single occupied-channel trial, forms both observation types,
evaluates each decision statistic, and shows the Bayesian machinery
behind the excess-band detectors: the precision posterior and the MAP
noise-power estimates.

`montecarlo.observe` draws only the sums the detectors read (sum(r),
sum(x) and sum(y)), so to show each sample and bin this demo draws its
one trial itself, from the model source's law on an unfaded channel.
"""

import numpy as np

from specsense.analysis import map_noise_power, posterior_update
from specsense.detectors import DETECTORS, mu_glrd1
from specsense.numerics import stream_seeker
from specsense.signals import (
    ChannelSpec,
    NoisePrior,
    ScenarioConfig,
    SignalSpec,
    draw_noise_power,
)


def main():
    prior = NoisePrior(k=3, theta=3.0)
    spec = SignalSpec(54_000.0, 0.25, snr_linear=1.0)
    cfg = ScenarioConfig(n_samples=20, prior=prior, signal=spec,
                         channel=ChannelSpec("awgn"), trials=1, master_seed=7)
    n, geom = cfg.n_samples, cfg.geometry

    # the trial, drawn here: a noise power from the prior, then N squared
    # envelopes of noise plus a Gaussian signal of power alpha * snr, which
    # are exponential of mean alpha * (1 + snr), L in-band bins of mean
    # N * alpha * (1 + snr) and P noise-only excess bins of mean N * alpha
    gen = stream_seeker(cfg.master_seed)[0]
    alpha = float(draw_noise_power(prior, gen, 1)[0])
    g = 1.0 + spec.snr_linear
    r = alpha * g * gen.standard_exponential(n)
    x = n * alpha * g * gen.standard_exponential(geom.l_inband)
    y = n * alpha * gen.standard_exponential(geom.p_excess)
    # the detector table reads the sums
    sum_r, xy = r.sum(), (x.sum(), y.sum())
    print(f"prior: precision ~ Gamma({prior.precision_shape:.0f}, "
          f"{prior.theta}), mean noise power {prior.mean_noise_power:.2f}")
    print(f"this trial's true noise power: {alpha:.3f}\n")

    print("time-domain statistics (threshold scale: energy sum):")
    print(f"  energy sum              {sum_r:9.3f}")
    print(f"  prior-scaled energy     "
          f"{DETECTORS['alrd1'].statistic(sum_r, alpha, prior):9.3f}")
    print(f"  GLR peak location       {mu_glrd1(n, prior.k, spec.snr_linear):9.3f}")

    print("\nfrequency-domain statistics "
          f"(L={geom.l_inband}, P={geom.p_excess}):")
    eta = 5.0
    stat = DETECTORS["alrd2"].statistic(xy, alpha, prior)
    print(f"  excess-normalized ratio {stat:9.3f}")
    print(f"  linearized form         {xy[0] - eta * xy[1]:9.3f} "
          f"(vs cutoff eta*theta = {eta * prior.theta:.1f})")
    # the frequency-domain GLR is the time-domain one on the L in-band
    # bins at the excess band's posterior, whose k is k + P
    print(f"  GLR peak location       "
          f"{mu_glrd1(geom.l_inband, prior.k + geom.p_excess, spec.snr_linear):9.3f}")

    # the posterior is the prior's own family, a NoisePrior at k + P
    post = posterior_update(prior, float(np.sum(y)), geom.p_excess)
    print(f"\nprecision posterior after the excess band: "
          f"Gamma({post.precision_shape:.0f}, {post.theta:.2f})")
    # Bins carry power on the N*alpha scale (unnormalized DFT), so the
    # posterior tracks the bin-scale noise power, shrunk toward the
    # prior, while the prior itself is on the sample scale alpha.
    print(f"posterior mean bin power {post.mean_noise_power:7.2f}   "
          f"observed excess-bin mean {np.mean(y):7.2f}   "
          f"true bin-scale power {n * alpha:7.2f}")

    for hyp, snr in (("h0", 0.0), ("h1", spec.snr_linear)):
        est = map_noise_power(post, snr, x)
        print(f"MAP bin-scale noise power assuming {hyp}: {est:7.2f}")

    # run two-sided, glrd2 decides H1 when its log-GLR at the design SNR
    # exceeds a level; `montecarlo.calibrate` sets the level from a target
    # false-alarm rate, and a level above 0 keeps a band around the peak
    gamma = 0.1
    log_lr = float(DETECTORS["glrd2"].log_lr(cfg, stat))
    print(f"\ntwo-sided glrd2: log-GLR {log_lr:.3f} at statistic {stat:.3f}, "
          f"level {gamma} -> {'occupied' if log_lr > gamma else 'idle'}")


if __name__ == "__main__":
    main()
