"""Closed-form performance expressions against quick simulation.

Cross-checks the incomplete-gamma forms for the energy detectors and
the Gaussian approximation for the excess-band detector, including its
known looseness at 20 bins, then averages a conditional curve over the
noise prior.  Each false-alarm probability is the detection form at
zero signal.
"""

import numpy as np

from specsense.analysis import average_over_prior, pd_alrd1, pd_alrd2_clt, pd_opt
from specsense.numerics import stream_seeker
from specsense.signals import NoisePrior

TRIALS = 200_000


def main():
    rng = stream_seeker(20260809)[0]
    n, alpha, snr = 20, 1.0, 1.0
    prior = NoisePrior(k=3, theta=3.0)

    print("energy detector at known noise power (exact gamma tails):")
    s0 = rng.gamma(n, alpha, TRIALS)
    s1 = rng.gamma(n, alpha * (1 + snr), TRIALS)
    print("  eta    pfa(sim)  pfa(cf)   pd(sim)   pd(cf)")
    for eta in (16.0, 20.0, 26.0, 33.0):
        print(f"  {eta:5.1f}  {np.mean(s0 > eta):8.4f}  "
              f"{pd_opt(n, alpha, 0.0, eta):8.4f}  {np.mean(s1 > eta):8.4f}  "
              f"{pd_opt(n, alpha, snr, eta):8.4f}")

    print("\nexcess-band detector, Gaussian approximation at L=16, P=4:")
    l, p, theta = 16, 4, 1.0
    x = rng.exponential(n * alpha, (TRIALS, l)).sum(axis=1)
    y = rng.exponential(n * alpha, (TRIALS, p)).sum(axis=1)
    print("  eta    pfa(sim)  pfa(gauss)  gap")
    for eta in (1.2, 2.0, 4.0, 8.0):
        emp = np.mean(x - eta * y > eta * theta)
        cf = pd_alrd2_clt(l, p, n, alpha, theta, 0.0, eta)
        print(f"  {eta:5.1f}  {emp:8.4f}  {cf:10.4f}  {cf - emp:+.4f}")
    print("  the Gaussian form is tight at small eta and a few hundredths")
    print("  off near the distribution center; thresholds are calibrated")
    print("  empirically, so the approximation never sets operating points")

    print("\naveraging the scaled-energy false alarm over the noise prior:")
    fn = lambda a, h, s: pd_alrd1(n, a, prior, 0.0, 8.0)
    res = average_over_prior(fn, prior, mc_draws=50_000, seed=3)
    alphas = 1.0 / rng.gamma(prior.precision_shape, 1 / prior.theta, TRIALS)
    stats = rng.gamma(n, 1.0, TRIALS) * alphas / prior.theta
    print(f"  prior-averaged closed form: {res.value:.4f} "
          f"(stderr {res.stderr:.4f})")
    print(f"  full generative pipeline:   {np.mean(stats > 8.0):.4f}")


if __name__ == "__main__":
    main()
