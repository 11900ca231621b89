"""Spectrum sensing under noise-power uncertainty.

Detectors for deciding whether a licensed transmitter occupies a band,
from plain energy detection through Bayesian average/generalized
likelihood-ratio tests that estimate the unknown noise power from the
roll-off (excess-bandwidth) region of the occupied spectrum, plus their
closed-form performance and a reproducible Monte Carlo harness.
"""

__version__ = "0.6.0"
