"""The band split of a sensing block's DFT bins.

A block is critically sampled, so its N bins are partitioned into an
in-band vector x (|f| <= B/2) and an excess-band vector y (B/2 < |f| <=
(1+beta)B/2).  The excess band carries noise-only bins under the
idealized model and is what the proposed detectors exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BandGeometry:
    """Bin counts: l_inband in band, p_excess in the excess band, each at
    least 1 as `band_split_indices` returns them."""

    l_inband: int
    p_excess: int


def band_split_indices(n_bins: int, spec) -> tuple[np.ndarray, np.ndarray]:
    """Indices of in-band and excess-band bins on the DFT frequency grid.

    Every bin belongs to one band, so L + P = n_bins.  The in-band count
    L is round(n_bins / (1+beta)), clamped to [1, n_bins - 1] so that
    both bands are nonempty for n_bins >= 2, taking the bins nearest DC;
    at equal |f| the negative-frequency bin is taken first, which puts
    the bin at exactly -B/2 in band.
    """
    freqs = np.fft.fftfreq(n_bins, d=1.0 / spec.sample_rate_hz)
    # bins by distance from DC, negative frequency first on ties
    order = np.lexsort((freqs, np.abs(freqs)))
    l_inband = int(round(n_bins / (1.0 + spec.rolloff)))
    l_inband = min(max(l_inband, 1), n_bins - 1)
    return np.sort(order[:l_inband]), np.sort(order[l_inband:])
