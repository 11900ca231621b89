"""The band split of a sensing block's DFT bins.

The N bins of a block are partitioned into an in-band vector x
(|f| <= B/2) and an excess-band vector y (B/2 < |f| <= (1+beta)B/2).
Bins beyond the outer edge, present when the block is oversampled, are
discarded.  The excess band carries noise-only bins under the idealized
model and is what the proposed detectors exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class BandGeometry:
    """Counts of retained bins: l_inband in band, p_excess in the excess
    band, each at least 1 as `band_split_indices` returns them."""

    l_inband: int
    p_excess: int


def band_split_indices(n_bins: int, spec) -> tuple[np.ndarray, np.ndarray]:
    """Indices of in-band and excess-band bins on the DFT frequency grid.

    Bins beyond (1+beta)B/2 are discarded (possible when the block is
    oversampled).  The in-band count is round(n_kept / (1+beta)), taking
    the bins nearest DC; at equal |f| the negative-frequency bin is taken
    first, which puts the bin at exactly -B/2 in band.  Under critical
    sampling (sample_rate = (1+beta)B) every bin is retained, so
    L + P = n_bins.
    """
    freqs = np.fft.fftfreq(n_bins, d=1.0 / spec.sample_rate_hz)
    outer_edge = (1.0 + spec.rolloff) * spec.bandwidth_hz / 2.0
    tol = 1e-9 * spec.bandwidth_hz
    kept = np.flatnonzero(np.abs(freqs) <= outer_edge + tol)
    if kept.size < 2:
        raise ConfigError("too few bins inside the sensed band")
    # sort kept bins by distance from DC, negative frequency first on ties
    order = np.lexsort((freqs[kept], np.abs(freqs[kept])))
    kept = kept[order]
    l_inband = int(round(kept.size / (1.0 + spec.rolloff)))
    l_inband = min(max(l_inband, 1), kept.size - 1)
    inband = np.sort(kept[:l_inband])
    excess = np.sort(kept[l_inband:])
    return inband, excess

