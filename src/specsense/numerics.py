"""Special functions and seeded random streams.

Everything downstream (signal generation, closed-form performance, the
Monte Carlo engine) is built on the routines here.  Random sampling goes
through the counter-based streams of `stream_seeker`, so that trials are
reproducible and order-independent: the same (master_seed, stream_index)
yields bit-identical draws, and distinct stream indices give
statistically independent sequences.  This module holds no samplers:
each caller draws its variates from the `numpy.random.Generator` a
stream gives it.

`scipy.special` is imported inside the functions that call it, not at
module level: the Monte Carlo engine imports this module for its
streams, so `roc`, `cdf` and `calibrate` never load a scipy submodule.
`tests/test_imports.py` holds `import specsense.cli` to that.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Regularized incomplete gamma
# ---------------------------------------------------------------------------

def _gamma_args(s, x) -> tuple[np.ndarray, np.ndarray]:
    s, x = np.asarray(s, dtype=float), np.asarray(x, dtype=float)
    bad = ~(np.isfinite(s) & (s > 0.0))
    if bad.any():
        raise ValueError(f"shape must be finite and positive, got {s[bad][0]}")
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if bad.any():
        raise ValueError(f"integration limit must be finite and >= 0, got {x[bad][0]}")
    return s, x


def reg_upper_gamma(s, x):
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s).

    Evaluated elementwise by `scipy.special.gammaincc`: arrays broadcast,
    scalars give a Python float.  Nonincreasing in x with Q(s, 0) = 1.

    Parameters
    ----------
    s : positive shape parameter(s)
    x : nonnegative lower integration limit(s)

    Raises
    ------
    ValueError : if any element is non-finite, has s <= 0 or has x < 0
    """
    from scipy.special import gammaincc

    out = gammaincc(*_gamma_args(s, x))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Gaussian tail
# ---------------------------------------------------------------------------

def q_function(z):
    """Standard Gaussian upper tail probability Q(z) = P(Z > z).

    Accepts scalars or arrays; computed as erfc(z / sqrt(2)) / 2.
    """
    from scipy.special import erfc

    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("q_function requires finite input")
    out = 0.5 * erfc(z / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Seeded streams
# ---------------------------------------------------------------------------

def stream_seeker(master_seed: int):
    """One generator over the streams of `master_seed`, and a function
    that moves it to the start of any of them.

    The generator starts at stream 0.  The 128 bits of the master seed
    are the Philox key, and the stream index is placed in the upper half
    of the counter, giving every stream 2^128 draws of separation.
    Philox is counter-based (Salmon et al., SC'11), so moving a generator
    is setting its counter and emptying its output buffer, which costs
    about a twentieth of building a new generator.

    Raises
    ------
    ValueError : if `master_seed` lies outside [0, 2**128), where it
        would alias a seed inside it; `seek` raises for an index outside
        [0, 2**128)
    """
    if not 0 <= master_seed < 1 << 128:
        raise ValueError("master_seed must lie in [0, 2**128): the Philox "
                         "key is its 128 low bits, so other seeds alias")
    mask = (1 << 64) - 1
    key = (master_seed & mask, master_seed >> 64)
    bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
    # a fresh generator's state: buffer_pos 4 marks the output buffer empty
    state = {"bit_generator": "Philox", "state": {"key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def seek(stream_index: int) -> None:
        if not 0 <= stream_index < 1 << 128:
            raise ValueError("stream_index must lie in [0, 2**128)")
        state["state"]["counter"] = (0, 0, stream_index & mask, stream_index >> 64)
        bitgen.state = state

    return np.random.Generator(bitgen), seek

