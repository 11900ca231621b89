"""Special functions and seeded sampling primitives.

Everything downstream (signal generation, closed-form performance, the
Monte Carlo engine) is built on the routines here.  Random sampling goes
through counter-based streams (`RngStream`) so that trials are
reproducible and order-independent: two streams with the same
(master_seed, stream_index) yield bit-identical draws, and distinct
stream indices give statistically independent sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammainc, gammaincc


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
    out = gammaincc(*_gamma_args(s, x))
    return float(out) if out.ndim == 0 else out


def reg_lower_gamma(s, x):
    """Regularized lower incomplete gamma P(s, x) = 1 - Q(s, x), elementwise."""
    out = gammainc(*_gamma_args(s, x))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Gaussian tail
# ---------------------------------------------------------------------------

def q_function(z):
    """Standard Gaussian upper tail probability Q(z) = P(Z > z).

    Accepts scalars or arrays; computed as erfc(z / sqrt(2)) / 2.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("q_function requires finite input")
    out = 0.5 * erfc(z / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Seeded streams and samplers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RngStream:
    """A reproducible, independent random stream.

    Streams are derived counter-style from the master seed, so stream
    creation commutes with execution order: a trial's draws do not depend
    on which other trials ran before it.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 1 << 128:
            raise ValueError("master_seed must lie in [0, 2**128): the Philox "
                             "key is its 128 low bits, so other seeds alias")
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        gen, seek = stream_seeker(self.master_seed)
        seek(self.stream_index)
        return gen


def stream_seeker(master_seed: int):
    """One generator over the streams of `master_seed`, and a function
    that moves it to the start of any of them.

    After `seek(i)` the generator yields exactly the draws of
    `RngStream(master_seed, i).generator()`.  The 128 bits of the master
    seed are the Philox key, and the stream index is placed in the upper
    half of the counter, giving every stream 2^128 draws of separation.
    Philox is counter-based (Salmon et al., SC'11), so moving a generator
    is setting its counter and emptying its output buffer, which costs
    about a twentieth of building a new generator.
    """
    mask = (1 << 64) - 1
    key = (master_seed & mask, (master_seed >> 64) & mask)
    bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
    # a fresh generator's state: buffer_pos 4 marks the output buffer empty
    state = {"bit_generator": "Philox", "state": {"key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def seek(stream_index: int) -> None:
        if stream_index >> 128:
            raise ValueError("stream_index exceeds the counter space")
        state["state"]["counter"] = (0, 0, stream_index & mask, stream_index >> 64)
        bitgen.state = state

    return np.random.Generator(bitgen), seek


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream, a numpy Generator, or an int seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError(f"expected RngStream, Generator or int, got {type(rng)!r}")


def gamma_sample(shape: float, rate: float, rng, size=None):
    """Draw from a Gamma(shape, rate) law (density proportional to
    t^(shape-1) exp(-rate t))."""
    if shape <= 0 or rate <= 0:
        raise ValueError("gamma_sample requires shape > 0 and rate > 0")
    gen = as_generator(rng)
    return gen.gamma(shape, 1.0 / rate, size=size)


def complex_gaussian(variance: float, rng, size=None):
    """Circular complex Gaussian samples with E[|z|^2] = variance.

    Real and imaginary parts are independent N(0, variance / 2); the
    squared magnitude is exponential with mean `variance` and the phase
    is uniform.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    gen = as_generator(rng)
    if variance == 0.0:
        return 0.0 + 0.0j if size is None else np.zeros(size, dtype=complex)
    sd = math.sqrt(variance / 2.0)
    if size is None:
        re, im = gen.standard_normal(2)
        return complex(sd * re, sd * im)
    n = size if isinstance(size, (int, np.integer)) else int(np.prod(size))
    z = gen.standard_normal(2 * n).view(np.complex128)
    return sd * z.reshape(size)
