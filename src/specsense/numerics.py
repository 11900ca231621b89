"""Seeded random streams.

The Monte Carlo engine, the prior averaging in `analysis` and the demos
draw their variates from the streams of `stream_seeker`, so that trials
are reproducible and order-independent: the same (master_seed,
stream_index) yields bit-identical draws, and distinct stream indices
give statistically independent sequences.  This module holds no
samplers: each caller draws its variates from the
`numpy.random.Generator` a stream gives it.  The closed forms in
`analysis` call `scipy.special` themselves.
"""

from __future__ import annotations

import numpy as np


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

