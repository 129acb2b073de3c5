"""Named, reproducible random substreams.

Corpus synthesis, splitting, parameter init, shuffling and dropout each
draw from their own substream derived from a single user seed plus a stream
name, so any component can be reproduced in isolation and whole pipelines
are bit-reproducible at a fixed BLAS thread count (npd.blas). Skip-gram
alone draws from np.random.default_rng(seed).

A seed is one 32-bit word of the substream's SeedSequence entropy, so every
seed, skip-gram's too, must keep the SEED rule, [0, 2**32): a wider seed
would alias a narrower one.
RawSampler computes uniform floats and bounded integers from a substream's
raw PCG64 output, so a synthetic corpus depends only on SeedSequence and
PCG64's raw stream, not on how numpy's Generator methods map that stream
to numbers (NEP 19 does not promise those across numpy versions).
"""

import hashlib
from itertools import chain

import numpy as np

from .errors import INTEGER, ContractError, check

SEED = (INTEGER, ("lie in [0, 2**32)", lambda v: 0 <= v < 2**32))
RANDOM_UNIT = 2.0**-53  # RawSampler.random is (raw >> 11) * RANDOM_UNIT
_MASK32 = 0xFFFFFFFF
_BLOCK = 1024  # raw outputs read per numpy call


def substream(seed: int, name: str) -> np.random.Generator:
    """Return a Generator keyed by (seed, name), stable across runs and platforms.

    A seed that breaks the SEED rule is a ContractError."""
    check(SEED, "seed", seed, ContractError)
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *words]))


class RawSampler:
    """The draws of `substream(seed, name)`'s Generator, computed in Python
    from its raw PCG64 output, value for value and in the same order.

    `raw()` returns the next raw 64-bit output; they are read from the bit
    generator in blocks of _BLOCK, so a draw is a few integer operations
    and no numpy call. `random()` and `integers(n)` give exactly what the
    Generator's `random()` and `integers(n)` would give at the same point
    of the same stream.
    """

    def __init__(self, seed: int, name: str):
        bitgen = substream(seed, name).bit_generator
        # an endless iterator over the raw outputs: iter(f, None) calls f forever
        self.raw = chain.from_iterable(iter(lambda: bitgen.random_raw(_BLOCK).tolist(),
                                            None)).__next__
        self._half = None  # the kept high half of a raw output, PCG64's has_uint32 cache

    def random(self) -> float:
        """A uniform float in [0, 1): numpy's next_double, the top 53 bits of
        one whole raw output. It leaves the 32-bit cache as it is."""
        return (self.raw() >> 11) * RANDOM_UNIT

    def integers(self, n: int) -> int:
        """A uniform integer in [0, n) for 1 <= n < 2**32, which the caller
        ensures: numpy's buffered_bounded_lemire_uint32.

        n = 1 returns 0 and draws nothing. Otherwise each try takes a 32-bit
        x, the kept high half of the last raw output if there is one, else
        the low half of a fresh one (whose high half is kept), and forms
        m = x * n; m's low word below (2**32 - n) % n rejects the try, and
        m >> 32 is the result.
        """
        if n == 1:
            return 0
        while True:
            x = self._half
            if x is None:
                raw = self.raw()
                x, self._half = raw & _MASK32, raw >> 32
            else:
                self._half = None
            m = x * n
            # the threshold is below n, so a low word >= n skips the modulo
            if m & _MASK32 >= n or m & _MASK32 >= (2**32 - n) % n:
                return m >> 32
