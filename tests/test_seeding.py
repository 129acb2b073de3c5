"""Substream keys and the raw-output sampler.

RawSampler is checked against the numpy Generator it reproduces: built from
the same substream, the two must give the same values call for call.
"""

import numpy as np
import pytest

from npd.errors import ContractError
from npd.seeding import RawSampler, substream

# 1 draws nothing; 3 * 2**30 rejects a quarter of its tries; 2**32 - 1 is the
# widest range the sampler serves
BOUNDS = [1, 2, 3, 5, 30, 3 * 2**30, 2**31 + 1, 2**32 - 1]


def test_sampler_matches_the_generator_call_for_call():
    """100,000 randomly interleaved random() and integers(n) calls give the
    Generator's values. A sampler that drew for integers(1), dropped the
    kept 32-bit half or skipped a rejection would fall out of step."""
    sampler, gen = RawSampler(7, "synth"), substream(7, "synth")
    calls = np.random.default_rng(0).integers(len(BOUNDS) + 1, size=100_000).tolist()
    for i, k in enumerate(calls):
        if k == len(BOUNDS):
            assert sampler.random() == gen.random(), i
        else:
            n = BOUNDS[k]
            assert sampler.integers(n) == gen.integers(n), (i, n)


def test_one_value_range_draws_nothing():
    sampler, gen = RawSampler(3, "synth"), substream(3, "synth")
    assert [sampler.integers(1) for _ in range(5)] == [0] * 5
    assert sampler.raw() == gen.bit_generator.random_raw()


@pytest.mark.parametrize("seed", [-1, 2**32, 2**40])
def test_seed_outside_32_bits_is_rejected(seed):
    """A seed is one 32-bit word of the SeedSequence entropy; masking a
    wider one would alias -1 to 2**32 - 1 and 2**32 to 0."""
    with pytest.raises(ContractError, match=f"got {seed}"):
        substream(seed, "synth")

