"""Deterministic randomness: one run seed, named independent sub-streams.

Every consumer of randomness draws from its own named stream derived from
the single run seed, so adding or removing draws in one consumer never
perturbs the others, and identical (seed, config) reruns are bit-exact
across platforms.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy

_STREAMS = {
    "schedule": 1,   # temperature-order scrambling
    "drift": 2,      # slow multiplicative resistance drift
    "spread": 3,     # device-to-device parameter spread
    "noise": 4,      # read noise for thermometer studies
}


def substream(seed: int, name: str) -> numpy.random.Generator:
    try:
        stream_id = _STREAMS[name]
    except KeyError:
        raise ValueError(f"unknown rng stream {name!r}; "
                         f"known: {sorted(_STREAMS)}") from None
    import numpy as np   # only seeded draws need it
    return np.random.default_rng(np.random.SeedSequence((int(seed), stream_id)))
