"""Deterministic randomness: one run seed, named independent sub-streams.

Every consumer of randomness draws from its own named stream derived from
the single run seed, so adding or removing draws in one consumer never
perturbs the others, and identical (seed, config) reruns are bit-exact
across platforms. Every stream is `pcg64.PCG64`, a pure-Python port of
numpy's generator that draws numpy's permutations and standard normals
bit for bit. numpy, ~0.1 s of import, is loaded only by `numpy()`, for
the signature fit.
"""
from __future__ import annotations

_STREAMS = {
    "schedule": 1,   # temperature-order scrambling
    "drift": 2,      # slow multiplicative resistance drift
    "spread": 3,     # device-to-device parameter spread
    "noise": 4,      # read noise for thermometer studies
}

# the numpy this run imported, for the manifest; cli_dispatch resets it
numpy_version = "not imported"


def numpy():
    """numpy, for the signature fit, noted as imported."""
    global numpy_version
    import numpy as np
    numpy_version = np.__version__
    return np


def raising():
    """A block in which numpy overflow, invalid and divide errors raise.

    numpy's default only warns; under this block each is a
    FloatingPointError, which the CLI reports as a failed run.
    """
    return numpy().errstate(over="raise", invalid="raise", divide="raise")


def substream(seed: int, name: str):
    """The generator of the named stream: `pcg64.PCG64((seed, id))`, which
    draws what numpy's `default_rng(SeedSequence((seed, id)))` draws."""
    try:
        stream_id = _STREAMS[name]
    except KeyError:
        raise ValueError(f"unknown rng stream {name!r}; "
                         f"known: {sorted(_STREAMS)}") from None
    from .pcg64 import PCG64
    return PCG64((int(seed), stream_id))
