"""Deterministic randomness: one run seed, named independent sub-streams.

Every consumer of randomness draws from its own named stream derived from
the single run seed, so adding or removing draws in one consumer never
perturbs the others, and identical (seed, config) reruns are bit-exact
across platforms. numpy, ~0.1 s of import, is loaded only by `numpy()`:
the "schedule" stream only permutes, and is a pure-Python port of numpy's
generator (`pcg64`); the streams that draw normals are numpy Generators.
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
    """numpy, for a seeded draw or the signature fit, noted as imported."""
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
    """The generator of the named stream under SeedSequence((seed, id)):
    `pcg64.PCG64`, numpy's permutation bit for bit, for "schedule"; a numpy
    Generator for the streams that draw normals, as numpy's ziggurat tables
    are literals in its C source."""
    try:
        stream_id = _STREAMS[name]
    except KeyError:
        raise ValueError(f"unknown rng stream {name!r}; "
                         f"known: {sorted(_STREAMS)}") from None
    if name == "schedule":
        from .pcg64 import PCG64
        return PCG64((int(seed), stream_id))
    np = numpy()
    return np.random.default_rng(np.random.SeedSequence((int(seed), stream_id)))
