"""The pure-Python streams against the numpy generator they port."""
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memthermo import pcg64
from memthermo.pcg64 import PCG64
from memthermo.rng import _STREAMS, substream

ROOT = Path(__file__).resolve().parents[1]


def _numpy_rng(seed, stream_id):
    return np.random.default_rng(np.random.SeedSequence((seed, stream_id)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**70), name=st.sampled_from(sorted(_STREAMS)),
       n=st.integers(1, 64), k=st.integers(1, 20))
@example(seed=2**32, name="schedule", n=7, k=20)
@example(seed=2**64 - 1, name="schedule", n=7, k=20)
@example(seed=2**64, name="schedule", n=7, k=20)
def test_pcg64_draws_numpys_permutations_and_words_exactly(seed, name, n, k):
    # seeds of one, two and three 32-bit words, and two permutations from
    # one generator, which share a buffered 32-bit half
    stream_id = _STREAMS[name]
    ours, theirs = PCG64((seed, stream_id)), _numpy_rng(seed, stream_id)
    assert [ours.permutation(n), ours.permutation(n)] == [
        theirs.permutation(n).tolist(), theirs.permutation(n).tolist()]
    assert (substream(seed, "schedule").permutation(n)
            == _numpy_rng(seed, _STREAMS["schedule"]).permutation(n).tolist())
    raw = np.random.PCG64(np.random.SeedSequence((seed, stream_id)))
    assert PCG64((seed, stream_id)).random_raw(k) == raw.random_raw(k).tolist()


def test_negative_seed_raises_value_error_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.SeedSequence((-1, _STREAMS["schedule"]))
    with pytest.raises(ValueError, match="non-negative"):
        substream(-1, "schedule")


# streams whose first draw leaves the ziggurat's inner boxes: from the tail
# beyond r, of either sign (the sign is bit 8 of the magnitude, which
# differs from its bit 0 in both), and a wedge candidate that is rejected
_TAIL_UP = {"seed": 121, "name": "spread"}
_TAIL_DOWN = {"seed": 17550, "name": "noise"}
_WEDGE_REJECTED = {"seed": 302, "name": "drift"}
_FIRST = [("standard_normal", None), ("normal", 25)]


def _paths(draw):
    """The slow paths one standard normal draw took: the tail alone calls
    log1p, and each wedge test calls exp(-x^2 / 2) of its candidate x,
    which the draw returns unless the test rejected it."""
    calls = []
    spy = SimpleNamespace(
        log1p=lambda v: calls.append("tail") or math.log1p(v),
        exp=lambda v: calls.append(v) or math.exp(v))
    with mock.patch.object(pcg64, "math", spy):
        z = draw()
    return {c if c == "tail" else
            "wedge-kept" if c == -0.5 * z * z else "wedge-rejected"
            for c in calls}


@pytest.mark.parametrize("stream, path", [
    pytest.param(_TAIL_UP, "tail", id="tail-up"),
    pytest.param(_TAIL_DOWN, "tail", id="tail-down"),
    pytest.param(_WEDGE_REJECTED, "wedge-rejected", id="wedge-rejected")])
def test_the_examples_reach_the_tail_and_a_rejected_wedge(stream, path):
    assert _paths(substream(**stream).standard_normal) == {path}


_DRAWS = st.lists(st.tuples(st.sampled_from(["standard_normal", "normal"]),
                            st.none() | st.integers(0, 300)),
                  min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**70), name=st.sampled_from(sorted(_STREAMS)),
       draws=_DRAWS, scale=st.floats(0, 10))
@example(**_TAIL_UP, draws=_FIRST, scale=1.0)
@example(**_TAIL_DOWN, draws=_FIRST, scale=1.0)
@example(**_WEDGE_REJECTED, draws=_FIRST, scale=1.0)
@example(seed=2**64, name="noise", draws=[("standard_normal", 5000)],
         scale=1.0)
def test_pcg64_draws_numpys_normals_exactly(seed, name, draws, scale):
    # scalar and sized draws interleaved on one generator; float.hex tells
    # -0.0 from 0.0. The drift and spread streams scale standard draws,
    # which is numpy's normal(0.0, scale) up to the sign of a zero.
    ours, theirs = substream(seed, name), _numpy_rng(seed, _STREAMS[name])
    for method, size in draws:
        z = ours.standard_normal(size)
        mine = [z] if size is None else z
        if method == "normal":
            want = np.atleast_1d(theirs.normal(0.0, scale, size)).tolist()
            assert [scale * x for x in mine] == want
        else:
            want = np.atleast_1d(theirs.standard_normal(size)).tolist()
            assert [x.hex() for x in mine] == [x.hex() for x in want]


def test_ziggurat_tables_are_numpys():
    # the block in pcg64.py holds what the script reads from numpy's archive
    if not (Path(np.__file__).parent / "random/lib/libnpyrandom.a").is_file():
        pytest.skip("the installed numpy ships no random/lib/libnpyrandom.a "
                    "to read the tables from")
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ziggurat_tables.py")],
        capture_output=True, text=True, check=True)
    printed = {}
    exec(run.stdout, printed)
    assert printed["_ZIGGURAT_TABLES"] == pcg64._ZIGGURAT_TABLES
