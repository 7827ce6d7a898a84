"""The pure-Python schedule stream against the numpy generator it ports."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memthermo.pcg64 import PCG64
from memthermo.rng import _STREAMS, substream


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
