"""``StreamDraws`` replays a Generator's scalar draws exactly.

The TM1 and TPC-C loaders take their data-dependent draws through
:class:`repro.workloads.base.StreamDraws`, which re-implements NumPy's
scalar ``integers`` (32-bit Lemire with rejection, PCG64's half-word
buffer) and ``random``/``uniform`` on raw PCG64 words. Any drift from
the installed NumPy would silently change every generated database, so
each generated call sequence here is replayed on a twin generator with
the Generator's own scalar calls and must match value by value, with
direct Generator calls interleaved after ``sync()`` and the two
``bit_generator.state`` dicts equal at the end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.base import StreamDraws, make_rng

#: Powers of two (no rejection), small and large odd ranges (rejection
#: likely / rare), the full 32-bit range and the empty-width range 1.
SPANS = [1, 2, 8, 10, 11, 256, 1000, 10**9, 2**31 - 1, 2**32]

helper_calls = st.one_of(
    st.tuples(
        st.just("integers"), st.integers(-50, 50), st.sampled_from(SPANS)
    ),
    st.tuples(st.just("random")),
    st.tuples(
        st.just("uniform"),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(0.0, 1e6, allow_nan=False),
    ),
)
direct_calls = st.tuples(
    st.just("direct"),
    st.sampled_from(["integers", "random", "permutation"]),
    st.integers(0, 9),
)
sequences = st.lists(
    st.one_of(helper_calls, helper_calls, helper_calls, direct_calls),
    max_size=120,
)


def direct(rng, kind, k):
    if kind == "integers":
        return rng.integers(0, 11, size=k).tolist()
    if kind == "random":
        return rng.random(k).tolist()
    return rng.permutation(k + 1).tolist()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), calls=sequences)
def test_draws_match_scalar_generator_calls(seed, calls):
    rng, twin = make_rng(seed), make_rng(seed)
    draws = StreamDraws(rng)
    for call in calls:
        if call[0] == "integers":
            _, low, span = call
            got = draws.integers(low, low + span)
            want = int(twin.integers(low, low + span))
        elif call[0] == "random":
            got, want = draws.random(), float(twin.random())
        elif call[0] == "uniform":
            _, low, width = call
            got = draws.uniform(low, low + width)
            want = float(twin.uniform(low, low + width))
        else:
            draws.sync()
            got, want = direct(rng, *call[1:]), direct(twin, *call[1:])
        assert got == want, call
    draws.sync()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_long_stream_crosses_block_boundaries():
    """Several thousand mixed draws span many raw-word blocks."""
    rng, twin = make_rng(7), make_rng(7)
    draws = StreamDraws(rng)
    for i in range(5000):
        span = SPANS[i % len(SPANS)]
        assert draws.integers(0, span) == int(twin.integers(0, span))
        if i % 3 == 0:
            assert draws.random() == float(twin.random())
    draws.sync()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_non_pcg64_generator_rejected():
    with pytest.raises(TypeError, match="PCG64"):
        StreamDraws(np.random.Generator(np.random.MT19937(0)))


@pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (0, 2**32 + 1)])
def test_out_of_range_span_rejected(low, high):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        StreamDraws(make_rng(0)).integers(low, high)
