"""Peak allocations per field element of the table build and the oracle.

numpy reports its array allocations to ``tracemalloc``, so the readings are
deterministic.  On F_3^12 and F_5^8 the build peaks at 8.3-8.4 bytes per
element (the int32 log and Zech tables) and the oracle at 4.5-6.5 (int32
ratio ids, their sorted copy and the repeated ids; while the scan runs,
its chunk temporaries and 32 KiB of progressions per term add about 2 to
the ids).  The bounds fail a build that also holds a full antilog array
(14.4) and an oracle that holds e-length int64 temporaries or counts over
all q^n values (16.5-26.5).
"""

import tracemalloc

import pytest

from scatterpoly import build_field, is_scattered_bruteforce, parse_poly

BUILD_BOUND = 10.0
ORACLE_BOUND = 9.0


def _traced(fn):
    """fn() and the peak bytes it allocated while it ran."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not outer:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def traced_f3_12():
    return _traced(lambda: build_field(3, 1, 12))


def test_build_peak(traced_f3_12):
    ctx, peak = traced_f3_12
    assert peak / ctx.size < BUILD_BOUND


def test_build_peak_with_f_p_multiples():
    # F_5^8 walks a quarter of its powers and scales digits for the rest
    ctx, peak = _traced(lambda: build_field(5, 1, 8))
    assert peak / ctx.size < BUILD_BOUND


@pytest.mark.parametrize("census", [False, True])
@pytest.mark.parametrize("text,t,scattered", [
    ("1:g^0", 0, True),                 # pseudoregulus: every value distinct
    ("1:g^0,2:g^5,4:g^7", 1, False),    # some values shared
    ("2:g^0", 0, False),                # every value shared by four
])
def test_oracle_peak(traced_f3_12, text, t, scattered, census):
    ctx, _ = traced_f3_12
    s = parse_poly(ctx, text)
    report, peak = _traced(lambda: is_scattered_bruteforce(ctx, s, t, census=census))
    assert report.scattered == scattered
    assert peak / ctx.size < ORACLE_BOUND
