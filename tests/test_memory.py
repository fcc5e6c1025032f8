"""Peak allocations per field element of the table build and the oracle.

numpy reports its array allocations to ``tracemalloc``, so the readings are
deterministic.  On F_3^12, F_5^8 and F_1000003 the build peaks at 8.1-8.4
bytes per element (the int32 log and Zech tables) and the oracle at 4.5-6.5
(int32 ratio ids, their sorted copy and the repeated ids; while the scan
runs, its chunk temporaries and 32 KiB of progressions per term add about 2
to the ids).  An oracle that builds its own table peaks at 8.75, the
build's peak, on F_3^12.  The bounds fail a build that also holds a full
antilog array (14.4) or a Python int per element (48.7), an oracle that
holds e-length int64 temporaries or counts over all q^n values (16.5-26.5),
and an oracle that builds its table on top of its ids (11.9).
"""

import tracemalloc

import pytest

from scatterpoly import build_field, field, field_basis, is_scattered_bruteforce, parse_poly

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


def test_build_peak_prime_field():
    # a prime field walks every power; its build holds the same two int32 tables
    ctx, peak = _traced(lambda: build_field(1000003, 1, 1))
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


def test_oracle_peak_with_its_table_build(traced_f3_12, monkeypatch):
    # a trinomial off t adds, so a field without a table builds it inside
    # the oracle, once, and before the scan allocates its ids
    ctx, _ = traced_f3_12
    built = []
    build_tables = field._build_tables

    def spy(p, d, *args):
        built.append((p, d))
        return build_tables(p, d, *args)
    monkeypatch.setattr(field, "_build_tables", spy)
    basis = field_basis(3, 1, 12)
    s = parse_poly(basis, "1:g^0,2:g^5,4:g^7")
    report, peak = _traced(lambda: is_scattered_bruteforce(basis, s, 1))
    assert built == [(3, 12)]
    assert peak / basis.size < BUILD_BOUND
    assert report == is_scattered_bruteforce(ctx, s, 1)
