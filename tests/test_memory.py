"""Peak allocations per field element of the table build and the oracle.

numpy reports its array allocations to ``tracemalloc``, so the readings are
deterministic.  The build peaks at 7.9 bytes per element on F_3^12: the
int32 Zech table (4), whose rows hold the log per F_p-line and the walked
lines' indices until the table overwrites them, one byte of line code per
line (0.5) and, about 3.4 of it on this field, the walk's buffers and a
batch of 16384 lines' lookups, whose size is fixed.  It peaks at 8.5 on
F_5^8, 8.2 on F_1000003 (the Zech table and the log table of the prime
field), and 4.2 on F_2039^2 and 4.9 on F_127^3.  An oracle over two or
more terms peaks at 4.5-6.5 (int32 ratio ids, their sorted copy and the
repeated ids; while the scan runs, its chunk temporaries and 16 KiB of
uint32 progressions per term add about 2 to the ids).  One term is decided
from its exponents and checked on the ids of its first 64 representatives:
its oracle, census on or off, peaks at about 2.5 KB on F_3^13 (e = 797161)
and its census of deciding pairs, whose groups are residues mod the period,
at about 15 KB, nothing sized by e.  An oracle that builds its own table
peaks at 8.8 on F_3^12.  The bounds fail a build that also holds a full antilog or log
array (4 more) or a Python int per element (48.7), an oracle that holds
e-length int64 temporaries or counts over all q^n values (16.5-26.5), an
oracle that builds its table on top of its ids (11.9), a one-term oracle or
census that sorts a copy of its ids (4.5-6.5), and one that holds its e
ids at all (4 bytes per representative).  A sum's census sorts its ids
and, at its default limit, peaks at 4.7 where some values are shared and
at 6.4 where every value but one is shared by 13.  A census that kept a
shared mask and an argsort of the shared representatives peaked at 16.0
where every value is shared by four.
"""

import tracemalloc

import pytest

from scatterpoly import (
    build_field, deciding_pairs, field, field_basis, is_scattered_bruteforce, parse_poly,
    scatter)

BUILD_BOUND = 10.0
ORACLE_BOUND = 9.0
ONE_TERM_BOUND = 4.0


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
    # F_5^8 walks a quarter of its powers, one per F_p-line
    ctx, peak = _traced(lambda: build_field(5, 1, 8))
    assert peak / ctx.size < BUILD_BOUND


def test_build_peak_prime_field():
    # a prime field is one line: its build holds the Zech table and J, its log table
    ctx, peak = _traced(lambda: build_field(1000003, 1, 1))
    assert peak / ctx.size < BUILD_BOUND


@pytest.mark.parametrize("p,d", [(2039, 2), (127, 3)])
def test_build_peak_large_p(p, d):
    # small degree and large p, where the lookups stay arithmetic: tables of
    # the gather's (row, code) pairs would raise F_127^3's peak from 4.9 to
    # 16.0 bytes per element, and records of the line table's 2040*2039
    # (key, digit 0) pairs, 16 bytes each, would add 16 to F_2039^2's 4.2
    ctx, peak = _traced(lambda: build_field(p, 1, d))
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


@pytest.mark.parametrize("census", [False, True])
@pytest.mark.parametrize("text,t,scattered", [
    ("1:g^0", 0, True),                 # pseudoregulus: every value distinct
    ("2:g^0", 0, False),                # every value shared by four
    ("1:g^5,3:g^7", 1, False),          # a binomial at r1 scans one term
])
def test_one_term_oracle_peak(traced_f3_12, text, t, scattered, census):
    ctx, _ = traced_f3_12
    s = parse_poly(ctx, text)
    report, peak = _traced(lambda: is_scattered_bruteforce(ctx, s, t, census=census))
    assert report.scattered == scattered
    assert peak / ctx.size < ONE_TERM_BOUND


@pytest.mark.parametrize("text,t", [
    ("1:g^0", 0),                       # every value distinct
    ("2:g^0", 0),                       # every value shared by four
    ("1:g^5,3:g^7", 1),                 # a binomial at r1 scans one term
])
def test_one_term_census_peak(traced_f3_12, text, t):
    # one term's census reads its groups off the period: nothing is sorted
    ctx, _ = traced_f3_12
    s = parse_poly(ctx, text)
    census, peak = _traced(lambda: deciding_pairs(ctx, s, t))
    assert len(census.pairs) == 64 and census.truncated
    assert peak / ctx.size < ONE_TERM_BOUND


@pytest.mark.parametrize("text,t", [
    ("8:g^918316", 3),                  # scattered: every value distinct
    ("1:g^5,3:g^7", 1),                 # a binomial at r1 scans one term
    ("1:g^0", 1),                       # a constant ratio
])
def test_one_term_oracle_holds_nothing_sized_by_e(text, t, monkeypatch):
    # on F_3^13 without a table: no Zech table is built, at most 64 points
    # are evaluated, and the peak is under 1% of e int32 ids
    basis = field_basis(3, 1, 13)
    e = basis.subfield_index
    s = parse_poly(basis, text)
    points = []
    evaluate_many = scatter.evaluate_many

    def spy(ctx, s, dlogs, **kwargs):
        points.append(dlogs.size)
        return evaluate_many(ctx, s, dlogs, **kwargs)
    monkeypatch.setattr(scatter, "evaluate_many", spy)
    for decide in (lambda: is_scattered_bruteforce(basis, s, t),
                   lambda: is_scattered_bruteforce(basis, s, t, census=True),
                   lambda: deciding_pairs(basis, s, t)):
        points.clear()
        _, peak = _traced(decide)
        assert points == [64]
        assert peak * 100 < 4 * e
    assert "_zech" not in vars(basis)


@pytest.mark.parametrize("text,t", [
    ("2:g^0", 0),                       # one term: every value shared by four
    ("1:g^0,2:g^5,4:g^7", 1),           # a sum: some values shared
    ("1:g^0,4:g^0,7:g^0,10:g^0", 1),    # a sum: every value but one shared by 13
])
def test_census_peak(traced_f3_12, text, t):
    # the census reads the groups that hold its first 64 pairs
    ctx, _ = traced_f3_12
    s = parse_poly(ctx, text)
    census, peak = _traced(lambda: deciding_pairs(ctx, s, t))
    assert len(census.pairs) == 64 and census.truncated
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
