import itertools
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from scatterpoly import (
    DivisionByZero,
    FieldParams,
    NeedsFieldAddition,
    ParseError,
    RhoInBaseField,
    ZeroPolynomial,
    build_field,
    evaluate,
    evaluate_many,
    field_basis,
    is_scattered_bruteforce,
    normalize,
    parse_poly,
    ratio_map,
    rho_transform,
)
from scatterpoly.field import TABLE_LIMIT, wrap_sums
from scatterpoly.linpoly import LinearizedPolynomial, TermLogs, _log_sum
from scatterpoly.scatter import _CHUNK, _reduced, _scan

from naive_oracle import naive_evaluate


def test_normalize_cancellation(f9):
    one = f9.one()
    two = f9.element_from_coeffs([2])
    with pytest.raises(ZeroPolynomial):
        normalize(f9, [(1, one), (1, two)])


def test_normalize_exponent_reduction(f9):
    s = normalize(f9, [(3, f9.one())])
    assert s.exponents == (1,)


def test_normalize_sorts(f3125):
    s = normalize(f3125, [(4, f3125.one()), (3, f3125.one())])
    assert s.exponents == (3, 4)


def test_normalize_merges(f9):
    one = f9.one()
    s = normalize(f9, [(1, one), (3, one)])  # 3 = 1 mod 2, so 1 + 1 = 2
    assert s.exponents == (1,)
    assert f9.coeffs(s.terms[0][1]) == (2, 0)


def test_evaluate_examples(f9, f3125):
    s = normalize(f9, [(1, f9.one())])
    assert evaluate(f9, s, f9.gamma) == f9.element_from_dlog(3)
    assert evaluate(f9, s, f9.zero()).is_zero
    example = parse_poly(f3125, "3:g^0,4:g^0")
    assert f3125.coeffs(evaluate(f3125, example, f3125.one())) == (2, 0, 0, 0, 0)


def test_evaluate_matches_naive(f81):
    s = normalize(f81, [(1, f81.element_from_dlog(5)),
                        (3, f81.element_from_dlog(40))])
    for k in range(0, f81.order, 7):
        x = f81.element_from_dlog(k)
        assert f81.coeffs(evaluate(f81, s, x)) == naive_evaluate(f81, s, x)


def test_evaluate_many_matches_naive(f81, f81_tower):
    # F_3^4 and F_9^2.  x^(q^r) - x vanishes on F_(q^gcd(r, n)), so the zero
    # sentinel -1 must appear wherever S does.
    for ctx in (f81, f81_tower):
        polys = [normalize(ctx, [(0, ctx.minus_one()), (r, ctx.one())])
                 for r in range(1, ctx.n)]
        polys += [normalize(ctx, [(1, ctx.gamma)]),
                  normalize(ctx, [(0, ctx.gamma), (1, ctx.element_from_dlog(7))]),
                  normalize(ctx, [(r, ctx.element_from_dlog(3 * r + 1))
                                  for r in range(ctx.n)])]
        dlogs = np.arange(ctx.order, dtype=np.int64)
        zeros = 0
        for s in polys:
            got = evaluate_many(ctx, s, dlogs)
            for k in range(ctx.order):
                value = ctx.element_from_coeffs(
                    naive_evaluate(ctx, s, ctx.element_from_dlog(k)))
                assert got[k] == (-1 if value.is_zero else value.dlog), (str(s), k)
            zeros += int(np.count_nonzero(got < 0))
        assert zeros >= ctx.q - 1


def test_term_logs_near_the_table_limit():
    """Progressions at an order just below TABLE_LIMIT, checked against Python ints.

    F_3^19 has order 3^19 - 1 > 2^30, so a log before the wrap can exceed
    2^31.  The runs start at 0, at the last scan chunk (which ends at e),
    just below e and just below the order, and one is partial.  Runs of 1,
    4095, 4096 and 4097 points, at 0 and ending at the order, cut the
    broadcast of whole 4096-point blocks inside, at and just past a block.
    """
    basis = field_basis(3, 1, 19, cap=TABLE_LIMIT)
    order, e, run = basis.order, basis.subfield_index, 1 << 15
    assert 2**30 < order < TABLE_LIMIT
    s = LinearizedPolynomial(tuple((r, basis.element_from_dlog(c)) for r, c in
                                   ((0, order - 1), (7, 123456789), (18, e + 3))))
    last = e // run * run
    runs = ((0, run), (last, e - last), (e - run, run), (e - 5, 5), (order - run, run))
    runs += tuple((start, count) for count in (1, 4095, 4096, 4097)
                  for start in (0, order - count))
    for index in (None, 0, 7, 18):
        shift = 0 if index is None else 3**index
        terms = TermLogs(basis, s, index)
        for start, count in runs:
            dlogs = np.arange(start, start + count, dtype=np.int64)
            points = np.arange(start, start + count, dtype=object)
            for (r, coeff), logs in zip(s.terms, terms.at(dlogs)):
                want = (coeff.dlog + points * (3**r - shift)) % order
                assert logs.dtype == np.uint32
                assert logs.tolist() == want.tolist(), (index, start, r)
            # a monomial adds nothing, so the basis evaluates it
            monomial = LinearizedPolynomial(s.terms[2:])
            got = evaluate_many(basis, monomial, dlogs, index=index,
                                terms=TermLogs(basis, monomial, index))
            assert got.tolist() == ((e + 3 + points * (3**18 - shift)) % order).tolist()


def test_one_term_scans_at_the_uint32_limit():
    """Ratio ids of one scanned term where every sum of two residues nears 2^32.

    F_46337^2 has order 2147117568, just under TABLE_LIMIT = 2^31, and e =
    46338 representatives, two scan chunks.  With coefficients g^(order-1)
    and g^(order-2) every id is checked against the Python int (c + a*d)
    mod order, and the oracle, at t = 0 and t = 1, builds no table (it would
    take 8 GB): a one-term scan reads discrete logs alone.
    """
    basis = field_basis(46337, 1, 2, cap=2**31)
    order, e, q = basis.order, basis.subfield_index, basis.q
    assert order == 2147117568 and order + 1 < TABLE_LIMIT
    assert e == 46338 and _CHUNK < e < 2 * _CHUNK
    for text, t in ((f"1:g^{order - 1}", 0), (f"0:g^{order - 2}", 1),
                    (f"0:g^{order - 1},1:g^{order - 2}", 1)):
        s = parse_poly(basis, text)
        term = _reduced(basis, s, t)
        (r, coeff), = term.terms
        d = (q**r - q**t) % order
        want = [(coeff.dlog + a * d) % order for a in range(e)]
        assert _scan(basis, term, t).tolist() == want, text
        start = time.perf_counter()
        report = is_scattered_bruteforce(basis, s, t, census=True)
        assert time.perf_counter() - start < 1.0
        period = next((a for a in range(1, e) if want[a] == want[0]), e)
        assert (report.scattered, report.distinct_ratio_values) == (period == e, period)
    assert "_zech" not in vars(basis)


class _SyntheticZech:
    """A Zech table of any order without its memory: zech[k] = order - 1 - k,
    and -1 (a zero sum) at k = 1.  It answers numpy's ``take`` with
    ``mode="clip"`` and fancy indexing, negative indices read from the end."""

    def __init__(self, order):
        self.order = order

    def value(self, k: int) -> int:
        return -1 if k == 1 else self.order - 1 - k

    def take(self, index, mode):
        assert mode == "clip"
        return np.array([self.value(min(max(int(k), 0), self.order - 1)) for k in index],
                        dtype=np.int32)

    def __getitem__(self, index):
        return np.array([self.value(int(k) % self.order) for k in index], dtype=np.int32)


def test_zech_sums_wrap_at_the_uint32_limit():
    """:func:`_log_sum` on uint32 residues 0, 1, order - 2 and order - 1.

    With the order of F_46337^2, u + zech[v - u] reaches 2 * order - 2, a
    hair under 2^32.  Every two- and three-term sum of those residues is
    checked against Python ints, zero sums (-1) and sums after a zero among
    them.
    """
    order = 2147117568
    ctx = SimpleNamespace(order=order, _zech=_SyntheticZech(order))
    zech = ctx._zech.value
    residues = (0, 1, order - 2, order - 1)
    assert wrap_sums(np.array([0, order - 1, order, 2 * order - 2, 2 * order - 1],
                              dtype=np.uint32), order).tolist() == [0, order - 1, 0, order - 2,
                                                                     order - 1]

    def reference(terms):
        acc = terms[0]
        for v in terms[1:]:
            if acc is None:
                acc = v
                continue
            z = zech((v - acc) % order)
            acc = None if z < 0 else (acc + z) % order
        return -1 if acc is None else acc

    for k in (2, 3):
        combos = list(itertools.product(residues, repeat=k))
        want = [reference(terms) for terms in combos]
        arrays = [np.array(column, dtype=np.uint32) for column in zip(*combos)]
        got = _log_sum(ctx, iter(arrays))
        assert got.dtype == np.int32 and got.tolist() == want
        # order - 2 is (order - 1) + zech[0] = 2 * order - 2, wrapped
        assert -1 in want and order - 2 in want
        if k == 3:
            assert any(reference(terms[:2]) == -1 and reference(terms) >= 0
                       for terms in combos)


def test_evaluate_additive(f27):
    s = normalize(f27, [(1, f27.gamma), (2, f27.one())])
    elements = [f27.zero()] + [f27.element_from_dlog(k) for k in range(f27.order)]
    for x, y in itertools.product(elements, elements):
        assert (evaluate(f27, s, f27.add(x, y))
                == f27.add(evaluate(f27, s, x), evaluate(f27, s, y)))


def test_ratio_map(f9):
    s = normalize(f9, [(1, f9.one())])
    # single Frobenius term at its own index collapses to 1
    for k in range(f9.order):
        assert ratio_map(f9, s, 1, f9.element_from_dlog(k)) == f9.one()
    assert ratio_map(f9, s, 0, f9.gamma) == f9.element_from_dlog(2)
    with pytest.raises(DivisionByZero):
        ratio_map(f9, s, 0, f9.zero())


def test_ratio_map_homogeneous(f81):
    s = normalize(f81, [(1, f81.element_from_dlog(3)), (2, f81.one())])
    e = f81.subfield_index
    for t in range(4):
        for a in range(e):
            x = f81.element_from_dlog(a)
            base = ratio_map(f81, s, t, x)
            for i in range(1, f81.q - 1):
                lam_x = f81.element_from_dlog(a + i * e)
                assert ratio_map(f81, s, t, lam_x) == base


def test_rho_transform_single_term():
    ctx = build_field(3, 1, 4)
    g = ctx.gamma
    s = normalize(ctx, [(1, ctx.one())])
    out = rho_transform(ctx, s, g)
    expected = ctx.sub(ctx.frobenius(g, 1), g)
    assert out.terms == ((1, expected),)


def test_rho_transform_guards(f81):
    s = normalize(f81, [(1, f81.one())])
    with pytest.raises(RhoInBaseField):
        rho_transform(f81, s, f81.element_from_coeffs([2]))
    with pytest.raises(RhoInBaseField):
        rho_transform(f81, s, f81.zero())
    # a term at exponent 0 vanishes
    rho = f81.gamma
    two_terms = normalize(f81, [(0, f81.one()), (1, f81.one())])
    out = rho_transform(f81, two_terms, rho)
    assert out.exponents == (1,)
    with pytest.raises(ZeroPolynomial):
        rho_transform(f81, normalize(f81, [(0, f81.one())]), rho)


def test_parse_and_format(f3125):
    s = parse_poly(f3125, "3:g^0,4:g^0")
    assert str(s) == "3:g^0,4:g^0"
    v = parse_poly(f3125, "1:[2,1],2:g^5")
    assert v.k == 2
    assert f3125.coeffs(v.terms[0][1])[:2] == (2, 1)
    with pytest.raises(ParseError):
        parse_poly(f3125, "")
    with pytest.raises(ParseError):
        parse_poly(f3125, "1:banana")
    with pytest.raises(ParseError):
        parse_poly(f3125, "nocolon")
    with pytest.raises(ParseError):
        parse_poly(f3125, "1:[0,0]")


def test_parse_poly_without_a_table():
    params = FieldParams(5, 1, 5)
    assert parse_poly(params, "3:g^0,4:g^2").dlog_terms() == ((3, 0), (4, 2))
    with pytest.raises(ParseError):
        parse_poly(params, "1:[1,0]")
    with pytest.raises(ParseError):
        parse_poly(params, "1:g^0,6:g^0")  # 6 = 1 mod 5, cannot merge


@pytest.mark.parametrize("text", ["3:g^0,4:g^0", "4:g^-1,0:g^3125,7:g^12", "1:g^0"])
def test_parse_poly_agrees_on_both_layers(f3125, text):
    basis = field_basis(5, 1, 5)
    polys = [parse_poly(field, text) for field in (FieldParams(5, 1, 5), basis, f3125)]
    assert polys[0] == polys[1] == polys[2]
    assert "_zech" not in vars(basis)


def test_parse_poly_refuses_additions_without_a_table(f3125):
    params = FieldParams(5, 1, 5)
    vector = re.escape("coefficient vectors need a materialized field; use g^k powers")
    duplicate = re.escape("duplicate exponent 1 cannot be merged without field tables")
    with pytest.raises(NeedsFieldAddition, match=vector):
        parse_poly(params, "0:g^0,2:[1,0]")
    with pytest.raises(NeedsFieldAddition, match=duplicate):
        parse_poly(params, "1:g^0,6:g^2")
    # the first offending term wins
    with pytest.raises(NeedsFieldAddition, match=duplicate):
        parse_poly(params, "1:g^0,6:g^2,3:[1,0]")
    with pytest.raises(NeedsFieldAddition, match=vector):
        parse_poly(params, "1:g^0,3:[1,0],6:g^2")
    # a built field adds both
    assert parse_poly(f3125, "1:g^0,6:g^0,3:[1,0]").exponents == (1, 3)
