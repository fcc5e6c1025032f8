import itertools
import re

import numpy as np
import pytest

from scatterpoly import (
    DivisionByZero,
    FieldParams,
    IndexExceedsMinExponent,
    NeedsFieldAddition,
    ParseError,
    RhoInBaseField,
    WouldBeZero,
    ZeroPolynomial,
    build_field,
    evaluate,
    evaluate_many,
    field_basis,
    normalize,
    parse_poly,
    ratio_map,
    rho_transform,
    shift_down,
    strip_min_term,
    t_transform,
)
from scatterpoly.field import TABLE_LIMIT
from scatterpoly.linpoly import LinearizedPolynomial, TermLogs

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
    just below e and just below the order, and one is partial.
    """
    basis = field_basis(3, 1, 19, cap=TABLE_LIMIT)
    order, e, run = basis.order, basis.subfield_index, 1 << 15
    assert 2**30 < order < TABLE_LIMIT
    s = LinearizedPolynomial(tuple((r, basis.element_from_dlog(c)) for r, c in
                                   ((0, order - 1), (7, 123456789), (18, e + 3))))
    last = e // run * run
    runs = ((0, run), (last, e - last), (e - run, run), (e - 5, 5), (order - run, run))
    for index in (None, 0, 7, 18):
        shift = 0 if index is None else 3**index
        terms = TermLogs(basis, s, index, run=run)
        for start, count in runs:
            dlogs = np.arange(start, start + count, dtype=np.int64)
            points = np.arange(start, start + count, dtype=object)
            for (r, coeff), logs in zip(s.terms, terms.at(dlogs)):
                want = (coeff.dlog + points * (3**r - shift)) % order
                assert logs.dtype == np.int64
                assert logs.tolist() == want.tolist(), (index, start, r)
            # a monomial adds nothing, so the basis evaluates it
            monomial = LinearizedPolynomial(s.terms[2:])
            got = evaluate_many(basis, monomial, dlogs, index=index,
                                terms=TermLogs(basis, monomial, index, run=run))
            assert got.tolist() == ((e + 3 + points * (3**18 - shift)) % order).tolist()


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


def test_shift_down(f3125):
    s = parse_poly(f3125, "3:g^0,4:g^0")
    shifted = shift_down(f3125, s, 3)
    assert shifted.exponents == (0, 1)
    assert shift_down(f3125, s, 0) == s
    with pytest.raises(IndexExceedsMinExponent):
        shift_down(f3125, normalize(f3125, [(2, f3125.one())]), 3)


def test_shift_down_evaluation_identity(f81):
    # S(x)/x^(q^t) = S_t(X)/X at X = x^(q^t), given the coefficient orders
    # divide q^t - 1
    one = f81.one()
    minus = f81.minus_one()
    for coeffs in itertools.product((one, minus), repeat=2):
        s = normalize(f81, [(2, coeffs[0]), (3, coeffs[1])])
        for t in (1, 2):
            if any((f81.q**t - 1) % f81.element_order(a) != 0
                   for _, a in s.terms):
                continue
            shifted = shift_down(f81, s, t)
            for k in range(f81.order):
                x = f81.element_from_dlog(k)
                big_x = f81.frobenius(x, t)
                lhs = ratio_map(f81, s, t, x)
                rhs = ratio_map(f81, shifted, 0, big_x)
                assert lhs == rhs


def test_strip_min_term():
    ctx = build_field(3, 1, 8)
    s = parse_poly(ctx, "2:g^0,4:g^0,6:g^0")
    assert strip_min_term(ctx, s).exponents == (4, 6)
    with pytest.raises(WouldBeZero):
        strip_min_term(ctx, parse_poly(ctx, "2:g^0"))


def test_strip_min_term_ratio_equivalence(f81):
    # a deciding pair for S at index r1 is one for the stripped tail and back
    s = normalize(f81, [(1, f81.gamma), (3, f81.one())])
    stripped = strip_min_term(f81, s)
    r1 = s.min_exponent
    for a in range(f81.order):
        for b in range(a + 1, f81.order):
            y = f81.element_from_dlog(a)
            z = f81.element_from_dlog(b)
            lhs = ratio_map(f81, s, r1, y) == ratio_map(f81, s, r1, z)
            rhs = (ratio_map(f81, stripped, r1, y)
                   == ratio_map(f81, stripped, r1, z))
            assert lhs == rhs


def test_t_transform(f81, f243):
    a1 = f81.element_from_dlog(5)
    a2 = f81.element_from_dlog(9)
    s = normalize(f81, [(1, a1), (3, a2)])
    out = t_transform(f81, s)
    assert out.terms == ((0, a1), (2, a2))
    # the exceptional family shape: x^q + d x^(q^3) -> x + d x^(q^2)
    d = f243.minus_one()
    fam = normalize(f243, [(1, f243.one()), (3, d)])
    out = t_transform(f243, fam)
    assert out.terms == ((0, f243.one()), (2, d))
    single = normalize(f81, [(2, a1)])
    assert t_transform(f81, single).terms == ((0, a1),)


def test_rho_transform_single_term():
    ctx = build_field(3, 1, 4)
    g = ctx.gamma
    s = normalize(ctx, [(2, ctx.one())])
    out = rho_transform(ctx, s, 1, g)
    expected = ctx.sub(ctx.frobenius(g, 1), g)
    assert out.terms == ((1, expected),)


def test_rho_transform_guards(f81):
    s = normalize(f81, [(2, f81.one())])
    with pytest.raises(RhoInBaseField):
        rho_transform(f81, s, 1, f81.element_from_coeffs([2]))
    with pytest.raises(RhoInBaseField):
        rho_transform(f81, s, 1, f81.zero())
    # at t = r1 the least term's coefficient vanishes
    rho = f81.gamma
    two_terms = normalize(f81, [(1, f81.one()), (2, f81.one())])
    out = rho_transform(f81, two_terms, 1, rho)
    assert out.exponents == (1,)
    with pytest.raises(ZeroPolynomial):
        rho_transform(f81, s, 2, rho)


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
