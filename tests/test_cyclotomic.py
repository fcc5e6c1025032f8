import random

import numpy as np
import pytest

from scatterpoly import (
    FieldTooLarge,
    build_field,
    coefficient_table,
    cyclotomic_eval,
    evaluate,
    field_basis,
    lemma_relation_check,
    normalize,
    parse_poly,
    verify,
)
from scatterpoly.cyclotomic import CoefficientTable

from naive_oracle import naive_mul, naive_pow


def _dlog(x):
    """An element as a coefficient table stores it: its dlog, -1 for zero."""
    return -1 if x.is_zero else x.dlog


def test_decompose_f9(f9):
    # x + x^3 over F_9: d = 1, so s = 2, l = 4 and C_0 = squares = {1, 2}
    table = coefficient_table(f9, parse_poly(f9, "0:g^0,1:g^0"))
    assert (table.s, table.l) == (2, 4)
    members = [f9.element_from_dlog(k) for k in range(f9.order)
               if table.coset_of(f9.element_from_dlog(k)) == 0]
    assert {f9.encode(x) for x in members} == {1, 2}
    with pytest.raises(ValueError):
        table.coset_of(f9.zero())


def test_decompose_full_group(f9):
    # a monomial's single coset is the whole group
    mono = coefficient_table(f9, normalize(f9, [(1, f9.gamma)]))
    assert mono.l == 1
    assert all(mono.coset_of(f9.element_from_dlog(k)) == 0 for k in range(8))


def test_coset_homomorphism(f81, f243):
    # x + x^(q^r) has s = q^gcd(n, r) - 1, so F_81 gives l = 40 and l = 10
    for ctx in (f81, f243):
        for r in range(1, ctx.n):
            tab = coefficient_table(ctx, normalize(ctx, [(0, ctx.one()), (r, ctx.one())]))
            for a in range(0, ctx.order, 7):
                for b in range(0, ctx.order, 11):
                    x = ctx.element_from_dlog(a)
                    y = ctx.element_from_dlog(b)
                    assert (tab.coset_of(ctx.mul(x, y))
                            == (tab.coset_of(x) + tab.coset_of(y)) % tab.l)


def test_factorize_worked_examples(f3125):
    # x^(5^3) + x^(5^4) over F_5^5 -> r1=3, s=4, f = 1 + y
    s_poly = parse_poly(f3125, "3:g^0,4:g^0")
    table = coefficient_table(f3125, s_poly)
    assert (table.r1, table.s) == (3, 4)
    assert [(e, c.dlog) for e, c in table.f_terms] == [(0, 0), (1, 0)]

    # structural analog of the degree-8 example: exponents 2, 4, 6 with q = 3
    ctx = build_field(3, 1, 8)
    trinomial = parse_poly(ctx, "2:g^0,4:g^0,6:g^0")
    table = coefficient_table(ctx, trinomial)
    assert table.r1 == 2
    assert table.s == ctx.q**2 - 1
    assert [e for e, _ in table.f_terms] == [0, 1, ctx.q**2 + 1]
    assert lemma_relation_check(ctx, trinomial)


def test_factorize_single_term(f81):
    s_poly = normalize(f81, [(2, f81.gamma)])
    table = coefficient_table(f81, s_poly)
    assert (table.r1, table.s, table.l) == (2, f81.order, 1)
    assert table.f_terms == ((0, f81.gamma),)


def test_coefficient_table(f3125):
    s_poly = parse_poly(f3125, "3:g^0,4:g^0")
    table = coefficient_table(f3125, s_poly)
    assert len(table.A) == table.l == 781
    # A_0 = f(1) = 2
    assert table.A[0] == f3125.element_from_coeffs([2, 0, 0, 0, 0]).dlog
    # A_i = 1 + xi^(i * q^r1) with q^r1 = 125
    for i in (1, 2, 50, 780):
        expected = f3125.add(
            f3125.one(),
            f3125.element_from_dlog(table.s * i * 125 % f3125.order))
        assert table.A[i] == _dlog(expected)


def test_coefficient_table_matches_coefficient_arithmetic(f81, f3125, f81_tower):
    # A_i = sum_j c_j xi^(i*q^r1*e_j), summed here on coefficient vectors;
    # x^q - x and x^(q^2) - x give tables with zero entries
    for ctx in (f81, f3125, f81_tower):
        p, mod = ctx.p, list(ctx.modulus)
        polys = [normalize(ctx, [(0, ctx.minus_one()), (r, ctx.one())])
                 for r in range(1, ctx.n)]
        polys += [normalize(ctx, [(1, ctx.gamma), (2 % ctx.n, ctx.element_from_dlog(9))]),
                  normalize(ctx, [(r, ctx.element_from_dlog(5 * r + 2))
                                  for r in range(ctx.n)])]
        zeros = 0
        for s_poly in polys:
            table = coefficient_table(ctx, s_poly)
            step = table.s * ctx.q**table.r1
            coeff_digits = [(e, ctx.coeffs(c)) for e, c in table.f_terms]
            step_digits = ctx.coeffs(ctx.element_from_dlog(step))
            point = ctx.coeffs(ctx.one())
            for i in range(table.l):
                total = [0] * ctx.degree
                for e, c in coeff_digits:
                    term = naive_mul(p, mod, c, naive_pow(p, mod, point, e))
                    total = [(u + v) % p for u, v in zip(total, term)]
                assert table.A[i] == _dlog(ctx.element_from_coeffs(total)), (str(s_poly), i)
                point = naive_mul(p, mod, point, step_digits)  # g^(step * (i + 1))
            zeros += int(np.count_nonzero(table.A < 0))
        assert zeros > 0


def test_coefficient_table_constant(f81):
    s_poly = normalize(f81, [(2, f81.gamma)])
    table = coefficient_table(f81, s_poly)
    assert all(a == f81.gamma.dlog for a in table.A)


def test_cyclotomic_eval(f9, f3125):
    # constant table of ones reduces to the Frobenius power
    table = CoefficientTable(r1=1, s=2, l=4, A=np.zeros(4, dtype=np.int64),
                             f_terms=((0, f9.one()),))
    for enc in range(9):
        x = f9.element_from_encoding(enc)
        assert cyclotomic_eval(f9, table, x) == f9.frobenius(x, 1)
    assert cyclotomic_eval(f9, table, f9.zero()).is_zero

    s_poly = parse_poly(f3125, "3:g^0,4:g^0")
    tab = coefficient_table(f3125, s_poly)
    g = f3125.gamma
    assert tab.coset_of(g) == 1
    assert (cyclotomic_eval(f3125, tab, g)
            == f3125.mul(f3125.element_from_dlog(int(tab.A[1])), f3125.frobenius(g, 3)))


def test_lemma_relation_examples(f81, f3125):
    assert lemma_relation_check(f3125, parse_poly(f3125, "3:g^0,4:g^0"))
    assert lemma_relation_check(f81, normalize(f81, [(2, f81.gamma)]))
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(1, 3)
        exps = rng.sample(range(4), k)
        s_poly = normalize(f81, [(r, f81.element_from_dlog(rng.randrange(f81.order)))
                                 for r in exps])
        assert lemma_relation_check(f81, s_poly)


def test_lemma_relation_matches_pointwise(f27):
    rng = random.Random(11)
    for _ in range(10):
        s_poly = normalize(f27, [(r, f27.element_from_dlog(rng.randrange(f27.order)))
                                 for r in rng.sample(range(3), rng.randint(1, 2))])
        table = coefficient_table(f27, s_poly)
        pointwise = all(
            cyclotomic_eval(f27, table, f27.element_from_encoding(enc))
            == evaluate(f27, s_poly, f27.element_from_encoding(enc))
            for enc in range(f27.size))
        assert lemma_relation_check(f27, s_poly) == pointwise
        assert pointwise


def test_lemma_relation_size_guard():
    big = field_basis(3, 1, 14, cap=2**31)  # 3^14 > DEFAULT_CAP
    with pytest.raises(FieldTooLarge):
        lemma_relation_check(big, normalize(big, [(1, big.one())]))
    assert "_zech" not in vars(big)


def test_coset_multiplier_check_runs_on_every_call(f3125, monkeypatch):
    # a cached verdict would hide a failure from every call after the first
    s_poly = parse_poly(f3125, "3:g^0,4:g^0")
    calls = []
    monkeypatch.setattr(verify, "coefficient_table",
                        lambda *a: calls.append(a) or coefficient_table(*a))
    assert verify.coset_multipliers_consistent(f3125, s_poly)
    assert verify.coset_multipliers_consistent(f3125, s_poly)
    assert len(calls) == 2
