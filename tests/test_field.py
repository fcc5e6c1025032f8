import itertools
import random

import numpy as np
import pytest

from scatterpoly import (
    DivisionByZero,
    EvenCharacteristicRejected,
    FieldTooLarge,
    NonPrime,
    build_field,
)
from scatterpoly.field import (
    DEFAULT_CAP,
    TABLE_LIMIT,
    WALK_LIMIT,
    _build_tables,
    _encode,
    _fixed_mulmod,
    factorize,
    field_basis,
    is_prime,
    modulus_text,
    table_limit,
)

from naive_oracle import naive_mul, naive_pow


def test_f9_deterministic_construction(f9):
    # smallest-encoding irreducible quadratic over F_3 is x^2 + 1
    assert f9.modulus == (1, 0, 1)
    assert modulus_text(f9) == "x^2 + 1"
    # smallest-encoding element of order 8 is x + 1
    assert f9.coeffs(f9.gamma) == (1, 1)
    assert f9.element_order(f9.gamma) == 8
    assert f9.order == 8
    assert f9.factorization == ((2, 3),)


def test_prime_field_construction():
    ctx = build_field(3, 1, 1)
    assert ctx.modulus == (0, 1)
    assert ctx.coeffs(ctx.gamma) == (2,)
    assert ctx.element_order(ctx.gamma) == 2


def test_build_rejections():
    with pytest.raises(NonPrime):
        build_field(4, 1, 2)
    with pytest.raises(FieldTooLarge):
        build_field(3, 1, 30)
    with pytest.raises(EvenCharacteristicRejected):
        build_field(2, 1, 4)
    # the strictness flag admits characteristic 2
    ctx = build_field(2, 1, 4, strict=False)
    assert ctx.size == 16


def test_table_limit():
    # dlog products in the int64 kernels stay below 2^63 up to the limit
    assert DEFAULT_CAP <= TABLE_LIMIT and (TABLE_LIMIT - 1) ** 2 < 2**63
    # refused before any table is allocated, whatever the cap
    with pytest.raises(FieldTooLarge) as info:
        build_field(3, 1, 21, cap=10**11)
    assert info.value.cap == TABLE_LIMIT


def test_walk_exactness_bound():
    # the walk's float64 sums reach d * (p - 1)^2: exact below 2^53, which
    # admits primes up to 94906266 and refuses the next one, 94906297, and any
    # larger prime field, before a table is allocated
    assert (94906249 - 1) ** 2 < WALK_LIMIT <= (94906297 - 1) ** 2
    assert table_limit(94906249, 1, TABLE_LIMIT) == TABLE_LIMIT
    for p in (94906297, 130000001):
        assert table_limit(p, 1, TABLE_LIMIT) == 94906266
        with pytest.raises(FieldTooLarge) as info:
            build_field(p, 1, 1, cap=TABLE_LIMIT)
        assert info.value.cap == 94906266
    # a smaller cap still wins; degree 2 passes the bound up to TABLE_LIMIT
    assert table_limit(130000001, 1, 1000) == 1000
    assert table_limit(46337, 2, TABLE_LIMIT) == TABLE_LIMIT


@pytest.mark.parametrize("params", [(2, 1, 4), (3, 1, 2), (3, 1, 4), (5, 1, 2),
                                    (5, 1, 3), (7, 1, 1), (3, 2, 2)])
def test_generator_is_smallest_primitive_encoding(params):
    # the search skips the constants 1..p-1 when d > 1; the reference does not
    ctx = build_field(*params, strict=False)
    smallest = next(enc for enc in range(1, ctx.size)
                    if ctx.element_order(ctx.element_from_encoding(enc)) == ctx.order)
    assert ctx.gamma_encoding == smallest


def test_build_is_reproducible():
    a = build_field(3, 1, 4)
    b = build_field(3, 1, 4)
    assert a.modulus == b.modulus
    assert a.gamma == b.gamma
    assert ([a.encode(a.element_from_dlog(k)) for k in range(a.order)]
            == [b.encode(b.element_from_dlog(k)) for k in range(b.order)])
    assert np.array_equal(a._zech, b._zech)
    # the Zech table is the only array a built field holds
    arrays = [v for v in vars(a).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is a._zech
    assert a._zech.dtype == np.int32 and a._zech.size == a.order


def test_primality_and_factorization():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    for n in (2, 8, 80, 242, 3124, 390624, 59048):
        fact = factorize(n)
        prod = 1
        for prime, exp in fact:
            assert is_prime(prime)
            prod *= prime**exp
        assert prod == n


@pytest.mark.parametrize("params", [(3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5),
                                    (5, 1, 3), (3, 2, 2), (2, 1, 4)])
def test_table_bijection(params):
    ctx = build_field(*params, strict=False)
    assert ctx.order == ctx.size - 1
    # antilog then log is the identity on exponents
    for k in range(ctx.order):
        e = ctx.element_from_dlog(k)
        assert e.dlog == k
        assert ctx.element_from_encoding(ctx.encode(e)) == e
    # the coefficient vector read from the tables names the same element
    assert ctx.coeffs(ctx.zero()) == (0,) * ctx.degree
    for e in [ctx.zero()] + [ctx.element_from_dlog(k) for k in range(ctx.order)]:
        assert ctx.element_from_coeffs(ctx.coeffs(e)) == e
    # log then antilog is the identity on nonzero encodings
    seen = {ctx.encode(ctx.element_from_dlog(k)) for k in range(ctx.order)}
    assert len(seen) == ctx.order
    assert 0 not in seen


def test_mul_against_polynomial_arithmetic(f9):
    # independent oracle: schoolbook multiplication mod x^2 + 1
    for a_enc in range(9):
        for b_enc in range(9):
            a = f9.element_from_encoding(a_enc)
            b = f9.element_from_encoding(b_enc)
            expected = naive_mul(3, f9.modulus, f9.coeffs(a), f9.coeffs(b))
            assert f9.coeffs(f9.mul(a, b)) == expected


def test_mul_examples(f9):
    g = f9.gamma
    assert f9.coeffs(f9.mul(g, g)) == (0, 2)  # (x+1)^2 = 2x
    assert f9.mul(f9.zero(), g).is_zero
    g3 = f9.element_from_dlog(3)
    g5 = f9.element_from_dlog(5)
    assert f9.mul(g3, g5) == f9.one()  # exponents sum to 8


def test_inv(f9):
    two = f9.element_from_coeffs([2])
    assert f9.inv(two) == two
    assert f9.inv(f9.gamma) == f9.element_from_dlog(7)
    with pytest.raises(DivisionByZero):
        f9.inv(f9.zero())
    for k in range(f9.order):
        e = f9.element_from_dlog(k)
        assert f9.mul(e, f9.inv(e)) == f9.one()


def test_frobenius(f9, f81):
    x = f9.element_from_coeffs([0, 1])
    assert f9.coeffs(f9.frobenius(x, 1)) == (0, 2)  # x^3 = 2x mod x^2+1
    for ctx in (f9, f81):
        for k in range(ctx.order):
            e = ctx.element_from_dlog(k)
            assert ctx.frobenius(e, 0) == e
            assert ctx.frobenius(e, ctx.n) == e
    assert f9.frobenius(f9.zero(), 1).is_zero
    with pytest.raises(ValueError):
        f9.frobenius(x, -1)


def test_frobenius_additive_and_linear(f9, f27, f81):
    # fully exhaustive over all element pairs, zero included
    for ctx in (f9, f27, f81):
        elements = [ctx.element_from_encoding(enc) for enc in range(ctx.size)]
        subfield = [e for e in elements if ctx.in_base_subfield(e)]
        for j in (1, 2):
            for a, b in itertools.product(elements, elements):
                lhs = ctx.frobenius(ctx.add(a, b), j)
                rhs = ctx.add(ctx.frobenius(a, j), ctx.frobenius(b, j))
                assert lhs == rhs
            for lam in subfield:
                for a in elements:
                    assert (ctx.frobenius(ctx.mul(lam, a), j)
                            == ctx.mul(lam, ctx.frobenius(a, j)))


def test_frobenius_matches_naive_powers(f81):
    for k in range(0, f81.order, 13):
        e = f81.element_from_dlog(k)
        expected = naive_pow(3, list(f81.modulus), f81.coeffs(e), 3)
        assert f81.coeffs(f81.frobenius(e, 1)) == expected


def test_element_order(f9, f81):
    assert f9.element_order(f9.gamma) == 8
    assert f9.element_order(f9.one()) == 1
    assert f9.element_order(f9.element_from_coeffs([2])) == 2
    with pytest.raises(DivisionByZero):
        f9.element_order(f9.zero())
    # independent oracle: repeated multiplication
    for k in range(f81.order):
        e = f81.element_from_dlog(k)
        acc = e
        order = 1
        while acc != f81.one():
            acc = f81.mul(acc, e)
            order += 1
        assert f81.element_order(e) == order


def test_relative_norm(f9, f243):
    assert f9.coeffs(f9.relative_norm(f9.gamma)) == (2, 0)  # gamma^4 = 2
    assert f9.relative_norm(f9.one()) == f9.one()
    # (q^n-1)/(q-1) = 121 is odd, so the norm of -1 stays -1
    assert f243.relative_norm(f243.minus_one()) == f243.minus_one()
    assert f243.relative_norm(f243.zero()).is_zero


def test_norm_multiplicative_and_surjective(f81, f243):
    for ctx in (f81, f243):
        for a_dlog in range(0, ctx.order, 7):
            for b_dlog in range(0, ctx.order, 11):
                a = ctx.element_from_dlog(a_dlog)
                b = ctx.element_from_dlog(b_dlog)
                assert (ctx.relative_norm(ctx.mul(a, b))
                        == ctx.mul(ctx.relative_norm(a), ctx.relative_norm(b)))
        image = {ctx.relative_norm(ctx.element_from_dlog(k))
                 for k in range(ctx.order)}
        subfield_units = {ctx.element_from_dlog(k) for k in range(ctx.order)
                          if ctx.in_base_subfield(ctx.element_from_dlog(k))}
        assert image == subfield_units


def test_in_base_subfield(f9):
    assert f9.in_base_subfield(f9.element_from_coeffs([2]))
    assert not f9.in_base_subfield(f9.element_from_coeffs([0, 1]))
    assert f9.in_base_subfield(f9.zero())
    for k in range(f9.order):
        e = f9.element_from_dlog(k)
        assert f9.in_base_subfield(e) == (f9.frobenius(e, 1) == e)


@pytest.mark.parametrize("params", [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 3)])
def test_subfield_characterization(params):
    ctx = build_field(*params)
    e = ctx.subfield_index
    for a in range(ctx.order):
        assert ctx.in_base_subfield(ctx.element_from_dlog(a)) == (a % e == 0)


def test_proper_tower(f81_tower):
    # q = 9, n = 2: the base subfield has 9 elements, 8 of them units
    assert f81_tower.q == 9
    assert f81_tower.subfield_index == 10
    units_in_base = sum(
        1 for k in range(f81_tower.order)
        if f81_tower.in_base_subfield(f81_tower.element_from_dlog(k)))
    assert units_in_base == 8
    # norm lands in F_9
    for k in range(0, f81_tower.order, 3):
        nrm = f81_tower.relative_norm(f81_tower.element_from_dlog(k))
        assert f81_tower.in_base_subfield(nrm)


def test_add_sub_neg(f9):
    for a_enc in range(9):
        for b_enc in range(9):
            a = f9.element_from_encoding(a_enc)
            b = f9.element_from_encoding(b_enc)
            s = f9.add(a, b)
            assert f9.sub(s, b) == a
    assert f9.add(f9.one(), f9.neg(f9.one())).is_zero


def test_degenerate_binary_field():
    ctx = build_field(2, 1, 1, strict=False)
    assert ctx.size == 2
    assert ctx.gamma == ctx.one()
    assert ctx.element_order(ctx.one()) == 1
    assert ctx.in_base_subfield(ctx.one())


# For d >= 2 the walk visits one power per F_p-line, (p^d - 1)/(p - 1) of
# them, and reaches the other p - 2 multiples by scaling digits.  F_3^9 walks
# two full blocks of 4096 powers and a partial one; F_5^7 walks four full
# blocks and a partial one, each with three multiples; F_101^2 one block of
# 102 powers with 99 multiples.  F_2^13 (no multiples) walks one full block
# and 4095 more powers.  These walk in float32.  F_4099 and F_8191
# (d * (p - 1)^2 >= 2^24) walk every power in float64, one full block and 2
# or 4094 more powers; a float32 walk would miss units of F_8191.
@pytest.mark.parametrize("params", [(2, 1, 5), (3, 1, 4), (3, 2, 3), (5, 1, 3),
                                    (7, 1, 3), (3, 1, 9), (5, 1, 7), (101, 1, 2),
                                    (2, 1, 13), (4099, 1, 1), (8191, 1, 1)])
def test_zech_table_is_log_of_one_plus(params):
    # compared on encodings of gamma^0, gamma^1, ..., walked one product at a
    # time with the construction arithmetic, which never reads the table
    ctx = build_field(*params, strict=False)
    p = ctx.p
    gamma = ctx.coeffs(ctx.gamma)
    vec = list(ctx.coeffs(ctx.one()))
    encodings = []
    for _ in range(ctx.order):
        encodings.append(_encode(vec, p))
        vec = _fixed_mulmod(vec, gamma, ctx.modulus, p)
    assert vec == list(ctx.coeffs(ctx.one()))  # gamma has full order
    log = {enc: k for k, enc in enumerate(encodings)}
    assert len(log) == ctx.order
    zech = ctx._zech.tolist()
    for k, enc in enumerate(encodings):
        plus_one = enc - (p - 1) if enc % p == p - 1 else enc + 1
        assert zech[k] == log.get(plus_one, -1)
    # 1 + g^k = 0 exactly at g^k = -1
    assert zech.index(-1) == ctx.minus_one().dlog
    assert zech.count(-1) == 1


@pytest.mark.parametrize("params", [(5, 1, 3), (3, 1, 4), (7, 1, 2)])
def test_tables_refuse_a_non_primitive_generator(params):
    # g^2 has half the order: its powers and their F_p multiples miss units
    basis = field_basis(*params)
    p, d = basis.p, basis.degree
    square = _fixed_mulmod(basis.gamma_coeffs, basis.gamma_coeffs, basis.modulus, p)
    with pytest.raises(RuntimeError):
        _build_tables(p, d, basis.modulus, square)


@pytest.mark.parametrize("params", [(3, 1, 2), (2, 1, 4)])
def test_add_sub_neg_match_coefficient_arithmetic(params):
    ctx = build_field(*params, strict=False)
    elements = [ctx.zero()] + [ctx.element_from_dlog(k) for k in range(ctx.order)]
    # compared on digits, which ctx.coeffs computes without the Zech table
    p = ctx.p
    for a in elements:
        ca = ctx.coeffs(a)
        assert ctx.coeffs(ctx.neg(a)) == tuple(-x % p for x in ca)
        for b in elements:
            cb = ctx.coeffs(b)
            assert ctx.coeffs(ctx.add(a, b)) == tuple((x + y) % p for x, y in zip(ca, cb))
            assert ctx.coeffs(ctx.sub(a, b)) == tuple((x - y) % p for x, y in zip(ca, cb))


@pytest.mark.parametrize("p,samples", [
    (101, range(101)),
    (1000003, [0, 1, 2, 1000001, 1000002] + random.Random(7).sample(range(1000003), 200)),
])
def test_digit_constants_round_trip(p, samples):
    # a constant is built by double-and-add through the Zech table
    ctx = build_field(p, 1, 1)
    for c in samples:
        assert ctx.coeffs(ctx.element_from_coeffs([c])) == (c,)


# (modulus_encoding, gamma_encoding) of each field, recorded before the basis
# search moved to a Frobenius matrix; any change here changes every discrete
# log, witness and fingerprint of that field
@pytest.mark.parametrize("params,pinned", [
    ((3, 1, 4), (5, 3)), ((3, 1, 6), (5, 3)), ((3, 1, 9), (64, 3)),
    ((3, 1, 12), (11, 14)), ((3, 1, 13), (7, 3)), ((3, 1, 15), (11, 5)),
    ((3, 1, 16), (37, 4)), ((5, 1, 4), (2, 6)), ((5, 1, 9), (38, 5)),
    ((7, 1, 7), (43, 14)), ((3, 2, 3), (5, 3)), ((2, 1, 13), (27, 2)),
    ((101, 1, 2), (2, 102)), ((1009, 1, 2), (11, 1018)), ((4099, 1, 1), (0, 2)),
    ((8191, 1, 1), (0, 17)),
])
def test_basis_is_pinned(params, pinned):
    basis = field_basis(*params, cap=2**31, strict=params[0] != 2)
    assert (basis.modulus_encoding, basis.gamma_encoding) == pinned
