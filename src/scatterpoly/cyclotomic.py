"""S's cyclotomic form over F_{q^n}.

A linearized polynomial factors as S(x) = x^(q^(r1)) * f(x^(s*q^(r1))) with s =
q^d - 1, which divides q^n - 1 = l*s.  The l-th powers C_0 split F_{q^n}^* into
cosets C_i = gamma^i C_0, and on C_i the inner factor takes the constant value
A_i = f(gamma^(s*i*q^(r1))).  ``coefficient_table(ctx, S)`` factors S and
builds this coset-indexed multiplier table, which several scatteredness
criteria exploit; the table carries its cosets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldTooLarge
from .field import DEFAULT_CAP, FFElement, FieldCtx
from .linpoly import LinearizedPolynomial, evaluate_many


@dataclass(frozen=True)
class CoefficientTable:
    """S = x^(q^(r1)) * f(x^(s*q^(r1))) and f's value A_i on each coset C_i.

    ``f_terms`` holds f's (exponent, coefficient) pairs, and ``A`` the
    discrete logs of the A_i as int32, -1 where A_i = 0, for i < l.
    """

    r1: int
    s: int
    l: int
    A: np.ndarray
    f_terms: tuple[tuple[int, FFElement], ...]

    def coset_of(self, x: FFElement) -> int:
        """Index i with x in C_i; O(1) from the discrete log."""
        if x.dlog is None:
            raise ValueError("zero belongs to no coset")
        return x.dlog % self.l


def coefficient_table(ctx: FieldCtx, s_poly: LinearizedPolynomial) -> CoefficientTable:
    """Factor S and evaluate f at gamma^(s*i*q^(r1)) for every coset index i,
    all i at once.

    Takes s = q^d - 1 with d = gcd(n, r_2 - r_1, ..., r_k - r_1): the largest
    divisor of that shape dividing every q^(r_i - r_1) - 1 and q^n - 1, which
    makes the exponents of f integral and the output canonical.  f's term
    (e, a) at gamma^(s*i*q^(r1)) is a * gamma^(i*(q^r - q^(r1))), since
    e*s = q^(r - r1) - 1, so A_i is the ratio S(gamma^i)/gamma^(i*q^(r1)),
    which :func:`evaluate_many` gives with ``index=r1``.
    """
    r1 = s_poly.min_exponent
    s = ctx.q ** math.gcd(ctx.n, *(r - r1 for r, _ in s_poly.terms)) - 1
    f_terms = tuple(((ctx.q ** (r - r1) - 1) // s, a) for r, a in s_poly.terms)
    l = ctx.order // s
    A = evaluate_many(ctx, s_poly, np.arange(l), index=r1)
    return CoefficientTable(r1=r1, s=s, l=l, A=A, f_terms=f_terms)


def cyclotomic_eval(ctx: FieldCtx, table: CoefficientTable, x: FFElement) -> FFElement:
    """The coset-indexed map: 0 at 0, else A_i * x^(q^(r1)) on C_i."""
    if x.dlog is None:
        return ctx.zero()
    a = int(table.A[table.coset_of(x)])
    if a < 0:
        return ctx.zero()
    return ctx.mul(ctx.element_from_dlog(a), ctx.frobenius(x, table.r1))


def lemma_relation_check(ctx: FieldCtx, s_poly: LinearizedPolynomial) -> bool:
    """Full-domain check that S agrees with its coset-indexed form everywhere:
    the ratio S(x)/x^(q^(r1)) equals A_i on each coset C_i.  Refuses a field
    larger than ``DEFAULT_CAP`` before building anything."""
    if ctx.size > DEFAULT_CAP:
        raise FieldTooLarge(ctx, DEFAULT_CAP)
    table = coefficient_table(ctx, s_poly)
    # in discrete logs (-1 for zero) over all nonzero elements g^a; both maps
    # fix zero, so this scan decides equality
    a = np.arange(ctx.order, dtype=np.int64)
    return bool(np.array_equal(evaluate_many(ctx, s_poly, a, index=table.r1),
                               table.A[a % table.l]))
