"""Cyclotomic coset machinery for the multiplicative group of F_{q^n}.

For a divisor s of q^n - 1 with q^n - 1 = l*s, the subgroup C_0 of l-th powers
splits F_{q^n}^* into cosets C_i = gamma^i C_0.  A linearized polynomial
factors as S(x) = x^(q^(r1)) * f(x^(s*q^(r1))), and on C_i the value of the
inner factor is the constant A_i = f(xi^(i*q^(r1))) with xi = gamma^s.  That
turns S into a coset-indexed multiplier table, which several scatteredness
criteria exploit: ``coefficient_table(ctx, S)`` factors S and builds it, and
the table carries its cosets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldTooLarge, NotADivisor
from .field import DEFAULT_CAP, FFElement, FieldCtx
from .linpoly import LinearizedPolynomial, _log_sum, evaluate_many


@dataclass(frozen=True)
class CyclotomicDecomposition:
    """Coset structure for one divisor s of q^n - 1 (so l = (q^n - 1)/s)."""

    s: int
    l: int
    xi: FFElement

    def coset_of(self, x: FFElement) -> int:
        """Index i with x in C_i; O(1) from the discrete log."""
        if x.dlog is None:
            raise ValueError("zero belongs to no coset")
        return x.dlog % self.l


@dataclass(frozen=True)
class CoefficientTable:
    """Per-coset multipliers A_i = f(xi^(i*q^(r1))) for the inner factor f.

    ``A`` holds the discrete logs of the A_i as int64, -1 where A_i = 0,
    indexed by the cosets of ``decomp``.
    """

    decomp: CyclotomicDecomposition
    r1: int
    A: np.ndarray
    f_terms: tuple[tuple[int, FFElement], ...]


def decompose(ctx: FieldCtx, s: int) -> CyclotomicDecomposition:
    if s < 1 or ctx.order % s != 0:
        raise NotADivisor(f"{s} does not divide {ctx.order}")
    l = ctx.order // s
    return CyclotomicDecomposition(s=s, l=l, xi=ctx.element_from_dlog(s % ctx.order))


def factorize_poly(ctx: FieldCtx, s_poly: LinearizedPolynomial
                   ) -> tuple[int, int, tuple[tuple[int, FFElement], ...]]:
    """Split S(x) into x^(q^(r1)) * f(x^(s*q^(r1))).

    Takes s = q^d - 1 with d = gcd(n, r_2 - r_1, ..., r_k - r_1): the largest
    divisor of that shape dividing every q^(r_i - r_1) - 1 and q^n - 1, which
    makes the exponents of f integral and the output canonical.
    Returns (r1, s, f_terms).
    """
    r1 = s_poly.min_exponent
    s = ctx.q ** math.gcd(ctx.n, *(r - r1 for r, _ in s_poly.terms)) - 1
    return r1, s, tuple(((ctx.q ** (r - r1) - 1) // s, a) for r, a in s_poly.terms)


def coefficient_table(ctx: FieldCtx, s_poly: LinearizedPolynomial) -> CoefficientTable:
    """Factor S (:func:`factorize_poly`) and evaluate f at xi^(i*q^(r1)) for
    every coset index i, all i at once, from f's terms."""
    r1, s, f_terms = factorize_poly(ctx, s_poly)
    decomp = decompose(ctx, s)
    step = s * pow(ctx.q, r1, ctx.order) % ctx.order
    base = np.arange(decomp.l, dtype=np.int64) * step % ctx.order
    dlogs = _log_sum(ctx, ((c.dlog + e * base) % ctx.order for e, c in f_terms))
    return CoefficientTable(decomp=decomp, r1=r1, A=dlogs, f_terms=f_terms)


def cyclotomic_eval(ctx: FieldCtx, table: CoefficientTable, x: FFElement) -> FFElement:
    """The coset-indexed map: 0 at 0, else A_i * x^(q^(r1)) on C_i."""
    if x.dlog is None:
        return ctx.zero()
    a = int(table.A[table.decomp.coset_of(x)])
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
                               table.A[a % table.decomp.l]))
