"""Linearized polynomials S(x) = sum a_i x^(q^(r_i)) and their index-shift transforms.

Terms are kept normalized: exponent indices reduced mod n, strictly increasing,
no zero coefficients, never empty.  All transforms here are total wherever the
algebra defines them; order-divisibility conditions on the coefficients are not
preconditions but are checked (and reported) by :mod:`scatterpoly.criteria`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivisionByZero,
    IndexExceedsMinExponent,
    ParseError,
    RhoInBaseField,
    WouldBeZero,
    ZeroPolynomial,
)
from .field import FFElement, FieldCtx


@dataclass(frozen=True)
class LinearizedPolynomial:
    terms: tuple[tuple[int, FFElement], ...]

    @property
    def k(self) -> int:
        return len(self.terms)

    @property
    def min_exponent(self) -> int:
        return self.terms[0][0]

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.terms)

    def dlog_terms(self) -> tuple[tuple[int, int], ...]:
        """(exponent index, coefficient dlog) pairs; coefficients are nonzero."""
        return tuple((r, a.dlog) for r, a in self.terms)

    def __str__(self) -> str:
        return ",".join(f"{r}:g^{a.dlog}" for r, a in self.terms)


def normalize(ctx: FieldCtx, raw_terms) -> LinearizedPolynomial:
    """Reduce exponents mod n, merge duplicates, drop zeros, sort.

    Raises ZeroPolynomial when nothing remains.
    """
    merged: dict[int, FFElement] = {}
    for r, a in raw_terms:
        r %= ctx.n
        if r in merged:
            merged[r] = ctx.add(merged[r], a)
        else:
            merged[r] = a
    terms = tuple((r, a) for r, a in sorted(merged.items()) if not a.is_zero)
    if not terms:
        raise ZeroPolynomial("all terms cancelled")
    return LinearizedPolynomial(terms)


def evaluate(ctx: FieldCtx, s: LinearizedPolynomial, x: FFElement) -> FFElement:
    acc = ctx.zero()
    for r, a in s.terms:
        acc = ctx.add(acc, ctx.mul(a, ctx.frobenius(x, r)))
    return acc


def _log_sum(ctx: FieldCtx, logs) -> np.ndarray:
    """Discrete logs of the elementwise sums of g^v over the arrays v in ``logs``.

    -1 marks a zero sum.  The terms themselves must be nonzero (no -1 entries).
    Addition stays in the log domain: g^u + g^v = g^(u + zech[v - u]), one
    gather per point and term.
    """
    order = ctx.order
    acc = None
    for v in logs:
        if acc is None:
            acc = v
            continue
        zero = acc < 0
        diff = v - acc
        diff %= order
        z = ctx._zech[diff]
        total = acc + z
        total %= order
        total[z < 0] = -1
        if zero.any():
            total[zero] = v[zero]
        acc = total
    return acc


def evaluate_many(ctx: FieldCtx, s: LinearizedPolynomial,
                  dlogs: np.ndarray) -> np.ndarray:
    """Discrete logs of S(g^a) for a whole vector of discrete logs a; -1 for 0.

    The bulk path behind the exhaustive scans: term i at g^a is
    g^(dlog(a_i) + a * q^(r_i)), and the terms are summed with :func:`_log_sum`.
    """
    return _log_sum(ctx, ((coeff.dlog + dlogs * pow(ctx.q, r, ctx.order)) % ctx.order
                          for r, coeff in s.terms))


def ratio_map(ctx: FieldCtx, s: LinearizedPolynomial, t: int, x: FFElement) -> FFElement:
    """S(x) / x^(q^t); constant on F_q^*-multiples of x."""
    if x.is_zero:
        raise DivisionByZero("ratio map is undefined at zero")
    return ctx.mul(evaluate(ctx, s, x), ctx.inv(ctx.frobenius(x, t)))


def shift_down(ctx: FieldCtx, s: LinearizedPolynomial, t: int) -> LinearizedPolynomial:
    """Lower every exponent index by t (requires t <= min exponent)."""
    if t < 0:
        raise ValueError("shift must be nonnegative")
    if t > s.min_exponent:
        raise IndexExceedsMinExponent(
            f"shift {t} exceeds least exponent {s.min_exponent}")
    return LinearizedPolynomial(tuple((r - t, a) for r, a in s.terms))


def strip_min_term(ctx: FieldCtx, s: LinearizedPolynomial) -> LinearizedPolynomial:
    """Drop the least-exponent term; needs at least two terms."""
    if s.k < 2:
        raise WouldBeZero("stripping the only term leaves the zero polynomial")
    return LinearizedPolynomial(s.terms[1:])


def t_transform(ctx: FieldCtx, s: LinearizedPolynomial) -> LinearizedPolynomial:
    """a_1 x plus the remaining terms with exponents lowered by r_1."""
    r1, a1 = s.terms[0]
    terms = ((0, a1),) + tuple((r - r1, a) for r, a in s.terms[1:])
    return LinearizedPolynomial(terms)


def rho_transform(ctx: FieldCtx, s: LinearizedPolynomial, t: int,
                  rho: FFElement) -> LinearizedPolynomial:
    """Coefficients a_i (rho^(q^(r_i - t)) - rho) on exponents r_i - t.

    Terms whose new coefficient vanishes are dropped; a fully vanished result
    is reported as ZeroPolynomial (the caller decides what that means).
    """
    if ctx.in_base_subfield(rho):
        raise RhoInBaseField("rho must lie outside F_q (and be nonzero)")
    if t < 0:
        raise ValueError("shift must be nonnegative")
    if t > s.min_exponent:
        raise IndexExceedsMinExponent(
            f"shift {t} exceeds least exponent {s.min_exponent}")
    terms = []
    for r, a in s.terms:
        coeff = ctx.mul(a, ctx.sub(ctx.frobenius(rho, r - t), rho))
        if not coeff.is_zero:
            terms.append((r - t, coeff))
    if not terms:
        raise ZeroPolynomial("every transformed coefficient vanished")
    return LinearizedPolynomial(tuple(terms))


# ---------------------------------------------------------------------------
# Shared text format: comma-separated `r:coeff` terms, where coeff is either
# `g^k` (power of the canonical generator) or a base-p vector `[c0,c1,...]`.

_TERM_RE = re.compile(r"^(\d+):(.+)$")
_POWER_RE = re.compile(r"^g\^(-?\d+)$")
_VECTOR_RE = re.compile(r"^\[(-?\d+(?:,-?\d+)*)\]$")


def parse_terms(text: str) -> list[tuple[int, int | list[int]]]:
    """Parse the text format into (exponent, dlog-or-coefficient-vector) pairs."""
    if not text.strip():
        raise ParseError("empty polynomial")
    # Split on commas, but not inside [...] coefficient vectors.
    pieces: list[str] = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "," and depth == 0:
            pieces.append(cur)
            cur = ""
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        cur += ch
    pieces.append(cur)

    result: list[tuple[int, int | list[int]]] = []
    for piece in pieces:
        piece = piece.strip()
        m = _TERM_RE.match(piece)
        if not m:
            raise ParseError(f"bad term {piece!r}; expected r:g^k or r:[c0,c1,...]")
        r = int(m.group(1))
        coeff = m.group(2).strip()
        pm = _POWER_RE.match(coeff)
        if pm:
            result.append((r, int(pm.group(1))))
            continue
        vm = _VECTOR_RE.match(coeff)
        if vm:
            result.append((r, [int(c) for c in vm.group(1).split(",")]))
            continue
        raise ParseError(f"bad coefficient {coeff!r} in term {piece!r}")
    return result


def parse_poly(ctx: FieldCtx, text: str) -> LinearizedPolynomial:
    raw = []
    for r, coeff in parse_terms(text):
        if isinstance(coeff, int):
            elem = ctx.element_from_dlog(coeff % ctx.order)
        else:
            elem = ctx.element_from_coeffs(coeff)
            if elem.is_zero:
                raise ParseError(f"zero coefficient in term {r}:{coeff}")
        raw.append((r, elem))
    return normalize(ctx, raw)


def parse_poly_dlogs(n: int, order: int, text: str) -> tuple[tuple[int, int], ...]:
    """Parse without a field context (generator powers only).

    Used for fields too large to materialize: exponents are reduced mod n and
    must be distinct (merging coefficients would need field addition).
    """
    terms: dict[int, int] = {}
    for r, coeff in parse_terms(text):
        if not isinstance(coeff, int):
            raise ParseError(
                "coefficient vectors need a materialized field; use g^k powers")
        r %= n
        if r in terms:
            raise ParseError(
                f"duplicate exponent {r} cannot be merged without field tables")
        terms[r] = coeff % order
    return tuple(sorted(terms.items()))
