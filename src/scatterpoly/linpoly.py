"""Linearized polynomials S(x) = sum a_i x^(q^(r_i)): parsing, evaluation, rho transform.

Terms are kept normalized: exponent indices reduced mod n, strictly increasing,
no zero coefficients, never empty.  :func:`rho_transform` keeps every
exponent: the index shift the permutation criterion applies first is
:func:`scatterpoly.criteria.index_shift_reduction`'s alone.

The bulk kernel, :func:`evaluate_many`, works on discrete logs: each term's
logs along the points are residues mod the group order, uint32 because the
order is below 2^31, and :func:`_log_sum` adds the terms through the Zech
table in uint32, where a sum of two residues still fits.  Its result is the
int32 view, -1 for zero.  A whole scan reads the terms' logs off
:class:`TermLogs` progressions, whole blocks in one broadcast, with no ``%``
per point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivisionByZero,
    NeedsFieldAddition,
    ParseError,
    RhoInBaseField,
    ZeroPolynomial,
)
from .field import FFElement, FieldCtx, FieldParams


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


# the uint32 that stands for a zero sum: -1 in the int32 view
_ZERO = np.uint32(0xFFFFFFFF)


def _wrap(v: np.ndarray, order: int) -> np.ndarray:
    """Reduce uint32 ``v`` in 0 .. 2*order-1 mod ``order``, in place.

    min(v, v - order): v - order wraps above v exactly when v < order.
    Unlike a masked subtraction it has no branch to mispredict on the
    random-looking values of a scan.
    """
    np.minimum(v, v - order, out=v)
    return v


def _log_sum(ctx: FieldCtx, logs) -> np.ndarray:
    """int32 discrete logs of the elementwise sums of g^v over the arrays v in ``logs``.

    -1 marks a zero sum.  The terms themselves must be nonzero, with logs in
    0 .. order-1 as uint32, and each array is the sum's own: it is
    overwritten, and the result is the first array's int32 view.  Addition
    stays in the log domain: g^u + g^v = g^(u + zech[v - u]), one gather per
    point and term; a sum of two or more arrays reads the Zech table, and so
    builds it if it is missing.

    No ``%`` runs, and every step fits uint32, because every value is below
    the order, which is below ``TABLE_LIMIT = 2^31``.  ``v - u`` wraps mod
    2^32, and min(d, d + order) makes it (v - u) mod order, an index in
    range, which ``take`` reads with no bounds check (``mode="clip"``),
    faster than fancy indexing on a large table.  ``u + zech[.]`` stays
    below 2 * order < 2^32, so :func:`_wrap` reduces it.  A zero sum is
    ``_ZERO``, all ones, which is -1 in the int32 view; where the sums are
    zero is read off the gather (zech = -1), and a term is never zero, so
    no pass compares a sum with ``_ZERO``.  Every step writes into the two
    term arrays, so a sum of any length allocates only the int32 gather,
    the masks and two temporaries of the wraps.
    """
    order = ctx.order
    acc = zero = None  # zero: where the sum is zero, once it has two terms
    for v in logs:
        if acc is None:
            acc = v
            continue
        any_zero = zero is not None and np.count_nonzero(zero)
        if any_zero:
            v_at_zero = v[zero]  # a zero sum so far: its total is v
        diff = np.subtract(v, acc, out=v)
        np.minimum(diff, diff + order, out=diff)
        if any_zero:
            diff[zero] = 0
        z = ctx._zech.take(diff, mode="clip")
        del v, diff  # freed before the wrap allocates
        acc += z.view(np.uint32)
        _wrap(acc, order)
        summed_zero = z < 0
        del z
        acc[summed_zero] = _ZERO
        if any_zero:
            acc[zero] = v_at_zero
            summed_zero[zero] = False
        zero = summed_zero
    return acc.view(np.int32)


# the length of the progressions TermLogs keeps per term: a run of points is
# built as blocks of this many, each a shifted copy of the same multiples
_BLOCK = 1 << 12


class TermLogs:
    """The logs of S's terms on runs of consecutive points, with no ``%`` per point.

    A term's log at g^a, c_i + a * d_i mod order (see :func:`evaluate_many`),
    is an arithmetic progression in a.  Each term keeps the multiples j * d_i
    mod order for j < ``_BLOCK``, as uint32, 16 KiB per term.  A run a =
    start .. start+count-1 is built as ceil(count / _BLOCK) whole blocks:
    per term, the block offsets (b * (_BLOCK * d_i mod order) + (c_i + start
    * d_i) mod order) mod order, formed per call, are added to the multiples
    in one broadcast, the last block is cut at ``count``, and one
    :func:`_wrap` reduces each sum.

    Integer bounds, with order < ``TABLE_LIMIT = 2^31``: the multiples are
    formed once in int64, where j * d_i < 2^12 * 2^31, and the block offsets
    per call in int64, where b * (_BLOCK * d_i mod order) < count / 2^12 *
    2^31 <= 2^50 plus a residue; everything per point runs in uint32, where
    a point's log before :func:`_wrap` is a sum of two residues, below 2 *
    order < 2^32.
    """

    def __init__(self, ctx: FieldCtx, s: LinearizedPolynomial, index: int | None):
        q, order = ctx.q, ctx.order
        shift = 0 if index is None else pow(q, index, order)
        self.order = order
        self.steps = [(coeff.dlog, (pow(q, r, order) - shift) % order) for r, coeff in s.terms]
        j = np.arange(_BLOCK, dtype=np.int64)
        self.multiples = [(j * d % order).astype(np.uint32) for _, d in self.steps]

    def at(self, dlogs: np.ndarray):
        """Each term's uint32 logs at ``dlogs``, in 0 .. order-1, one fresh array per term.

        ``dlogs`` must be consecutive, dlogs[0] .. dlogs[0] + len - 1; only
        its first point and its length are read.  No array stays bound here
        once yielded, so the consumer alone decides how many are alive.
        """
        order = self.order
        start, count = int(dlogs[0]), dlogs.size
        b = np.arange(-(-count // _BLOCK), dtype=np.int64)
        for (c, d), multiples in zip(self.steps, self.multiples):
            offsets = ((b * (_BLOCK * d % order) + (c + start * d) % order)
                       % order).astype(np.uint32)
            yield _wrap((offsets[:, None] + multiples).ravel()[:count], order)


def evaluate_many(ctx: FieldCtx, s: LinearizedPolynomial, dlogs: np.ndarray, *,
                  index: int | None = None, terms: TermLogs | None = None) -> np.ndarray:
    """int32 discrete logs of S(g^a) for a whole vector of discrete logs a; -1 for 0.

    The bulk path behind the exhaustive scans: term i at g^a is g^(c_i + a *
    d_i) with c_i = dlog(a_i) and d_i = q^(r_i) mod order, and the terms are
    summed with :func:`_log_sum`.  With ``index=t`` every term is divided by
    (g^a)^(q^t), so d_i = q^(r_i) - q^t mod order and the sum is the log of
    the ratio S(g^a)/(g^a)^(q^t).  Each term takes one ``%`` pass over
    ``dlogs``, in int64, where a * d_i + c_i < 2^31 * 2^31 + 2^31 fits, and
    its residues go to uint32; a scan passes ``terms`` instead, the
    :class:`TermLogs` of (ctx, s, index) that it built once, with
    consecutive ``dlogs``, and ``index`` is then not read.  A monomial adds
    nothing, so it never reads the Zech table.
    """
    if terms is not None:
        return _log_sum(ctx, terms.at(dlogs))
    q, order = ctx.q, ctx.order
    shift = 0 if index is None else pow(q, index, order)
    return _log_sum(ctx, (((coeff.dlog + dlogs * ((pow(q, r, order) - shift) % order))
                           % order).astype(np.uint32) for r, coeff in s.terms))


def ratio_map(ctx: FieldCtx, s: LinearizedPolynomial, t: int, x: FFElement) -> FFElement:
    """S(x) / x^(q^t); constant on F_q^*-multiples of x."""
    if x.is_zero:
        raise DivisionByZero("ratio map is undefined at zero")
    return ctx.mul(evaluate(ctx, s, x), ctx.inv(ctx.frobenius(x, t)))


def rho_transform(ctx: FieldCtx, s: LinearizedPolynomial,
                  rho: FFElement) -> LinearizedPolynomial:
    """Coefficients a_i (rho^(q^(r_i)) - rho) on the same exponents r_i.

    Terms whose new coefficient vanishes (one at exponent 0 always does) are
    dropped; a fully vanished result is reported as ZeroPolynomial (the
    caller decides what that means).
    """
    if ctx.in_base_subfield(rho):
        raise RhoInBaseField("rho must lie outside F_q (and be nonzero)")
    terms = []
    for r, a in s.terms:
        coeff = ctx.mul(a, ctx.sub(ctx.frobenius(rho, r), rho))
        if not coeff.is_zero:
            terms.append((r, coeff))
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


def parse_poly(field: FieldParams, text: str) -> LinearizedPolynomial:
    """Parse the text format over either field layer.

    ``g^k`` terms on distinct exponents (mod n) need only the sizes, so a
    :class:`FieldParams` parses them.  A coefficient vector, or two exponents
    equal mod n, adds field elements: a :class:`FieldCtx` does that through
    its Zech table, and a bare :class:`FieldParams` raises
    NeedsFieldAddition at the first such term.
    """
    adds = isinstance(field, FieldCtx)
    raw = []
    for r, coeff in parse_terms(text):
        if isinstance(coeff, int):
            elem = FFElement(coeff % field.order)
        elif adds:
            elem = field.element_from_coeffs(coeff)
            if elem.is_zero:
                raise ParseError(f"zero coefficient in term {r}:{coeff}")
        else:
            raise NeedsFieldAddition(
                "coefficient vectors need a materialized field; use g^k powers")
        if not adds and any((r - s) % field.n == 0 for s, _ in raw):
            raise NeedsFieldAddition(
                f"duplicate exponent {r % field.n} cannot be merged without field tables")
        raw.append((r, elem))
    return normalize(field, raw)
