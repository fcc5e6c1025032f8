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
    NeedsFieldAddition,
    ParseError,
    RhoInBaseField,
    WouldBeZero,
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


def _wrap(v: np.ndarray, order: int) -> np.ndarray:
    """Reduce int64 ``v`` in 0 .. 2*order-1 mod ``order``, in place.

    min(v, v - order) on the uint64 view: v - order wraps above v exactly
    when v < order.  Unlike a masked subtraction it has no branch to
    mispredict on the random-looking values of a scan.
    """
    u = v.view(np.uint64)
    np.minimum(u, u - order, out=u)
    return v


def _log_sum(ctx: FieldCtx, logs) -> np.ndarray:
    """Discrete logs of the elementwise sums of g^v over the arrays v in ``logs``.

    -1 marks a zero sum.  The terms themselves must be nonzero, with logs in
    0 .. order-1, and each array is the sum's own: it is overwritten.
    Addition stays in the log domain: g^u + g^v = g^(u + zech[v - u]), one
    gather per point and term; a sum of two or more arrays reads the Zech
    table, and so builds it if it is missing.

    No ``%`` runs, which costs several times more on operands of mixed sign.
    ``v - u`` lies in -order+1 .. order-1, and numpy reads a negative index
    from the end of the table, which is the wrap mod the order.  ``u +
    zech[.]`` stays below 2 * order, so :func:`_wrap` reduces it.  Every step
    writes into the two term arrays, so a sum of any length allocates only
    the int32 gather, two masks and the wrap's temporary.
    """
    order = ctx.order
    acc = None
    for v in logs:
        if acc is None:
            acc = v
            continue
        zero = acc < 0
        any_zero = zero.any()
        if any_zero:
            v_at_zero = v[zero]  # a zero sum so far: its total is v
        diff = np.subtract(v, acc, out=v)
        if any_zero:
            diff[zero] = 0
        z = ctx._zech[diff]
        del v, diff  # freed before the wrap allocates
        acc += z
        _wrap(acc, order)
        acc[z < 0] = -1
        if any_zero:
            acc[zero] = v_at_zero
        del z
    return acc


# the length of the progressions TermLogs keeps per term: a run of points is
# built as blocks of this many, each a shifted copy of the same multiples
_BLOCK = 1 << 12


class TermLogs:
    """The logs of S's terms on runs of consecutive points, with no ``%`` per point.

    A term's log at g^a, c_i + a * d_i mod order (see :func:`evaluate_many`),
    is an arithmetic progression in a.  Each term keeps the multiples j * d_i mod
    order for j < ``_BLOCK`` and the block steps b * _BLOCK * d_i mod order
    for the blocks of a run of ``run`` points, the longest run a scan asks
    for.  A run a = start .. start+count-1 then costs, per term, the Python
    int (c_i + start * d_i) mod order added to the block steps, the block
    offsets added to the multiples in one broadcast, and one :func:`_wrap`
    of each sum.  A term keeps 32 KiB whatever the run.

    Overflow bounds, all in int64 and with order < ``TABLE_LIMIT = 2^31``:
    j * d_i < 2^12 * 2^31 and b * (_BLOCK * d_i mod order) < run * 2^31 /
    2^12; a block offset or a point's log before :func:`_wrap` is a sum of
    two residues, below 2 * order <= 2^32.
    """

    def __init__(self, ctx: FieldCtx, s: LinearizedPolynomial,
                 index: int | None, run: int):
        q, order = ctx.q, ctx.order
        shift = 0 if index is None else pow(q, index, order)
        self.order = order
        self.steps = [(coeff.dlog, (pow(q, r, order) - shift) % order) for r, coeff in s.terms]
        j = np.arange(_BLOCK, dtype=np.int64)
        b = np.arange(-(-run // _BLOCK), dtype=np.int64)
        self.multiples = [j * d % order for _, d in self.steps]
        self.block_steps = [b * (_BLOCK * d % order) % order for _, d in self.steps]

    def at(self, dlogs: np.ndarray):
        """Each term's logs at ``dlogs``, in 0 .. order-1, one fresh array per term.

        ``dlogs`` must be consecutive, dlogs[0] .. dlogs[0] + len - 1, and
        at most ``run`` long.  No array stays bound here once yielded, so
        the consumer alone decides how many are alive.
        """
        order = self.order
        start, count = int(dlogs[0]), dlogs.size
        blocks = -(-count // _BLOCK)
        for (c, d), multiples, block_steps in zip(self.steps, self.multiples,
                                                  self.block_steps):
            offsets = _wrap(block_steps[:blocks, None] + (c + start * d) % order, order)
            yield _wrap((offsets + multiples).reshape(-1)[:count], order)


def evaluate_many(ctx: FieldCtx, s: LinearizedPolynomial, dlogs: np.ndarray, *,
                  index: int | None = None, terms: TermLogs | None = None) -> np.ndarray:
    """Discrete logs of S(g^a) for a whole vector of discrete logs a; -1 for 0.

    The bulk path behind the exhaustive scans: term i at g^a is g^(c_i + a *
    d_i) with c_i = dlog(a_i) and d_i = q^(r_i) mod order, and the terms are
    summed with :func:`_log_sum`.  With ``index=t`` every term is divided by
    (g^a)^(q^t), so d_i = q^(r_i) - q^t mod order and the sum is the log of
    the ratio S(g^a)/(g^a)^(q^t).  Each term takes one ``%`` pass over
    ``dlogs``, unless a scan passes ``terms``, the :class:`TermLogs` of (ctx,
    s, index) that it built once, with consecutive ``dlogs``.  A monomial
    adds nothing, so it never reads the Zech table.  On the ``%`` path a *
    d_i + c_i < 2^31 * 2^31 + 2^31 fits int64.
    """
    if terms is not None:
        return _log_sum(ctx, terms.at(dlogs))
    q, order = ctx.q, ctx.order
    shift = 0 if index is None else pow(q, index, order)
    return _log_sum(ctx, ((coeff.dlog + dlogs * ((pow(q, r, order) - shift) % order)) % order
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
