"""Scan-free scatteredness criteria with machine-checked hypothesis lists.

Each predicate mirrors one proved statement: it verifies every hypothesis the
statement carries (order divisibility, coprimality, parity, ...) and only then
reports a verdict.  Inapplicability is a first-class outcome, not an error, so
callers can never mistake "the statement is silent here" for an answer.

All verdicts reduce to integer arithmetic on discrete logs, so every criterion
takes the field's parameters (a :class:`FieldParams`, which every built field
is) and the polynomial's (exponent, coefficient dlog) terms, and works for fields
far beyond the exhaustive-scan cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadIndex, HypothesisViolated, NotABinomial, WouldBeZero
from .field import FieldParams, check_index, dlog_order
from .linpoly import LinearizedPolynomial


@dataclass(frozen=True)
class Hypothesis:
    name: str
    satisfied: bool
    detail: str = ""


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one criterion.

    ``verdict`` is present exactly when ``applicable`` (all hypotheses hold).
    ``index_verdicts`` carries per-index scattered/not-scattered conclusions
    for statements that speak about several indices at once.
    """

    source: str
    applicable: bool
    verdict: bool | None
    hypotheses: tuple[Hypothesis, ...] = ()
    index_verdicts: tuple[tuple[int, bool], ...] = ()
    notes: tuple[str, ...] = ()

    def verdict_for_index(self, t: int) -> bool | None:
        for idx, v in self.index_verdicts:
            if idx == t:
                return v
        return None


def _divides(d: int, n: int) -> bool:
    """d | n, with everything dividing 0 (n = q^0 - 1 shows up as 0)."""
    return n % d == 0


# ---------------------------------------------------------------------------
# Monomials x^(q^r)


def pseudoregulus_criterion(n: int, r: int, t: int) -> CriterionVerdict:
    """x^(q^r) is scattered of index t != r over F_{q^n} iff gcd(|t-r|, n) = 1."""
    if not (0 <= r < n and 0 <= t < n):
        raise BadIndex(f"need 0 <= r,t < n, got r={r}, t={t}, n={n}")
    hyp = Hypothesis("index-differs-from-exponent", t != r,
                     f"t={t}, r={r}" if t != r else f"t = r = {t}")
    if t == r:
        return CriterionVerdict("pseudoregulus", False, None, (hyp,))
    verdict = math.gcd(abs(t - r), n) == 1
    return CriterionVerdict("pseudoregulus", True, verdict, (hyp,),
                            index_verdicts=((t, verdict),))


# ---------------------------------------------------------------------------
# Binomials a_1 x^(q^r1) + a_2 x^(q^r2)


def _binomial_terms(terms):
    if len(terms) != 2:
        raise NotABinomial(f"expected 2 terms, got {len(terms)}")
    return terms


def binomial_criterion(params: FieldParams, terms) -> CriterionVerdict:
    """A binomial with |a_2| dividing q^r1 - 1 is scattered of index r1 and of
    index r2 iff gcd(r2 - r1, n) = 1."""
    (r1, _), (r2, a2_dlog) = _binomial_terms(terms)
    q, n, order = params.q, params.n, params.order
    if not 0 <= r1 < r2 < n:
        raise BadIndex(f"need 0 <= r1 < r2 < n, got {r1}, {r2}, {n}")
    a2_order = dlog_order(order, a2_dlog)
    hyp = Hypothesis("low-coefficient-order", _divides(a2_order, q**r1 - 1),
                     f"|a2|={params.shown(a2_order)}, "
                     f"q^r1-1={params.shown(q**r1 - 1, params.m * r1)}")
    if not hyp.satisfied:
        return CriterionVerdict("binomial", False, None, (hyp,))
    verdict = math.gcd(r2 - r1, n) == 1
    return CriterionVerdict("binomial", True, verdict, (hyp,),
                            index_verdicts=((r1, verdict), (r2, verdict)))


def affine_binomial_criterion(params: FieldParams, terms) -> CriterionVerdict:
    """a_1 x + a_2 x^(q^r) is scattered of index r iff gcd(r, n) = 1.

    No order hypotheses at all: a1, a2 may be any nonzero elements.
    """
    (r0, _), (r, _) = _binomial_terms(terms)
    n = params.n
    if r0 != 0 or not 0 < r < n:
        raise BadIndex(f"need exponents 0 and 0 < r < n, got {r0}, {r}, n={n}")
    verdict = math.gcd(r, n) == 1
    return CriterionVerdict("affine-binomial", True, verdict,
                            index_verdicts=((r, verdict),))


# ---------------------------------------------------------------------------
# Index-shift reductions


def index_shift_reduction(params: FieldParams, s: LinearizedPolynomial, t: int
                          ) -> tuple[LinearizedPolynomial, int, CriterionVerdict]:
    """Reduce (S, t) to an equivalent instance at a smaller index.

    Contract: whenever the reported hypotheses hold, S is scattered of index t
    iff the reduced polynomial is scattered of the reduced index.  The verdict
    certifies that equivalence; it never decides scatteredness itself.

    The paper's three regimes (t = r1, t < r1, t > r1) are one substitution
    X = x^(q^u), u = min(t, r1): every exponent drops by u, the index becomes
    t - u, and at t = r1 the least term is dropped first.  The hypotheses are
    |a_i| | q^u - 1 over the terms kept.  They are the paper's, sufficient but
    not necessary: S(x)/x^(q^t) = S'(X)/X^(q^(t-u)) for any coefficients,
    x -> x^(q^u) permutes the F_q-lines, and the term dropped at r1 adds a
    constant to every ratio.

    The permutation criterion, :func:`scatterpoly.scatter.scattered_via_pp`,
    rides this shift: it answers where the reduced index is 0 (t <= r1) and
    the hypotheses hold.
    """
    check_index(t, params.n)
    r1 = s.min_exponent
    u = min(t, r1)
    kept = s.terms
    if t == r1:
        if s.k < 2:
            raise WouldBeZero("single-term polynomial cannot be reduced at t = r1")
        kept = s.terms[1:]
        regime = "strip-and-shift (t = r1)"
    else:
        regime = "shift (t < r1)" if t < r1 else "affine tail (t > r1)"
    reduced = LinearizedPolynomial(tuple((r - u, a) for r, a in kept))

    bound = params.q**u - 1
    shown_bound = params.shown(bound, params.m * u)
    orders = [dlog_order(params.order, a.dlog) for _, a in kept]
    hyps = tuple(
        Hypothesis(f"order-of-term-{r}", _divides(order, bound),
                   f"|a|={params.shown(order)}, bound={shown_bound}")
        for (r, _), order in zip(kept, orders))
    ok = all(h.satisfied for h in hyps)
    verdict = CriterionVerdict("index-shift-reduction", ok, True if ok else None,
                               hyps, notes=(regime,))
    return reduced, t - u, verdict


# ---------------------------------------------------------------------------
# LP-shape membership


def lp_membership(params: FieldParams, terms) -> CriterionVerdict:
    """Classify a binomial against the LP (Lunardon-Polverino) shape.

    Membership means x^(q^r) + delta x^(q^(n-r)) after scaling the low
    coefficient to 1, with gcd(n, r) = 1 and the relative norm of delta not 1.
    Also reports the sufficient conditions (n > 1 odd, gcd(q-1, n) = 1,
    delta != 1, |delta| | q-1) that force the norm condition, and whether the
    implication held.
    """
    (r1, a1_dlog), (r2, a2_dlog) = _binomial_terms(terms)
    q, n, order = params.q, params.n, params.order
    shape_ok = r1 >= 1 and r1 + r2 == n
    shape = Hypothesis("exponent-shape", shape_ok,
                       f"need r2 = n - r1, got r1={r1}, r2={r2}, n={n}")
    if not shape_ok:
        return CriterionVerdict("lp-membership", False, None, (shape,))

    delta_log = (a2_dlog - a1_dlog) % order
    delta_order = dlog_order(order, delta_log)
    shown_order, shown_dlog = params.shown(delta_order), params.shown(delta_log)
    if isinstance(shown_dlog, str):
        shown_dlog = f"({shown_dlog})"
    subfield_index = params.subfield_index
    norm_is_one = delta_log % (q - 1) == 0
    coprime = Hypothesis("coprime-exponent", math.gcd(n, r1) == 1,
                         f"gcd({n}, {r1})")
    norm = Hypothesis("norm-not-one", not norm_is_one,
                      f"N(delta) {'=' if norm_is_one else '!='} 1")

    sufficient = (
        Hypothesis("odd-degree", n > 1 and n % 2 == 1, f"n={n}"),
        Hypothesis("degree-coprime-to-q-1", math.gcd(q - 1, n) == 1,
                   f"gcd({q - 1}, {n})"),
        Hypothesis("delta-not-one", delta_order > 1, f"|delta|={shown_order}"),
        Hypothesis("delta-order-divides-q-1", _divides(delta_order, q - 1),
                   f"|delta|={shown_order}, q-1={q - 1}"),
    )
    implication_holds = not all(h.satisfied for h in sufficient) or not norm_is_one
    implication = Hypothesis("sufficient-conditions-imply-norm", implication_holds,
                             "norm condition must follow when all four hold")

    verdict = coprime.satisfied and norm.satisfied
    return CriterionVerdict(
        "lp-membership", True, verdict,
        (shape, coprime, norm) + sufficient + (implication,),
        notes=(f"delta = g^{shown_dlog} (order {shown_order})",))


# ---------------------------------------------------------------------------
# The x^q + delta x^(q^5) family over F_{q^8}


def _check_delta_order(order: int, delta_order: int) -> None:
    """Refuse a delta order that no element of a group of this order has."""
    if delta_order < 1 or order % delta_order != 0:
        raise HypothesisViolated(
            f"no element of order {delta_order} in a group of order {order}")


def csajbok_family_check(q: int, delta_order: int) -> CriterionVerdict:
    """x^q + delta x^(q^5) over F_{q^8} for delta with delta^2 = -1.

    For q = 1 mod 4 the polynomial is not scattered of index 1 nor 5 (the
    order of delta divides q - 1, and gcd(5 - 1, 8) > 1).  For q = 5 exactly,
    any delta outside {1, -1} with |delta| dividing 4 satisfies delta^2 = -1
    and the polynomial is scattered of index 0; for other q the index-0 status
    is left undecided.
    """
    n = 8
    if q < 3 or q % 2 == 0:
        raise HypothesisViolated("the statement needs odd q")
    _check_delta_order(q**n - 1, delta_order)
    # delta^2 = -1 is exactly "order 4": -1 is the unique involution.
    squares_to_minus_one = delta_order == 4

    negative_hyps = (
        Hypothesis("q-congruent-1-mod-4", q % 4 == 1, f"q={q}"),
        Hypothesis("delta-squares-to-minus-one", squares_to_minus_one,
                   f"|delta|={delta_order}"),
    )
    index_zero_hyps = (
        Hypothesis("q-is-5", q == 5, f"q={q}"),
        Hypothesis("delta-not-plus-minus-one", delta_order not in (1, 2),
                   f"|delta|={delta_order}"),
        Hypothesis("delta-order-divides-4", _divides(delta_order, 4),
                   f"|delta|={delta_order}"),
    )
    negative_ok = all(h.satisfied for h in negative_hyps)
    index_zero_ok = all(h.satisfied for h in index_zero_hyps)

    index_verdicts: list[tuple[int, bool]] = []
    notes: list[str] = []
    if index_zero_ok:
        index_verdicts.append((0, True))
        notes.append("scattered of index 0 (q = 5, delta^2 = -1)")
    if negative_ok:
        index_verdicts.extend([(1, False), (5, False)])
        notes.append("not scattered of indices 1 and 5")
    applicable = negative_ok or index_zero_ok
    return CriterionVerdict(
        "csajbok-family", applicable, True if applicable else None,
        negative_hyps + index_zero_hyps, tuple(index_verdicts), tuple(notes))


# ---------------------------------------------------------------------------
# The exceptional family x^q + delta x^(q^(2r+1)) of index r+1


def exceptional_family_certificate(q: int, n: int, r: int,
                                   delta_order: int) -> CriterionVerdict:
    """Hypothesis certificate for x^q + delta x^(q^(2r+1)) over F_{q^n}.

    When delta != 1 with |delta| | q-1, n > 3 odd, gcd(n, q-1) = 1 and
    gcd(r, n) = 1, the polynomial is exceptional scattered of index r+1 and
    scattered of indices {1, r+1, 2r+1} over F_{q^n} itself.
    """
    _check_delta_order(q**n - 1, delta_order)
    hyps = (
        Hypothesis("delta-not-one", delta_order > 1, f"|delta|={delta_order}"),
        Hypothesis("delta-order-divides-q-1", _divides(delta_order, q - 1),
                   f"|delta|={delta_order}, q-1={q - 1}"),
        Hypothesis("degree-above-3", n > 3, f"n={n}"),
        Hypothesis("degree-odd", n % 2 == 1, f"n={n}"),
        Hypothesis("degree-coprime-to-q-1", math.gcd(n, q - 1) == 1,
                   f"gcd({n}, {q - 1})"),
        Hypothesis("shift-coprime-to-degree", 0 < r < n and math.gcd(r, n) == 1,
                   f"gcd({r}, {n})"),
    )
    granted = all(h.satisfied for h in hyps)
    if not granted:
        return CriterionVerdict("exceptional-family", True, False, hyps)
    indices = sorted({1 % n, (r + 1) % n, (2 * r + 1) % n})
    return CriterionVerdict(
        "exceptional-family", True, True, hyps,
        index_verdicts=tuple((t, True) for t in indices),
        notes=(f"exceptional scattered of index {(r + 1) % n}",
               f"scattered over the base field at indices {indices}"))


# ---------------------------------------------------------------------------
# Subfield membership by exponent


def subfield_exponent_criterion(params: FieldParams, a: int) -> bool:
    """g^a lies in F_q iff (q^n - 1)/(q - 1) divides a."""
    if a < 0:
        raise ValueError("exponent must be nonnegative")
    return a % params.subfield_index == 0


# ---------------------------------------------------------------------------
# Dispatcher used by the CLI


def applicable_criteria(params: FieldParams, terms, t: int) -> list[CriterionVerdict]:
    """All criteria with something to say about (S, t), given dlog terms."""
    out: list[CriterionVerdict] = []
    if len(terms) == 1:
        out.append(pseudoregulus_criterion(params.n, terms[0][0], t))
    elif len(terms) == 2:
        out.append(binomial_criterion(params, terms))
        if terms[0][0] == 0 and t == terms[1][0]:
            out.append(affine_binomial_criterion(params, terms))
        out.append(lp_membership(params, terms))
    return out
