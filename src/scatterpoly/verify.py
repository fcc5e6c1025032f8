"""Named verification suites: every fast criterion is replayed against the
exhaustive oracle on desk-scale fields, and the coset-multiplier identity is
checked on every scattered instance the sweeps produce.

The CLI (``scatterpoly verify``) and the acceptance tests both run these; a
suite that returns ``passed=False`` means a criterion and the oracle disagreed
somewhere, which would falsify the corresponding statement.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from . import criteria
from .cyclotomic import coefficient_table, decompose, factorize_poly, lemma_relation_check
from .errors import HypothesisViolated, WouldBeZero
from .field import FieldCtx, FieldParams, _fixed_powmod, build_field
from .linpoly import LinearizedPolynomial, normalize, parse_poly
from .scatter import deciding_pairs, is_exceptional_desk, is_scattered_bruteforce, scattered_via_pp

_MAX_RECORDED_FAILURES = 25
_COSET_FORM_SEED = 20240809
_AFFINE_DLOG_SAMPLE = (0, 1, 2, 5, 60, 121, 150, 241)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: list[str]
    seconds: float
    metrics: dict[str, int] = dc_field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"; first failures: {self.failures[:3]}" if self.failures else ""
        return f"{status} {self.name}: {self.checks} checks in {self.seconds:.2f}s{extra}"


class _Recorder:
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures: list[str] = []
        self.metrics: dict[str, int] = {}
        self._t0 = time.perf_counter()

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok and len(self.failures) < _MAX_RECORDED_FAILURES:
            self.failures.append(message)
        elif not ok:
            self.failures[-1] = "... more failures suppressed"

    def bump(self, key: str, amount: int = 1) -> None:
        self.metrics[key] = self.metrics.get(key, 0) + amount

    def result(self) -> SuiteResult:
        return SuiteResult(self.name, not self.failures, self.checks,
                           self.failures, time.perf_counter() - self._t0,
                           self.metrics)


@lru_cache(maxsize=None)
def _field(p: int, m: int, n: int) -> FieldCtx:
    return build_field(p, m, n)


def coset_multipliers_consistent(ctx: FieldCtx, s: LinearizedPolynomial) -> bool:
    """For a scattered instance, every deciding pair is F_q-proportional, so the
    coset multipliers A must agree along every F_q^*-translation of cosets."""
    r1, div, f_terms = factorize_poly(ctx, s)
    decomp = decompose(ctx, div)
    dlogs = coefficient_table(ctx, decomp, r1, f_terms).A
    cosets = np.arange(decomp.l, dtype=np.int64)
    e = ctx.subfield_index
    for i in range(1, ctx.q - 1):
        if not np.array_equal(dlogs[cosets], dlogs[(cosets + i * e) % decomp.l]):
            return False
    return True


def _record_ai_aj(rec: _Recorder, ctx: FieldCtx, s: LinearizedPolynomial) -> None:
    rec.bump("scattered_instances")
    rec.bump("coset_multiplier_checks")
    ok = coset_multipliers_consistent(ctx, s)
    if not ok:
        rec.bump("coset_multiplier_failures")
    rec.check(ok, f"coset multipliers differ on a deciding pair for {s}")


# ---------------------------------------------------------------------------


def subfield_exponent_suite() -> SuiteResult:
    """Subfield membership of g^a decided by exponent divisibility, exhaustively.

    The reference is the definition of F_q: x^q = x, checked on digits.
    """
    rec = _Recorder("subfield membership by exponent divisibility")
    for p, m, n in ((3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 3)):
        ctx = _field(p, m, n)
        for a in range(ctx.order):
            digits = list(ctx.coeffs(ctx.element_from_dlog(a)))
            expected = _fixed_powmod(digits, ctx.q, ctx.modulus, ctx.p) == digits
            got = criteria.subfield_exponent_criterion(ctx, a)
            rec.check(got == expected,
                      f"F_{p}^{n}: exponent {a}: criterion={got}, membership={expected}")
    return rec.result()


def _random_poly(ctx: FieldCtx, rng: random.Random) -> LinearizedPolynomial:
    k = rng.randint(1, 3)
    exponents = rng.sample(range(ctx.n), k)
    terms = [(r, ctx.element_from_dlog(rng.randrange(ctx.order))) for r in exponents]
    return normalize(ctx, terms)


def coset_form_suite() -> SuiteResult:
    """Coset-indexed form agrees with direct evaluation on the whole field."""
    rec = _Recorder("coset-form identity on random polynomials")
    rng = random.Random(_COSET_FORM_SEED)
    for p, m, n in ((3, 1, 4), (3, 1, 5)):
        ctx = _field(p, m, n)
        for _ in range(100):
            s = _random_poly(ctx, rng)
            rec.check(lemma_relation_check(ctx, s),
                      f"F_{p}^{n}: coset form disagrees for {s}")
    ctx = _field(5, 1, 5)
    example = parse_poly(ctx, "3:g^0,4:g^0")
    rec.check(lemma_relation_check(ctx, example),
              "F_5^5 worked example: coset form disagrees")
    return rec.result()


def pseudoregulus_suite() -> SuiteResult:
    """Monomial criterion vs oracle on F_3^4..F_3^6 plus the big-field index set."""
    rec = _Recorder("pseudoregulus criterion vs oracle")
    for n in (4, 5, 6):
        ctx = _field(3, 1, n)
        one = ctx.one()
        for r in range(n):
            s = normalize(ctx, [(r, one)])
            for t in range(n):
                report = is_scattered_bruteforce(ctx, s, t)
                if t == r:
                    verdict = criteria.pseudoregulus_criterion(n, r, t)
                    rec.check(not verdict.applicable,
                              f"n={n}, r=t={t}: criterion should be inapplicable")
                    rec.check(not report.scattered,
                              f"n={n}, r=t={t}: constant-ratio monomial cannot scatter")
                    continue
                expected = math.gcd(abs(t - r), n) == 1
                verdict = criteria.pseudoregulus_criterion(n, r, t)
                rec.check(verdict.applicable and verdict.verdict == expected,
                          f"n={n}, r={r}, t={t}: criterion != gcd test")
                rec.check(report.scattered == expected,
                          f"n={n}, r={r}, t={t}: oracle={report.scattered}, gcd test={expected}")
                if report.scattered:
                    _record_ai_aj(rec, ctx, s)

    # criterion-only reproduction of the q=25, n=15, r=8 index set
    expected_set = {0, 1, 4, 6, 7, 9, 10, 12}
    got = {t for t in range(15) if t != 8
           and criteria.pseudoregulus_criterion(15, 8, t).verdict}
    rec.check(got == expected_set,
              f"n=15, r=8 index set mismatch: {sorted(got)}")
    return rec.result()


def _order_filtered_dlogs(ctx: FieldCtx, bound: int) -> list[int]:
    """Discrete logs of all elements whose order divides `bound`."""
    d = math.gcd(bound, ctx.order)
    step = ctx.order // d
    return [step * i for i in range(d)]


def binomial_suite() -> SuiteResult:
    """Exhaustive binomial sweep on F_3^4, F_3^5 plus the F_5^5 worked example."""
    rec = _Recorder("binomial criterion vs oracle")
    for n in (4, 5):
        ctx = _field(3, 1, n)
        for r1, r2 in itertools.combinations(range(1, n), 2):
            a2_pool = _order_filtered_dlogs(ctx, ctx.q**r1 - 1)
            expected = math.gcd(r2 - r1, n) == 1
            for a1_dlog in range(ctx.order):
                a1 = ctx.element_from_dlog(a1_dlog)
                for a2_dlog in a2_pool:
                    s = normalize(ctx, [(r1, a1), (r2, ctx.element_from_dlog(a2_dlog))])
                    verdict = criteria.binomial_criterion(ctx, s.dlog_terms())
                    rec.check(verdict.applicable and verdict.verdict == expected,
                              f"n={n} {s}: criterion mismatch")
                    scattered_both = True
                    for t in (r1, r2):
                        report = is_scattered_bruteforce(ctx, s, t)
                        rec.check(report.scattered == expected,
                                  f"n={n} {s} @ {t}: oracle={report.scattered}, "
                                  f"criterion={expected}")
                        scattered_both &= report.scattered
                    if scattered_both:
                        _record_ai_aj(rec, ctx, s)

    ctx = _field(5, 1, 5)
    example = parse_poly(ctx, "3:g^0,4:g^0")
    for t in (3, 4):
        report = is_scattered_bruteforce(ctx, example, t)
        rec.check(report.scattered, f"F_5^5 worked example not scattered @ {t}")
    # literal deciding-pair walk on the worked example
    census = deciding_pairs(ctx, example, 3, limit=None)
    r1, div, f_terms = factorize_poly(ctx, example)
    decomp = decompose(ctx, div)
    table = coefficient_table(ctx, decomp, r1, f_terms)
    for y, z in census.pairs:
        rec.check(table.A[decomp.coset_of(y)] == table.A[decomp.coset_of(z)],
                  f"F_5^5 deciding pair ({y}, {z}) has unequal multipliers")
    rec.bump("deciding_pairs_enumerated", len(census.pairs))
    return rec.result()


def affine_binomial_suite() -> SuiteResult:
    """a_1 x + a_2 x^(q^r) sweep at q=3, n=5, plus criterion-only big fields."""
    rec = _Recorder("affine binomial criterion vs oracle")
    ctx = _field(3, 1, 5)
    for r in range(1, 5):
        expected = math.gcd(r, 5) == 1
        for a1_dlog in _AFFINE_DLOG_SAMPLE:
            for a2_dlog in _AFFINE_DLOG_SAMPLE:
                a1 = ctx.element_from_dlog(a1_dlog)
                a2 = ctx.element_from_dlog(a2_dlog)
                s = normalize(ctx, [(0, a1), (r, a2)])
                verdict = criteria.affine_binomial_criterion(ctx, s.dlog_terms())
                rec.check(verdict.verdict == expected,
                          f"r={r}: criterion != gcd test")
                report = is_scattered_bruteforce(ctx, s, r)
                rec.check(report.scattered == expected,
                          f"{s} @ {r}: oracle={report.scattered}, criterion={expected}")
                if report.scattered:
                    _record_ai_aj(rec, ctx, s)

    # q=27, n=110: criterion-only (far beyond any scan cap)
    params = FieldParams(3, 3, 110)
    good = criteria.affine_binomial_criterion(params, ((0, 0), (81, 0)))
    bad = criteria.affine_binomial_criterion(params, ((0, 0), (80, 0)))
    rec.check(good.verdict is True, "x + x^(27^81) over F_27^110 must pass @ 81")
    rec.check(bad.verdict is False, "x + x^(27^80) over F_27^110 must fail @ 80")
    return rec.result()


def _pm_one_dlogs(ctx: FieldCtx) -> tuple[int, ...]:
    return (0, ctx.order // 2) if ctx.order % 2 == 0 else (0,)


def _coeff_pool(ctx: FieldCtx, k: int):
    return itertools.product(_pm_one_dlogs(ctx), repeat=k)


def reduction_suite() -> SuiteResult:
    """Index-shift reductions preserve the oracle verdict in all three regimes."""
    rec = _Recorder("index-shift reduction soundness")
    for n in (4, 5):
        ctx = _field(3, 1, n)
        polys = []
        for k in (2, 3):
            for exps in itertools.combinations(range(1, n), k):
                for dlogs in _coeff_pool(ctx, k):
                    polys.append(normalize(ctx, [
                        (r, ctx.element_from_dlog(d)) for r, d in zip(exps, dlogs)]))
        for s in polys:
            for t in range(n):
                try:
                    reduced, reduced_t, verdict = criteria.index_shift_reduction(ctx, s, t)
                except WouldBeZero:
                    continue
                if not verdict.applicable:
                    rec.bump("hypothesis_skips")
                    continue
                lhs = is_scattered_bruteforce(ctx, s, t).scattered
                rhs = is_scattered_bruteforce(ctx, reduced, reduced_t).scattered
                regime = verdict.notes[0] if verdict.notes else "?"
                rec.bump(f"regime: {regime}")
                rec.check(lhs == rhs,
                          f"n={n} {s} @ {t} -> {reduced} @ {reduced_t}: {lhs} != {rhs}")
    return rec.result()


def pp_criterion_suite() -> SuiteResult:
    """Permutation-based decision agrees with the oracle below the least exponent."""
    rec = _Recorder("permutation criterion vs oracle")
    for p, m, n in ((3, 1, 4), (5, 1, 3)):
        ctx = _field(p, m, n)
        instances = []
        for r in range(2, n):
            for d in _pm_one_dlogs(ctx):
                instances.append(normalize(ctx, [(r, ctx.element_from_dlog(d))]))
        for exps in itertools.combinations(range(2, n), 2):
            for dlogs in _coeff_pool(ctx, 2):
                instances.append(normalize(ctx, [
                    (r, ctx.element_from_dlog(d)) for r, d in zip(exps, dlogs)]))
        for s in instances:
            for t in range(1, s.min_exponent):
                try:
                    via_pp = scattered_via_pp(ctx, s, t)
                except HypothesisViolated:
                    rec.bump("hypothesis_skips")
                    continue
                oracle = is_scattered_bruteforce(ctx, s, t).scattered
                rec.check(via_pp == oracle,
                          f"F_{p}^{n} {s} @ {t}: pp={via_pp}, oracle={oracle}")
    return rec.result()


def lp_suite() -> SuiteResult:
    """LP-shape membership and the sufficient conditions forcing the norm."""
    rec = _Recorder("LP membership and norm implication")
    ctx = _field(3, 1, 5)
    q, n = ctx.q, ctx.n
    for dlog in range(ctx.order):
        delta = ctx.element_from_dlog(dlog)
        d_order = ctx.element_order(delta)
        conditions = (n > 1 and n % 2 == 1 and math.gcd(q - 1, n) == 1
                      and d_order > 1 and (q - 1) % d_order == 0)
        if conditions:
            norm = ctx.relative_norm(delta)
            rec.check(norm != ctx.one(),
                      f"delta=g^{dlog}: sufficient conditions hold but norm is 1")

    member = normalize(ctx, [(2, ctx.one()), (3, ctx.minus_one())])
    verdict = criteria.lp_membership(ctx, member.dlog_terms())
    rec.check(verdict.applicable and verdict.verdict is True,
              "x^(q^2) - x^(q^3) over F_3^5 should be an LP member")
    rec.check(all(h.satisfied for h in verdict.hypotheses),
              "norm implication must hold for the member instance")

    norm_one_delta = ctx.element_from_dlog((ctx.q - 1) % ctx.order)  # phi^(q-1)
    non_member = normalize(ctx, [(2, ctx.one()), (3, norm_one_delta)])
    verdict = criteria.lp_membership(ctx, non_member.dlog_terms())
    rec.check(verdict.applicable and verdict.verdict is False,
              "norm-one delta must fail LP membership")

    wrong_shape = normalize(ctx, [(1, ctx.one()), (2, ctx.one())])
    verdict = criteria.lp_membership(ctx, wrong_shape.dlog_terms())
    rec.check(not verdict.applicable, "non-LP exponent shape must be inapplicable")
    return rec.result()


def csajbok_suite() -> SuiteResult:
    """The x^5 + delta x^(5^5) family over F_5^8, criterion and oracle."""
    rec = _Recorder("q=5, n=8 family vs oracle")
    ctx = _field(5, 1, 8)
    delta = ctx.element_from_dlog(ctx.order // 4)
    rec.check(ctx.mul(delta, delta) == ctx.minus_one(), "delta^2 must equal -1")
    s = normalize(ctx, [(1, ctx.one()), (5, delta)])

    family = criteria.csajbok_family_check(5, delta_order=4)
    rec.check(family.applicable, "family statement must apply at q=5, |delta|=4")
    expected = dict(family.index_verdicts)
    rec.check(expected == {0: True, 1: False, 5: False},
              f"family conclusions unexpected: {expected}")

    binom = criteria.binomial_criterion(ctx, s.dlog_terms())
    rec.check(binom.applicable and binom.verdict is False,
              "binomial criterion must reject indices 1 and 5 (gcd(4,8)=4)")

    for t, want in sorted(expected.items()):
        report = is_scattered_bruteforce(ctx, s, t)
        rec.check(report.scattered == want,
                  f"F_5^8 oracle @ {t}: {report.scattered}, family says {want}")
    return rec.result()


def exceptional_suite() -> SuiteResult:
    """Certificate plus tower verification for x^3 - x^27 at q=3, n=5, r=1.

    Exceptionality promises infinitely many good extension steps, not all of
    them: here the good steps are the odd m, because the relative norm of -1
    collapses to 1 on even-degree extensions (equivalently, the kernel grows
    past a single F_q-line there).  The suite verifies the base field, the
    m=1 step, and the documented failure mode of the even step m=2.
    """
    rec = _Recorder("exceptional family certificate + tower oracle")
    cert = criteria.exceptional_family_certificate(3, 5, 1, delta_order=2)
    rec.check(cert.verdict is True, "certificate must be granted")
    rec.check(dict(cert.index_verdicts) == {1: True, 2: True, 3: True},
              f"certified indices unexpected: {cert.index_verdicts}")

    bad_n = criteria.exceptional_family_certificate(3, 4, 1, delta_order=2)
    rec.check(bad_n.verdict is False, "even n must be rejected")
    bad_delta = criteria.exceptional_family_certificate(3, 5, 1, delta_order=1)
    rec.check(bad_delta.verdict is False, "delta = 1 must be rejected")

    ctx = _field(3, 1, 5)
    minus_one = ctx.order // 2
    s_terms = ((1, 0), (3, minus_one))
    s = normalize(ctx, [(r, ctx.element_from_dlog(d)) for r, d in s_terms])
    for t in (1, 2, 3):
        report = is_scattered_bruteforce(ctx, s, t)
        rec.check(report.scattered, f"base field oracle @ {t} must scatter")

    # second family member, r=3 (exponent 2r+1 = 7 reduces to 2 mod n)
    other = normalize(ctx, [(1, ctx.one()),
                            (7, ctx.element_from_dlog(minus_one))])
    for t in (1, 2, 4):
        report = is_scattered_bruteforce(ctx, other, t)
        rec.check(report.scattered, f"r=3 member oracle @ {t} must scatter")

    odd_step, even_step = is_exceptional_desk(3, 1, 5, s_terms, 2, (1, 2))
    rec.bump("tower_steps", 2)
    rec.check(odd_step.report.scattered,
              "tower step m=1 (degree 5) must scatter at index 2")
    rec.check(not even_step.report.scattered,
              "tower step m=2 (degree 10) must hit the norm degeneration")
    big = even_step.ctx
    rec.check(big.relative_norm(big.minus_one()) == big.one(),
              "norm of -1 must collapse to 1 on the even-degree extension")
    witness = even_step.report.witness
    rec.check(witness is not None
              and not big.in_base_subfield(big.mul(witness[0], big.inv(witness[1]))),
              "the m=2 witness must violate F_q-proportionality")
    return rec.result()


SUITES: dict[str, tuple] = {
    "lemmas": (subfield_exponent_suite, coset_form_suite),
    "pseudoregulus": (pseudoregulus_suite,),
    "binomials": (binomial_suite, affine_binomial_suite),
    "reductions": (reduction_suite,),
    "pp-criterion": (pp_criterion_suite,),
    "lp": (lp_suite,),
    "csajbok": (csajbok_suite,),
    "exceptional": (exceptional_suite,),
}
SUITES["all"] = tuple(f for fs in SUITES.values() for f in fs)


def run_suites(name: str) -> list[SuiteResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return [suite() for suite in SUITES[name]]
