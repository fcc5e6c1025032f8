"""Acceptance battery: one test per numbered criterion, zero tolerance.

Each test prints a single pass/fail line (run pytest with -s to see them all
live; they also appear in captured output on failure).  Runtime bounds are
asserted where the criterion states one.

Criterion 10 runs x^3 - x^27 (q=3, n=5, r=1, delta=-1) up the tower F_3^(5m)
at index 2.  The family's certificate needs an odd extension degree, so the
odd step m=1 scatters and the even step m=2 degenerates: over F_3^10,
x^3 = x^27 exactly when x^9 = x, so the kernel is F_9, a 2-dimensional
F_3-space whose 4 projective points all share ratio value 0.  The oracle's
m=2 witness is re-verified with table-free polynomial arithmetic.
"""

import time

import pytest

from scatterpoly import (
    build_field,
    coefficient_table,
    decompose,
    deciding_pairs,
    exceptional_family_certificate,
    factorize_poly,
    is_exceptional_desk,
    is_scattered_bruteforce,
    normalize,
    parse_poly,
    pseudoregulus_criterion,
)
from scatterpoly import verify

from naive_oracle import (
    naive_evaluate,
    naive_is_scattered,
    naive_mul,
    naive_pow,
)


def _report(number: int, name: str, ok: bool, seconds: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number:2d} {status} {name} ({seconds:.2f}s){suffix}")


@pytest.fixture(scope="module")
def pseudoregulus_result():
    return verify.pseudoregulus_suite()


@pytest.fixture(scope="module")
def binomial_result():
    return verify.binomial_suite()


@pytest.fixture(scope="module")
def affine_result():
    return verify.affine_binomial_suite()


def test_criterion_01_lemma_power():
    t0 = time.perf_counter()
    result = verify.subfield_exponent_suite()
    dt = time.perf_counter() - t0
    _report(1, "subfield-exponent equivalence", result.passed, dt,
            f"{result.checks} checks")
    assert result.passed, result.failures
    assert dt < 1.0


def test_criterion_02_lemma_relation():
    t0 = time.perf_counter()
    result = verify.coset_form_suite()
    dt = time.perf_counter() - t0
    _report(2, "coset-form identity on 200 random polynomials", result.passed,
            dt, f"{result.checks} checks")
    assert result.passed, result.failures
    assert result.checks >= 201  # 200 random + the worked example
    assert dt < 5.0


def test_criterion_03_pseudoregulus_sweep(pseudoregulus_result):
    result = pseudoregulus_result
    _report(3, "pseudoregulus sweep q=3, n=4..6 + n=15 index set",
            result.passed, result.seconds, f"{result.checks} checks")
    assert result.passed, result.failures
    assert result.seconds < 30.0
    # the criterion-only index set is part of the suite; re-assert explicitly
    got = {t for t in range(15) if t != 8
           and pseudoregulus_criterion(15, 8, t).verdict}
    assert got == {0, 1, 4, 6, 7, 9, 10, 12}


def test_criterion_04_binomial_sweep(binomial_result):
    result = binomial_result
    _report(4, "exhaustive binomial sweep F_3^4, F_3^5 + F_5^5 example",
            result.passed, result.seconds, f"{result.checks} checks")
    assert result.passed, result.failures
    assert result.metrics.get("scattered_instances", 0) > 0
    assert result.seconds < 60.0


def test_criterion_05_affine_binomial(affine_result):
    result = affine_result
    _report(5, "affine binomial sweep q=3, n=5", result.passed, result.seconds,
            f"{result.checks} checks")
    assert result.passed, result.failures
    assert result.seconds < 30.0


def test_criterion_06_reduction_soundness():
    t0 = time.perf_counter()
    result = verify.reduction_suite()
    dt = time.perf_counter() - t0
    regimes = [k for k in result.metrics if k.startswith("regime")]
    _report(6, "index-shift reduction soundness", result.passed, dt,
            f"{result.checks} checks, {len(regimes)} regimes")
    assert result.passed, result.failures
    assert len(regimes) == 3  # t < r1, t = r1, t > r1 all exercised
    assert dt < 60.0


def test_criterion_07_pp_criterion():
    t0 = time.perf_counter()
    result = verify.pp_criterion_suite()
    dt = time.perf_counter() - t0
    _report(7, "permutation criterion vs oracle F_3^4, F_5^3", result.passed,
            dt, f"{result.checks} checks")
    assert result.passed, result.failures
    assert result.checks > 0
    assert dt < 60.0


def test_criterion_08_coset_multipliers(pseudoregulus_result, binomial_result,
                                        affine_result):
    t0 = time.perf_counter()
    checks = failures = 0
    for result in (pseudoregulus_result, binomial_result, affine_result):
        checks += result.metrics.get("coset_multiplier_checks", 0)
        failures += result.metrics.get("coset_multiplier_failures", 0)
    # plus a literal walk over every deciding pair of one scattered instance
    ctx = build_field(3, 1, 4)
    s = normalize(ctx, [(1, ctx.one()), (2, ctx.minus_one())])
    assert is_scattered_bruteforce(ctx, s, 1).scattered
    census = deciding_pairs(ctx, s, 1, limit=None)
    r1, div, f_terms = factorize_poly(ctx, s)
    dec = decompose(ctx, div)
    table = coefficient_table(ctx, dec, r1, f_terms)
    for y, z in census.pairs:
        checks += 1
        if table.A[dec.coset_of(y)] != table.A[dec.coset_of(z)]:
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and checks > 0
    _report(8, "equal coset multipliers on every deciding pair", ok, dt,
            f"{checks} scattered instances/pairs")
    assert ok, f"{failures} of {checks} multiplier checks failed"


def test_criterion_09_family_over_f5_8():
    t0 = time.perf_counter()
    ctx = build_field(5, 1, 8)
    delta = ctx.element_from_dlog(ctx.order // 4)
    assert ctx.mul(delta, delta) == ctx.minus_one()
    s = normalize(ctx, [(1, ctx.one()), (5, delta)])
    assert ctx.subfield_index == 97656

    got = {t: is_scattered_bruteforce(ctx, s, t).scattered for t in (0, 1, 5)}
    dt = time.perf_counter() - t0

    expected = {0: True, 1: False, 5: False}
    ok = got == expected
    _report(9, "x^5 + d x^(5^5) over F_5^8 (97656 projective points)", ok, dt)
    assert got == expected
    assert dt < 120.0


def test_criterion_10_exceptional_family_tower():
    t0 = time.perf_counter()
    cert = exceptional_family_certificate(3, 5, 1, delta_order=2)
    cert_ok = cert.verdict is True and dict(cert.index_verdicts) == {
        1: True, 2: True, 3: True}
    # the same family over F_3^10 fails the paper's odd-degree hypothesis
    cert_even = exceptional_family_certificate(3, 10, 1, delta_order=2)
    failed_even = {h.name for h in cert_even.hypotheses if not h.satisfied}

    ctx = build_field(3, 1, 5)
    s = parse_poly(ctx, "1:g^0,3:g^121")  # x^3 - x^27
    base_ok = all(is_scattered_bruteforce(ctx, s, t).scattered
                  for t in (1, 2, 3))

    tower = is_exceptional_desk(3, 1, 5, ((1, 0), (3, 121)), 2, (1, 2))
    by_m = {v.m: v.report.scattered for v in tower}
    dt = time.perf_counter() - t0
    ok = (cert_ok and base_ok and by_m == {1: True, 2: False}
          and cert_even.verdict is False and "degree-odd" in failed_even)
    _report(10, "exceptional family certificate + tower m=1,2", ok, dt,
            f"certificate={cert_ok}, base={base_ok}, tower={by_m}")
    assert dt < 120.0
    assert cert_ok
    assert base_ok
    assert "degree-odd" in failed_even
    assert by_m[1] is True
    assert by_m[2] is False, (
        "x^3 - x^27 is not scattered of index 2 over F_3^10: x^3 = x^27 "
        "exactly when x^9 = x, so the kernel is F_9, a 2-dimensional "
        "F_3-space whose 4 projective points share ratio value 0.  The "
        "even step must degenerate, as the refused certificate at n=10 "
        "says; only odd steps scatter.")
    # the even step's verdict matches the refused certificate at n=10
    assert cert_even.verdict is False

    # re-verify the m=2 witness without log/antilog tables
    big = build_field(3, 1, 10)
    scale = big.order // ctx.order
    s_big = normalize(big, [(1, big.one()),
                            (3, big.element_from_dlog(121 * scale))])
    y, z = tower[1].report.witness
    p, mod = big.p, list(big.modulus)
    qt = big.q ** 2
    zero = (0,) * big.degree
    sy, sz = naive_evaluate(big, s_big, y), naive_evaluate(big, s_big, z)
    assert sy == zero and sz == zero
    assert (naive_mul(p, mod, sy, naive_pow(p, mod, big.coeffs(z), qt))
            == naive_mul(p, mod, sz, naive_pow(p, mod, big.coeffs(y), qt)))
    assert (naive_pow(p, mod, big.coeffs(y), big.q - 1)
            != naive_pow(p, mod, big.coeffs(z), big.q - 1))
    # both witness points lie in the kernel F_9
    for x in (y, z):
        assert naive_pow(p, mod, big.coeffs(x), 9) == big.coeffs(x)


def test_criterion_11_oracle_self_consistency(f9, f27, f81):
    t0 = time.perf_counter()
    checks = failures = 0
    for ctx in (f9, f27, f81):
        one = ctx.one()
        minus = ctx.minus_one()
        instances = [normalize(ctx, [(r, one)]) for r in range(ctx.n)]
        if ctx.n >= 3:
            instances += [
                normalize(ctx, [(r1, c1), (r2, c2)])
                for r1 in range(1, ctx.n) for r2 in range(r1 + 1, ctx.n)
                for c1 in (one, minus) for c2 in (one, minus)
            ]
        if ctx.n >= 4:
            instances.append(normalize(ctx, [(1, one), (2, minus), (3, one)]))
        for s in instances:
            for t in range(ctx.n):
                checks += 1
                if (is_scattered_bruteforce(ctx, s, t).scattered
                        != naive_is_scattered(ctx, s, t)):
                    failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0
    _report(11, "representative oracle vs naive all-pairs check", ok, dt,
            f"{checks} polynomial/index combinations")
    assert ok, f"{failures} of {checks} disagreements with the naive oracle"
