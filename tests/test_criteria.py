import itertools
import random

import pytest

from scatterpoly import (
    BadIndex,
    HypothesisViolated,
    NotABinomial,
    WouldBeZero,
    affine_binomial_criterion,
    binomial_criterion,
    build_field,
    csajbok_family_check,
    exceptional_family_certificate,
    index_shift_reduction,
    is_scattered_bruteforce,
    lp_membership,
    normalize,
    parse_poly,
    pseudoregulus_criterion,
    ratio_map,
    subfield_exponent_criterion,
)
from scatterpoly.criteria import applicable_criteria
from scatterpoly.field import FieldParams

from naive_oracle import naive_pow


def test_pseudoregulus_large_degree_index_set():
    expected = {0, 1, 4, 6, 7, 9, 10, 12}
    got = {t for t in range(15) if t != 8
           and pseudoregulus_criterion(15, 8, t).verdict}
    assert got == expected
    assert pseudoregulus_criterion(15, 8, 3).verdict is False


def test_pseudoregulus_inapplicable_and_guards():
    v = pseudoregulus_criterion(6, 2, 2)
    assert not v.applicable and v.verdict is None
    with pytest.raises(BadIndex):
        pseudoregulus_criterion(4, 4, 0)
    with pytest.raises(BadIndex):
        pseudoregulus_criterion(4, 0, 4)


def test_binomial_criterion_examples(f81):
    # q=25, n=100: exponents 9 and 50, unit coefficients
    v = binomial_criterion(FieldParams(5, 2, 100), ((9, 0), (50, 0)))
    assert v.applicable and v.verdict is True
    assert dict(v.index_verdicts) == {9: True, 50: True}
    # q=101, n=6: exponents 2 and 4; gcd(2, 6) = 2
    v = binomial_criterion(FieldParams(101, 1, 6), ((2, 0), (4, 0)))
    assert v.applicable and v.verdict is False

    s = normalize(f81, [(1, f81.one()), (3, f81.gamma)])
    v = binomial_criterion(f81, s.dlog_terms())
    assert not v.applicable  # |gamma| = 80 does not divide q^1 - 1 = 2

    with pytest.raises(NotABinomial):
        binomial_criterion(f81, ((1, 0),))


def test_binomial_criterion_matches_oracle(f81):
    one = f81.one()
    minus = f81.minus_one()
    for r1, r2 in ((1, 2), (1, 3), (2, 3)):
        for a1 in (one, minus, f81.gamma):
            for a2 in (one, minus):
                s = normalize(f81, [(r1, a1), (r2, a2)])
                v = binomial_criterion(f81, s.dlog_terms())
                assert v.applicable
                for t in (r1, r2):
                    assert (is_scattered_bruteforce(f81, s, t).scattered
                            == v.verdict)


def test_affine_binomial_criterion(f243):
    v = affine_binomial_criterion(f243, ((0, 1), (2, 17)))
    assert v.verdict is True
    with pytest.raises(BadIndex):
        affine_binomial_criterion(f243, ((0, 1), (5, 17)))
    with pytest.raises(BadIndex):
        affine_binomial_criterion(f243, ((1, 1), (2, 17)))
    with pytest.raises(NotABinomial):
        affine_binomial_criterion(f243, ((0, 1),))

    # q=27, n=110 examples: index 81 passes, index 80 fails
    params = FieldParams(3, 3, 110)
    assert affine_binomial_criterion(params, ((0, 0), (81, 0))).verdict is True
    assert affine_binomial_criterion(params, ((0, 0), (80, 0))).verdict is False


def test_index_shift_reduction_regimes(f3125, f243):
    # t = r1: strip then shift
    s = normalize(f3125, [(1, f3125.gamma), (3, f3125.one())])
    reduced, idx, verdict = index_shift_reduction(f3125, s, 1)
    assert idx == 0
    assert reduced.terms == ((2, f3125.one()),)
    assert verdict.applicable  # only the tail coefficient is constrained

    # t < r1: plain shift; the worked example at t = 2
    example = parse_poly(f3125, "3:g^0,4:g^0")
    reduced, idx, verdict = index_shift_reduction(f3125, example, 2)
    assert idx == 0
    assert reduced.exponents == (1, 2)
    assert verdict.applicable

    # t > r1: affine tail; the exceptional family shape
    fam = normalize(f243, [(1, f243.one()), (3, f243.minus_one())])
    reduced, idx, verdict = index_shift_reduction(f243, fam, 2)
    assert idx == 1
    assert reduced.terms == ((0, f243.one()), (2, f243.minus_one()))
    assert verdict.applicable

    with pytest.raises(WouldBeZero):
        index_shift_reduction(f243, normalize(f243, [(2, f243.one())]), 2)
    with pytest.raises(BadIndex):
        index_shift_reduction(f243, fam, 5)


def test_index_shift_reduction_hypotheses(f81):
    # gamma has order 80; it never divides q^t - 1 for t < 4
    s = normalize(f81, [(2, f81.gamma), (3, f81.one())])
    _, _, verdict = index_shift_reduction(f81, s, 1)
    assert not verdict.applicable and verdict.verdict is None
    # but at t = r1 only the tail is constrained
    _, _, verdict = index_shift_reduction(f81, s, 2)
    assert verdict.applicable


def test_index_shift_reduction_soundness_spotcheck(f81):
    one = f81.one()
    minus = f81.minus_one()
    for raw in ([(1, one), (2, minus)], [(2, one), (3, one)],
                [(1, minus), (2, one), (3, one)]):
        s = normalize(f81, raw)
        for t in range(4):
            try:
                reduced, idx, verdict = index_shift_reduction(f81, s, t)
            except WouldBeZero:
                continue
            if not verdict.applicable:
                continue
            assert (is_scattered_bruteforce(f81, s, t).scattered
                    == is_scattered_bruteforce(f81, reduced, idx).scattered)


def test_index_shift_reduction_at_index_zero(f3125):
    s = parse_poly(f3125, "3:g^0,4:g^0")
    reduced, idx, _ = index_shift_reduction(f3125, s, 0)
    assert (reduced, idx) == (s, 0)


def test_index_shift_reduction_affine_tail(f81):
    a1 = f81.element_from_dlog(5)
    a2 = f81.element_from_dlog(9)
    reduced, idx, _ = index_shift_reduction(f81, normalize(f81, [(1, a1), (3, a2)]), 2)
    assert (reduced.terms, idx) == (((0, a1), (2, a2)), 1)
    reduced, idx, _ = index_shift_reduction(f81, normalize(f81, [(2, a1)]), 3)
    assert (reduced.terms, idx) == (((0, a1),), 1)


def test_index_shift_reduction_evaluation_identity(f81):
    # S(x)/x^(q^t) = S'(X)/X at X = x^(q^t) for t < r1, whatever the
    # coefficients: gamma, of order 80, fails every hypothesis here
    for coeffs in itertools.product((f81.one(), f81.minus_one(), f81.gamma), repeat=2):
        s = normalize(f81, [(2, coeffs[0]), (3, coeffs[1])])
        for t in (0, 1):
            reduced, idx, _ = index_shift_reduction(f81, s, t)
            assert idx == 0
            for k in range(f81.order):
                x = f81.element_from_dlog(k)
                assert (ratio_map(f81, s, t, x)
                        == ratio_map(f81, reduced, idx, f81.frobenius(x, t)))


def test_index_shift_reduction_ratio_equivalence_at_r1(f81):
    # a deciding pair for S at index r1 is one for the reduced tail at
    # X = x^(q^r1), and back
    s = normalize(f81, [(1, f81.gamma), (3, f81.one())])
    r1 = s.min_exponent
    reduced, idx, _ = index_shift_reduction(f81, s, r1)
    points = [f81.element_from_dlog(a) for a in range(f81.order)]
    lhs = [ratio_map(f81, s, r1, x) for x in points]
    rhs = [ratio_map(f81, reduced, idx, f81.frobenius(x, r1)) for x in points]
    for a, b in itertools.combinations(range(f81.order), 2):
        assert (lhs[a] == lhs[b]) == (rhs[a] == rhs[b])


@pytest.mark.parametrize("p,m,n", [(3, 1, 4), (3, 1, 5), (3, 1, 6), (5, 1, 3),
                                   (5, 1, 4), (7, 1, 3), (3, 2, 3)])
def test_index_shift_reduction_is_an_equivalence(p, m, n):
    # the substitution X = x^(q^u) permutes the F_q-lines and the term dropped
    # at r1 adds a constant to every ratio, so the verdict and the number of
    # ratio values survive even where the paper's hypotheses fail
    ctx = build_field(p, m, n)
    rng = random.Random(f"{p},{m},{n}")
    failing = 0
    for _ in range(20):
        exps = rng.sample(range(n), rng.randint(1, min(3, n)))
        s = normalize(ctx, [(r, ctx.element_from_dlog(rng.randrange(ctx.order)))
                            for r in exps])
        for t in range(n):
            try:
                reduced, idx, verdict = index_shift_reduction(ctx, s, t)
            except WouldBeZero:
                continue
            failing += not verdict.applicable
            before = is_scattered_bruteforce(ctx, s, t)
            after = is_scattered_bruteforce(ctx, reduced, idx)
            assert ((before.scattered, before.distinct_ratio_values)
                    == (after.scattered, after.distinct_ratio_values)), (str(s), t)
    assert failing


def test_index_shift_reduction_beyond_the_cap():
    params = FieldParams(3, 1, 10000)
    s = parse_poly(params, "9998:g^1,9999:g^2")
    reduced, idx, verdict = index_shift_reduction(params, s, 9999)
    assert (str(reduced), idx) == ("0:g^1,1:g^2", 1)
    assert [h.detail for h in verdict.hypotheses] == [
        "|a|=3^10000 - 1, bound=3^9998 - 1",
        "|a|=(3^10000 - 1)/2, bound=3^9998 - 1"]
    assert verdict.notes == ("affine tail (t > r1)",) and not verdict.applicable


def test_lp_membership(f243):
    member = normalize(f243, [(2, f243.one()), (3, f243.minus_one())])
    v = lp_membership(f243, member.dlog_terms())
    assert v.applicable and v.verdict is True
    assert all(h.satisfied for h in v.hypotheses)

    norm_one = normalize(f243, [(2, f243.one()),
                                (3, f243.element_from_dlog(f243.q - 1))])
    v = lp_membership(f243, norm_one.dlog_terms())
    assert v.applicable and v.verdict is False

    wrong_shape = normalize(f243, [(1, f243.one()), (3, f243.one())])
    v = lp_membership(f243, wrong_shape.dlog_terms())
    assert not v.applicable

    with pytest.raises(NotABinomial):
        lp_membership(f243, ((1, 0),))


def test_lp_membership_scaling(f243):
    # scaling both coefficients leaves delta (and the verdict) unchanged
    lam = f243.element_from_dlog(37)
    base = normalize(f243, [(2, f243.one()), (3, f243.minus_one())])
    scaled = normalize(f243, [(2, lam), (3, f243.mul(lam, f243.minus_one()))])
    assert (lp_membership(f243, base.dlog_terms()).verdict
            == lp_membership(f243, scaled.dlog_terms()).verdict)


def test_csajbok_family_check():
    v = csajbok_family_check(5, delta_order=4)
    assert v.applicable
    assert dict(v.index_verdicts) == {0: True, 1: False, 5: False}

    # q = 13 = 1 mod 4: the negative branch fires, no index-0 claim
    v = csajbok_family_check(13, delta_order=4)
    assert v.applicable
    assert dict(v.index_verdicts) == {1: False, 5: False}

    # q = 7 = 3 mod 4 and q != 5: nothing applies
    v = csajbok_family_check(7, delta_order=4)
    assert not v.applicable and v.verdict is None

    with pytest.raises(HypothesisViolated):
        csajbok_family_check(4, delta_order=4)
    with pytest.raises(HypothesisViolated):
        csajbok_family_check(5, delta_order=7)  # 7 does not divide 5^8 - 1


def test_exceptional_family_certificate():
    v = exceptional_family_certificate(3, 5, 1, delta_order=2)
    assert v.verdict is True
    assert dict(v.index_verdicts) == {1: True, 2: True, 3: True}
    assert any("index 2" in note for note in v.notes)

    assert exceptional_family_certificate(3, 4, 1, delta_order=2).verdict is False
    assert exceptional_family_certificate(3, 5, 1, delta_order=1).verdict is False
    # gcd(n, q-1) must be 1: q = 7, n = 9 fails (gcd = 3)
    assert exceptional_family_certificate(7, 9, 2, delta_order=2).verdict is False
    # r coprime to n required
    assert exceptional_family_certificate(3, 9, 3, delta_order=2).verdict is False


def test_subfield_exponent_criterion(f9):
    assert subfield_exponent_criterion(f9, 4)
    assert subfield_exponent_criterion(f9, 0)
    assert not subfield_exponent_criterion(f9, 2)
    with pytest.raises(ValueError):
        subfield_exponent_criterion(f9, -1)
    # reference: F_q is the set of x with x^q = x, checked on digits
    for a in range(f9.order):
        digits = f9.coeffs(f9.element_from_dlog(a))
        assert (subfield_exponent_criterion(f9, a)
                == (naive_pow(f9.p, f9.modulus, digits, f9.q) == digits))


def test_applicable_criteria_dispatch(f243):
    params = FieldParams(3, 1, 5)
    # monomial
    out = applicable_criteria(params, ((2, 0),), 1)
    assert [v.source for v in out] == ["pseudoregulus"]
    out = applicable_criteria(params, ((2, 0),), 2)
    assert not out[0].applicable
    # binomial with the affine shape
    out = applicable_criteria(params, ((0, 0), (2, 0)), 2)
    sources = [v.source for v in out]
    assert "binomial" in sources and "affine-binomial" in sources
    assert "lp-membership" in sources
    # plain binomial
    out = applicable_criteria(params, ((1, 0), (3, 121)), 1)
    assert "binomial" in [v.source for v in out]


def test_criteria_consistency_binomial_vs_affine(f243):
    # where both speak, they must agree
    params = FieldParams(3, 1, 5)
    for r in range(1, 5):
        for k1 in (0, 121, 17):
            for k2 in (0, 121, 60):
                binom = binomial_criterion(params, ((0, k1), (r, k2)))
                affine = affine_binomial_criterion(params, ((0, k1), (r, k2)))
                assert binom.verdict_for_index(r) == affine.verdict_for_index(r)
