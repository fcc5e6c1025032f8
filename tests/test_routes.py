"""Random instances on desk fields: every route that answers agrees with the oracle.

The routes are the criteria of ``applicable_criteria``, the index shift, and
the permutation criterion on the shifted polynomial.  The shift and the
transforms agree with the oracle whatever the coefficients: the paper's
hypotheses are sufficient, not necessary.  ``hypothesis`` draws the
instances from a fixed seed (``derandomize``), so a failure shrinks to a
small instance and every run draws the same ones, and keeps no example
database.
"""

import math
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from scatterpoly import (
    HypothesisViolated,
    WouldBeZero,
    ZeroPolynomial,
    build_field,
    index_shift_reduction,
    is_permutation,
    is_scattered_bruteforce,
    normalize,
    rho_transform,
    scattered_via_pp,
)
from scatterpoly.criteria import applicable_criteria

DESK_FIELDS = ((3, 1, 3), (3, 1, 4), (3, 1, 5), (5, 1, 3), (7, 1, 3), (5, 1, 4), (3, 2, 3))


@cache
def _field(p, m, n):
    return build_field(p, m, n)


@st.composite
def instances(draw):
    """(ctx, S, t): S of 1-3 terms at any index t.

    Each coefficient is any nonzero element or, half the time, one whose
    order divides q^t - 1, so the paper's hypotheses for the shift hold
    often enough to exercise the permutation criterion.
    """
    ctx = _field(*draw(st.sampled_from(DESK_FIELDS)))
    n, order = ctx.n, ctx.order
    t = draw(st.integers(0, n - 1))
    exps = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    step = order // math.gcd(order, ctx.q**t - 1)
    terms = [(r, ctx.element_from_dlog(draw(st.integers(0, order - 1))
                                       * draw(st.sampled_from((1, step)))))
             for r in exps]
    return ctx, normalize(ctx, terms), t


def _every_transform_permutes(ctx, poly) -> bool:
    """Whether every rho transform of ``poly``, rho outside F_q, is a permutation."""
    for a in range(ctx.order):
        if a % ctx.subfield_index == 0:
            continue
        try:
            if not is_permutation(ctx, rho_transform(ctx, poly, ctx.element_from_dlog(a))):
                return False
        except ZeroPolynomial:
            return False
    return True


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(instances())
def test_every_route_agrees_with_the_oracle(instance):
    ctx, s, t = instance
    oracle = is_scattered_bruteforce(ctx, s, t).scattered
    for v in applicable_criteria(ctx.params, s.dlog_terms(), t):
        if v.applicable and v.verdict_for_index(t) is not None:
            assert v.verdict_for_index(t) == oracle, v.source
    try:
        shifted, index, verdict = index_shift_reduction(ctx, s, t)
    except WouldBeZero:  # a monomial at its own exponent: a constant ratio
        assert scattered_via_pp(ctx, s, t) == oracle
        return
    assert is_scattered_bruteforce(ctx, shifted, index).scattered == oracle
    if index == 0:  # 0 <= t <= r1: the criterion holds whatever the coefficients
        assert _every_transform_permutes(ctx, shifted) == oracle
    if index == 0 and verdict.applicable:
        assert scattered_via_pp(ctx, s, t) == oracle
    else:
        with pytest.raises(HypothesisViolated):
            scattered_via_pp(ctx, s, t)
