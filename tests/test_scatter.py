import itertools
import math
import random

import numpy as np
import pytest

from scatterpoly import (
    BadIndex,
    FieldTooLarge,
    HypothesisViolated,
    build_field,
    deciding_pairs,
    evaluate,
    evaluate_many,
    is_exceptional_desk,
    is_permutation,
    is_scattered_bruteforce,
    field_basis,
    normalize,
    parse_poly,
    ratio_map,
    scattered_via_pp,
)

from scatterpoly import field, scatter
from scatterpoly.scatter import (
    _CHUNK, _WITNESS_WINDOW, _collisions, _equal_ratio_pairs, _reduced, _scan, _witness)

from naive_oracle import naive_deciding_pair_count, naive_is_scattered


def test_oracle_examples(f81, f3125):
    one = f81.one()
    assert is_scattered_bruteforce(f81, normalize(f81, [(1, one)]), 0).scattered
    report = is_scattered_bruteforce(f81, normalize(f81, [(2, one)]), 0)
    assert not report.scattered
    assert report.witness is not None
    example = parse_poly(f3125, "3:g^0,4:g^0")
    assert is_scattered_bruteforce(f3125, example, 3).scattered


def test_report_invariants(f81):
    one = f81.one()
    for r in range(4):
        for t in range(4):
            rep = is_scattered_bruteforce(f81, normalize(f81, [(r, one)]), t)
            assert rep.projective_points == f81.subfield_index
            assert rep.scattered == (rep.distinct_ratio_values
                                     == rep.projective_points)
            assert (rep.witness is not None) == (not rep.scattered)
            if rep.witness is not None:
                y, z = rep.witness
                assert ratio_map(f81, normalize(f81, [(r, one)]), t, y) \
                    == ratio_map(f81, normalize(f81, [(r, one)]), t, z)
                assert not f81.in_base_subfield(f81.mul(y, f81.inv(z)))


def test_witness_deterministic(f81):
    s = normalize(f81, [(2, f81.one())])
    a = is_scattered_bruteforce(f81, s, 0)
    b = is_scattered_bruteforce(f81, s, 0)
    assert a == b
    # smallest representative (dlog 0) collides first in this instance
    assert a.witness[0].dlog == 0


def test_oracle_guards(f81):
    s = normalize(f81, [(1, f81.one())])
    with pytest.raises(BadIndex):
        is_scattered_bruteforce(f81, s, 4)
    with pytest.raises(BadIndex):
        is_scattered_bruteforce(f81, s, -1)


def test_oracle_matches_naive_reference(f9, f27, f81):
    cases = []
    for ctx in (f9, f27, f81):
        one = ctx.one()
        minus = ctx.minus_one()
        cases.append((ctx, [(1, one)]))
        cases.append((ctx, [(1, minus)]))
        if ctx.n >= 3:
            cases.append((ctx, [(1, one), (2, minus)]))
            cases.append((ctx, [(1, ctx.gamma), (2, one)]))
        if ctx.n >= 4:
            cases.append((ctx, [(2, one), (3, one)]))
            cases.append((ctx, [(1, one), (2, one), (3, minus)]))
    for ctx, raw in cases:
        s = normalize(ctx, raw)
        for t in range(ctx.n):
            fast = is_scattered_bruteforce(ctx, s, t).scattered
            assert fast == naive_is_scattered(ctx, s, t), (ctx, str(s), t)


def test_oracle_matches_naive_random(f27, f81):
    rng = random.Random(20240810)
    for ctx in (f27, f81):
        for _ in range(15):
            k = rng.randint(1, 3)
            exps = rng.sample(range(ctx.n), k)
            s = normalize(ctx, [(r, ctx.element_from_dlog(rng.randrange(ctx.order)))
                                for r in exps])
            t = rng.randrange(ctx.n)
            assert (is_scattered_bruteforce(ctx, s, t).scattered
                    == naive_is_scattered(ctx, s, t)), (str(s), t)


def test_jobs_agree(f3125):
    # jobs= is accepted and ignored: the scan is serial at any value
    s = parse_poly(f3125, "3:g^0,4:g^0")
    for t in range(5):
        report = is_scattered_bruteforce(f3125, s, t, census=True)
        for jobs in (1, 2, 4):
            assert is_scattered_bruteforce(f3125, s, t, jobs=jobs, census=True) == report


def _reference_oracle(ctx, s, t, limit):
    """The oracle's answers from one evaluate_many over every representative.

    Returns S at each representative, the smallest colliding pair, the number
    of distinct ratio values, the census and the first ``limit`` ordered pairs.
    """
    e, w = ctx.subfield_index, ctx.q - 1
    reps = np.arange(e, dtype=np.int64)
    num = evaluate_many(ctx, s, reps)
    step = pow(ctx.q, t, ctx.order)
    ids = np.where(num < 0, ctx.order, (num - reps * step) % ctx.order)
    values, first, inverse, counts = np.unique(
        ids, return_index=True, return_inverse=True, return_counts=True)
    shared = np.flatnonzero(counts[inverse] > 1)
    witness = None
    if shared.size:
        y = int(shared[0])
        witness = (y, int(np.flatnonzero(ids == ids[y])[1]))
    census = w * w * int(np.dot(counts, counts)) - w * e

    def ordered_pairs():
        for head in np.sort(first):
            members = sorted(int(r) + i * e for r in np.flatnonzero(ids == ids[head])
                             for i in range(w))
            yield from ((y, z) for y in members for z in members if y != z)

    pairs = list(itertools.islice(ordered_pairs(), limit))
    return num, witness, values.size, census, pairs


def _check_against_reference(ctx, s, t, limit=40):
    """The oracle and deciding_pairs against the reference; returns S's logs."""
    num, witness, distinct, census, pairs = _reference_oracle(ctx, s, t, limit)
    report = is_scattered_bruteforce(ctx, s, t, census=True)
    got = report.witness and tuple(x.dlog for x in report.witness)
    assert got == witness, (str(s), t)
    assert report.distinct_ratio_values == distinct, (str(s), t)
    assert report.deciding_pair_count == census, (str(s), t)
    listed = deciding_pairs(ctx, s, t, limit=limit)
    assert listed.equal_ratio_pairs == census
    assert [(y.dlog, z.dlog) for y, z in listed.pairs] == pairs, (str(s), t)
    return num


def test_streamed_oracle_matches_reference():
    # e = 88573 spans three scan chunks, the last one partial
    big = build_field(3, 1, 11)
    # x^3 - g^160000 x vanishes only on the class of g^80000, in the last
    # chunk: there alone the ratio id is the zero value, and only it is a root
    for text in ("1:g^0", "1:g^0,3:g^5", "1:g^0,2:g^5,4:g^7", "0:g^71427,1:g^0"):
        s = parse_poly(big, text)
        for t in (0, 1):
            num = _check_against_reference(big, s, t)
        assert is_permutation(big, s) == (not np.any(num < 0))
    assert not is_permutation(big, parse_poly(big, "0:g^71427,1:g^0"))


@pytest.mark.parametrize("p,m,n", [(3, 1, 11), (3, 2, 6)])
def test_scan_kernel_matches_reference(p, m, n):
    """The chunked scan against one whole-range evaluate_many, at every index.

    F_3^11 (e = 88573) and F_9^6 (e = 66430) span three chunks, the last one
    partial.  Random instances of 1-4 terms sit at every t; x^(q^r) - x
    plus a third term has a zero partial sum on F_q, and x^q - c x vanishes
    at one representative of the last chunk.
    """
    ctx = build_field(p, m, n)
    assert 2 * _CHUNK < ctx.subfield_index < 3 * _CHUNK
    rng = random.Random(12)
    late = ctx.subfield_index - 7
    minus_one, one = ctx.minus_one(), ctx.one()
    fixed = [
        normalize(ctx, [(0, minus_one), (2, one), (4, ctx.element_from_dlog(5))]),
        normalize(ctx, [(0, minus_one), (1, one), (3, ctx.gamma), (5, one)]),
        normalize(ctx, [(0, ctx.element_from_dlog(late * (ctx.q - 1) % ctx.order)),
                        (1, minus_one)]),
    ]
    for t in range(n):
        k = rng.randint(1, 4)
        exps = rng.sample(range(n), k)
        s = normalize(ctx, [(r, ctx.element_from_dlog(rng.randrange(ctx.order)))
                            for r in exps])
        for poly in (s, fixed[t % len(fixed)]):
            num = _check_against_reference(ctx, poly, t)
            assert is_permutation(ctx, poly) == (not np.any(num < 0))
    assert not is_permutation(ctx, fixed[2])


# On F_3^7 (e = 1093) the shared representatives of this instance are first
# 107, 115, 119, ...: the census walks 107 singletons, then groups of four
# representatives (56 pairs each), the one at 206 in the search's third
# window.  Pair 234 lies inside the first group and pair 1000 inside the one
# at 206.  Among random non-scattered instances on F_3^7, none left its
# first 192 representatives unshared: each had 60 or more repeated ids.
_F3_7 = ("0:g^406,3:g^351,5:g^611,6:g^329", 4)
_F3_7_LIMITS = (213, 234, 270, 1000)


@pytest.fixture(scope="module")
def f2187():
    return build_field(3, 1, 7)


def test_census_past_the_first_window_matches_reference(f2187):
    s = parse_poly(f2187, _F3_7[0])
    for limit in _F3_7_LIMITS:
        _check_against_reference(f2187, s, _F3_7[1], limit)
    report = is_scattered_bruteforce(f2187, s, _F3_7[1], census=True)
    assert tuple(x.dlog for x in report.witness) == (107, 297)
    assert report.witness[0].dlog > _WITNESS_WINDOW
    assert (report.distinct_ratio_values, report.deciding_pair_count) == (1003, 3626)


def test_witness_search_reaches_the_last_representatives():
    # the only shared value sits at the last two representatives: at the
    # start of the second and third windows, astride a window's end, and
    # past the windows capped at a chunk
    w = _WITNESS_WINDOW
    for size in (2, w + 1, w + 2, 3 * w + 2, 1000, 3 * _CHUNK + 5):
        ids = np.arange(size, dtype=np.int32)
        ids[-1] = ids[-2]
        distinct, repeated = _collisions(ids)
        assert distinct == size - 1
        assert _witness(ids, repeated) == (size - 2, size - 1)
    # the first shared value decides, not the smallest one
    ids = np.array([9, 4, 7, 4, 9], dtype=np.int32)
    assert _witness(ids, _collisions(ids)[1]) == (0, 4)


@pytest.mark.parametrize("p,m,n,text,t,pair,distinct,census", [
    # recorded with the order-sized mask the witness search replaced
    (3, 2, 4, "1:g^3778,2:g^1963,3:g^4895", 0, (265, 409), 811, 51680),
    (5, 1, 5, "1:g^1694,2:g^2981,3:g^1430", 4, (244, 278), 766, 10812),
])
def test_witness_past_the_first_window(p, m, n, text, t, pair, distinct, census):
    ctx = build_field(p, m, n)
    report = is_scattered_bruteforce(ctx, parse_poly(ctx, text), t, census=True)
    assert tuple(x.dlog for x in report.witness) == pair
    assert pair[0] >= 2 * _WITNESS_WINDOW
    assert (report.distinct_ratio_values, report.deciding_pair_count) == (distinct, census)


def _random_instances(ctx, rng, count):
    for _ in range(count):
        exps = rng.sample(range(ctx.n), rng.randint(1, min(3, ctx.n)))
        s = normalize(ctx, [(r, ctx.element_from_dlog(rng.randrange(ctx.order)))
                            for r in exps])
        yield s, rng.randrange(ctx.n)


def test_collisions_pick_smallest_pair(f81, f243, f125, f81_tower):
    rng = random.Random(5)
    for ctx in (f81, f243, f125, f81_tower):
        for s, t in _random_instances(ctx, rng, 25):
            ids = _scan(ctx, _reduced(ctx, s, t), t).tolist()
            brute = next(((y, z) for y in range(len(ids))
                          for z in range(y + 1, len(ids)) if ids[y] == ids[z]), None)
            witness = is_scattered_bruteforce(ctx, s, t).witness
            got = None if witness is None else (witness[0].dlog, witness[1].dlog)
            assert got == brute, (str(s), t)


def test_capped_pairs_are_a_prefix(f81, f243, f81_tower, f2187):
    rng = random.Random(9)
    instances = [(ctx, s, t, (0, 1, 7, 40)) for ctx in (f81, f243, f81_tower)
                 for s, t in _random_instances(ctx, rng, 10)]
    # on F_3^7 a random monomial at its own exponent would list 4.8 million pairs
    for text, t in (_F3_7, ("2:g^1133,3:g^198,4:g^406", 4), ("1:g^0", 0)):
        instances.append((f2187, parse_poly(f2187, text), t, _F3_7_LIMITS))
    for ctx, s, t, limits in instances:
        full = deciding_pairs(ctx, s, t, limit=None)
        assert len(full.pairs) == full.equal_ratio_pairs
        for limit in limits:
            capped = deciding_pairs(ctx, s, t, limit=limit)
            assert capped.pairs == full.pairs[:limit]
            assert capped.truncated == (0 < limit < full.equal_ratio_pairs)
            assert capped.equal_ratio_pairs == full.equal_ratio_pairs


def test_census_counts(f81):
    s = normalize(f81, [(1, f81.one())])
    rep = is_scattered_bruteforce(f81, s, 0, census=True)
    assert rep.deciding_pair_count == 80  # (q^n - 1)(q - 2)
    assert is_scattered_bruteforce(f81, s, 0).deciding_pair_count is None


def test_census_matches_naive(f9, f27):
    for ctx in (f9, f27):
        for raw in ([(1, ctx.one())], [(1, ctx.gamma)],
                    [(0, ctx.one()), (1, ctx.gamma)]):
            s = normalize(ctx, raw)
            for t in range(ctx.n):
                census = deciding_pairs(ctx, s, t, limit=0)
                assert census.equal_ratio_pairs == \
                    naive_deciding_pair_count(ctx, s, t)
                assert census.collinear_pairs == ctx.order * (ctx.q - 2)


def test_naive_oracle_reads_no_table(f81, monkeypatch):
    # the reference answers a 3-term sum off t on a field that has no Zech
    # table and cannot build one, as the oracle does with its table
    s = parse_poly(f81, "1:g^0,2:g^5,3:g^7")
    report = is_scattered_bruteforce(f81, s, 0, census=True)
    basis = field_basis(3, 1, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("the naive oracle read a Zech table")
    monkeypatch.setattr(field, "build_field", refuse)
    assert naive_is_scattered(basis, s, 0) == report.scattered
    assert naive_deciding_pair_count(basis, s, 0) == report.deciding_pair_count
    assert "_zech" not in vars(basis)


def test_naive_oracle_sees_a_corrupted_table():
    # +1 on every odd Zech entry but the -1: the oracle adds through the
    # corrupted table and the digit-arithmetic reference does not, so their
    # censuses of some 3-term sums off t differ
    ctx = build_field(3, 1, 5)
    zech = ctx._zech.copy()
    odd = np.arange(1, ctx.order, 2)
    odd = odd[zech[odd] >= 0]
    zech[odd] = (zech[odd] + 1) % ctx.order
    ctx._zech = zech
    rng = random.Random(19)
    differ = 0
    for _ in range(4):
        *exps, t = rng.sample(range(ctx.n), 4)
        s = normalize(ctx, [(r, ctx.element_from_dlog(rng.randrange(ctx.order))) for r in exps])
        differ += (naive_deciding_pair_count(ctx, s, t)
                   != deciding_pairs(ctx, s, t, limit=0).equal_ratio_pairs)
    assert differ


def test_deciding_pairs_enumeration(f81):
    s = normalize(f81, [(1, f81.one())])
    census = deciding_pairs(f81, s, 0, limit=None)
    assert census.equal_ratio_pairs == 80
    assert len(census.pairs) == 80
    assert not census.truncated
    for y, z in census.pairs:
        assert ratio_map(f81, s, 0, y) == ratio_map(f81, s, 0, z)
        assert f81.in_base_subfield(f81.mul(y, f81.inv(z)))
    capped = deciding_pairs(f81, s, 0, limit=5)
    assert len(capped.pairs) == 5 and capped.truncated
    assert capped.equal_ratio_pairs == 80


def test_deciding_pairs_non_scattered(f81):
    s = normalize(f81, [(2, f81.one())])
    census = deciding_pairs(f81, s, 0, limit=0)
    assert census.equal_ratio_pairs > census.collinear_pairs


def test_deciding_pair_not_unique(f243):
    # scattered binomial at its least index: pairs come in Frobenius images
    s = parse_poly(f243, "1:g^0,3:g^0")
    assert is_scattered_bruteforce(f243, s, 1).scattered
    census = deciding_pairs(f243, s, 1, limit=None)
    pair_set = {(y.dlog, z.dlog) for y, z in census.pairs}
    r1 = s.min_exponent
    found_distinct_image = False
    for y, z in census.pairs:
        yy, zz = f243.frobenius(y, r1), f243.frobenius(z, r1)
        assert (yy.dlog, zz.dlog) in pair_set
        if (yy.dlog, zz.dlog) != (y.dlog, z.dlog):
            found_distinct_image = True
    assert found_distinct_image


def test_is_permutation(f81):
    one = f81.one()
    assert is_permutation(f81, normalize(f81, [(1, one)]))
    assert not is_permutation(f81, normalize(f81, [(0, f81.minus_one()),
                                                   (1, one)]))
    coeff = f81.sub(f81.frobenius(f81.gamma, 1), f81.gamma)
    assert is_permutation(f81, normalize(f81, [(1, coeff)]))
    # independent check: image size equals field size
    s = normalize(f81, [(1, f81.gamma), (2, one)])
    image = {f81.encode(evaluate(f81, s, f81.element_from_dlog(k)))
             for k in range(f81.order)}
    image.add(0)
    assert is_permutation(f81, s) == (len(image) == f81.size)


def test_scattered_via_pp_agrees(f81):
    one = f81.one()
    s = normalize(f81, [(2, one), (3, one)])
    assert (scattered_via_pp(f81, s, 1)
            == is_scattered_bruteforce(f81, s, 1).scattered)
    monomial = normalize(f81, [(2, one)])
    assert scattered_via_pp(f81, monomial, 1)
    assert is_scattered_bruteforce(f81, monomial, 1).scattered


def test_scattered_via_pp_guards(f81):
    s = normalize(f81, [(2, f81.gamma)])  # |gamma| = 80 does not divide 2
    with pytest.raises(HypothesisViolated):
        scattered_via_pp(f81, s, 1)
    good = normalize(f81, [(2, f81.one())])
    assert scattered_via_pp(f81, good, 2) \
        == is_scattered_bruteforce(f81, good, 2).scattered


def test_scattered_via_pp_relaxed_index_zero(f81):
    s = normalize(f81, [(1, f81.gamma)])
    assert (scattered_via_pp(f81, s, 0)
            == is_scattered_bruteforce(f81, s, 0).scattered)


def test_scattered_via_pp_answers_where_the_shift_lands_at_zero(f81):
    s = normalize(f81, [(2, f81.one()), (3, f81.one())])
    with pytest.raises(HypothesisViolated):
        scattered_via_pp(f81, s, 3)  # above r1
    with pytest.raises(BadIndex):
        scattered_via_pp(f81, s, 4)
    # a monomial at its own exponent has a constant ratio, whatever the order
    # of its coefficient: scattered only over the single F_q-line of n = 1
    for ctx, r in ((build_field(5, 1, 1), 0), (f81, 2)):
        monomial = normalize(ctx, [(r, ctx.element_from_dlog(1))])
        assert scattered_via_pp(ctx, monomial, r) \
            == is_scattered_bruteforce(ctx, monomial, r).scattered == (ctx.n == 1)


def test_exceptional_desk_empty(f81):
    assert is_exceptional_desk(f81, normalize(f81, [(2, f81.one())]), 0, ()) == []


def test_exceptional_desk_basic(f81):
    verdicts = is_exceptional_desk(f81, normalize(f81, [(2, f81.one())]), 0, (1,))
    assert len(verdicts) == 1
    assert verdicts[0].ctx.n == 4
    assert not verdicts[0].report.scattered  # gcd(2, 4) != 1


def test_exceptional_desk_tower_embedding():
    # dlog-scaled re-embedding preserves multiplicative order
    base = build_field(3, 1, 5)
    minus_one = base.order // 2
    s = normalize(base, [(1, base.one()), (3, base.minus_one())])
    verdicts = is_exceptional_desk(base, s, 2, (1, 2))
    assert [v.m for v in verdicts] == [1, 2]
    assert verdicts[0].report.scattered
    # even extension degree: the norm of -1 collapses to 1, scatteredness dies
    assert not verdicts[1].report.scattered
    big = build_field(3, 1, 10)
    embedded = big.element_from_dlog(minus_one * (big.order // base.order))
    assert embedded == big.minus_one()


def test_exceptional_desk_cap(f243):
    with pytest.raises(FieldTooLarge):  # the step m = 3 is F_3^15, over the cap
        is_exceptional_desk(f243, normalize(f243, [(1, f243.one())]), 1, (1, 3))


def test_pseudoregulus_sweep_small(f81, f243):
    for ctx in (f81, f243):
        one = ctx.one()
        for r in range(ctx.n):
            s = normalize(ctx, [(r, one)])
            for t in range(ctx.n):
                rep = is_scattered_bruteforce(ctx, s, t)
                if t == r:
                    assert not rep.scattered
                else:
                    assert rep.scattered == (math.gcd(abs(t - r), ctx.n) == 1)


def _kept_term_reference(ctx, s, t):
    """Witness dlogs, distinct count and value groups, from ratio_map with S's own term kept.

    Every nonzero element is grouped by its ratio value; the groups come in
    order of their smallest dlog.
    """
    e = ctx.subfield_index
    groups = {}
    for a in range(ctx.order):
        groups.setdefault(ratio_map(ctx, s, t, ctx.element_from_dlog(a)), []).append(a)
    reps = [[a for a in group if a < e] for group in groups.values()]
    shared = sorted(group for group in reps if len(group) > 1)
    witness = None if not shared else (shared[0][0], shared[0][1])
    return witness, len(reps), sorted(groups.values())


def test_own_term_drop_matches_kept_reference():
    """The scan leaves out S's term at t; the kept-term reference must agree.

    A monomial at its own exponent puts every element in one group, some
    half a million ordered pairs: beyond 4000 pairs the enumeration is
    compared on its first 4000, and the counts in full.
    """
    rng = random.Random(10)
    for p, m, n in ((3, 1, 4), (3, 1, 5), (5, 1, 4), (3, 2, 3)):
        ctx = build_field(p, m, n)
        for _ in range(12):
            t = rng.randrange(n)
            others = rng.sample([r for r in range(n) if r != t], rng.randint(0, 2))
            s = normalize(ctx, [(r, ctx.element_from_dlog(rng.randrange(ctx.order)))
                                for r in [t, *others]])
            witness, distinct, groups = _kept_term_reference(ctx, s, t)
            pair_count = sum(len(g) * (len(g) - 1) for g in groups)
            report = is_scattered_bruteforce(ctx, s, t, census=True)
            got = None if report.witness is None else tuple(w.dlog for w in report.witness)
            assert (report.scattered, got) == (witness is None, witness), (str(s), t)
            assert report.distinct_ratio_values == distinct
            assert report.deciding_pair_count == pair_count
            limit = None if pair_count <= 4000 else 4000
            census = deciding_pairs(ctx, s, t, limit=limit)
            pairs = itertools.islice(((y, z) for g in groups for y in g for z in g
                                      if y != z), limit)
            assert [(y.dlog, z.dlog) for y, z in census.pairs] == list(pairs)
            assert census.equal_ratio_pairs == pair_count
            # a field without a table answers alike, and builds one only
            # when two or more terms lie off t
            basis = field_basis(p, m, n)
            assert is_scattered_bruteforce(basis, s, t, census=True) == report
            assert deciding_pairs(basis, s, t, limit=limit) == census
            assert ("_zech" in vars(basis)) == (len(others) > 1)


def test_basis_answers_as_a_built_field():
    """A field_basis field builds its table only when something adds.

    Monomial scans and the binomial's scans at its own exponents leave it
    without one; each answer that adds builds it, and every answer equals
    build_field's.
    """
    ctx = build_field(3, 1, 4)
    basis = field_basis(3, 1, 4)
    s = normalize(basis, [(1, basis.element_from_dlog(0)), (2, basis.element_from_dlog(3))])
    monomial = normalize(basis, [(1, basis.element_from_dlog(5))])
    for t in (1, 2):
        assert (is_scattered_bruteforce(basis, s, t, census=True)
                == is_scattered_bruteforce(ctx, s, t, census=True))
        assert deciding_pairs(basis, s, t) == deciding_pairs(ctx, s, t)
    for t in range(4):
        assert (is_scattered_bruteforce(basis, monomial, t, census=True)
                == is_scattered_bruteforce(ctx, monomial, t, census=True))
        assert deciding_pairs(basis, monomial, t) == deciding_pairs(ctx, monomial, t)
    assert is_permutation(basis, monomial)
    assert "_zech" not in vars(basis)
    answers = (
        lambda f: is_scattered_bruteforce(f, s, 0, census=True),
        lambda f: deciding_pairs(f, s, 0),
        lambda f: is_permutation(f, s),
        lambda f: normalize(f, [(1, f.element_from_dlog(0)), (5, f.element_from_dlog(7))]),
        lambda f: f.element_from_coeffs([1, 2, 0, 1]),
    )
    for answer in answers:
        basis = field_basis(3, 1, 4)
        assert answer(basis) == answer(ctx)
        assert isinstance(vars(basis)["_zech"], np.ndarray)
    # the tower builds a step's table only where its oracle adds
    for t, adds in ((1, False), (2, True)):
        base = field_basis(3, 1, 5)
        s = normalize(base, [(1, base.one()), (3, base.minus_one())])
        step, = is_exceptional_desk(base, s, t, (1,))
        assert ("_zech" in vars(step.ctx)) == adds


def _moved(ctx, terms, t, rng):
    """Four moves that keep the oracle's verdict and distinct count.

    ``terms`` are (exponent, dlog) pairs.  Rotation by u: S'(x) = S(z) and
    x^(q^(t-u)) = z^(q^t) for z = x^(q^-u), so the ratio takes the same
    values.  Scaling x -> g^k x multiplies every ratio by the constant
    g^(k q^t).  Conjugation a_i -> a_i^p gives the conjugate ratio at x^p.
    Each is a bijection on ratio values that keeps F_q-proportionality.
    The adjoint, after rotating t to 0: S^(x) = sum a_i^(q^(n-r_i)) x^(q^(n-r_i))
    is S's adjoint for the form Tr(xy), and S^ - lambda x is that of
    S - lambda x, so the two kernels have equal dimension for every lambda:
    S(x)/x and S^(x)/x take each value on equally many points.
    """
    n, order = ctx.n, ctx.order
    u, k = rng.randrange(1, n), rng.randrange(order)
    return (
        ([((r - u) % n, c) for r, c in terms], (t - u) % n),
        ([(r, (c + k * pow(ctx.q, r, order)) % order) for r, c in terms], t),
        ([(r, ctx.p * c % order) for r, c in terms], t),
        ([((t - r) % n, c * pow(ctx.q, (t - r) % n, order) % order) for r, c in terms], 0),
    )


def test_oracle_metamorphic():
    """Rotation, scaling, Galois conjugation and the adjoint leave the oracle's answer alone.

    Random S of 1-3 terms at a random t, and x^(q^r) - x at an index off
    {0, r}: its ratio vanishes on F_(q^gcd(r, n)), so the scan meets zeros.
    """
    rng = random.Random(18)
    for p, m, n in ((3, 1, 4), (3, 1, 5), (5, 1, 3), (5, 1, 4), (7, 1, 3), (3, 2, 3)):
        ctx = build_field(p, m, n)

        def poly(terms):
            return normalize(ctx, [(r, ctx.element_from_dlog(c)) for r, c in terms])

        instances = [([(r, rng.randrange(ctx.order))
                       for r in rng.sample(range(n), rng.randint(1, 3))], rng.randrange(n))
                     for _ in range(40)]
        for r in range(1, n):
            terms = [(0, ctx.minus_one().dlog), (r, 0)]
            t = rng.choice([i for i in range(1, n) if i != r])
            assert evaluate_many(ctx, poly(terms), np.zeros(1, np.int64), index=t)[0] == -1
            instances.append((terms, t))
        for terms, t in instances:
            report = is_scattered_bruteforce(ctx, poly(terms), t)
            for moved, u in _moved(ctx, terms, t, rng):
                got = is_scattered_bruteforce(ctx, poly(moved), u)
                assert ((got.scattered, got.distinct_ratio_values)
                        == (report.scattered, report.distinct_ratio_values)), (terms, t, moved, u)


def _sort_path(ctx, s, t):
    """Scattered, distinct count, witness dlogs and census from one sort of the ids."""
    e = ctx.subfield_index
    ids = _scan(ctx, _reduced(ctx, s, t), t)
    distinct, repeated = _collisions(ids)
    witness = _witness(ids, repeated) if repeated.size else None
    return witness is None, distinct, witness, _equal_ratio_pairs(ctx, e, repeated)


def _answer(report):
    witness = report.witness and tuple(x.dlog for x in report.witness)
    return (report.scattered, report.distinct_ratio_values, witness,
            report.deciding_pair_count)


def _one_term_instances():
    """Monomials at every t, t = r among them (a constant ratio, period 1),
    and binomials at their own exponents, with random coefficients.  F_5
    has one representative; F_3^11 and F_3^12 span three and nine scan
    chunks, and F_3^12's periods of 20440 and 66430 lie beyond both the
    witness window and a chunk."""
    rng = random.Random(23)
    instances = []
    for p, m, n in ((5, 1, 1), (3, 1, 4), (3, 1, 5), (3, 1, 6), (3, 1, 7), (5, 1, 3),
                    (5, 1, 4), (5, 1, 5), (7, 1, 3), (3, 2, 3), (3, 1, 11), (3, 1, 12)):
        ctx = build_field(p, m, n)

        def coeff():
            return ctx.element_from_dlog(rng.randrange(ctx.order))

        for t in range(n):
            for r in {t, rng.randrange(n)}:
                instances.append((ctx, normalize(ctx, [(r, coeff())]), t))
        for _ in range(2 if n > 1 else 0):
            r1, r2 = sorted(rng.sample(range(n), 2))
            s = normalize(ctx, [(r1, coeff()), (r2, coeff())])
            instances += [(ctx, s, r1), (ctx, s, r2)]
    return instances


def test_one_term_period_matches_sort_path(monkeypatch):
    """One-term oracles take their period from the exponents; the sort of the ids must agree.

    On :func:`_one_term_instances`.  With ``_collisions`` made to raise,
    every one-term oracle still answers alike and a trinomial's still
    reaches it.
    """
    instances = _one_term_instances()
    answers = [_answer(is_scattered_bruteforce(ctx, s, t, census=True))
               for ctx, s, t in instances]
    kinds = set()
    for (ctx, s, t), answer in zip(instances, answers):
        assert answer == _sort_path(ctx, s, t), (str(s), t)
        scattered, distinct = answer[:2]
        assert ctx.subfield_index % distinct == 0
        kinds.add("scattered" if scattered else "constant" if distinct == 1 else "periodic")
    assert kinds == {"scattered", "constant", "periodic"}

    def refuse(ids):
        raise AssertionError("a one-term scan sorted its ids")
    monkeypatch.setattr(scatter, "_collisions", refuse)
    assert [_answer(is_scattered_bruteforce(ctx, s, t, census=True))
            for ctx, s, t in instances] == answers
    ctx = instances[-1][0]
    with pytest.raises(AssertionError, match="sorted"):
        is_scattered_bruteforce(ctx, parse_poly(ctx, "0:g^1,1:g^0,2:g^5"), 1)


@pytest.mark.parametrize("p,n,text,tamper", [
    (3, 7, "1:g^0", "repeat"),   # P = e = 1093: no recurrence among the first 64
    (3, 4, "2:g^0", "distinct"),  # P = 10 < e = 40: the check covers every id
    (3, 4, "2:g^0", "late"),      # the first recurrence is still at P = 10
])
def test_one_term_period_is_checked_on_the_first_ids(monkeypatch, p, n, text, tamper):
    """A one-term oracle or census whose first ids disagree with the period
    from the exponents raises RuntimeError: with ids[7] made equal to ids[0],
    with every id made distinct, or with ids[20], a later recurrence of
    ids[0], made equal to ids[1]."""
    ctx = build_field(p, 1, n)
    s = parse_poly(ctx, text)
    is_scattered_bruteforce(ctx, s, 0)

    def tampered(ctx, s, dlogs, **kwargs):
        ids = evaluate_many(ctx, s, dlogs, **kwargs)
        if tamper == "repeat":
            ids[7] = ids[0]
        elif tamper == "late":
            ids[20] = ids[1]
        else:
            ids[:] = np.arange(ids.size)
        return ids
    monkeypatch.setattr(scatter, "evaluate_many", tampered)
    with pytest.raises(RuntimeError, match="period"):
        is_scattered_bruteforce(ctx, s, 0)
    with pytest.raises(RuntimeError, match="period"):
        deciding_pairs(ctx, s, 0)


def _sorted_census(ctx, s, t, limit):
    """deciding_pairs' counts, pairs and truncation from one sort of the ids."""
    e, w = ctx.subfield_index, ctx.q - 1
    ids = _scan(ctx, _reduced(ctx, s, t), t)
    _, repeated = _collisions(ids)
    count = _equal_ratio_pairs(ctx, e, repeated)

    def points(reps):
        return (rep + i * e for i in range(w) for rep in reps)
    ordered = ((y, z) for reps in scatter._value_groups(ids, repeated)
               for y in points(reps) for z in points(reps) if y != z)
    pairs = list(itertools.islice(ordered, count if limit is None else min(limit, count)))
    return count, pairs, limit is not None and 0 < limit < count


def test_one_term_census_groups_by_period(monkeypatch):
    """A one-term census takes its groups from the period, as the sort would.

    Pairs, counts and truncation agree on :func:`_one_term_instances`, at
    limits that stop inside the first group, inside a later one, at the
    default, and (below 2000 pairs) nowhere.  With ``_collisions`` made to
    raise the one-term censuses still answer, and a trinomial's still sorts.
    """
    instances = _one_term_instances()
    truncated = set()
    for ctx, s, t in instances:
        w = ctx.q - 1
        limits = [0, 1, w * (w - 1) + 3, 64]
        if deciding_pairs(ctx, s, t, limit=0).equal_ratio_pairs < 2000:
            limits.append(None)
        for limit in limits:
            census = deciding_pairs(ctx, s, t, limit=limit)
            assert census.collinear_pairs == ctx.order * (ctx.q - 2)
            got = (census.equal_ratio_pairs, [(y.dlog, z.dlog) for y, z in census.pairs],
                   census.truncated)
            assert got == _sorted_census(ctx, s, t, limit), (str(s), t, limit)
            truncated.add(census.truncated)
    assert truncated == {True, False}
    defaults = [deciding_pairs(ctx, s, t) for ctx, s, t in instances]

    def refuse(ids):
        raise AssertionError("a one-term census sorted its ids")
    monkeypatch.setattr(scatter, "_collisions", refuse)
    assert [deciding_pairs(ctx, s, t) for ctx, s, t in instances] == defaults
    ctx = instances[-1][0]
    with pytest.raises(AssertionError, match="sorted"):
        deciding_pairs(ctx, parse_poly(ctx, "0:g^1,1:g^0,2:g^5"), 1)


def test_chunked_scans_report_every_point_to_the_layer_counters(monkeypatch):
    """perfbench counts a scan's points and bytes at ``linpoly.evaluate_many``.

    On F_3^11 (e = 88573, three chunks) a scan of three terms calls it with
    ``dlogs`` whose sizes sum to e.  A one-term oracle takes its period from
    the exponents and calls it once, on the first ``_WITNESS_WINDOW``
    representatives.  Each call returns an int32 ndarray of its ``dlogs``'
    size, whose ``nbytes`` and ``itemsize`` the counters read.
    """
    ctx = build_field(3, 1, 11)
    e = ctx.subfield_index
    calls = []

    def spy(ctx, s, dlogs, **kwargs):
        result = evaluate_many(ctx, s, dlogs, **kwargs)
        calls.append((dlogs.size, result))
        return result
    monkeypatch.setattr(scatter, "evaluate_many", spy)

    def sizes(text):
        calls.clear()
        is_scattered_bruteforce(ctx, parse_poly(ctx, text), 1)
        for size, result in calls:
            assert isinstance(result, np.ndarray) and result.dtype == np.int32
            assert result.size == size and result.nbytes == 4 * size
        return [size for size, _ in calls]
    three = sizes("1:g^0,2:g^5,4:g^7")
    assert len(three) == 3 and sum(three) == e
    assert sizes("3:g^5") == [_WITNESS_WINDOW]
