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

from scatterpoly.scatter import _CHUNK, _WITNESS_WINDOW, _collisions, _ratio_ids, _witness

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


def _check_against_reference(ctx, s, t):
    """The oracle and deciding_pairs against the reference; returns S's logs."""
    num, witness, distinct, census, pairs = _reference_oracle(ctx, s, t, 40)
    report = is_scattered_bruteforce(ctx, s, t, census=True)
    got = report.witness and tuple(x.dlog for x in report.witness)
    assert got == witness, (str(s), t)
    assert report.distinct_ratio_values == distinct, (str(s), t)
    assert report.deciding_pair_count == census, (str(s), t)
    listed = deciding_pairs(ctx, s, t, limit=40)
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
            ids = _ratio_ids(ctx, s, t).tolist()
            brute = next(((y, z) for y in range(len(ids))
                          for z in range(y + 1, len(ids)) if ids[y] == ids[z]), None)
            witness = is_scattered_bruteforce(ctx, s, t).witness
            got = None if witness is None else (witness[0].dlog, witness[1].dlog)
            assert got == brute, (str(s), t)


def test_capped_pairs_are_a_prefix(f81, f243, f81_tower):
    rng = random.Random(9)
    for ctx in (f81, f243, f81_tower):
        for s, t in _random_instances(ctx, rng, 10):
            full = deciding_pairs(ctx, s, t, limit=None)
            assert len(full.pairs) == full.equal_ratio_pairs
            for limit in (0, 1, 7, 40):
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
    with pytest.raises(HypothesisViolated):
        scattered_via_pp(f81, good, 2)  # t = r1 needs the relaxation
    assert scattered_via_pp(f81, good, 2, strict=False) \
        == is_scattered_bruteforce(f81, good, 2).scattered


def test_scattered_via_pp_relaxed_index_zero(f81):
    s = normalize(f81, [(1, f81.gamma)])
    assert (scattered_via_pp(f81, s, 0, strict=False)
            == is_scattered_bruteforce(f81, s, 0).scattered)


def test_exceptional_desk_empty():
    assert is_exceptional_desk(3, 1, 4, ((2, 0),), 0, ()) == []


def test_exceptional_desk_basic():
    verdicts = is_exceptional_desk(3, 1, 4, ((2, 0),), 0, (1,))
    assert len(verdicts) == 1
    assert verdicts[0].ctx.n == 4
    assert not verdicts[0].report.scattered  # gcd(2, 4) != 1


def test_exceptional_desk_tower_embedding():
    # dlog-scaled re-embedding preserves multiplicative order
    base = build_field(3, 1, 5)
    minus_one = base.order // 2
    verdicts = is_exceptional_desk(3, 1, 5, ((1, 0), (3, minus_one)), 2, (1, 2))
    assert [v.m for v in verdicts] == [1, 2]
    assert verdicts[0].report.scattered
    # even extension degree: the norm of -1 collapses to 1, scatteredness dies
    assert not verdicts[1].report.scattered
    big = build_field(3, 1, 10)
    embedded = big.element_from_dlog(minus_one * (big.order // base.order))
    assert embedded == big.minus_one()


def test_exceptional_desk_cap():
    with pytest.raises(FieldTooLarge):
        is_exceptional_desk(3, 1, 5, ((1, 0),), 1, (1, 3))  # 3^15 over cap


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
    minus_one = 3**5 // 2
    for t, adds in ((1, False), (2, True)):
        step, = is_exceptional_desk(3, 1, 5, ((1, 0), (3, minus_one)), t, (1,))
        assert ("_zech" in vars(step.ctx)) == adds
