"""Ground-truth scatteredness decisions by exhaustive scan.

A polynomial S is scattered of index t when equal values of S(x)/x^(q^t) at
distinct nonzero points force the points to be F_q-proportional.  The ratio is
constant on F_q^*-classes, and the class of g^a contains exactly one discrete
log below e = (q^n-1)/(q-1), so the scan walks the canonical representatives
g^0 .. g^(e-1) and computes each ratio in discrete logs, as int32 ids.
Scattered means no two ids are equal.  Each term is divided by x^(q^t) on
its own, so the terms sum to the ratio and no pass of its own computes it; a
term's logs are an arithmetic progression along the representatives
(:class:`TermLogs`).

The own-term rule: S's term at exponent t adds the constant a_t to every
ratio, a bijection on ratio values, so the oracle leaves it out (unless it is
S's only term) and every collision, witness and count stays the same.  Each
answer checks t and applies the rule once, in :func:`_reduced`, and reads
everything off the instance it returns.  Only a sum of the remaining terms
reads the Zech table: a monomial, or a binomial at t in {r1, r2}, is decided
from its exponents and checked on discrete logs alone, and a field from
:func:`field.field_basis` builds its table only for a scan that adds.

A scanned term's ratio ids are c + j*(q^r - q^t) mod the group order
along the representatives j, an arithmetic progression, so one term needs no
scan: its ids repeat with period P = order / gcd((q^r - q^t) mod order,
order), which is 1 at r = t, a constant ratio (:func:`_one_term_period`).
P divides e and gives every answer: P distinct values, scattered iff P = e,
the witness (g^0, g^P), the census, and the census's groups, the residues
mod P.  The formula is checked by its definition on the ids of the first
``_WITNESS_WINDOW`` representatives, one :func:`evaluate_many` call: ids[j]
equals ids[0] exactly where P divides j.  So a field with e <= 64 is
scanned in full, and a witness below the window is read off its ids.
Nothing one-term is sized by e.

One scan, :func:`_scan`, serves the oracle and census of a sum and
:func:`is_permutation`: it streams the representatives in chunks into one
int32 array of ids, with no full-size temporary and no ``%`` per point.
Each chunk is built in uint32: every residue is below the order, which is
below 2^31, so a sum of two fits 32 bits, and the int32 view of the result
is the chunk's ids, -1 for zero.  The oracle and :func:`deciding_pairs` group
a sum's equal ids with one sort (:func:`_collisions`).  The representatives
whose value is shared then come in order from binary searches of the sorted
ids (:func:`_shared_reps`): the witness is the first of them, and the census
walks them lazily.  Nothing but the ids and their sorted copy is sized by
the field's order.

A census group is a value's representatives, a range with step P for one
term and a list read off the sorted ids for a sum, and one generator lists
its points lazily (:func:`_group_points`).

The permutation criterion, :func:`scattered_via_pp`, takes its window and
hypotheses from the one index shift, :func:`criteria.index_shift_reduction`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criteria import index_shift_reduction
from .errors import HypothesisViolated, WouldBeZero, ZeroPolynomial
from .field import DEFAULT_CAP, FFElement, FieldCtx, check_index, field_basis
from .linpoly import LinearizedPolynomial, TermLogs, evaluate_many, rho_transform

_CHUNK = 1 << 15
# the representatives of a scan of one chunk, shared by every such scan
_POINTS = np.arange(_CHUNK, dtype=np.int64)
_POINTS.flags.writeable = False
# the representatives in the witness search's first window, each next window
# twice as long up to a chunk; and those a one-term period is checked on
_WITNESS_WINDOW = 64


@dataclass(frozen=True)
class ScatterReport:
    """Outcome of one exhaustive check.

    ``witness`` is present exactly when not scattered: a pair (y, z) with equal
    ratio values and y/z outside F_q, chosen as the lexicographically smallest
    colliding discrete-log pair for determinism.
    """

    scattered: bool
    index: int
    witness: tuple[FFElement, FFElement] | None
    projective_points: int
    distinct_ratio_values: int
    deciding_pair_count: int | None = None


@dataclass(frozen=True)
class DecidingPairCensus:
    """Counts of pairs with equal ratio values.

    ``equal_ratio_pairs`` counts all ordered pairs of distinct nonzero points
    with equal ratios; ``collinear_pairs`` counts the subset whose quotient
    lies in F_q.  The two coincide exactly on scattered instances.
    """

    index: int
    equal_ratio_pairs: int
    collinear_pairs: int
    pairs: tuple[tuple[FFElement, FFElement], ...]
    truncated: bool


@dataclass(frozen=True)
class TowerVerdict:
    """Oracle verdict for one extension step of the tower.

    ``ctx`` is the step's own field, the one the witness elements belong to;
    its degree and size are the step's.  Its Zech table is built only if the
    step's oracle adds.
    """

    m: int
    report: ScatterReport
    ctx: FieldCtx


def _scan(ctx: FieldCtx, s: LinearizedPolynomial, index: int | None) -> np.ndarray:
    """int32 ids of S at the representatives g^0 .. g^(e-1), in order.

    An id is the discrete log of S(x), or of S(x)/x^(q^index) given an
    ``index``, and -1 where that is zero, as in :func:`evaluate_many`.
    Up to one chunk each term takes a single ``%`` pass, which costs a desk
    scan less than progressions; beyond, chunks of ``_CHUNK`` read one
    :class:`TermLogs`, and each chunk's ids are assigned into their slice,
    so no temporary spans the whole range.  One array of points is shifted
    from chunk to chunk, since the progressions read only where a chunk
    starts and how long it is.  A sum of two or more terms reads the Zech
    table here first, so a missing table is built, and its temporaries
    freed, before the ids exist: built inside the first chunk, it would peak
    on top of them, at about 12 bytes per field element rather than 9.
    """
    if s.k > 1:
        ctx._zech
    e = ctx.subfield_index
    if e <= _CHUNK:
        return evaluate_many(ctx, s, _POINTS[:e], index=index)
    terms = TermLogs(ctx, s, index)
    ids = np.empty(e, dtype=np.int32)
    points = np.arange(_CHUNK, dtype=np.int32)  # each chunk's points, in turn
    for start in range(0, e, _CHUNK):
        dlogs = points[:e - start]
        ids[start:start + dlogs.size] = evaluate_many(ctx, s, dlogs, terms=terms)
        points += _CHUNK
    return ids


def _reduced(ctx: FieldCtx, s: LinearizedPolynomial, t: int) -> LinearizedPolynomial:
    """The instance decided at index t, once t is checked: S without its term
    at t, unless that is S's only term (the own-term rule)."""
    check_index(t, ctx.n)
    return LinearizedPolynomial(tuple(term for term in s.terms if term[0] != t) or s.terms)


def _one_term_period(ctx: FieldCtx, term: LinearizedPolynomial, t: int) -> int:
    """The period P of the ratio ids of one term at index t.

    The term a*x^(q^r) has ids c + j*d mod the order along the
    representatives j, with d = (q^r - q^t) mod the order, so ids[j] ==
    ids[0] exactly when the order divides j*d: P = order / gcd(d, order),
    and P = 1 at r = t.  Since gcd(q^r - q^t, q^n - 1) = q^gcd(r-t, n) - 1 is
    a multiple of q - 1, P divides e, and the ids take P distinct values.

    The first min(e, ``_WITNESS_WINDOW``) ids are evaluated, and that
    definition is checked on them: ids[j] == ids[0] exactly where P divides
    j; otherwise RuntimeError.
    """
    [(r, _)] = term.terms
    order = ctx.order
    period = order // math.gcd((pow(ctx.q, r, order) - pow(ctx.q, t, order)) % order, order)
    head = evaluate_many(ctx, term, _POINTS[:min(ctx.subfield_index, _WITNESS_WINDOW)],
                         index=t)
    hits = head == head[0]
    if not (hits[::period].all() and np.count_nonzero(hits) == -(-head.size // period)):
        raise RuntimeError(f"the ratio ids of {term} at index {t} "
                           f"do not repeat with period {period}")
    return period


def _collisions(ids: np.ndarray) -> tuple[int, np.ndarray]:
    """Equal ratio ids, found with one sort.

    Returns the number of distinct values and ``repeated``: the sorted ids
    that equal their predecessor, so a value shared by c representatives
    appears c - 1 times in it.
    """
    # ndarray methods, not np.sort: at desk sizes the wrappers cost as much
    # as the work
    srt = ids.copy()
    srt.sort()
    repeated = srt[1:][srt[1:] == srt[:-1]]
    return ids.size - repeated.size, repeated


def _shared_reps(ids: np.ndarray, repeated: np.ndarray):
    """The representatives whose value is shared, in increasing order.

    One binary search of ``repeated`` per id, in windows of
    ``_WITNESS_WINDOW`` representatives, each next window twice as long up
    to ``_CHUNK``: a consumer that stops among the first few representatives
    costs no pass over all of them, and the int64 search positions never
    span all of ``ids``.
    """
    start, size = 0, _WITNESS_WINDOW
    while repeated.size and start < ids.size:
        window = ids[start:start + size]
        pos = repeated.searchsorted(window)
        np.minimum(pos, repeated.size - 1, out=pos)
        for y in np.flatnonzero(repeated[pos] == window):
            yield start + int(y)
        start, size = start + size, min(2 * size, _CHUNK)


def _witness(ids: np.ndarray, repeated: np.ndarray) -> tuple[int, int]:
    """The smallest colliding pair: the first shared representative, and the next of its value."""
    y = next(_shared_reps(ids, repeated))
    return y, y + 1 + int((ids[y + 1:] == ids[y]).argmax())


def _equal_ratio_pairs(ctx: FieldCtx, e: int, repeated: np.ndarray) -> int:
    """Ordered pairs of distinct nonzero points with equal ratio values.

    A value shared by c representatives is taken by m = c(q-1) points, which
    make m(m-1) pairs; summed over values that is (q-1)^2 sum(c^2) - (q-1) e.
    A shared value is a run of c - 1 entries of ``repeated``, so sum(c^2) is
    e + len(repeated) + the sum of the squared run lengths.
    """
    heads = np.flatnonzero(np.concatenate(([True], repeated[1:] != repeated[:-1])))
    runs = np.diff(heads, append=repeated.size)
    square_sum = e + repeated.size + int(np.dot(runs, runs))
    w = ctx.q - 1
    return w * w * square_sum - w * e


def _period_pairs(ctx: FieldCtx, e: int, period: int) -> int:
    """:func:`_equal_ratio_pairs` of one term's ids: each of ``period`` values
    is shared by e/period representatives, so sum(c^2) = e^2/period."""
    w = ctx.q - 1
    return w * w * (e * e // period) - w * e


def is_scattered_bruteforce(ctx: FieldCtx, s: LinearizedPolynomial, t: int,
                            jobs: int = 1, census: bool = False) -> ScatterReport:
    """Exhaustive decision of scatteredness of index t.

    One ratio evaluation per projective point.  The witness is the first
    representative whose value is shared and the next one with that value:
    no colliding pair is smaller.

    S and t are reduced once (:func:`_reduced`).  One term (S has one term,
    or two with one at t) is decided in closed form: its ids repeat with
    period P = order / gcd((q^r - q^t) mod order, order)
    (:func:`_one_term_period`), checked by its definition on the ids of the
    first 64 representatives.  P divides e, so P < e leaves each of P
    values shared by e/P representatives: the witness is (g^0, g^P), and
    the census is (q-1)^2 e^2/P - (q-1) e.  Nothing sized by e is built.
    The ids of more terms are scanned and sorted once (:func:`_collisions`),
    and any shared value yields a witness.

    ``jobs`` is accepted and ignored: the scan is serial.  The keyword stays
    only because perfbench's ``jobs_probe`` still passes it.
    """
    e = ctx.subfield_index
    reduced = _reduced(ctx, s, t)
    if reduced.k == 1:
        distinct = _one_term_period(ctx, reduced, t)
        pair_count = _period_pairs(ctx, e, distinct) if census else None
        witness = (0, distinct) if distinct < e else None
    else:
        ids = _scan(ctx, reduced, t)
        distinct, repeated = _collisions(ids)
        pair_count = _equal_ratio_pairs(ctx, e, repeated) if census else None
        witness = _witness(ids, repeated) if repeated.size else None

    if witness is None:
        return ScatterReport(True, t, None, e, distinct, pair_count)
    y, z = witness
    return ScatterReport(False, t, (ctx.element_from_dlog(y), ctx.element_from_dlog(z)),
                         e, distinct, pair_count)


def _value_groups(ids: np.ndarray, repeated: np.ndarray):
    """The representatives of each ratio value, values in order of their smallest.

    A shared value's representatives are read by one pass over the ids from
    its first one, when the walk reaches it.
    """
    shared = _shared_reps(ids, repeated)
    next_shared = next(shared, ids.size)
    heads = set()  # the values whose group is already out
    for y in range(ids.size):
        if y != next_shared:
            yield (y,)
            continue
        next_shared = next(shared, ids.size)
        value = int(ids[y])
        if value not in heads:
            heads.add(value)
            yield (y + np.flatnonzero(ids[y:] == value)).tolist()


def _group_points(ctx: FieldCtx, reps):
    """The points of a value's representatives, as dlogs in increasing order.

    The points of a representative y are y + i*e for i < q - 1, so listing
    them by i, then by representative, lists them in order, with no sort.
    """
    e = ctx.subfield_index
    return (rep + i * e for i in range(ctx.q - 1) for rep in reps)


def deciding_pairs(ctx: FieldCtx, s: LinearizedPolynomial, t: int,
                   limit: int | None = 64) -> DecidingPairCensus:
    """Census of pairs with equal ratio values, with capped enumeration.

    Enumeration walks value groups by their smallest point and lists ordered
    pairs (y, z) of distinct members in lexicographic dlog order.  A group
    is a value's representatives, whose points are listed lazily
    (:func:`_group_points`), so the walk stops at ``limit`` pairs, inside a
    group if need be.  One term sorts nothing: its ids repeat with period P
    (:func:`_one_term_period`), which divides e, so the group of y < P is y,
    y + P, ... below e.  The ids of more terms are scanned and sorted once
    (:func:`_value_groups`).
    """
    e = ctx.subfield_index
    reduced = _reduced(ctx, s, t)
    if reduced.k == 1:
        period = _one_term_period(ctx, reduced, t)
        equal_ratio = _period_pairs(ctx, e, period)
        groups = (range(y, e, period) for y in range(period))
    else:
        ids = _scan(ctx, reduced, t)
        _, repeated = _collisions(ids)
        equal_ratio = _equal_ratio_pairs(ctx, e, repeated)
        groups = _value_groups(ids, repeated)

    ordered_pairs = ((a, b) for reps in groups for a in _group_points(ctx, reps)
                     for b in _group_points(ctx, reps) if a != b)
    wanted = equal_ratio if limit is None else max(0, min(limit, equal_ratio))
    pairs = tuple((ctx.element_from_dlog(y), ctx.element_from_dlog(z))
                  for y, z in itertools.islice(ordered_pairs, wanted))
    truncated = limit is not None and 0 < limit < equal_ratio
    return DecidingPairCensus(t, equal_ratio, ctx.order * (ctx.q - 2), pairs, truncated)


def is_permutation(ctx: FieldCtx, poly: LinearizedPolynomial) -> bool:
    """Bijectivity of the induced map; for linearized maps, no nonzero root.

    A nonzero root exists iff a canonical representative is one, so the scan
    covers g^0 .. g^(e-1): a root is a representative whose id is -1.
    """
    return not (_scan(ctx, poly, None) < 0).any()


def scattered_via_pp(ctx: FieldCtx, s: LinearizedPolynomial, t: int) -> bool:
    """Scatteredness of index t via permutation behavior of the rho transforms.

    Where the index shift lands at index 0 (t <= r_1) with its hypotheses
    holding, S is scattered iff every rho transform of the shifted
    polynomial, rho outside F_q, is a permutation (a vanished one is not).
    The hypotheses are the paper's, sufficient but not necessary; elsewhere
    HypothesisViolated names the unmet one, or t above r_1.  A monomial at
    its own exponent has a constant ratio: scattered only when n = 1.
    """
    try:
        shifted, index, verdict = index_shift_reduction(ctx, s, t)
    except WouldBeZero:
        return ctx.n == 1
    if index:
        raise HypothesisViolated(f"index {t} above the least exponent {s.min_exponent}")
    for h in verdict.hypotheses:
        if not h.satisfied:
            raise HypothesisViolated(f"{h.name}: {h.detail}")
    e = ctx.subfield_index
    for a in range(ctx.order):
        if a % e == 0:
            continue  # rho in F_q
        rho = ctx.element_from_dlog(a)
        try:
            transformed = rho_transform(ctx, shifted, rho)
        except ZeroPolynomial:
            return False
        if not is_permutation(ctx, transformed):
            return False
    return True


def is_exceptional_desk(base: FieldCtx, s: LinearizedPolynomial, t: int, m_list,
                        cap: int = DEFAULT_CAP) -> list[TowerVerdict]:
    """Run the oracle for S over ``base`` = F_{q^n} across extension steps.

    The step m = 1 is ``base`` itself.  For m > 1 each coefficient g_n^a
    re-embeds into F_{q^(n*m)} as g_{nm}^(a*D) with D = (q^(nm)-1)/(q^n-1),
    the norm-compatible power map.  Each step's field builds its Zech table
    only if the oracle adds.  A full pass is a finite certificate consistent
    with exceptionality, never a proof.
    """
    verdicts = []
    for mm in m_list:
        if mm < 1:
            raise ValueError("extension multipliers must be positive")
        ctx = base if mm == 1 else field_basis(base.p, base.m, base.n * mm, cap=cap)
        scale = ctx.order // base.order
        poly = LinearizedPolynomial(tuple((r, ctx.element_from_dlog(a.dlog * scale))
                                          for r, a in s.terms))
        verdicts.append(TowerVerdict(mm, is_scattered_bruteforce(ctx, poly, t), ctx))
    return verdicts
