"""Ground-truth scatteredness decisions by exhaustive scan.

A polynomial S is scattered of index t when equal values of S(x)/x^(q^t) at
distinct nonzero points force the points to be F_q-proportional.  The ratio is
constant on F_q^*-classes, and the class of g^a contains exactly one discrete
log below e = (q^n-1)/(q-1), so the scan walks the canonical representatives
g^0 .. g^(e-1), computes each ratio in discrete logs, and groups equal
values with one sort of their int32 ids.  Scattered means every group is a
singleton.  Each term is divided by x^(q^t) on its own, so the terms sum to
the ratio and no pass of its own computes it; a term's logs are an
arithmetic progression along the representatives (:class:`TermLogs`).

The own-term rule: S's term at exponent t adds the constant a_t to every
ratio, a bijection on ratio values, so the scan leaves it out (unless it is
S's only term) and every collision, witness and count stays the same.  Only
a sum of the remaining terms reads the Zech table: a monomial, or a binomial
at t in {r1, r2}, is scanned on discrete logs alone, and a field from
:func:`field.field_basis` builds its table only for a scan that adds.

The scan streams the representatives in fixed chunks into one int32 array,
so it holds no full-size int64 temporary, and builds each chunk's term logs
from the progressions with no ``%`` per point.  The witness and the
shared-value mask come from the sorted ids alone, by binary search: nothing
is sized by the field's order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BadIndex, HypothesisViolated, ZeroPolynomial
from .field import DEFAULT_CAP, FFElement, FieldCtx, field_basis
from .linpoly import LinearizedPolynomial, TermLogs, evaluate_many, normalize, rho_transform

_CHUNK = 1 << 15
# the representatives in the witness search's first window; each next window
# is twice as long, up to a chunk
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


def _scan(ctx: FieldCtx, s: LinearizedPolynomial, index: int | None, kernel,
          dtype) -> np.ndarray:
    """``kernel(reps, terms)`` applied to the representatives g^0 .. g^(e-1), in order.

    ``terms`` is what the kernel passes on to ``evaluate_many`` for S at
    ``index``.  The result has ``dtype``.  Up to one chunk, it is
    ``kernel(reps, None)`` itself: each term takes a single ``%`` pass, as
    building progressions would cost a desk-sized scan more than it saves.
    Beyond that the representatives stream through ``kernel`` in chunks of
    ``_CHUNK``, each result stored into one preallocated array, so no
    temporary of the kernel spans the whole range, and every chunk reads
    the same :class:`TermLogs`.  A kernel that sums two or more terms reads
    the Zech table, so it is read here first: a missing table is then built
    before the output array exists, and the build's temporaries are freed
    before the output is allocated.  Read inside the first chunk instead,
    the build would peak on top of the output, at about 12 bytes per field
    element rather than 9.
    """
    if s.k > 1:
        ctx._zech
    e = ctx.subfield_index
    if e <= _CHUNK:
        return kernel(np.arange(e, dtype=np.int64), None).astype(dtype, copy=False)
    terms = TermLogs(ctx, s, index, run=_CHUNK)
    out = np.empty(e, dtype=dtype)
    for start in range(0, e, _CHUNK):
        stop = min(start + _CHUNK, e)
        out[start:stop] = kernel(np.arange(start, stop, dtype=np.int64), terms)
    return out


def _scanned_terms(terms, t: int) -> tuple:
    """The terms of S that the oracle reads at index t.

    Every term but the one at exponent t, unless that is S's only term: the
    zero polynomial would be left, and a monomial's ratio is a constant anyway.
    """
    return tuple(term for term in terms if term[0] != t) or tuple(terms)


def _ratio_ids(ctx: FieldCtx, s: LinearizedPolynomial, t: int) -> np.ndarray:
    """One int32 id per representative; equal ids are equal ratio values.

    The scan drops S's term at exponent t (:func:`_scanned_terms`): it adds
    a_t to every ratio, a bijection on ratio values, so every collision,
    witness and count stays the same.  The id is then the dlog of
    S'(x)/x^(q^t) for the remaining S', or q^n-1 when S'(x) = 0.  Every id
    is at most q^n - 1, below ``TABLE_LIMIT = 2^31``.
    """
    if not 0 <= t < ctx.n:
        raise BadIndex(f"index {t} out of range 0..{ctx.n - 1}")
    scanned = LinearizedPolynomial(_scanned_terms(s.terms, t))
    order = ctx.order
    # each term is divided by x^(q^t) on its own (index=t), so the sum is
    # the ratio and no pass of its own computes the id
    can_vanish = scanned.k > 1

    def kernel(dlogs: np.ndarray, terms: TermLogs | None) -> np.ndarray:
        ids = evaluate_many(ctx, scanned, dlogs, index=t, terms=terms)
        if can_vanish:
            ids[ids < 0] = order
        return ids

    return _scan(ctx, scanned, t, kernel, np.int32)


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


def _in_repeated(ids: np.ndarray, repeated: np.ndarray) -> np.ndarray:
    """The mask of ``ids`` whose value is in ``repeated``, which is not empty.

    One binary search per id; its int64 positions are as long as ``ids``.
    """
    pos = repeated.searchsorted(ids)
    np.minimum(pos, repeated.size - 1, out=pos)
    return repeated[pos] == ids


def _shared(ids: np.ndarray, repeated: np.ndarray) -> np.ndarray:
    """The mask of representatives whose value is shared.

    Searched a chunk at a time, so the search positions never span all of
    ``ids``.
    """
    if not repeated.size:
        return np.zeros(ids.size, dtype=bool)
    return np.concatenate([_in_repeated(ids[start:start + _CHUNK], repeated)
                           for start in range(0, ids.size, _CHUNK)])


def _witness(ids: np.ndarray, repeated: np.ndarray) -> tuple[int, int]:
    """The smallest colliding pair (y, z) of representatives; ``repeated`` is not empty.

    y is the first representative whose value is shared.  It is searched
    for in windows of ``_WITNESS_WINDOW`` representatives, each next window
    twice as long up to ``_CHUNK``, so a witness among the first few
    representatives costs no pass over all of them.  z is the next
    representative with y's value.
    """
    start, size = 0, _WITNESS_WINDOW
    while start < ids.size:
        hits = _in_repeated(ids[start:start + size], repeated)
        if hits.any():
            y = start + int(hits.argmax())
            return y, y + 1 + int((ids[y + 1:] == ids[y]).argmax())
        start, size = start + size, min(2 * size, _CHUNK)
    raise ValueError("no repeated value is among the ids")


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


def is_scattered_bruteforce(ctx: FieldCtx, s: LinearizedPolynomial, t: int,
                            jobs: int = 1, census: bool = False) -> ScatterReport:
    """Exhaustive decision of scatteredness of index t.

    One ratio evaluation per projective point; one sort of the ratio ids finds
    the shared values, and any shared value yields a witness.  The witness is
    the first representative whose value is shared and the next one with that
    value: no colliding pair is smaller.

    ``jobs`` is accepted and ignored: the scan is serial.  The keyword stays
    only because perfbench's ``jobs_probe`` still passes it.
    """
    e = ctx.subfield_index
    ids = _ratio_ids(ctx, s, t)
    distinct, repeated = _collisions(ids)
    pair_count = _equal_ratio_pairs(ctx, e, repeated) if census else None

    if not repeated.size:
        return ScatterReport(True, t, None, e, distinct, pair_count)
    y, z = _witness(ids, repeated)
    return ScatterReport(False, t, (ctx.element_from_dlog(y), ctx.element_from_dlog(z)),
                         e, distinct, pair_count)


def _groups_by_head(ids: np.ndarray, shared: np.ndarray):
    """Representatives of each value group, groups in order of their smallest one.

    Lazy: a singleton is one representative outside ``shared``, and larger
    groups are read off one stable sort of the representatives in ``shared``.
    """
    members = np.flatnonzero(shared)
    by_value = members[np.argsort(ids[members], kind="stable")]
    sorted_ids = ids[by_value]
    for y in range(ids.size):
        if not shared[y]:
            yield (y,)
            continue
        value = ids[y]
        lo = int(np.searchsorted(sorted_ids, value))
        if by_value[lo] == y:  # y heads its group
            yield by_value[lo:np.searchsorted(sorted_ids, value, side="right")]


def deciding_pairs(ctx: FieldCtx, s: LinearizedPolynomial, t: int,
                   limit: int | None = 64) -> DecidingPairCensus:
    """Census of pairs with equal ratio values, with capped enumeration.

    Enumeration walks value groups by their smallest representative and lists
    ordered pairs (y, z) of distinct members in lexicographic dlog order.  Only
    the groups that hold the first ``limit`` pairs are built.
    """
    ids = _ratio_ids(ctx, s, t)
    _, repeated = _collisions(ids)
    shared = _shared(ids, repeated)
    e = ctx.subfield_index
    q = ctx.q
    equal_ratio = _equal_ratio_pairs(ctx, e, repeated)
    collinear = ctx.order * (q - 2)

    def ordered_pairs():
        for reps in _groups_by_head(ids, shared):
            members = sorted(int(rep) + i * e for rep in reps for i in range(q - 1))
            for y in members:
                for z in members:
                    if y != z:
                        yield y, z

    wanted = equal_ratio if limit is None else max(0, min(limit, equal_ratio))
    pairs = tuple((ctx.element_from_dlog(y), ctx.element_from_dlog(z))
                  for y, z in itertools.islice(ordered_pairs(), wanted))
    truncated = limit is not None and 0 < limit < equal_ratio
    return DecidingPairCensus(t, equal_ratio, collinear, pairs, truncated)


def is_permutation(ctx: FieldCtx, poly: LinearizedPolynomial) -> bool:
    """Bijectivity of the induced map; for linearized maps, a trivial kernel.

    A nonzero root exists iff a canonical representative is one, so the scan
    covers g^0 .. g^(e-1).
    """
    roots = _scan(ctx, poly, None,
                  lambda reps, terms: evaluate_many(ctx, poly, reps, terms=terms) < 0,
                  bool)
    return not roots.any()


def scattered_via_pp(ctx: FieldCtx, s: LinearizedPolynomial, t: int,
                     strict: bool = True) -> bool:
    """Scatteredness of index t via permutation behavior of the rho transforms.

    Valid when every coefficient's order divides q^t - 1 and 0 < t < r_1
    (``strict=False`` additionally admits t = 0 and t = r_1, where the same
    equivalence holds).  A vanished transform counts as a non-permutation.
    """
    r1 = s.min_exponent
    if strict:
        if not 0 < t < r1:
            raise HypothesisViolated(f"index {t} outside the window 0 < t < {r1}")
    elif not 0 <= t <= r1:
        raise HypothesisViolated(f"index {t} outside the window 0 <= t <= {r1}")
    qt1 = ctx.q**t - 1
    for _, a in s.terms:
        o = ctx.element_order(a)
        if qt1 % o != 0:
            raise HypothesisViolated(
                f"coefficient order {o} does not divide q^t-1 = {qt1}")
    e = ctx.subfield_index
    for a in range(ctx.order):
        if a % e == 0:
            continue  # rho in F_q
        rho = ctx.element_from_dlog(a)
        try:
            transformed = rho_transform(ctx, s, t, rho)
        except ZeroPolynomial:
            return False
        if not is_permutation(ctx, transformed):
            return False
    return True


def is_exceptional_desk(p: int, m: int, n: int, s_terms, t: int, m_list,
                        cap: int = DEFAULT_CAP,
                        base: FieldCtx | None = None) -> list[TowerVerdict]:
    """Run the oracle for the same polynomial across extension steps.

    ``s_terms`` are (exponent, dlog) pairs over the base field F_{q^n}, with
    distinct exponents; each coefficient g_n^a re-embeds into F_{q^(n*m)} as
    g_{nm}^(a*D) with D = (q^(nm)-1)/(q^n-1), the norm-compatible power map.
    Each step's field builds its Zech table only if the oracle adds.
    ``base``, F_{q^n} as the caller already holds it, serves the step m = 1.
    A full pass is a finite certificate consistent with exceptionality,
    never a proof.
    """
    base_order = p ** (m * n) - 1
    verdicts = []
    for mm in m_list:
        if mm < 1:
            raise ValueError("extension multipliers must be positive")
        ctx = base if mm == 1 and base is not None else field_basis(p, m, n * mm, cap=cap)
        scale = ctx.order // base_order
        terms = [(r, ctx.element_from_dlog(dlog * scale % ctx.order))
                 for r, dlog in s_terms]
        poly = normalize(ctx, terms)
        report = is_scattered_bruteforce(ctx, poly, t)
        verdicts.append(TowerVerdict(mm, report, ctx))
    return verdicts
