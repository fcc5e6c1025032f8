"""Ground-truth scatteredness decisions by exhaustive scan.

A polynomial S is scattered of index t when equal values of S(x)/x^(q^t) at
distinct nonzero points force the points to be F_q-proportional.  The ratio is
constant on F_q^*-classes, and the class of g^a contains exactly one discrete
log below e = (q^n-1)/(q-1), so the scan walks the canonical representatives
g^0 .. g^(e-1), computes each ratio with table lookups, and groups equal
values with one sort of their int32 ids.  Scattered means every group is a
singleton.

The scan streams the representatives in fixed chunks into one int32 array,
so it holds no full-size int64 temporary.  The chunks can run on worker
threads (numpy releases the GIL on the bulk operations); each writes its own
slice, and the field context is shared read-only.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BadIndex, FieldTooLarge, HypothesisViolated, ZeroPolynomial
from .field import DEFAULT_CAP, FFElement, FieldCtx, build_field
from .linpoly import LinearizedPolynomial, evaluate_many, normalize, rho_transform

_CHUNK = 1 << 15


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

    ``ctx`` is the step's own field, the one the witness elements belong to.
    """

    m: int
    extension_degree: int
    field_size: int
    report: ScatterReport
    ctx: FieldCtx


def _scan(ctx: FieldCtx, kernel, jobs: int, dtype) -> np.ndarray:
    """``kernel`` applied to the representatives g^0 .. g^(e-1), in order.

    The result has ``dtype``.  Up to one chunk, it is ``kernel(reps)`` itself.
    Beyond that the representatives stream through ``kernel`` in chunks of
    ``_CHUNK``, each result stored into one preallocated array, so no
    temporary of the kernel spans the whole range.  With ``jobs > 1`` the
    chunks run on a thread pool; they write disjoint slices.
    """
    e = ctx.subfield_index
    if e <= _CHUNK:
        return kernel(np.arange(e, dtype=np.int64)).astype(dtype, copy=False)
    out = np.empty(e, dtype=dtype)

    def run(start: int) -> None:
        stop = min(start + _CHUNK, e)
        out[start:stop] = kernel(np.arange(start, stop, dtype=np.int64))

    starts = range(0, e, _CHUNK)
    if jobs <= 1:
        for start in starts:
            run(start)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run, starts))
    return out


def _ratio_ids(ctx: FieldCtx, s: LinearizedPolynomial, t: int,
               jobs: int) -> np.ndarray:
    """Ratio values as int32: the ratio's dlog, or q^n-1 when S(x) = 0.

    Every id is at most q^n - 1, below ``TABLE_LIMIT = 2^31``.
    """
    if not 0 <= t < ctx.n:
        raise BadIndex(f"index {t} out of range 0..{ctx.n - 1}")
    step = pow(ctx.q, t, ctx.order)

    def kernel(dlogs: np.ndarray) -> np.ndarray:
        num = evaluate_many(ctx, s, dlogs)
        ids = (num - dlogs * step) % ctx.order
        ids[num < 0] = ctx.order
        return ids

    return _scan(ctx, kernel, jobs, np.int32)


def _collisions(ctx: FieldCtx, ids: np.ndarray
                ) -> tuple[int, np.ndarray | None, np.ndarray]:
    """Equal ratio ids, found with one sort.

    Returns the number of distinct values, the mask of representatives whose
    value is shared (None when every value is distinct), and ``repeated``:
    the sorted ids that equal their predecessor, so a value shared by c
    representatives appears c - 1 times in it.
    """
    # ndarray methods, not np.sort or np.argmax: at desk sizes the wrappers
    # cost as much as the work
    srt = ids.copy()
    srt.sort()
    repeated = srt[1:][srt[1:] == srt[:-1]]
    del srt
    distinct = ids.size - repeated.size
    if not repeated.size:
        return distinct, None, repeated
    marked = np.zeros(ctx.order + 1, dtype=bool)
    marked[repeated] = True
    return distinct, marked[ids], repeated


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
                            jobs: int = 1, census: bool = False,
                            limit: int | None = None) -> ScatterReport:
    """Exhaustive decision of scatteredness of index t.

    One ratio evaluation per projective point; one sort of the ratio ids finds
    the shared values, and any shared value yields a witness.  The witness is
    the first representative whose value is shared and the next one with that
    value: no colliding pair is smaller.
    """
    if limit is not None and ctx.size > limit:
        raise FieldTooLarge(ctx.size, limit)
    e = ctx.subfield_index
    ids = _ratio_ids(ctx, s, t, jobs)
    distinct, shared, repeated = _collisions(ctx, ids)
    pair_count = _equal_ratio_pairs(ctx, e, repeated) if census else None

    if shared is None:
        return ScatterReport(True, t, None, e, distinct, pair_count)
    y = int(shared.argmax())
    z = y + 1 + int((ids[y + 1:] == ids[y]).argmax())
    return ScatterReport(False, t, (ctx.element_from_dlog(y), ctx.element_from_dlog(z)),
                         e, distinct, pair_count)


def _groups_by_head(ids: np.ndarray, shared: np.ndarray | None):
    """Representatives of each value group, groups in order of their smallest one.

    Lazy: a singleton is one representative outside ``shared``, and larger
    groups are read off one stable sort of the representatives in ``shared``.
    """
    if shared is None:
        shared = np.zeros(ids.size, dtype=bool)
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
                   limit: int | None = 64, jobs: int = 1) -> DecidingPairCensus:
    """Census of pairs with equal ratio values, with capped enumeration.

    Enumeration walks value groups by their smallest representative and lists
    ordered pairs (y, z) of distinct members in lexicographic dlog order.  Only
    the groups that hold the first ``limit`` pairs are built.
    """
    ids = _ratio_ids(ctx, s, t, jobs)
    _, shared, repeated = _collisions(ctx, ids)
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


def is_permutation(ctx: FieldCtx, poly: LinearizedPolynomial,
                   jobs: int = 1) -> bool:
    """Bijectivity of the induced map; for linearized maps, a trivial kernel.

    A nonzero root exists iff a canonical representative is one, so the scan
    covers g^0 .. g^(e-1).
    """
    roots = _scan(ctx, lambda reps: evaluate_many(ctx, poly, reps) < 0, jobs, bool)
    return not roots.any()


def scattered_via_pp(ctx: FieldCtx, s: LinearizedPolynomial, t: int,
                     strict: bool = True, jobs: int = 1) -> bool:
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
        if not is_permutation(ctx, transformed, jobs=jobs):
            return False
    return True


def is_exceptional_desk(p: int, m: int, n: int, s_terms, t: int, m_list,
                        cap: int = DEFAULT_CAP, jobs: int = 1,
                        strict: bool = True) -> list[TowerVerdict]:
    """Run the oracle for the same polynomial across extension steps.

    ``s_terms`` are (exponent, dlog) pairs over the base field F_{q^n}; each
    coefficient g_n^a re-embeds into F_{q^(n*m)} as g_{nm}^(a*D) with
    D = (q^(nm)-1)/(q^n-1), the norm-compatible power map.  A full pass is a
    finite certificate consistent with exceptionality, never a proof.
    """
    base_order = p ** (m * n) - 1
    verdicts = []
    for mm in m_list:
        if mm < 1:
            raise ValueError("extension multipliers must be positive")
        ctx = build_field(p, m, n * mm, cap=cap, strict=strict)
        scale = ctx.order // base_order
        terms = [(r, ctx.element_from_dlog(dlog * scale % ctx.order))
                 for r, dlog in s_terms]
        poly = normalize(ctx, terms)
        report = is_scattered_bruteforce(ctx, poly, t, jobs=jobs)
        verdicts.append(TowerVerdict(mm, ctx.n, ctx.size, report, ctx))
    return verdicts
