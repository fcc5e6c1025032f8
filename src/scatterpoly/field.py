"""Table-backed arithmetic in the extension tower F_p <= F_q <= F_{q^n}.

The field F_{q^n} = F_{p^{m*n}} is realized as F_p[x]/(modulus) with a
deterministic modulus and primitive element, so independent runs agree on
every discrete log.  Construction picks

  * the monic irreducible polynomial of degree m*n whose coefficient vector
    (below the leading term) has the smallest integer encoding sum(c_i p^i),
  * the nonzero element of smallest integer encoding with full multiplicative
    order,

and then keeps one table, the int32 Zech log ``zech[k] = log(1 + g^k)``
(4 bytes per element), so that multiplication, inversion, Frobenius powers,
norms and addition are O(1) integer operations on discrete logs.  That is
what makes the exhaustive scans in :mod:`scatterpoly.scatter` feasible.
While it is built, its one log per F_p-line sits in the Zech buffer's last
row (for p > 2), and the only other array sized by the field holds a code
of one or two bytes per line.

For degree d >= 2 both searches share one Frobenius matrix, the modulus's,
whose row i is x^(p*i), and the context keeps it.  The modulus search drops
every encoding with a root in F_p in one numpy pass over a block of
encodings, then runs the Rabin test on the remaining candidates together, a
few at a time: x^(p^k) comes from iterated products with the Frobenius
matrices of all of them, built at once, and its coprimality tests read the
resultant.  The accepted candidate's matrix goes on to the generator
search.  There a prime l of the order that divides p - 1 is decided from the
candidate's norm to F_p, the resultant of the modulus and the candidate;
every other l raises the candidate to order/l.
The factorization of the order stops dividing once the cofactor left is
prime.  The table build (:func:`_build_tables`) multiplies digit vectors only
for one power of the generator per F_p-line, writes one log per line, and
reads the Zech table off the line table in walk order; the other p - 2
points of a line differ by powers of the generator's norm, a constant of
F_p, and are never written.  Each line's index arithmetic is a lookup in a
small table keyed by values the line carries, wherever that table has no
more entries than the field has F_p-lines; elsewhere (small degree and large
p) the line forms the same values with a few products and sums.

One routine, :func:`_powers`, raises a digit vector to a power: Horner's
rule over the base-p digits of the exponent, one product with the Frobenius
matrix and one with a memoized matrix of v^digit per digit (a plain modular
power in a prime field).  The generator search, the table build's block
step, :meth:`FieldCtx.coeffs_many` and :meth:`FieldCtx.digit_power`, the
doors other modules use, all call it.  The build reads the generator's norm
as the generator search does, from the resultant.

Two layers describe a field: :class:`FieldParams` holds the sizes, all the
scan-free criteria read; :class:`FieldCtx` adds the modulus, factorization and
generator, found in milliseconds, all the fingerprint reads, and the Zech
table, which the oracle and addition read.  :func:`field_basis` returns a
context whose table is not built yet, :func:`build_field` one whose table is;
the former builds it, through :func:`build_field`, the first time something
reads it.

An element is its discrete log alone (:class:`FFElement`).  Digits and
discrete logs meet in one place each way: :meth:`FieldCtx.coeffs_many` raises
the generator's digits to the discrete logs of several elements with one
:func:`_powers` call (:meth:`FieldCtx.coeffs` is the one-element case), and
:meth:`FieldCtx.element_from_coeffs` runs Horner's rule on the digits through
the Zech table.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadIndex,
    DivisionByZero,
    EvenCharacteristicRejected,
    FieldTooLarge,
    NonPrime,
    PrimalityUndecided,
)

DEFAULT_CAP = 1 << 22
# No field above this gets a table, whatever the cap.  Below it the integer
# limits of every kernel hold: each discrete log and encoding fits the int32
# tables and the oracle's int32 ratio ids (a discrete log, or -1 for zero);
# the `%` path of `linpoly.evaluate_many` forms a product of two discrete logs
# in int64, below 2^62; the scan kernel (`linpoly.TermLogs`) forms its block
# offsets in int64, below 2^51, and adds them to its multiples in uint32, as
# `linpoly._log_sum` adds two logs: each a sum of two residues, below
# 2 * order < 2^32, with the all-ones uint32 left free for a zero sum.  The
# build holds the same bounds: a line index is below e1 = order/(p - 1) and
# a line's log below the order, both int32; the line codes b*p + (low digit)
# are below p*(p - 1) in the smallest unsigned type that holds them; the
# int32 records of the line table's keys and (key, digit 0) pairs hold b*p^l
# and an index shift, each below e1, b*e1, below the order, and a code; the
# gather's tables of (row, code) pairs hold an index offset, between -p and
# p, in intp, and -r*e1 mod order in uint32; and each Zech entry it forms, a
# log plus a multiple of e1 or plus an index, is a sum below 2 * order, in
# uint32.
# WALK_LIMIT below refuses some smaller fields; `table_limit` applies both.
TABLE_LIMIT = 1 << 31
# The walks that build the table (`_walk`) multiply digit vectors in floating
# point, where one product sum reaches d * (p - 1)^2.  float64 holds it
# exactly only below 2^53.  Below TABLE_LIMIT every field of degree d >= 2
# passes, so the bound refuses only prime fields, those with p > 94906266,
# whose walk of the norm's powers is the whole table.
WALK_LIMIT = 1 << 53
# Integers up to 2^24 are exact in float32: a walk runs in float32 while its
# sums stay below this, and the line table encodes runs of a walked power's
# digits in float32 while p^floor(d/2) does not exceed it.
_FLOAT32_EXACT = 1 << 24
# Sizes of more decimal digits than Python's default int-to-text limit are
# shown in p^degree: decimal conversion is quadratic in the length.
SHOWN_DIGITS = 4300
_SHOWN_LIMIT = 10**SHOWN_DIGITS
# Powers per block of a walk, and lines per lookup batch and entries per
# tile of the Zech passes
_TABLE_BLOCK = 4096
_FILL_TILE = 16384
# The modulus search tests 64 encodings per numpy root test (fewer for large
# p: at most 2^12 polynomial values), and runs the Rabin test on 12
# root-free candidates at once: the fields of the basis pins need 1 to 19.
_MODULUS_PASS = 64
_ROOT_VALUES = 1 << 12
_RABIN_ROWS = 12
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
# Below this a cofactor's trial division (at most 256 steps) costs no more
# than is_prime, so factorize tests only larger cofactors for primality.
_TRIAL_LIMIT = 1 << 18


def is_prime(num: int) -> bool:
    """Exact primality below ``_MR_LIMIT``: Miller-Rabin on ``_MR_BASES``, which
    decides it there (Sorenson and Webster, 2015); PrimalityUndecided at or above."""
    if num >= _MR_LIMIT:
        raise PrimalityUndecided(f"cannot decide whether {num} is prime: "
                                 f"primality is decided only below {_MR_LIMIT}")
    if num < 2 or any(num % a == 0 for a in _MR_BASES):
        return num in _MR_BASES
    s = ((num - 1) & (1 - num)).bit_length() - 1  # num - 1 = d * 2^s, d odd
    for a in _MR_BASES:
        x = pow(a, (num - 1) >> s, num)
        if x == 1:
            continue
        for _ in range(s):
            if x == num - 1:
                break
            x = x * x % num
        else:
            return False
    return True


def factorize(num: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, smallest prime first.

    The division stops as soon as the cofactor left is prime: 2^31 - 1 and
    (3^13 - 1)/2 end the search at once."""
    if num < 1:
        raise ValueError("factorize expects a positive integer")

    def prime(rest):  # worth testing only where trial division would take longer
        return _TRIAL_LIMIT < rest < _MR_LIMIT and is_prime(rest)

    out = []
    rem = num
    f = 2
    rest_is_prime = prime(rem)
    while f * f <= rem and not rest_is_prime:
        if rem % f == 0:
            e = 0
            while rem % f == 0:
                rem //= f
                e += 1
            out.append((f, e))
            rest_is_prime = prime(rem)
        f += 1 if f == 2 else 2
    if rem > 1:
        out.append((rem, 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# Polynomial arithmetic over F_p used only during construction.
# Element vectors are little-endian (constant term first).


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _encode(coeffs, p: int) -> int:
    enc = 0
    for c in reversed(coeffs):
        enc = enc * p + c
    return enc


def _trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mod(a, b, p):
    """Remainder of a by b over F_p (general degrees, b nonzero)."""
    a = _trim(list(a))
    b = _trim(list(b))
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
        _trim(a)
    return a


def _times(v: np.ndarray, m: np.ndarray, p: int) -> np.ndarray:
    """Each row of v times the matching matrix of m, mod p."""
    return np.matmul(v[:, None, :], m)[:, 0] % p


def _frobenius(low: np.ndarray, p: int) -> np.ndarray:
    """The Frobenius matrix of each monic x^d + sum low[b, i] x^i (d >= 2).

    Row i holds x^(p*i), so v @ F = v^p: every digit of v lies in F_p and
    is its own p-th power, so (sum v_i x^i)^p = sum v_i x^(p*i) and raising
    to the p-th power is linear.  Every power of x is the one before it
    times a matrix (x or x^p), one vector-matrix product per polynomial,
    except x^e for e <= d, which is read off; x^p comes from
    square-and-multiply over the bits of p.
    """
    count, d = low.shape
    powers = np.zeros((count, d + 1, d), dtype=np.int64)  # x^e for e = 0 .. d
    powers[:, np.arange(d), np.arange(d)] = 1
    powers[:, d] = -low % p
    mul_x = powers[:, 1:]  # row i: x^i * x

    def progression(first, start, step, m):
        """x^(start + i*step) for i = 0 .. d-1, from ``first``: each the one
        before times m, except those of exponent at most d, read off."""
        rows = np.empty((count, d, d), dtype=np.int64)
        rows[:, 0] = first
        free = powers[:, start + step::step][:, :d - 1]
        rows[:, 1:1 + free.shape[1]] = free
        for i in range(1 + free.shape[1], d):
            rows[:, i] = _times(rows[:, i - 1], m, p)
        return rows

    xp, e = powers[:, 1], 1  # x^e
    for bit in f"{p:b}"[1:]:
        if 2 * e + int(bit) <= d:
            xp = powers[:, 2 * e + int(bit)]
        else:
            xp = _times(xp, progression(xp, e, 1, mul_x), p)
            if bit == "1":
                xp = _times(xp, mul_x, p)
        e = 2 * e + int(bit)
    return progression(powers[:, 0], 0, p, progression(xp, p, 1, mul_x))


def _first_irreducible(low: np.ndarray, p: int):
    """(digits, Frobenius matrix) of the first irreducible x^d + sum low[b, i] x^i,
    or None.

    The Rabin test, on every row at once: f is irreducible iff x^(p^d) = x
    and, for each prime l of d, gcd(u, f) = 1 with u = x^(p^(d/l)) - x mod f,
    where x^(p^k) is x times the k-th power of the Frobenius matrix.  The gcd
    is 1 exactly when the resultant Res(f, u) is nonzero, and u = 0 has gcd
    f, so the test reads ``any(u) and _resultant(f, u)``.
    """
    d = low.shape[1]
    frob = _frobenius(low, p)
    x = np.zeros_like(low)
    x[:, 1] = 1
    xpk = [x]  # x^(p^k) for k = 0 .. d
    for _ in range(d):
        xpk.append(_times(xpk[-1], frob, p))
    for b in np.flatnonzero((xpk[d] == x).all(axis=1)):
        mod = low[b].tolist() + [1]
        us = (((xpk[d // prime][b] - x[b]) % p).tolist() for prime, _ in factorize(d))
        if all(any(u) and _resultant(mod, u, p) for u in us):
            return low[b], frob[b]
    return None


def _root_free(p: int, d: int):
    """The digits (constant first) of each x^d + sum c_i x^i with no root in
    F_p, in encoding order.  One numpy pass tests ``_MODULUS_PASS``
    encodings, or fewer for large p, so that it evaluates at most
    ``_ROOT_VALUES`` polynomial values."""
    # r^i for r = 1..p-1 and i = 0..d, each below p^d <= TABLE_LIMIT
    roots = np.arange(1, p) ** np.arange(d + 1)[:, None] % p
    size = p**d
    count = max(1, min(_MODULUS_PASS, _ROOT_VALUES // p))
    for lo in range(0, size, count):
        digits = np.arange(lo, min(lo + count, size))[:, None] // p ** np.arange(d) % p
        yield from digits[(digits[:, 0] != 0) & ((digits @ roots[:d] + roots[d]) % p).all(axis=1)]


def _find_modulus(p: int, d: int) -> tuple[tuple[int, ...], np.ndarray | None]:
    """The monic irreducible polynomial of degree d with the smallest
    encoding, and its Frobenius matrix (None for d = 1).

    Without a root, degree 2 or 3 is irreducible.  Of larger degree, the
    root-free candidates go to :func:`_first_irreducible` in order,
    ``_RABIN_ROWS`` at a time, so no candidate builds a matrix of its own.
    """
    if d == 1:
        return (0, 1), None
    candidates = _root_free(p, d)
    if d <= 3:
        low = next(candidates)[None]
        return tuple(low[0].tolist()) + (1,), _frobenius(low, p)[0]
    while True:
        low = np.array(list(itertools.islice(candidates, _RABIN_ROWS)))
        if not len(low):
            raise RuntimeError(f"no irreducible polynomial of degree {d} over F_{p}")
        found = _first_irreducible(low, p)
        if found is not None:
            return tuple(found[0].tolist()) + (1,), found[1]


def _resultant(a, b, p: int) -> int:
    """Res(a, b) over F_p, by Euclid's algorithm; a is monic, b is nonzero.

    Res(a, b) = (-1)^(deg a * deg b) lc(b)^(deg a - deg r) Res(b, r) with
    r = a mod b, and Res(a, c) = c^(deg a) for a constant c.  For a monic
    modulus, Res(modulus, v) is the norm of v.
    """
    a, b = _trim(list(a)), _trim(list(b))
    res = 1
    while len(b) > 1:
        r = _poly_mod(a, b, p)
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = -res
        res = res * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def _powers(vec, exponents, mod, frob, p: int):
    """The digits of vec^e in F_p[x]/(mod), for each e of ``exponents`` in turn.

    For degree d >= 2, Horner's rule over the base-p digits of e: raise to
    the p-th power (``frob``, the modulus's Frobenius matrix), then multiply
    by vec^digit.  The matrix of each vec^digit comes from the matrix of vec
    by square-and-multiply, made once per digit for all the exponents; the
    p powers of vec are never all made, which for large p would cost more
    than the power itself.  A prime field (``frob`` is None) takes a plain
    modular power.  Lazy: a caller that stops early makes no later power.
    """
    if frob is None:
        for e in exponents:
            yield [pow(vec[0], e, p)]
        return
    powers = {1: _mult_matrix(vec, mod, p)}  # k -> matrix of w -> w * vec^k

    def power(k):
        if k not in powers:
            half = power(k // 2)
            powers[k] = half @ half % p
            if k % 2:
                powers[k] = powers[k] @ powers[1] % p
        return powers[k]

    steps = {0: frob}  # digit -> matrix of w -> w^p * vec^digit
    for e in exponents:
        digits = []  # least significant first
        while e:
            e, digit = divmod(e, p)
            digits.append(digit)
        if not digits:
            yield [1] + [0] * (len(mod) - 2)
            continue
        acc = power(digits[-1])[0]
        for digit in reversed(digits[:-1]):
            if digit not in steps:
                steps[digit] = frob @ power(digit) % p
            acc = acc @ steps[digit] % p
        yield acc.tolist()


def _find_generator(p: int, d: int, mod, frob, group_order: int,
                    factorization) -> list[int]:
    """The nonzero element of smallest encoding with full multiplicative order.

    A candidate v passes when v^(order/l) != 1 for every prime l of the
    order.  A prime l dividing p - 1 is decided from the norm
    N(v) = v^((p^d - 1)/(p - 1)), which lies in F_p:
    v^(order/l) = N(v)^((p - 1)/l), a plain modular power, and N(v) is the
    resultant of the modulus and v (v itself when d = 1, where every l
    divides p - 1).  Every other l takes :func:`_powers`, which stops at the
    first v^(order/l) = 1.
    """
    norm_exponents = [(p - 1) // prime for prime, _ in factorization if (p - 1) % prime == 0]
    exponents = [group_order // prime for prime, _ in factorization if (p - 1) % prime]
    one = [1] + [0] * (d - 1)
    # for d >= 2 the constants 1..p-1 lie in F_p^* and cannot have full order
    for enc in range(p if d > 1 else 1, p**d):
        vec = _digits(enc, p, d)
        norm = _resultant(mod, vec, p)
        if any(pow(norm, e, p) == 1 for e in norm_exponents):
            continue
        if one not in _powers(vec, exponents, mod, frob, p):
            return vec
    raise RuntimeError("no primitive element found (modulus not irreducible?)")


def _mult_matrix(vec, mod, p: int) -> np.ndarray:
    """Row i holds the coefficients of vec * x^i mod `mod` (so w @ M = w*vec)."""
    d = len(mod) - 1
    rows = [list(vec)]
    for _ in range(1, d):
        prev = rows[-1]
        h = prev[-1]
        nxt = [0] + prev[:-1]
        if h:
            for j in range(d):
                nxt[j] = (nxt[j] - h * mod[j]) % p
        rows.append(nxt)
    return np.array(rows, dtype=np.int64)


def _build_tables(p: int, d: int, mod, frob, gamma_vec):
    """Zech-log table of F_p[x]/(mod) with generator gamma, and log x;
    ``frob`` is the modulus's Frobenius matrix (None for d = 1).

    Every unit is c0^j * gamma^k with k < e1 = (p^d - 1)/(p - 1) and
    c0 = gamma^e1, the norm of gamma, a constant of F_p^* and the resultant
    of the modulus and gamma: k picks the F_p-line and j the point on it.
    The build holds one log per line (:func:`_line_table`) and J, the
    discrete log to base c0 on F_p^* (:func:`_prime_field_logs`); for d = 1,
    a single line, J is the whole log table, and otherwise no table indexed
    by all p^d encodings exists.
    Then the Zech table takes two sequential passes:

      * the lower half, Z(k) for k < order/2, gathered in walk order
        (:func:`_gather_lower_half`);
      * the upper half from Z(-k) = Z(k) - k, since 1 + g^-k = g^-k (1 + g^k)
        (:func:`_negate_into_upper_half`), and Z(h) = -1 where g^h = -1
        (h = 0 when p = 2, where -1 = 1 and the order is odd).

    ``grid``, the Zech buffer as p - 1 rows of e1, holds Z(k + j*e1) in row j,
    column k.  Until the passes overwrite them, its row 0 holds each walked
    line's index in the line table, which each gather block reads before it
    writes there, and for p > 2 its last row, in the upper half, which the
    gather never writes, holds the line table itself.  p = 2 has one row, so
    its line table is an array of its own.  c0^j, in walk order, fills the
    buffer's column 0 for d = 1, which is the whole buffer, and otherwise an
    array of p - 1 entries.  So the build holds no second field-sized int32
    array.  A generator that is not primitive is refused: its powers miss a
    line, or c0 does not generate F_p^*.  ``log x`` is None when d = 1, where
    x = 0.
    """
    order = p**d - 1
    e1 = order // (p - 1)
    c0 = _resultant(mod, gamma_vec, p)
    zech = np.empty(order, dtype=np.int32)
    grid = zech.reshape(p - 1, e1)
    powers = grid[:, 0] if d == 1 else np.empty(p - 1, dtype=np.int32)
    dlog = _prime_field_logs(p, c0, powers)
    line_log = grid[-1] if p > 2 and d > 1 else np.empty(e1, dtype=np.int32)
    codes = _line_table(p, d, mod, frob, gamma_vec, dlog, powers, line_log, grid[0])
    log_x = int(line_log[1]) if d > 1 else None
    lower = (order + 1) // 2
    _gather_lower_half(p, grid, line_log, codes, powers, dlog, lower)
    del line_log, codes, dlog
    _negate_into_upper_half(zech, lower)
    zech[order // 2 if p > 2 else 0] = -1
    return zech, log_x


def _walk(p: int, mod, frob, vec, start: int, stop: int):
    """The digits of vec^k in F_p[x]/(mod) for start <= k < stop, in blocks;
    ``start`` is 0 or 1.

    Yields (k, cur): column i of the d x cnt float array ``cur`` holds the
    digits of vec^(k + i).  ``cur`` is one buffer, rewritten for the next
    block, and the blocks hold ``_TABLE_BLOCK`` powers.  Each block is the
    previous one times vec^block, a floating-point product on BLAS whose
    sums are at most d * (p - 1)^2.  While that is below 2^24 they are exact
    in float32, which moves half the bytes of float64; otherwise the walk
    runs in float64, exact below ``WALK_LIMIT`` = 2^53, which
    :func:`table_limit` enforces.  The sums are reduced mod p in the smallest
    unsigned type that holds them, where division by the scalar p is cheap.
    """
    d = len(mod) - 1
    block = min(stop - start, _TABLE_BLOCK)
    if block <= 0:
        return
    top = d * (p - 1) ** 2
    walk_dtype = np.float32 if top < _FLOAT32_EXACT else np.float64
    # vec^start .. vec^(start+block-1) by doubling: step_m multiplies by
    # vec^filled, and its row 0 is vec itself
    step_m = _mult_matrix(vec, mod, p)
    small = np.zeros((block, d), dtype=np.int64)
    small[0] = step_m[0] if start else [1] + [0] * (d - 1)
    filled = 1
    while filled < block:
        if filled > 1:
            step_m = step_m @ step_m % p
        cnt = min(filled, block - filled)
        np.matmul(small[:cnt], step_m, out=small[filled:filled + cnt])
        small[filled:filled + cnt] %= p
        filled += cnt
    digits = small.T.astype(np.min_scalar_type(top), order="C")
    del small
    cur = digits.astype(walk_dtype)
    if stop - start > block:
        [big_step] = _powers(vec, (block,), mod, frob, p)
        big_m = _mult_matrix(big_step, mod, p).T.astype(walk_dtype)
        prod = np.empty_like(cur)
        carry = np.empty_like(digits)
    for k in range(start, stop, block):
        if k > start:
            np.matmul(big_m, cur, out=prod)
            np.copyto(digits, prod, casting="unsafe")
            np.floor_divide(digits, p, out=carry)
            carry *= p
            digits -= carry
            np.copyto(cur, digits)
        cnt = min(block, stop - k)
        yield k, cur[:, :cnt]


def _prime_field_logs(p: int, c0: int, powers) -> np.ndarray:
    """J, the int32 discrete logs to base c0 on F_p, from the block walk of
    c0; c0^j goes to ``powers[j]`` in walk order.  J has p + 1 entries, J[0]
    = J[p] = -1, so J reads 1 + c0^j without reducing it.

    Refuses a c0 that does not generate F_p^*: its powers miss a unit.
    """
    dlog = np.full(p + 1, -1, dtype=np.int32)
    for j, cur in _walk(p, (0, 1), None, [c0], 0, p - 1):
        values = cur[0].astype(np.intp)
        dlog[values] = np.arange(j, j + values.size, dtype=np.int32)
        powers[j:j + values.size] = values
    if dlog[1:p].min() < 0:
        raise RuntimeError("the norm of gamma does not generate F_p^*: gamma not primitive")
    return dlog


def _line_table(p: int, d: int, mod, frob, gamma_vec, dlog, powers, line_log, walked):
    """Write the int32 log of each F_p-line's normalized point into
    ``line_log`` and its index there, walked line by walked line, into
    ``walked``; return each walked line's code.

    A line's normalized point w^ has leading base-p digit 1; the table is
    indexed by w^'s encoding minus p^i plus (p^i - 1)/(p - 1), where i is
    the leading position, so 1 lands at index 0 and x at index 1.  The walk
    visits gamma^k for 1 <= k < e1, never in F_p, so i >= 1.  One product of
    the digits with a 3 x d matrix gives digit 0, the encoding u_lo of the
    next l = ceil(d/2) - 1 digits and u_hi of the d - 1 - l above them; the
    larger of u_lo and p^l + u_hi (when u_hi is not 0) is a key of fewer than
    2*p^(d//2) values, which names the leading digit tau, i and
    b = J(tau^-1), and the high digits of w^ = c0^b * gamma^k.  Its next l
    digits come from a lookup of (b, u_lo), (p - 1)*p^l entries, and its low
    digit is c0^b * (digit 0) mod p.  w^ has the log k + b*e1: one random
    write per line.  Walked line k leaves w^'s index in ``walked[k]`` and
    its code b*p + (low digit of w^) in ``codes[k]``, in the smallest
    unsigned type that holds p*(p - 1) values.  A line written twice leaves
    another unwritten, so an unwritten line refuses a generator whose powers
    repeat a line.

    One int32 record per key holds b*p^l, the index shift of the high digits
    and the leading position, b*e1 and b*p, so a line reads them in one
    gather.  Where the (key, digit 0) pairs are no more than the e1 lines,
    which takes d >= 4, a record per pair also has the low digit added to
    the shift and to b*p, and a line reads its index shift and code without
    arithmetic; elsewhere (d <= 3, such as F_5^3 or F_101^2) each line forms
    its low digit as a product mod p.  Besides the pair records, no table
    has 2*p^ceil(d/2) entries or more.

    Each partial sum of the product is below p^(d//2): float32 while that is
    at most 2^24, float64 above.
    """
    e1 = line_log.size
    line_log.fill(-1)
    line_log[0] = 0  # the line of 1 is F_p^*
    codes = np.zeros(e1, dtype=np.min_scalar_type(p * (p - 1) - 1))
    if e1 == 1:  # a prime field is the line of 1
        return codes
    low_n = (d + 1) // 2 - 1
    high_n = d - 1 - low_n
    low_size, high_size = p**low_n, p**high_n
    weights = [p**i for i in range(d)]
    parts = np.array([[1] + [0] * (d - 1),
                      [0] + weights[:low_n] + [0] * high_n,
                      [0] * (low_n + 1) + weights[:high_n]],
                     dtype=np.float32 if high_size <= _FLOAT32_EXACT else np.float64)
    # scaled[b, u]: the l-digit u with every digit times c0^b mod p, built a
    # digit at a time from c0^b * t mod p, (p - 1)*p int32 entries, formed for l >= 1
    times = np.multiply.outer(powers, np.arange(p if low_n else 0, dtype=np.int32)) % p
    scaled = np.zeros((p - 1, 1), dtype=np.intp)
    for weight in weights[:low_n]:
        scaled = (times[:, :, None] * weight + scaled[:, None, :]).reshape(p - 1, -1)
    # keys: u_lo below p^l, then p^l + u_hi; a part u of n digits leads
    # with tau = u // p^(n - 1) at i = n or l + n, and c0^b = tau^-1 makes
    # that digit 1 and scales the n - 1 below it, which ``scaled`` reads
    sizes = [1] + [p**n - p**(n - 1) for n in range(1, high_n + 1)]
    lead_n = np.repeat(np.arange(high_n + 1), sizes)
    lead = np.repeat([1] + weights[:high_n], sizes)
    u = np.arange(high_size)
    tau = u // lead
    high_b = -dlog[tau] % (p - 1)
    key_b = np.concatenate([high_b[:low_size], high_b])
    high_key = u + low_size
    high_key[0] = 0
    # key -> its record: b*p^l, the high digits of w^ encoded at p^(l+1)
    # plus the index shift of the leading position, b*e1 and b*p
    keyrec = np.multiply.outer(key_b, np.array([low_size, 0, e1, p], dtype=np.int32))
    lead_shift = np.array([(p**n - 1) // (p - 1) - p**n for n in range(d)])
    keyrec[:low_size, 1] = lead_shift[lead_n[:low_size]]
    keyrec[low_size:, 1] = ((scaled[high_b, u - tau * lead] + lead) * (p * low_size)
                            + lead_shift[lead_n + low_n])
    # b*p^l + u_lo -> the next l digits of c0^b * w, encoded at p
    scaled_low = p * scaled.ravel()
    if key_b.size * p <= e1:  # only where d >= 4, so l >= 1 and ``times`` is formed
        # key*p + digit 0 -> the key's record with the low digit of w^,
        # c0^b * (digit 0) mod p, added to the shift and to b*p: the code
        table = np.repeat(keyrec, p, axis=0)
        table[:, 1::2] += times[key_b].reshape(-1, 1)

        def lookup(key, digit0):
            key *= p
            key += digit0
            return table.take(key, axis=0)
    else:
        key_mult = powers[key_b]  # c0^b

        def lookup(key, digit0):
            found = keyrec.take(key, axis=0)
            low = digit0 * key_mult[key]
            low -= low // p * p
            found[:, 1::2] += low[:, None]
            return found
    # the parts of several walked blocks, each a product with ``parts``
    batch = np.empty((3, _FILL_TILE), dtype=np.intp)
    filled = 0
    for k, cur in _walk(p, mod, frob, gamma_vec, 1, e1):
        cnt = cur.shape[1]
        batch[:, filled:filled + cnt] = parts @ cur
        filled += cnt
        if filled + _TABLE_BLOCK <= _FILL_TILE and k + cnt < e1:
            continue
        k0, k1 = k + cnt - filled, k + cnt
        digit0, u_lo, u_hi = batch[:, :filled]
        filled = 0
        key = high_key[u_hi]
        np.maximum(key, u_lo, out=key)
        row, shift, log, code = lookup(key, digit0).T
        u_lo += row
        idx = scaled_low[u_lo]
        idx += shift
        line_log[idx] = log + np.arange(k0, k1, dtype=np.int32)
        walked[k0:k1] = idx
        codes[k0:k1] = code
    if line_log.min() < 0:
        raise RuntimeError("the powers of gamma miss an F_p-line: gamma not primitive")
    return codes


def _gather_lower_half(p: int, grid, line_log, codes, powers, dlog, lower: int) -> None:
    """Z(k) for k < ``lower``, in walk order, into ``grid`` (row j, column k:
    Z(k + j*e1)).

    g^(k + j*e1) = c0^j * tau * w^ for the walked line k with normalized point
    w^, leading digit tau and b = J(tau^-1), so with r = b - j,
    1 + g^(k + j*e1) = c0^-r * (w^ + c0^r) and Z = -r*e1 + log(w^ + c0^r).
    w^ + c0^r differs from w^ only in its low digit, so it is normalized and
    sits in the same run of p entries of the line table.  The lines are
    filled a block at a time, every row of the block together.  Where the
    pairs of a row j < ``rows`` and a line code b*p + (low digit) are no
    more than the e1 lines (as for F_3^4 .. F_3^13, F_5^9 and F_7^7), the
    neighbour's offset from w^'s index and -r*e1 mod order come from one
    table each, indexed by the pair; elsewhere (large p and small d, such as
    F_5^3, F_101^2 or F_2039^2) each code is split, r = b - j formed, and the
    new low digit and -r*e1 read from tables of r.  The column of
    the line of 1 comes last, from the powers of c0:
    Z(j*e1) = J(1 + c0^j)*e1, where 1 + c0^j is at most p and J(p) = J(0)
    = -1: that is -e1 only at g^h = -1, which :func:`_build_tables`
    overwrites.
    """
    e1 = grid.shape[1]
    order = grid.size
    rows = -(-lower // e1)
    stop = min(e1, lower)
    if stop > 1:  # lines besides the line of 1; for d = 1 these tables would be field-sized
        # c0^r and -r*e1 mod order, r = b - j over -(rows - 1) .. p - 2: a
        # negative r indexes from the end; and a sum of two digits mod p
        plus = powers.astype(np.intp)
        offset = np.arange(p - 1, 0, -1, dtype=np.uint32) % (p - 1) * e1
        mod_p = np.arange(2 * p) % p
        j = np.arange(rows)[:, None]

        def neighbours(code, walked):
            """The line table's index of w^ + c0^r, where w^ has index
            ``walked`` (0 gives its offset from w^), and -r*e1 mod order."""
            b = code // p
            low = code - b * p
            r = b - j
            pos = mod_p[plus[r] + low]
            pos += walked - low
            return pos, offset[r]

        lookup = neighbours
        size = p * (p - 1)  # codes
        if rows * size <= e1:
            offs, adds = neighbours(np.arange(size), 0)
            shifts = j * size

            def lookup(code, walked):
                key = code + shifts
                return offs.take(key) + walked, adds.take(key)
        view = line_log.view(np.uint32)
        block = max(1, _FILL_TILE // rows)
        for a in range(1, stop, block):
            bnd = min(a + block, stop)
            pos, z_add = lookup(codes[a:bnd], grid[0, a:bnd])
            z = view[pos]
            z += z_add
            grid[:rows, a:bnd] = wrap_sums(z, order).view(np.int32)
    for j0 in range(0, rows, _FILL_TILE):
        j1 = min(j0 + _FILL_TILE, rows)
        grid[j0:j1, 0] = dlog[powers[j0:j1] + 1] * e1


def _negate_into_upper_half(zech, lower: int) -> None:
    """Z(k) = Z(order - k) + k mod order for k from order + 1 - lower up, in
    blocks, reading Z(1) .. Z(lower - 1) backwards.  Each sum is below
    2 * order < 2^32 in uint32 and reduced by :func:`wrap_sums`."""
    order = zech.size
    view = zech.view(np.uint32)
    for lo in range(order + 1 - lower, order, _FILL_TILE):
        hi = min(lo + _FILL_TILE, order)
        z = np.arange(lo, hi, dtype=np.uint32)
        z += view[order - hi + 1:order - lo + 1][::-1]
        view[lo:hi] = wrap_sums(z, order)


def wrap_sums(v: np.ndarray, order: int) -> np.ndarray:
    """Reduce uint32 ``v`` in 0 .. 2*order-1 mod ``order``, in place.

    min(v, v - order): v - order wraps above v exactly when v < order.
    Unlike a masked subtraction it has no branch to mispredict on the
    random-looking values of a scan.
    """
    np.minimum(v, v - order, out=v)
    return v


@dataclass(frozen=True)
class FFElement:
    """One element of F_{q^n}: its discrete log to the field's generator.

    ``dlog`` is None exactly for the zero element.  An element does not know
    its field; :meth:`FieldCtx.coeffs` gives its coefficient vector over F_p.
    """

    dlog: int | None

    @property
    def is_zero(self) -> bool:
        return self.dlog is None

    def __str__(self) -> str:
        return "0" if self.dlog is None else f"g^{self.dlog}"


def dlog_order(order: int, dlog: int) -> int:
    """Multiplicative order of g^dlog, where g generates a group of this order."""
    return order // math.gcd(order, dlog % order)


class FieldParams:
    """The sizes of F_p <= F_q <= F_{q^n}, computed once from p, m and n.

    Enough for the purely arithmetic criteria (orders, norms and coset data of
    elements given by discrete log), which is what serves fields beyond the
    exhaustive-scan cap.
    """

    def __init__(self, p: int, m: int, n: int):
        self.p = p
        self.m = m
        self.n = n
        self.q = p**m
        self.degree = m * n
        self.size = p**self.degree
        self.order = self.size - 1
        self.subfield_index = self.order // (self.q - 1)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p}, m={self.m}, n={self.n})"

    def shown_sizes(self) -> dict[str, int | str]:
        """``size``, ``order`` and ``projective_points`` as outputs show them.

        Integers up to ``SHOWN_DIGITS`` digits; beyond, text such as
        ``3^10000``, ``3^10000 - 1`` and ``(3^10000 - 1)/2`` (over q - 1).
        """
        if self.size < _SHOWN_LIMIT:
            return {"size": self.size, "order": self.order,
                    "projective_points": self.subfield_index}
        power = f"{self.p}^{self.degree}"
        return {"size": power, "order": f"{power} - 1",
                "projective_points": f"({power} - 1)/{self.q - 1}"}

    def shown(self, value: int, k: int | None = None) -> int | str:
        """``value`` < p^k (k = degree by default) as outputs show it: itself up to
        ``SHOWN_DIGITS`` digits, else ``3^10000 - 1`` or ``(3^10000 - 1)/2`` for a
        divisor of p^k - 1, such as an element order, and ``3^10000 - 2`` otherwise."""
        if value < _SHOWN_LIMIT:
            return value
        k = self.degree if k is None else k
        power = self.p**k
        c, rest = divmod(power - 1, value)
        if rest:
            return f"{self.p}^{k} - {power - value}"
        return f"{self.p}^{k} - 1" if c == 1 else f"({self.p}^{k} - 1)/{c}"


class FieldCtx(FieldParams):
    """F_{q^n} as F_p[x]/(modulus) with its generator's digits and its Zech-log table.

    Construct via :func:`field_basis` (no table yet) or :func:`build_field`.
    ``basis_s`` is the seconds :func:`field_basis` took to find the modulus,
    the factorization and the generator; it also keeps the modulus's
    Frobenius matrix (None for d = 1), which :meth:`digit_power` and
    :meth:`coeffs_many` read.  The
    Zech table and log x are built together, by :func:`build_field`, the
    first time either is read; ``table_s`` is the seconds that took, 0.0
    while they are missing.
    """

    basis_s = 0.0
    table_s = 0.0

    def __init__(self, p: int, m: int, n: int, modulus, factorization, gamma_coeffs):
        super().__init__(p, m, n)
        self.modulus = tuple(modulus)
        self.factorization = tuple(factorization)
        self.gamma_coeffs = tuple(gamma_coeffs)
        # -1 = g^(order/2) in odd characteristic; -1 = 1 when p = 2
        self._neg_shift = self.order // 2 if self.p > 2 else 0
        self.gamma = self.element_from_dlog(1)

    # build_field sets both in the instance, which then shadows these
    @cached_property
    def _zech(self) -> np.ndarray:
        return build_field(self.p, self.m, self.n, basis=self)._zech

    @cached_property
    def _x(self) -> FFElement:
        return build_field(self.p, self.m, self.n, basis=self)._x

    # -- representation helpers ------------------------------------------

    @property
    def params(self) -> FieldParams:
        return self

    @property
    def modulus_encoding(self) -> int:
        return _encode(self.modulus[:-1], self.p)

    @property
    def gamma_encoding(self) -> int:
        return _encode(self.gamma_coeffs, self.p)

    def coeffs(self, a: FFElement) -> tuple[int, ...]:
        """a's coefficient vector over F_p, constant term first; for output."""
        [digits] = self.coeffs_many((a,))
        return digits

    def coeffs_many(self, elems) -> list[tuple[int, ...]]:
        """The coefficient vectors of several elements, in order; for output.

        The generator's digits raised to each discrete log by one
        :func:`_powers` call, which builds the generator's matrices once for
        all of them; no table.
        """
        powers = _powers(self.gamma_coeffs, [a.dlog for a in elems if a.dlog is not None],
                         self.modulus, self._frob, self.p)
        zero = (0,) * self.degree
        return [zero if a.dlog is None else tuple(next(powers)) for a in elems]

    def digit_power(self, vec, e: int) -> tuple[int, ...]:
        """The digits of v^e, constant term first, where v has the digits
        ``vec``; see :func:`_powers`.  Reads no table."""
        [power] = _powers(vec, (e,), self.modulus, self._frob, self.p)
        return tuple(power)

    def encode(self, a: FFElement) -> int:
        """The integer sum(c_i p^i) of a's coefficient vector; for output."""
        return _encode(self.coeffs(a), self.p)

    def element_from_dlog(self, k: int) -> FFElement:
        return FFElement(k % self.order)

    def element_from_encoding(self, enc: int) -> FFElement:
        if not 0 <= enc < self.size:
            raise ValueError(f"encoding {enc} out of range for field of size {self.size}")
        return self.element_from_coeffs(_digits(enc, self.p, self.degree))

    def element_from_coeffs(self, coeffs) -> FFElement:
        """sum c_i x^i by Horner's rule: multiply by x, add the next digit.

        A digit c is built from 0 by double-and-add over the bits of c, each
        step one addition through the Zech table.
        """
        vec = [c % self.p for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than the field degree")
        acc = self.zero()
        for c in reversed(vec):
            digit = self.zero()
            for bit in f"{c:b}":
                digit = self.add(digit, digit)
                if bit == "1":
                    digit = self._add_dlogs(digit, 0)
            acc = self.add(self.mul(acc, self._x), digit)
        return acc

    def zero(self) -> FFElement:
        return FFElement(None)

    def one(self) -> FFElement:
        return FFElement(0)

    def minus_one(self) -> FFElement:
        return FFElement(self._neg_shift)

    # -- arithmetic -------------------------------------------------------

    def _add_dlogs(self, a: FFElement, b_dlog: int | None) -> FFElement:
        """a + g^b_dlog through the Zech table: g^u + g^v = g^(u + zech[v - u])."""
        if b_dlog is None:
            return a
        if a.dlog is None:
            return self.element_from_dlog(b_dlog)
        z = int(self._zech[(b_dlog - a.dlog) % self.order])
        return self.zero() if z < 0 else self.element_from_dlog(a.dlog + z)

    def add(self, a: FFElement, b: FFElement) -> FFElement:
        return self._add_dlogs(a, b.dlog)

    def neg(self, a: FFElement) -> FFElement:
        return a if a.dlog is None else self.element_from_dlog(a.dlog + self._neg_shift)

    def sub(self, a: FFElement, b: FFElement) -> FFElement:
        return self._add_dlogs(a, None if b.dlog is None else b.dlog + self._neg_shift)

    def mul(self, a: FFElement, b: FFElement) -> FFElement:
        if a.dlog is None or b.dlog is None:
            return self.zero()
        return self.element_from_dlog(a.dlog + b.dlog)

    def inv(self, a: FFElement) -> FFElement:
        if a.dlog is None:
            raise DivisionByZero("inverse of zero")
        return self.element_from_dlog(-a.dlog)

    def frobenius(self, a: FFElement, j: int) -> FFElement:
        """a ** (q**j); the identity for j = 0 and for j = n."""
        if j < 0:
            raise ValueError("Frobenius power must be nonnegative")
        if a.dlog is None:
            return a
        return self.element_from_dlog(a.dlog * pow(self.q, j, self.order))

    def element_order(self, a: FFElement) -> int:
        """Exact multiplicative order; see :func:`dlog_order`."""
        if a.dlog is None:
            raise DivisionByZero("order of zero")
        return dlog_order(self.order, a.dlog)

    def relative_norm(self, a: FFElement) -> FFElement:
        """Norm from F_{q^n} down to F_q, i.e. a ** ((q^n-1)/(q-1))."""
        if a.dlog is None:
            return a
        return self.element_from_dlog(a.dlog * self.subfield_index)

    def in_base_subfield(self, a: FFElement) -> bool:
        return a.dlog is None or a.dlog % self.subfield_index == 0


def check_field_params(p: int, m: int, n: int, strict: bool = True) -> None:
    """Reject a non-prime p, a nonpositive m or n, and (when ``strict``) p = 2.

    ``strict`` rejects characteristic 2 because the scatteredness statements
    served by this package assume odd q.
    """
    if not is_prime(p):
        raise NonPrime(p)
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if strict and p == 2:
        raise EvenCharacteristicRejected(
            "p = 2 rejected; pass strict=False to build even-characteristic fields")


def check_index(t: int, n: int) -> None:
    """Reject an index t outside 0 .. n-1: the one place that says so."""
    if not 0 <= t < n:
        raise BadIndex(f"index {t} out of range 0..{n - 1}")


def table_limit(p: int, d: int, cap: int) -> int:
    """Largest size that F_{p^d} may have and still get a table under ``cap``.

    The smallest of ``cap``, ``TABLE_LIMIT`` and, when the walk's float64
    sums would not be exact (d * (p - 1)^2 >= ``WALK_LIMIT``), the largest
    p'^d for which they are.
    """
    limit = min(cap, TABLE_LIMIT)
    if d * (p - 1) ** 2 >= WALK_LIMIT:
        limit = min(limit, (math.isqrt((WALK_LIMIT - 1) // d) + 1) ** d)
    return limit


def field_basis(p: int, m: int, n: int, cap: int = DEFAULT_CAP,
                strict: bool = True) -> FieldCtx:
    """F_{p^{m*n}} with its deterministic modulus and generator; no table yet.

    Refuses what :func:`build_field` refuses: see :func:`check_field_params`
    and :func:`table_limit`."""
    check_field_params(p, m, n, strict)
    params = FieldParams(p, m, n)
    d, size = params.degree, params.size
    limit = table_limit(p, d, cap)
    if size > limit:
        raise FieldTooLarge(params, limit)

    t0 = time.perf_counter()
    modulus, frob = _find_modulus(p, d)
    fact = factorize(size - 1) if size > 2 else ()
    ctx = FieldCtx(p, m, n, modulus, fact,
                   _find_generator(p, d, modulus, frob, size - 1, fact))
    ctx._frob = frob
    ctx.basis_s = time.perf_counter() - t0
    return ctx


def build_field(p: int, m: int, n: int, cap: int = DEFAULT_CAP,
                strict: bool = True, basis: FieldCtx | None = None) -> FieldCtx:
    """Construct F_{p^{m*n}}: :func:`field_basis`, then its Zech table.

    Pass ``strict=False`` to build even-characteristic fields anyway, and
    ``basis`` when that :func:`field_basis` call has already been made: the
    table is built into it, and it is returned (it ran the refusals, so
    ``cap`` and ``strict`` are not read again)."""
    ctx = field_basis(p, m, n, cap, strict) if basis is None else basis
    t0 = time.perf_counter()
    ctx._zech, log_x = _build_tables(p, ctx.degree, ctx.modulus, ctx._frob,
                                     ctx.gamma_coeffs)
    ctx._x = FFElement(log_x)
    ctx.table_s = time.perf_counter() - t0
    return ctx


def modulus_text(basis: FieldCtx) -> str:
    """Human-readable form of the defining polynomial, e.g. ``x^2 + 1``."""
    parts = []
    for i in range(len(basis.modulus) - 1, -1, -1):
        c = basis.modulus[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            var = "x" if i == 1 else f"x^{i}"
            parts.append(var if c == 1 else f"{c}{var}")
    return " + ".join(parts) if parts else "0"
