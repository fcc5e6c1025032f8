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
prime.  The table walk (:func:`_log_table`) multiplies digit vectors only
for one power per F_p-line and reaches the other p - 2 by scaling digits
with the norm of the generator, a constant of F_p.

One routine, :func:`_powers`, raises a digit vector to a power: Horner's
rule over the base-p digits of the exponent, one product with the Frobenius
matrix and one with a memoized matrix of v^digit per digit (a plain modular
power in a prime field).  The generator search, the table walk's two powers,
:meth:`FieldCtx.coeffs_many` and :meth:`FieldCtx.digit_power`, the doors
other modules use, all call it.

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
# 2 * order < 2^32, with the all-ones uint32 left free for a zero sum.
# WALK_LIMIT below refuses some smaller fields; `table_limit` applies both.
TABLE_LIMIT = 1 << 31
# The walk that builds the table (`_log_table`) multiplies digit vectors in
# floating point, where one product sum reaches d * (p - 1)^2.  float64 holds
# it exactly only below 2^53.  Below TABLE_LIMIT every field of degree d >= 2
# passes, so the bound refuses only prime fields, those with p > 94906266.
WALK_LIMIT = 1 << 53
# Integers up to 2^24 are exact in float32: the walk runs in float32 while its
# sums stay below this, and forms half-encodings in float32 while
# p^ceil(d/2) does not exceed it.
_FLOAT32_EXACT = 1 << 24
# Sizes of more decimal digits than Python's default int-to-text limit are
# shown in p^degree: decimal conversion is quadratic in the length.
SHOWN_DIGITS = 4300
_SHOWN_LIMIT = 10**SHOWN_DIGITS
_TABLE_BLOCK = 4096
# The modulus search tests 64 encodings per numpy root test (fewer for large
# p: at most 2^12 polynomial values), and runs the Rabin test on 12
# root-free candidates at once: the fields of the basis pins need 1 to 19.
_MODULUS_PASS = 64
_ROOT_VALUES = 1 << 12
_RABIN_ROWS = 12
_ZECH_BLOCK = 16384
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

    The int32 log table (every entry is below ``TABLE_LIMIT``) is a
    temporary: it is checked for bijectivity, gives the Zech table and is
    freed on return.  No antilog array exists, even as a temporary.
    ``log x`` (encoding p) is None when d = 1, where x = 0.
    """
    log = _log_table(p, d, mod, frob, gamma_vec)
    if int(np.count_nonzero(log >= 0)) != p**d - 1:
        raise RuntimeError("the powers of gamma miss a unit: log table not bijective")
    log_x = int(log[p]) if d > 1 else None
    return _zech_table(p, log), log_x


def _log_table(p: int, d: int, mod, frob, gamma_vec) -> np.ndarray:
    """log[enc] = k where gamma^k has encoding enc; -1 where no power lands.

    For d >= 2 the walk visits one power per F_p-line, gamma^0 .. gamma^(e1-1)
    with e1 = (p^d - 1)/(p - 1).  gamma^e1 is the norm of gamma to F_p, a
    constant c0, so gamma^(k + j*e1) = c0^j * gamma^k: each base-p digit of
    the encoding is multiplied by c0^j mod p, with no product and no
    reduction.  An encoding is held as two half-encodings, the low
    h = ceil(d/2) digits and the rest, each below p^h; one lookup of p^h
    entries multiplies every digit of a half by c0, and is applied p - 2
    times.  For d = 1 (e1 = 1) the walk visits every power.

    The walk runs in blocks of ``_TABLE_BLOCK`` powers and scatters each block
    and its multiples straight into the table.  Each block is the previous
    one times gamma^block, a floating-point product on BLAS, reduced by
    ``y - p * floor(y / p)``.  Two bounds keep every step exact:

      * the product: each sum is at most d * (p - 1)^2.  While that is below
        2^24, the sum, ``floor(y / p)``, the multiple of p and the difference
        are all integers below 2^24, exact in float32, which moves half the
        bytes of float64.  Otherwise the walk runs in float64, exact below
        ``WALK_LIMIT`` = 2^53, which :func:`table_limit` enforces.
      * the half-encodings, one small product of the digits with a d x 2
        matrix of powers of p: each partial sum is below p^h, so it runs in
        float32 while p^h <= 2^24 and in float64 above.

    The block buffers are allocated once, so no block allocates for the
    product, the reduction or the encodings, and they are freed on return,
    before the Zech table is allocated.
    """
    size = p**d
    n_units = size - 1
    per_line = p - 1 if d > 1 else 1  # powers c0^j * gamma^k reached per walked k
    e1 = n_units // per_line
    h = (d + 1) // 2
    half_size = p**h
    walk_dtype = np.float32 if d * (p - 1) ** 2 < _FLOAT32_EXACT else np.float64
    half_dtype = np.float32 if half_size <= _FLOAT32_EXACT else np.float64
    split = np.zeros((2, d), dtype=half_dtype)
    split[0, :h] = [p**i for i in range(h)]
    split[1, h:] = [p**i for i in range(d - h)]
    block = min(e1, _TABLE_BLOCK)

    # gamma^0 .. gamma^(block-1) by doubling: step_m multiplies by gamma^filled
    small = np.zeros((block, d), dtype=np.int64)
    small[0, 0] = 1
    step_m = _mult_matrix(gamma_vec, mod, p)
    filled = 1
    while filled < block:
        cnt = min(filled, block - filled)
        small[filled:filled + cnt] = small[:cnt] @ step_m % p
        filled += cnt
        step_m = step_m @ step_m % p

    big_step, c0 = _powers(gamma_vec, (block, e1), mod, frob, p)
    big_m = _mult_matrix(big_step, mod, p).T.astype(walk_dtype)
    if per_line > 1:
        if not c0[0] or any(c0[1:]):
            raise RuntimeError("the norm of gamma is not in F_p^*: modulus not irreducible")
        # scale[u]: the half-encoding u with every digit multiplied by c0
        u = np.arange(half_size)
        scale = np.zeros(half_size, dtype=np.intp)
        for i in range(h):
            scale += u // p**i % p * c0[0] % p * p**i

    log = np.full(size, -1, dtype=np.int32)
    powers = np.arange(block, dtype=np.int32)
    cur = small.T.astype(walk_dtype, order="C")  # column k: the digits of one power
    del small
    prod = np.empty_like(cur)
    quot = np.empty_like(cur)
    halves = np.zeros((2, block), dtype=half_dtype)
    pair = np.empty((2, block), dtype=np.intp)
    scaled = np.empty_like(pair)
    enc = np.empty(block, dtype=np.intp)
    idx = 0
    while idx < e1:
        cnt = min(block, e1 - idx)
        np.matmul(split, cur[:, :cnt], out=halves[:, :cnt])
        a, b = pair[:, :cnt], scaled[:, :cnt]
        a[...] = halves[:, :cnt]
        for j in range(per_line):
            if j:
                np.take(scale, a, out=b, mode="clip")
                a, b = b, a
                powers += e1
            np.multiply(a[1], half_size, out=enc[:cnt])
            enc[:cnt] += a[0]
            log[enc[:cnt]] = powers[:cnt]
        idx += cnt
        if idx < e1:
            powers += block - (per_line - 1) * e1
            np.matmul(big_m, cur, out=prod)
            np.divide(prod, p, out=quot)
            np.floor(quot, out=quot)
            np.multiply(quot, p, out=quot)
            np.subtract(prod, quot, out=cur)
    return log


def _zech_table(p: int, log: np.ndarray) -> np.ndarray:
    """zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0.

    Adding 1 changes only the lowest base-p digit of an encoding, so encoding
    u pairs with u + 1, or with u + 1 - p when that digit is p - 1: two
    scatters, the second rewriting those units, with ``log[0] = -1`` marking
    1 + (-1) = 0.  numpy scatters faster on native (intp) indices than on
    int32 ones, so each scatter converts its int32 index slice in blocks of
    ``_ZECH_BLOCK``, and no full-size temporary exists.
    """
    zech = np.empty(log.size - 1, dtype=np.int32)
    index = np.empty(_ZECH_BLOCK, dtype=np.intp)
    for keys, values in ((log[1:-1], log[2:]), (log[p - 1::p], log[::p])):
        for lo in range(0, keys.size, _ZECH_BLOCK):
            cnt = min(_ZECH_BLOCK, keys.size - lo)
            index[:cnt] = keys[lo:lo + cnt]
            zech[index[:cnt]] = values[lo:lo + cnt]
    return zech


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
