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

For degree >= 2 both searches run on the Frobenius matrix of the modulus,
whose row i is x^(p*i): the Rabin test reads x^(p^k) from iterated products
with it, and the generator test raises a candidate to order/l by Horner's
rule over the base-p digits of order/l (a prime field's generator test is a
plain modular power).  The table walk (:func:`_log_table`) multiplies digit
vectors only for one power per F_p-line and reaches the other p - 2 by
scaling digits with the norm of the generator, a constant of F_p.

Two layers describe a field: :class:`FieldParams` holds the sizes, all the
scan-free criteria read; :class:`FieldCtx` adds the modulus, factorization and
generator, found in milliseconds, all the fingerprint reads, and the Zech
table, which the oracle and addition read.  :func:`field_basis` returns a
context whose table is not built yet, :func:`build_field` one whose table is;
the former builds it, through :func:`build_field`, the first time something
reads it.

An element is its discrete log alone (:class:`FFElement`).  Digits and
discrete logs meet in one place each way: :meth:`FieldCtx.coeffs` raises the
generator's digits to the discrete log, and :meth:`FieldCtx.element_from_coeffs`
runs Horner's rule on the digits through the Zech table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DivisionByZero,
    EvenCharacteristicRejected,
    FieldTooLarge,
    NonPrime,
)

DEFAULT_CAP = 1 << 22
# No field above this gets a table, whatever the cap: the kernels form products
# of two discrete logs in int64, which stay below 2^63 only while q^n < 2^31,
# and every discrete log and encoding then fits the int32 tables.  The
# oracle's int32 ratio ids (a discrete log, or q^n - 1 for zero) rely on it too.
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
_TABLE_BLOCK = 4096
_ZECH_BLOCK = 16384


def is_prime(num: int) -> bool:
    if num < 2:
        return False
    if num < 4:
        return True
    if num % 2 == 0:
        return False
    f = 3
    while f * f <= num:
        if num % f == 0:
            return False
        f += 2
    return True


def factorize(num: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, smallest prime first."""
    if num < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    rem = num
    f = 2
    while f * f <= rem:
        if rem % f == 0:
            e = 0
            while rem % f == 0:
                rem //= f
                e += 1
            out.append((f, e))
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


def _fixed_mulmod(a, b, mod, p):
    """Product of two length-d vectors modulo the monic polynomial `mod`."""
    d = len(mod) - 1
    res = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] += ai * bj
    for i in range(2 * d - 2, d - 1, -1):
        c = res[i] % p
        if c:
            base = i - d
            for j in range(d):
                res[base + j] -= c * mod[j]
    return [v % p for v in res[:d]]


def _fixed_powmod(vec, exponent: int, mod, p):
    d = len(mod) - 1
    result = [1] + [0] * (d - 1)
    base = list(vec)
    e = exponent
    while e:
        if e & 1:
            result = _fixed_mulmod(result, base, mod, p)
        e >>= 1
        if e:
            base = _fixed_mulmod(base, base, mod, p)
    return result


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


def _poly_gcd(a, b, p):
    a = _trim(list(a))
    b = _trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _frobenius_matrix(mod, p: int) -> np.ndarray:
    """Row i holds x^(p*i) mod `mod` (degree >= 2), so v @ F = v^p.

    Every digit of v lies in F_p and is its own p-th power, so
    (sum v_i x^i)^p = sum v_i x^(p*i): raising to the p-th power is linear.
    """
    d = len(mod) - 1
    step = _mult_matrix(_fixed_powmod([0, 1] + [0] * (d - 2), p, mod, p), mod, p)
    frob = np.zeros((d, d), dtype=np.int64)
    frob[0, 0] = 1
    for i in range(1, d):
        frob[i] = frob[i - 1] @ step % p
    return frob


def _is_irreducible(mod, p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p.

    x^(p^k) is x times the k-th power of the Frobenius matrix, one
    vector-matrix product per k.
    """
    d = len(mod) - 1
    if d == 1:
        return True
    frob = _frobenius_matrix(mod, p)
    x = np.zeros(d, dtype=np.int64)
    x[1] = 1
    powers = [x]  # x^(p^k) for k = 0 .. d
    for _ in range(d):
        powers.append(powers[-1] @ frob % p)
    if not np.array_equal(powers[d], x):
        return False
    for prime, _ in factorize(d):
        diff = ((powers[d // prime] - x) % p).tolist()
        if len(_poly_gcd(diff, mod, p)) > 1:
            return False
    return True


def _has_nonzero_root(coeffs, p: int) -> bool:
    """Whether x^d + sum c_i x^i vanishes at some r in 1..p-1 (Horner's rule)."""
    for r in range(1, p):
        value = 1
        for c in reversed(coeffs):
            value = (value * r + c) % p
        if not value:
            return True
    return False


def _find_modulus(p: int, d: int) -> tuple[int, ...]:
    if d == 1:
        return (0, 1)
    for enc in range(p**d):
        coeffs = _digits(enc, p, d)
        if coeffs[0] == 0:
            continue  # divisible by x
        if _has_nonzero_root(coeffs, p):
            continue
        candidate = coeffs + [1]
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise RuntimeError(f"no irreducible polynomial of degree {d} over F_{p}")


def _find_generator(p: int, d: int, mod, group_order: int,
                    factorization) -> list[int]:
    """The nonzero element of smallest encoding with full multiplicative order.

    A candidate v passes when v^(order/l) != 1 for every prime l of the
    order.  For d >= 2 each such power runs Horner's rule over the base-p
    digits of order/l: raise to the p-th power (the Frobenius matrix), then
    multiply by v^digit.  Each v^digit is one square-and-multiply power,
    made once per candidate and digit; the p powers of v are never all made,
    which for large p would cost more than the whole test.
    """
    if d == 1:
        for g in range(1, p):
            if all(pow(g, group_order // prime, p) != 1 for prime, _ in factorization):
                return [g]
        raise RuntimeError("no primitive element found")
    frob = _frobenius_matrix(mod, p)
    exponents = [_digits(group_order // prime, p, d)[::-1] for prime, _ in factorization]
    one = np.zeros(d, dtype=np.int64)
    one[0] = 1
    # the constants 1..p-1 lie in F_p^* and cannot have full order
    for enc in range(p, p**d):
        vec = _digits(enc, p, d)
        steps = {0: frob}  # digit -> matrix of w -> w^p * vec^digit
        for digits in exponents:
            acc = one
            for digit in digits:
                if digit not in steps:
                    steps[digit] = frob @ _mult_matrix(
                        _fixed_powmod(vec, digit, mod, p), mod, p) % p
                acc = acc @ steps[digit] % p
            if np.array_equal(acc, one):
                break
        else:
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


def _build_tables(p: int, d: int, mod, gamma_vec):
    """Zech-log table of F_p[x]/(mod) with generator gamma, and log x.

    The int32 log table (every entry is below ``TABLE_LIMIT``) is a
    temporary: it is checked for bijectivity, gives the Zech table and is
    freed on return.  No antilog array exists, even as a temporary.
    ``log x`` (encoding p) is None when d = 1, where x = 0.
    """
    log = _log_table(p, d, mod, gamma_vec)
    if int(np.count_nonzero(log >= 0)) != p**d - 1:
        raise RuntimeError("the powers of gamma miss a unit: log table not bijective")
    log_x = int(log[p]) if d > 1 else None
    return _zech_table(p, log), log_x


def _log_table(p: int, d: int, mod, gamma_vec) -> np.ndarray:
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

    big_step = _fixed_powmod(gamma_vec, block, mod, p)
    big_m = _mult_matrix(big_step, mod, p).T.astype(walk_dtype)
    if per_line > 1:
        c0 = _fixed_powmod(gamma_vec, e1, mod, p)
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


class FieldCtx(FieldParams):
    """F_{q^n} as F_p[x]/(modulus) with its generator's digits and its Zech-log table.

    Construct via :func:`field_basis` (no table yet) or :func:`build_field`.
    The Zech table and log x are built together, by :func:`build_field`, the
    first time either is read; ``table_s`` is the seconds that took, 0.0
    while they are missing.
    """

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
        """a's coefficient vector over F_p, constant term first; for output.

        One square-and-multiply power of the generator's digits, no table.
        """
        if a.dlog is None:
            return (0,) * self.degree
        return tuple(_fixed_powmod(self.gamma_coeffs, a.dlog, self.modulus, self.p))

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
    d = m * n
    size = p**d
    limit = table_limit(p, d, cap)
    if size > limit:
        raise FieldTooLarge(size, limit)

    modulus = _find_modulus(p, d)
    fact = factorize(size - 1) if size > 2 else ()
    return FieldCtx(p, m, n, modulus, fact, _find_generator(p, d, modulus, size - 1, fact))


def build_field(p: int, m: int, n: int, cap: int = DEFAULT_CAP,
                strict: bool = True, basis: FieldCtx | None = None) -> FieldCtx:
    """Construct F_{p^{m*n}}: :func:`field_basis`, then its Zech table.

    Pass ``strict=False`` to build even-characteristic fields anyway, and
    ``basis`` when that :func:`field_basis` call has already been made: the
    table is built into it, and it is returned (it ran the refusals, so
    ``cap`` and ``strict`` are not read again)."""
    ctx = field_basis(p, m, n, cap, strict) if basis is None else basis
    t0 = time.perf_counter()
    ctx._zech, log_x = _build_tables(p, ctx.degree, ctx.modulus, ctx.gamma_coeffs)
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
