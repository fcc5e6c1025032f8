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

Three layers, each a subclass of the one before, describe a field:
:class:`FieldParams` holds the sizes, all the scan-free criteria read;
:class:`FieldBasis` (:func:`field_basis`) adds the modulus, factorization and
generator, found in milliseconds, all the fingerprint reads; :class:`FieldCtx`
(:func:`build_field`) adds the Zech table, which the oracle and addition read.

An element is its discrete log alone (:class:`FFElement`).  Digits and
discrete logs meet in one place each way: :meth:`FieldBasis.coeffs` raises the
generator's digits to the discrete log, and :meth:`FieldCtx.element_from_coeffs`
runs Horner's rule on the digits through the Zech table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# sums stay below this, and encodes in float32 while p^d does not exceed it.
_FLOAT32_EXACT = 1 << 24
_TABLE_BLOCK = 4096


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


def _is_irreducible(mod, p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p."""
    d = len(mod) - 1
    if d == 1:
        return True
    x = [0, 1] + [0] * (d - 2)
    if _fixed_powmod(x, p**d, mod, p) != x:
        return False
    for prime, _ in factorize(d):
        h = _fixed_powmod(x, p ** (d // prime), mod, p)
        diff = [(hi - xi) % p for hi, xi in zip(h, x)]
        g = _poly_gcd(diff, mod, p)
        if len(g) > 1:
            return False
    return True


def _find_modulus(p: int, d: int) -> tuple[int, ...]:
    if d == 1:
        return (0, 1)
    for enc in range(p**d):
        coeffs = _digits(enc, p, d)
        if coeffs[0] == 0:
            continue  # divisible by x
        if any(sum(c * pow(r, i, p) for i, c in enumerate(coeffs + [1])) % p == 0
               for r in range(p)):
            continue  # has a root in F_p
        candidate = coeffs + [1]
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise RuntimeError(f"no irreducible polynomial of degree {d} over F_{p}")


def _find_generator(p: int, d: int, mod, group_order: int,
                    factorization) -> list[int]:
    one = [1] + [0] * (d - 1)
    # when d > 1 the constants 1..p-1 lie in F_p^* and cannot have full order
    for enc in range(p if d > 1 else 1, p**d):
        vec = _digits(enc, p, d)
        if all(_fixed_powmod(vec, group_order // prime, mod, p) != one
               for prime, _ in factorization):
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
    """Zech-log table of F_p[x]/(mod) with generator gamma, log x and log 1..p-1.

    The int32 log table (every entry is below ``TABLE_LIMIT``) is a
    temporary: it is checked for bijectivity, gives the Zech table and is
    freed on return.  No antilog array exists, even as a temporary.
    ``log x`` (encoding p) is None when d = 1, where x = 0.
    """
    log = _log_table(p, d, mod, gamma_vec)
    if int(np.count_nonzero(log >= 0)) != p**d - 1:
        raise RuntimeError("the powers of gamma miss a unit: log table not bijective")
    log_x = int(log[p]) if d > 1 else None
    return _zech_table(p, log), log_x, tuple(int(v) for v in log[1:p])


def _log_table(p: int, d: int, mod, gamma_vec) -> np.ndarray:
    """log[enc] = k where gamma^k has encoding enc; -1 where no power lands.

    The walk visits gamma^0, gamma^1, ... in blocks of ``_TABLE_BLOCK``
    powers and scatters each block straight into the table.  Each block is
    the previous one times gamma^block, a floating-point product on BLAS,
    reduced by ``y - p * floor(y / p)``.  Two bounds keep every step exact:

      * the product: each sum is at most d * (p - 1)^2.  While that is below
        2^24, the sum, ``floor(y / p)``, the multiple of p and the difference
        are all integers below 2^24, exact in float32, which moves half the
        bytes of float64.  Otherwise the walk runs in float64, exact below
        ``WALK_LIMIT`` = 2^53, which :func:`table_limit` enforces.
      * the encoding ``digits @ (1, p, ..., p^(d-1))``: each partial sum is
        below p^d, so it runs in float32 while p^d <= 2^24 and in float64
        above.

    The block buffers are allocated once, so no block allocates for the
    product or the reduction, and they are freed on return, before the Zech
    table is allocated.
    """
    size = p**d
    n_units = size - 1
    walk_dtype = np.float32 if d * (p - 1) ** 2 < _FLOAT32_EXACT else np.float64
    enc_dtype = np.float32 if size <= _FLOAT32_EXACT else np.float64
    ppow = np.array([p**i for i in range(d)], dtype=enc_dtype)
    block = min(n_units, _TABLE_BLOCK)

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
    big_m = _mult_matrix(big_step, mod, p).astype(walk_dtype)

    log = np.full(size, -1, dtype=np.int32)
    powers = np.arange(block, dtype=np.int32)
    cur = small.astype(walk_dtype)
    prod = np.empty_like(cur)
    quot = np.empty_like(cur)
    enc = np.empty(block, dtype=enc_dtype)
    idx = 0
    while idx < n_units:
        cnt = min(block, n_units - idx)
        np.matmul(cur[:cnt], ppow, out=enc[:cnt])
        log[enc[:cnt].astype(np.intp)] = powers[:cnt]
        idx += cnt
        if idx < n_units:
            powers += block
            np.matmul(cur, big_m, out=prod)
            np.divide(prod, p, out=quot)
            np.floor(quot, out=quot)
            np.multiply(quot, p, out=quot)
            np.subtract(prod, quot, out=cur)
    return log


def _zech_table(p: int, log: np.ndarray) -> np.ndarray:
    """zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0.

    Adding 1 changes only the lowest base-p digit of an encoding, so encoding
    u pairs with u + 1, or with u + 1 - p when that digit is p - 1: two slice
    assignments, the second rewriting those units, with ``log[0] = -1``
    marking 1 + (-1) = 0.  Neither makes a full-size temporary.
    """
    zech = np.empty(log.size - 1, dtype=np.int32)
    zech[log[1:-1]] = log[2:]
    zech[log[p - 1::p]] = log[::p]
    return zech


@dataclass(frozen=True)
class FFElement:
    """One element of F_{q^n}: its discrete log to the field's generator.

    ``dlog`` is None exactly for the zero element.  An element does not know
    its field; :meth:`FieldBasis.coeffs` gives its coefficient vector over F_p.
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


class FieldBasis(FieldParams):
    """F_{q^n} as F_p[x]/(modulus) with its generator's digits; no table.

    Construct via :func:`field_basis`.
    """

    def __init__(self, p: int, m: int, n: int, modulus, factorization, gamma_coeffs):
        super().__init__(p, m, n)
        self.modulus = tuple(modulus)
        self.factorization = tuple(factorization)
        self.gamma_coeffs = tuple(gamma_coeffs)

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

    def element_from_dlog(self, k: int) -> FFElement:
        return FFElement(k % self.order)


class FieldCtx(FieldBasis):
    """Immutable context for F_{q^n}: its basis and its Zech-log table.

    Construct via :func:`build_field`.  Safe to share across threads; no
    method mutates the context.
    """

    def __init__(self, basis: FieldBasis, zech, log_x, const_logs):
        super().__init__(basis.p, basis.m, basis.n, basis.modulus,
                         basis.factorization, basis.gamma_coeffs)
        self._zech = zech
        self._x = FFElement(log_x)
        self._const_logs = const_logs  # log c for the constants c = 1..p-1
        # -1 = g^(order/2) in odd characteristic; -1 = 1 when p = 2
        self._neg_shift = self.order // 2 if self.p > 2 else 0
        self.gamma = self.element_from_dlog(1)

    # -- representation helpers ------------------------------------------

    @property
    def params(self) -> FieldParams:
        return self

    def encode(self, a: FFElement) -> int:
        """The integer sum(c_i p^i) of a's coefficient vector; for output."""
        return _encode(self.coeffs(a), self.p)

    # perfbench counts calls by patching the scalar methods in this class's
    # own namespace, so the inherited one is bound here too
    element_from_dlog = FieldBasis.element_from_dlog

    def element_from_encoding(self, enc: int) -> FFElement:
        if not 0 <= enc < self.size:
            raise ValueError(f"encoding {enc} out of range for field of size {self.size}")
        return self.element_from_coeffs(_digits(enc, self.p, self.degree))

    def element_from_coeffs(self, coeffs) -> FFElement:
        """sum c_i x^i by Horner's rule: multiply by x, add the next digit."""
        vec = [c % self.p for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than the field degree")
        acc = self.zero()
        for c in reversed(vec):
            acc = self.mul(acc, self._x)
            if c:
                acc = self._add_dlogs(acc, self._const_logs[c - 1])
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
                strict: bool = True) -> FieldBasis:
    """The deterministic modulus and generator of F_{p^{m*n}}, without a table.

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
    return FieldBasis(p, m, n, modulus, fact, _find_generator(p, d, modulus, size - 1, fact))


def build_field(p: int, m: int, n: int, cap: int = DEFAULT_CAP,
                strict: bool = True, basis: FieldBasis | None = None) -> FieldCtx:
    """Construct F_{p^{m*n}}: :func:`field_basis` plus the Zech table.

    Pass ``strict=False`` to build even-characteristic fields anyway, and
    ``basis`` when that :func:`field_basis` call has already been made (it
    ran the refusals, so ``cap`` and ``strict`` are not read again)."""
    if basis is None:
        basis = field_basis(p, m, n, cap, strict)
    return FieldCtx(basis, *_build_tables(p, basis.degree, basis.modulus,
                                          basis.gamma_coeffs))


def modulus_text(basis: FieldBasis) -> str:
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
