"""Test-only reference implementations, deliberately slow and literal.

The naive scatteredness check walks every ordered pair of distinct nonzero
elements and applies the defining condition directly; it exists purely to
cross-validate the representative-based engine on tiny fields.  Every value
is formed in digit arithmetic, schoolbook products mod the modulus, from the
digits that ``ctx.coeffs_many`` gives, so no reference here reads the Zech
table that the engine adds through.
"""


def _naive_ratios(ctx, s, t):
    """S(x) * x^(-q^t) as digit tuples, for x = g^0 .. g^(order-1) in turn."""
    p, mod, terms = ctx.p, list(ctx.modulus), _naive_terms(ctx, s)
    inverse_frobenius = -ctx.q**t % ctx.order
    points = ctx.coeffs_many([ctx.element_from_dlog(a) for a in range(ctx.order)])
    return [naive_mul(p, mod, _naive_value(p, mod, terms, x),
                      naive_pow(p, mod, x, inverse_frobenius)) for x in points]


def naive_is_scattered(ctx, s, t):
    """Literal double loop over ordered pairs of nonzero elements."""
    elements = [ctx.element_from_dlog(a) for a in range(ctx.order)]
    ratios = _naive_ratios(ctx, s, t)
    for i, y in enumerate(elements):
        for j, z in enumerate(elements):
            if i == j:
                continue
            if ratios[i] == ratios[j]:
                quotient = ctx.mul(y, ctx.inv(z))
                if not ctx.in_base_subfield(quotient):
                    return False
    return True


def naive_deciding_pair_count(ctx, s, t):
    """Ordered pairs of distinct nonzero elements with equal ratio values."""
    ratios = _naive_ratios(ctx, s, t)
    count = 0
    for i in range(len(ratios)):
        for j in range(len(ratios)):
            if i != j and ratios[i] == ratios[j]:
                count += 1
    return count


def naive_mul(p, modulus, a_coeffs, b_coeffs):
    """Schoolbook polynomial product mod the defining polynomial."""
    d = len(modulus) - 1
    res = [0] * (2 * d - 1)
    for i, ai in enumerate(a_coeffs):
        for j, bj in enumerate(b_coeffs):
            res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(2 * d - 2, d - 1, -1):
        c = res[i]
        if c:
            for j in range(d):
                res[i - d + j] = (res[i - d + j] - c * modulus[j]) % p
    return tuple(v % p for v in res[:d])


def naive_pow(p, modulus, coeffs, exponent):
    d = len(modulus) - 1
    result = (1,) + (0,) * (d - 1)
    base = tuple(coeffs)
    e = exponent
    while e:
        if e & 1:
            result = naive_mul(p, modulus, result, base)
        e >>= 1
        if e:
            base = naive_mul(p, modulus, base, base)
    return result


def _naive_terms(ctx, s):
    """(q^r, the coefficient's digits) for each term of S."""
    digits = ctx.coeffs_many([a for _, a in s.terms])
    return [(ctx.q**r, coeff) for (r, _), coeff in zip(s.terms, digits)]


def _naive_value(p, mod, terms, x_digits):
    """The digits of S(x), S given by :func:`_naive_terms` and x by its digits."""
    total = [0] * (len(mod) - 1)
    for power, coeff in terms:
        term = naive_mul(p, mod, coeff, naive_pow(p, mod, x_digits, power))
        total = [(u + v) % p for u, v in zip(total, term)]
    return tuple(total)


def naive_evaluate(ctx, s, x):
    """Evaluate S via coefficient-vector arithmetic only (no dlog tables)."""
    return _naive_value(ctx.p, list(ctx.modulus), _naive_terms(ctx, s), ctx.coeffs(x))
