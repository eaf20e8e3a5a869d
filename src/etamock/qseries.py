"""Exact q-expansions, the Dedekind eta function, and its multiplier.

A formal expansion maps rational exponents to rational coefficients up to
a truncation order, so eta quotients and theta-type character sums
compare exactly, term by term.  Eta quotients are expanded on integer
coefficient lists by the private `_poly_*` helpers, the only place that
multiplies, inverts or raises a q-series to a power.  Numeric eta reduces
to the fundamental domain first, so it is usable arbitrarily close to the
real axis.  No series is summed here: eta's lacunary sum is theta's
e_3(tau/24), and its product, like every (a; q)_infinity, is core.fixed_product.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpc

from .core import KERNEL_MEMO, e2pi, fixed_product, fold_guard, reduce_tau


def kronecker(a, n):
    """Kronecker symbol (a|n), defined for all integers n."""
    a = int(a)
    n = int(n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    result = sign
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # now n odd: Jacobi symbol by quadratic reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def qpoch(a, q):
    """q-Pochhammer (a; q)_infinity = prod_{k>=0} (1 - a q^k), for |q| < 1."""
    q = mpc(q)
    if abs(q) >= 1:
        raise ValueError("infinite q-Pochhammer needs |q| < 1")
    return +fixed_product((a,), q, "q-Pochhammer")


@dataclass(frozen=True)
class RootOfUnity:
    """Exact root of unity e(num/den), exponent kept reduced mod 1."""

    num: int
    den: int

    @classmethod
    def from_fraction(cls, f):
        f = Fraction(f) % 1
        return cls(f.numerator, f.denominator)

    @property
    def exponent(self):
        return Fraction(self.num, self.den)

    def value(self):
        return e2pi(self.exponent)

    def __mul__(self, other):
        return RootOfUnity.from_fraction(self.exponent + other.exponent)

    def __pow__(self, k):
        return RootOfUnity.from_fraction(self.exponent * k)

    def conjugate(self):
        return RootOfUnity.from_fraction(-self.exponent)


@dataclass(frozen=True)
class SL2Matrix:
    """Integer matrix [[a, b], [c, d]] with determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def __mul__(self, other):
        return SL2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self):
        return SL2Matrix(self.d, -self.b, -self.c, self.a)

    def act(self, tau):
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def normalized(self):
        """Return (g, sign) with g = sign*self and g.c > 0, or c = 0, d > 0."""
        if self.c < 0 or (self.c == 0 and self.d < 0):
            return SL2Matrix(-self.a, -self.b, -self.c, -self.d), -1
        return self, 1


def dedekind_sum(d, c):
    """Exact Dedekind sum s(d, c) for c > 0."""
    if c <= 0:
        raise ValueError("need c > 0")
    total = Fraction(0)
    for r in range(1, c):
        x = Fraction(d * r, c)
        if x.denominator != 1:
            saw = x - math.floor(x) - Fraction(1, 2)
            total += Fraction(r, c) * saw
    return total


def eta_multiplier(gamma):
    """Multiplier of eta under gamma, as an exact 24th root of unity.

    Defined by eta(gamma tau) = psi(gamma) * (c tau + d)^(1/2) * eta(tau)
    with the principal square root.  For c < 0 the matrix is replaced by
    its negative, which acts identically.
    """
    g, sign = gamma.normalized()
    if g.c == 0:
        expo = Fraction(g.b, 24)
    else:
        s = dedekind_sum(g.d, g.c)
        expo = Fraction(g.a + g.d, 24 * g.c) - s / 2 - Fraction(1, 8)
    if sign < 0:
        # gamma and -gamma act identically but sqrt(c tau + d) differs by
        # a factor i: +i for c < 0 (lower half plane), -i for c = 0, d < 0
        # where the principal branch puts sqrt on the positive imaginary axis.
        expo += Fraction(1, 4) if gamma.c < 0 else Fraction(-1, 4)
    if (24 * expo).denominator != 1:
        raise AssertionError("eta multiplier exponent not a 24th root")
    return RootOfUnity.from_fraction(expo)


def eta(tau):
    """Dedekind eta at tau in the upper half plane.

    Reduces tau to the fundamental domain with the translation and
    inversion laws before it multiplies, with core.fold_guard(tau) guard
    digits as theta, g_{a,b} and mu-hat, so small Im(tau) is fine.

    The folded value is memoized, keyed by tau and mp.prec, for the
    KERNEL_MEMO = 256 most recently used keys: the catalogue's rows at one
    tau share a few eta(s tau), and a value computed at one precision is
    never returned at another.
    """
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    return _eta_folded(tau, mp.prec)


@lru_cache(maxsize=KERNEL_MEMO)
def _eta_folded(tau, prec):
    # prec only keys the memo: the caller's mp.prec is prec
    def shift(state, n):
        factor, expo = state  # expo: accumulated 24th-root exponent
        return factor, expo + Fraction(n, 24)

    def invert(state, sigma):
        # eta(tau) = eta(-1/sigma) = sqrt(-i sigma) eta(sigma)
        factor, expo = state
        return factor * mp.sqrt(-1j * sigma), expo

    with mp.extradps(fold_guard(tau)):
        tau, (factor, expo) = reduce_tau(tau, (mpc(1), Fraction(0)), shift, invert, "eta")
        q = e2pi(tau)
        value = e2pi(expo) * factor * (e2pi(tau / 24) * qpoch(q, q))
    return +value


class FormalQSeries:
    """Truncated q-series with exact rational coefficients.

    `terms` maps each exponent (a Fraction) to its nonzero coefficient.
    All exponents below `order` are determined (absent key means
    coefficient zero); nothing is known at or beyond `order`.
    """

    __slots__ = ("terms", "order")

    def __init__(self, terms, order):
        self.order = Fraction(order)
        self.terms = {Fraction(e): Fraction(c) for e, c in terms.items() if c}
        if any(e >= self.order for e in self.terms):
            raise ValueError("term at or beyond truncation order")

    @classmethod
    def from_terms(cls, pairs, order):
        """Sum the (exponent, coefficient) pairs below `order`."""
        order = Fraction(order)
        out = {}
        for expo, coeff in pairs:
            expo = Fraction(expo)
            if expo < order:
                out[expo] = out.get(expo, 0) + Fraction(coeff)
        return cls(out, order)

    def items(self):
        """Sorted (exponent, coefficient) pairs."""
        return sorted(self.terms.items())

    def coeff(self, expo):
        expo = Fraction(expo)
        if expo >= self.order:
            raise ValueError("coefficient beyond truncation order")
        return self.terms.get(expo, Fraction(0))

    def _below(self, order):
        return {e: c for e, c in self.terms.items() if e < order}

    def __sub__(self, other):
        order = min(self.order, other.order)
        out = self._below(order)
        for e, c in other._below(order).items():
            out[e] = out.get(e, 0) - c
        return FormalQSeries(out, order)

    def __eq__(self, other):
        """Equal on every exponent below the smaller of the two orders."""
        if not isinstance(other, FormalQSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return self._below(order) == other._below(order)

    def __repr__(self):
        bits = ["{}*q^({})".format(c, e) for e, c in self.items()[:12]]
        tail = [] if len(self.terms) <= 12 else ["..."]
        return " + ".join(bits + tail + ["O(q^{})".format(self.order)])


def _euler_product(length):
    """Integer coefficients of prod_{n>=1} (1 - x^n) through x^(length-1)."""
    coeffs = [0] * length
    if length:
        coeffs[0] = 1
    for n in range(1, length):
        for k in range(length - 1, n - 1, -1):
            coeffs[k] -= coeffs[k - n]
    return coeffs


def _poly_mul(p, q, length):
    out = [0] * length
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if i + j >= length:
                    break
                out[i + j] += a * b
    return out


def _poly_inv(p, length):
    # leading coefficient is 1 for Euler products, so this stays integral
    if p[0] != 1:
        raise ValueError("inversion needs unit leading coefficient")
    inv = [0] * length
    inv[0] = 1
    for k in range(1, length):
        acc = 0
        for j in range(1, min(k, len(p) - 1) + 1):
            if p[j]:
                acc += p[j] * inv[k - j]
        inv[k] = -acc
    return inv


def _poly_pow(p, n, length):
    result = [0] * length
    result[0] = 1
    base = list(p[:length]) + [0] * max(0, length - len(p))
    while n:
        if n & 1:
            result = _poly_mul(result, base, length)
        n >>= 1
        if n:
            base = _poly_mul(base, base, length)
    return result


def eta_quotient_qexp(factors, order):
    """Exact expansion of prod eta(a*tau)^b for factors [(a, b), ...].

    Returns a FormalQSeries truncated at `order`.  Each factor is
    q^(ab/24) * P(q^a)^b with P the Euler product; its coefficients are
    spread onto the q-grid and multiplied into the others, in integer
    arithmetic throughout.
    """
    if any(a <= 0 or b == 0 for a, b in factors):
        raise ValueError("factor scales must be positive, powers nonzero")
    order = Fraction(order)
    lead = sum(Fraction(a * b, 24) for a, b in factors)
    length = math.ceil(order - lead)  # q-powers s >= 0 with lead + s < order
    if length <= 0:
        return FormalQSeries({}, order)
    combined = [1] + [0] * (length - 1)
    for a, b in factors:
        xlen = (length - 1) // a + 1  # x = q^a: x-powers j with a*j < length
        p = _euler_product(xlen)
        if b < 0:
            p = _poly_inv(p, xlen)
        spread = [0] * length
        spread[::a] = _poly_pow(p, abs(b), xlen)
        combined = _poly_mul(spread, combined, length)
    return FormalQSeries({lead + s: c for s, c in enumerate(combined)}, order)
