"""Exact q-series arithmetic, the Dedekind eta function, and its multiplier.

Formal expansions live on the exponent grid (1/D) Z with rational
coefficients, so eta quotients (D = 24) and theta-type character sums
compare exactly, term by term.  Numeric eta evaluation reduces to the
fundamental domain first, which keeps it usable arbitrarily close to the
real axis.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc

from .core import converging, e2pi, quadratic_phases, reduce_tau, series_eps


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


def qpoch(a, q, n=None):
    """q-Pochhammer (a; q)_n = prod_{k<n} (1 - a q^k); n=None means infinity.

    The infinite product needs |q| < 1.
    """
    if n is not None:
        n = int(n)
        if n < 0:
            raise ValueError("negative length not supported")
        prod = mpc(1)
        aq = mpc(a)
        for _ in range(n):
            prod *= 1 - aq
            aq *= q
        return prod
    q = mpc(q)
    if abs(q) >= 1:
        raise ValueError("infinite q-Pochhammer needs |q| < 1")
    eps = series_eps()

    def factors():
        aq = mpc(a)
        while True:
            factor = 1 - aq
            aq *= q
            yield factor, abs(aq) < eps

    return math.prod(converging(factors(), 10 ** 6, "q-Pochhammer"), start=mpc(1))


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


def _eta_product_raw(tau):
    q = e2pi(tau)
    return e2pi(tau / 24) * qpoch(q, q)


def _eta_sum_raw(tau):
    # lacunary form: sum over m >= 1 of (12|m) q^(m^2/24)
    eps = series_eps()
    _, powers = quadratic_phases(tau / 24, 0, 0)

    def terms():
        for m, qm in zip(range(1, 10 ** 4), powers):
            chi = kronecker(12, m)
            if chi:
                term = chi * qm
                yield term, abs(term) < eps

    return sum(converging(terms(), 10 ** 4, "eta sum"), mpc(0))


def eta(tau):
    """Dedekind eta at tau in the upper half plane.

    Reduces tau to the fundamental domain with the translation and
    inversion laws before summing, so small Im(tau) is fine.
    """
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")

    def shift(state, n):
        factor, expo = state  # expo: accumulated 24th-root exponent
        return factor, expo + Fraction(n, 24)

    def invert(state, sigma):
        # eta(tau) = eta(-1/sigma) = sqrt(-i sigma) eta(sigma)
        factor, expo = state
        return factor * mp.sqrt(-1j * sigma), expo

    tau, (factor, expo) = reduce_tau(tau, (mpc(1), Fraction(0)), shift, invert, "eta")
    return e2pi(expo) * factor * _eta_product_raw(tau)


class FormalQSeries:
    """Truncated q-series with exact rational coefficients.

    Exponents live on the grid (1/denom) Z; `terms` maps the integer grid
    position s to the coefficient of q^(s/denom).  All exponents below
    `order` are determined (absent key means coefficient zero); nothing is
    known at or beyond `order`.
    """

    __slots__ = ("denom", "terms", "order")

    def __init__(self, denom, terms, order):
        self.denom = int(denom)
        self.order = Fraction(order)
        self.terms = {int(s): Fraction(c) for s, c in terms.items() if c}
        if any(Fraction(s, self.denom) >= self.order for s in self.terms):
            raise ValueError("term at or beyond truncation order")

    @classmethod
    def zero(cls, order, denom=24):
        return cls(denom, {}, order)

    @classmethod
    def one(cls, order, denom=24):
        return cls.monomial(0, 1, order, denom)

    @classmethod
    def monomial(cls, expo, coeff, order, denom=24):
        expo = Fraction(expo)
        s = expo * denom
        if s.denominator != 1:
            raise ValueError("exponent off the grid")
        if expo >= Fraction(order):
            return cls.zero(order, denom)
        return cls(denom, {int(s): Fraction(coeff)}, order)

    @classmethod
    def from_terms(cls, pairs, order, denom=24):
        out = {}
        for expo, coeff in pairs:
            s = Fraction(expo) * denom
            if s.denominator != 1:
                raise ValueError("exponent off the grid")
            if Fraction(expo) < Fraction(order):
                out[int(s)] = out.get(int(s), Fraction(0)) + Fraction(coeff)
        return cls(denom, out, order)

    def items(self):
        """Sorted (exponent, coefficient) pairs."""
        return [(Fraction(s, self.denom), c) for s, c in sorted(self.terms.items())]

    def coeff(self, expo):
        expo = Fraction(expo)
        if expo >= self.order:
            raise ValueError("coefficient beyond truncation order")
        s = expo * self.denom
        if s.denominator != 1:
            return Fraction(0)
        return self.terms.get(int(s), Fraction(0))

    def lead(self):
        """Smallest exponent with nonzero coefficient, or None if empty."""
        if not self.terms:
            return None
        return Fraction(min(self.terms), self.denom)

    def _aligned(self, other):
        if self.denom == other.denom:
            return self, other
        d = math.lcm(self.denom, other.denom)
        return self._with_denom(d), other._with_denom(d)

    def _with_denom(self, d):
        k = d // self.denom
        return FormalQSeries(d, {s * k: c for s, c in self.terms.items()}, self.order)

    def __add__(self, other):
        a, b = self._aligned(other)
        order = min(a.order, b.order)
        out = dict(a.terms)
        for s, c in b.terms.items():
            out[s] = out.get(s, Fraction(0)) + c
        out = {s: c for s, c in out.items() if c and Fraction(s, a.denom) < order}
        return FormalQSeries(a.denom, out, order)

    def __neg__(self):
        return FormalQSeries(self.denom, {s: -c for s, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply every coefficient by the rational c."""
        c = Fraction(c)
        if not c:
            return FormalQSeries.zero(self.order, self.denom)
        return FormalQSeries(self.denom, {s: v * c for s, v in self.terms.items()}, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self._aligned(other)
        la = a.lead() if a.terms else a.order
        lb = b.lead() if b.terms else b.order
        order = min(a.order + lb, b.order + la)
        cut = order * a.denom
        out = {}
        for s1, c1 in a.terms.items():
            for s2, c2 in b.terms.items():
                s = s1 + s2
                if s < cut:
                    out[s] = out.get(s, Fraction(0)) + c1 * c2
        return FormalQSeries(a.denom, {s: c for s, c in out.items() if c}, order)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; needs a nonzero leading term."""
        if not self.terms:
            raise ZeroDivisionError("cannot invert a series with no known terms")
        v = min(self.terms)
        c0 = self.terms[v]
        length = math.ceil(self.order * self.denom - v)
        rel = {s - v: c for s, c in self.terms.items()}
        inv = [Fraction(0)] * length
        inv[0] = 1 / c0
        for k in range(1, length):
            acc = Fraction(0)
            for s, c in rel.items():
                if 0 < s <= k:
                    acc += c * inv[k - s]
            inv[k] = -acc / c0
        order = Fraction(-v + length, self.denom)
        terms = {-v + k: c for k, c in enumerate(inv) if c}
        return FormalQSeries(self.denom, terms, order)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        result = FormalQSeries.one(self.order + (self.lead() or 0) * max(n - 1, 0), self.denom)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def rescale(self, r):
        """Substitute q -> q^r for a positive rational r."""
        r = Fraction(r)
        if r <= 0:
            raise ValueError("rescale factor must be positive")
        d = self.denom * r.denominator
        return FormalQSeries(
            d,
            {s * r.numerator: c for s, c in self.terms.items()},
            self.order * r,
        )

    def shift(self, expo):
        """Multiply by q^expo."""
        expo = Fraction(expo)
        d = math.lcm(self.denom, expo.denominator)
        a = self._with_denom(d)
        ds = int(expo * d)
        return FormalQSeries(d, {s + ds: c for s, c in a.terms.items()}, a.order + expo)

    def truncate(self, order):
        order = Fraction(order)
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        cut = order * self.denom
        return FormalQSeries(self.denom, {s: c for s, c in self.terms.items() if s < cut}, order)

    def __eq__(self, other):
        if not isinstance(other, FormalQSeries):
            return NotImplemented
        a, b = self._aligned(other)
        cut = min(a.order, b.order) * a.denom
        ta = {s: c for s, c in a.terms.items() if s < cut}
        tb = {s: c for s, c in b.terms.items() if s < cut}
        return ta == tb

    def __str__(self):
        if not self.terms:
            return "O(q^{})".format(self.order)
        bits = []
        for expo, c in self.items()[:12]:
            bits.append("{}*q^({})".format(c, expo))
        tail = " + ..." if len(self.terms) > 12 else ""
        return " + ".join(bits) + tail + " + O(q^{})".format(self.order)

    __repr__ = __str__


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

    Returns a FormalQSeries on the 1/24 grid, truncated at `order`.  Each
    factor is expanded as q^(ab/24) * P(q^a)^b with P the Euler product;
    integer arithmetic throughout.
    """
    order = Fraction(order)
    lead = sum(Fraction(a * b, 24) for a, b in factors)
    rel = order - lead  # needed relative precision in q
    if rel <= 0:
        return FormalQSeries.zero(order)
    combined = {0: 1}  # q-exponent (integer) -> integer coefficient
    for a, b in factors:
        if a <= 0 or b == 0:
            raise ValueError("factor scales must be positive, powers nonzero")
        xlen = math.floor(rel / a) + 1  # x = q^a, need x-exponents j with a*j < rel
        p = _euler_product(xlen)
        if b < 0:
            p = _poly_inv(p, xlen)
        p = _poly_pow(p, abs(b), xlen)
        step = {a * j: c for j, c in enumerate(p) if c}
        out = {}
        for s1, c1 in combined.items():
            for s2, c2 in step.items():
                s = s1 + s2
                if s < rel:
                    out[s] = out.get(s, 0) + c1 * c2
        combined = {s: c for s, c in out.items() if c}
    base = int(lead * 24)
    return FormalQSeries(24, {base + 24 * s: c for s, c in combined.items()}, order)
