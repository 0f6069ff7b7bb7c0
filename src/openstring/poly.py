"""Sparse exact polynomials in the momentum components, plus the one
rational extension the oscillator construction needs.

``Poly`` is a multivariate polynomial over Fraction in the d variables
p^0..p^{d-1}.  ``LcRational`` adjoins a single denominator, powers of the
lightcone combination w = p^0 + p^{d-1}: every coefficient produced by
running the oscillator machinery at a symbolic momentum has the shape
q(p)/w^gamma, because w is the only thing the construction ever divides
by.  Normalization cancels w out of the numerator eagerly (w is a prime
element, so the reduced form is unique), which is what later lets a global
w^gamma prefactor clear all denominators at once.

Division is deliberately *not* closed: only ``scalar / LcRational`` with a
pure w-power argument is defined, precisely the shape k^0 = kappa / w
needs.  Everything else raises, so an unexpected denominator cannot creep
in silently.

The two structural rewrites used by the verification layers:

* ``flip_spatial``: p^i -> -p^i for all spatial i, the momentum half of
  the reality involution;
* ``reduce_shell(r)``: eliminate (p^0)^2 via (p^0)^2 = |vec p|^2 + r, the
  on-shell normal form that turns mass-shell identities into literal
  polynomial cancellations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

__all__ = ["LcRational", "Poly", "sym_momentum"]


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"polynomial coefficients are exact rationals, got {type(c)!r}")


class Poly:
    """Immutable sparse polynomial; keys are exponent tuples of length d."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms=None):
        self.d = d
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _as_fraction(c)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, d: int, c) -> "Poly":
        return cls(d, {(0,) * d: _as_fraction(c)})

    @classmethod
    def variable(cls, d: int, mu: int) -> "Poly":
        exps = [0] * d
        exps[mu] = 1
        return cls(d, {tuple(exps): Fraction(1)})

    @classmethod
    def lightcone(cls, d: int) -> "Poly":
        return cls.variable(d, 0) + cls.variable(d, d - 1)

    # -- ring structure -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.d == other.d and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.d, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __neg__(self):
        return Poly(self.d, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.d, other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.d, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.const(self.d, -_as_fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Poly(self.d)
            return Poly(self.d, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.d, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = Poly.const(self.d, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries ----------------------------------------------------------

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, mu: int) -> int:
        return max((e[mu] for e in self.terms), default=0)

    def evaluate(self, point):
        """Plug in a momentum; exact for exact components, float for floats."""
        total = None
        for exps, c in self.terms.items():
            term = c
            for mu, e in enumerate(exps):
                for _ in range(e):
                    term = term * point[mu]
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    # -- structural rewrites ----------------------------------------------

    def flip_spatial(self) -> "Poly":
        out = {}
        for exps, c in self.terms.items():
            sign = -1 if sum(exps[1:]) % 2 else 1
            out[exps] = sign * c
        return Poly(self.d, out)

    def reduce_shell(self, r) -> "Poly":
        """Normal form modulo (p^0)^2 - |vec p|^2 - r; p^0-degree <= 1."""
        r = _as_fraction(r)
        cur = self
        while cur.degree_in(0) > 1:
            out = Poly(self.d)
            for exps, c in cur.terms.items():
                if exps[0] > 1:
                    rest = (exps[0] - 2,) + exps[1:]
                    base = Poly(self.d, {rest: c})
                    sq = Poly.const(self.d, r)
                    for i in range(1, self.d):
                        ei = [0] * self.d
                        ei[i] = 2
                        sq = sq + Poly(self.d, {tuple(ei): Fraction(1)})
                    out = out + base * sq
                else:
                    out = out + Poly(self.d, {exps: c})
            cur = out
        return cur

    def substitute_lightcone_zero(self) -> "Poly":
        """The remainder of division by w: substitute p^0 -> -p^{d-1}."""
        out = {}
        last = self.d - 1
        for exps, c in self.terms.items():
            e0 = exps[0]
            new = (0,) + exps[1:last] + (exps[last] + e0,)
            out[new] = out.get(new, 0) + (-c if e0 % 2 else c)
        return Poly(self.d, out)

    def divide_lightcone(self):
        """Exact quotient by w = p^0 + p^{d-1}, or None if not divisible.

        Synthetic division in p^0 with coefficients in the remaining
        variables: writing q = sum_j c_j (p^0)^j, the quotient satisfies
        h_{j-1} = c_j - p^{d-1} h_j downward from the top degree.  A nonzero
        remainder is found first, without dividing.
        """
        if not self:
            return Poly(self.d)
        if self.substitute_lightcone_zero():
            return None
        top = self.degree_in(0)
        # collect c_j as polynomials with a zero p^0 exponent slot
        cs = [Poly(self.d) for _ in range(top + 1)]
        for exps, c in self.terms.items():
            j = exps[0]
            cs[j] = cs[j] + Poly(self.d, {(0,) + exps[1:]: c})
        y = Poly.variable(self.d, self.d - 1)
        h = [Poly(self.d) for _ in range(top)]  # quotient coefficients
        carry = Poly(self.d)
        for j in range(top, 0, -1):
            hj = cs[j] - y * carry if j < top else cs[j]
            h[j - 1] = hj
            carry = hj
        out = Poly(self.d)
        for j, hj in enumerate(h):
            for exps, c in hj.terms.items():
                out = out + Poly(self.d, {(j,) + exps[1:]: c})
        return out

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(
                f"p{mu}" + (f"^{e}" if e > 1 else "")
                for mu, e in enumerate(exps) if e
            )
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return "Poly(" + " + ".join(bits) + ")"


class LcRational:
    """q(p) / w^gamma with w = p^0 + p^{d-1}, kept in lowest terms."""

    __slots__ = ("num", "gamma")

    def __init__(self, num: Poly, gamma: int = 0):
        if gamma < 0:
            raise ValueError("denominator exponent must be nonnegative")
        while gamma > 0:
            q = num.divide_lightcone()
            if q is None:
                break
            num, gamma = q, gamma - 1
        if not num:
            gamma = 0
        self.num = num
        self.gamma = gamma

    @classmethod
    def _reduced(cls, num: Poly, gamma: int) -> "LcRational":
        """num / w^gamma, already in lowest terms: no reduction is tried."""
        out = cls.__new__(cls)
        out.num, out.gamma = num, gamma
        return out

    @property
    def d(self) -> int:
        return self.num.d

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, LcRational):
            return other
        if isinstance(other, Poly):
            return LcRational(other)
        if isinstance(other, (int, Fraction)):
            return LcRational(Poly.const(self.d, other))
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.gamma == o.gamma and self.num == o.num

    def __hash__(self):
        return hash((self.num, self.gamma))

    def __neg__(self):
        return LcRational(-self.num, self.gamma)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.gamma == o.gamma:
            return LcRational(self.num + o.num, self.gamma)
        # the numerator with the larger gamma is reduced and the other
        # carries a factor w, so the sum is not divisible by w
        hi, lo = (self, o) if self.gamma > o.gamma else (o, self)
        w = _lightcone_power(self.d, hi.gamma - lo.gamma)
        return LcRational._reduced(hi.num + lo.num * w, hi.gamma)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational factor cannot make a reduced numerator divisible by w
            return LcRational._reduced(self.num * other,
                                       self.gamma if other else 0)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.gamma and o.gamma:
            # both numerators are reduced and w is prime: so is the product
            return LcRational._reduced(self.num * o.num, self.gamma + o.gamma)
        return LcRational(self.num * o.num, self.gamma + o.gamma)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        """scalar / self, defined only when self is c * w^j exactly."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not self:
            raise ZeroDivisionError("division by the zero section")
        num, drop = self.num, 0
        while True:
            q = num.divide_lightcone()
            if q is None:
                break
            num, drop = q, drop + 1
        const = num.terms.get((0,) * self.d)
        if const is None or len(num.terms) != 1:
            raise TypeError(
                "only pure lightcone powers can be inverted in this ring"
            )
        c = _as_fraction(other) / const
        e = self.gamma - drop
        if e >= 0:
            return LcRational(Poly.const(self.d, c) * _lightcone_power(self.d, e))
        return LcRational(Poly.const(self.d, c), -e)

    def evaluate(self, point):
        w = point[0] + point[self.d - 1]
        if not w:
            raise ZeroDivisionError("lightcone combination vanishes at the point")
        val = self.num.evaluate(point)
        for _ in range(self.gamma):
            val = val / w
        return val

    def cleared(self, gamma: int) -> Poly:
        """num * w^(gamma - self.gamma): the coefficient after a global
        w^gamma prefactor absorbs the denominator."""
        if gamma < self.gamma:
            raise ValueError(
                f"prefactor power {gamma} below denominator power {self.gamma}"
            )
        return self.num * _lightcone_power(self.d, gamma - self.gamma)

    def __repr__(self):
        if self.gamma:
            return f"LcRational({self.num!r}, w^-{self.gamma})"
        return f"LcRational({self.num!r})"


@lru_cache(maxsize=128)
def _lightcone_power(d: int, e: int) -> Poly:
    """w^e for w = p^0 + p^{d-1} (Poly is immutable, so powers are shared)."""
    return Poly.lightcone(d) ** e


def sym_momentum(d: int):
    """The momentum with symbolic components, as LcRational sections."""
    from .fiber import Momentum

    return Momentum(tuple(LcRational(Poly.variable(d, mu)) for mu in range(d)))
