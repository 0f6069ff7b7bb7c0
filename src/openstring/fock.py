"""Oscillator Fock space over a flat Minkowski target.

States are finite linear combinations of normal-ordered creation monomials

    alpha^{mu_1}_{-n_1} ... alpha^{mu_k}_{-n_k} |0>,    n_j >= 1,

encoded as canonically sorted tuples ``((n_1, mu_1), ..., (n_k, mu_k))`` with
ascending ``(n, mu)``.  The commutation relations are

    [alpha^mu_m, alpha^nu_n] = m eta^{mu nu} delta_{m+n, 0} * 1,

with the mostly-plus metric eta = diag(-1, +1, ..., +1), and
alpha^mu_m |0> = 0 for m > 0.  The adjoint is (alpha^mu_m)^dagger =
alpha^mu_{-m}, which makes the induced inner product indefinite: timelike
excitations carry negative norm.

A vector holds its coefficients as numerators over one positive int
denominator.  On a rational fiber the numerators are ints, so the builders
here and in ``fiber`` and ``ddf`` add and scale in integers, combine
denominators by lcm once per vector and divide out one gcd per result;
readers see plain Fraction values, and the form is symmetric bilinear.
The same container hosts the polynomial sections of the momentum-symbolic
pipelines as numerators, so all arithmetic on numerators is written
against the generic ring protocol (+, *, unary -, truthiness for zero
tests); such numerators have no gcd, so each built vector folds its
denominator into them instead.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import json
from math import gcd, lcm

__all__ = [
    "FockVector",
    "InvalidDirectionError",
    "ModelParams",
    "apply_oscillator",
    "basis_dimension",
    "inner_indefinite",
    "inner_positive",
    "iter_level_basis",
    "j_involution",
    "level_basis",
    "level_of",
    "monomial_norm",
    "vector_from_json",
    "vector_to_json",
]

Monomial = tuple  # tuple[tuple[int, int], ...]

VACUUM: Monomial = ()


class InvalidDirectionError(ValueError):
    """A Lorentz direction index lies outside 0..d-1."""


@dataclass(frozen=True)
class ModelParams:
    """Model-wide constants: target dimension d and the intercept b.

    The metric is fixed to eta = diag(-1, +1, ..., +1); ``eta(mu)`` returns
    the diagonal entry as a plain int.
    """

    d: int
    b: Fraction = Fraction(1)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need target dimension d >= 2")
        object.__setattr__(self, "b", Fraction(self.b))

    def eta(self, mu: int) -> int:
        if not 0 <= mu < self.d:
            raise InvalidDirectionError(f"direction {mu} outside 0..{self.d - 1}")
        return -1 if mu == 0 else 1

    def check_direction(self, mu: int) -> int:
        if not 0 <= mu < self.d:
            raise InvalidDirectionError(f"direction {mu} outside 0..{self.d - 1}")
        return mu


def level_of(mono: Monomial) -> int:
    return sum(n for n, _ in mono)


def _accumulate(num: dict, mono, c) -> None:
    """num[mono] += c on a {monomial: numerator} dict, pruning a zero."""
    cur = num.get(mono)
    new = c if cur is None else cur + c
    if new:
        num[mono] = new
    elif cur is not None:
        del num[mono]


def _split_scalar(c) -> tuple:
    """(numerator, int denominator) of a scalar: a Fraction's parts, else
    (c, 1) for an int or a ring element."""
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    return c, 1


def _times(c, k):
    """c * k, with k = 1 and k = -1 taken as c and -c: a ring element's
    product with an int rescales every one of its terms."""
    if type(k) is int and k in (1, -1):
        return c if k == 1 else -c
    return c * k


def _value(c, den: int):
    """The coefficient of numerator ``c`` over ``den``."""
    if type(c) is int:
        return Fraction(c, den) if den != 1 else Fraction(c)
    return c if den == 1 else c * Fraction(1, den)


class FockVector:
    """Sparse vector: canonical monomial -> coefficient, kept as ``num``,
    {monomial: numerator}, over one positive int denominator ``den``.

    Zero numerators are pruned; the empty dict is the zero vector.  Int
    numerators are reduced against ``den`` by one gcd per built vector,
    not per term; ring numerators take ``den`` in and stay over 1.
    ``items()``, ``terms`` and equality read values, so a
    reader never sees the denominator.  Scalar multiplication accepts
    anything the coefficient ring multiplies with (int, Fraction,
    polynomial sections).
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        """The vector with the {monomial: coefficient} values ``terms``."""
        self.num, self.den = {}, 1
        if terms:
            # reduced Fractions over the lcm of their denominators share no
            # factor with it, so the vector is born reduced
            den = self.den = lcm(*[c.denominator for c in terms.values()
                                   if isinstance(c, Fraction)])
            for mono, c in terms.items():
                if c:
                    a, b = _split_scalar(c)
                    self.num[mono] = a * (den // b) if den != 1 else a

    @classmethod
    def _of(cls, num: dict, den: int = 1) -> "FockVector":
        """num / den, taking ``num`` (no zero numerators) over as it is."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def vacuum(cls, coeff=Fraction(1)):
        return cls.basis_state(VACUUM, coeff)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis_state(cls, mono: Monomial, coeff=Fraction(1)):
        if not coeff:
            return cls()
        a, b = _split_scalar(coeff)
        return cls._of({tuple(sorted(mono)): a}, b)

    def _reduce(self) -> "FockVector":
        """Divide the gcd of ``den`` and int numerators out, in place; ring
        numerators have no gcd, so ``den`` is folded into them instead."""
        if self.den != 1:
            if not self.num:
                self.den = 1
                return self
            try:
                g = gcd(self.den, *self.num.values())
            except TypeError:
                inv, self.den = Fraction(1, self.den), 1
                self.num = {m: c * inv for m, c in self.num.items()}
                return self
            if g != 1:
                self.num = {m: c // g for m, c in self.num.items()}
                self.den //= g
        return self

    def _over(self, den: int) -> int:
        """Raise ``self.den`` to a multiple of ``den`` by their lcm,
        rescaling the numerators; returns ``self.den // den``, the factor
        that carries a numerator over ``den`` to one over ``self.den``."""
        if self.den % den:
            f = den // gcd(self.den, den)
            num = self.num
            for m in num:
                num[m] *= f
            self.den *= f
        return self.den // den

    @property
    def terms(self) -> dict:
        """{monomial: coefficient}, a fresh dict of values."""
        return dict(self.items())

    def __bool__(self):
        return bool(self.num)

    def __len__(self):
        return len(self.num)

    def items(self):
        """(monomial, coefficient) pairs: Fractions for int numerators,
        ring elements otherwise."""
        return [(m, _value(c, self.den)) for m, c in self.num.items()]

    def level(self) -> int:
        """Highest oscillator level present (0 for the zero vector)."""
        return max((level_of(m) for m in self.num), default=0)

    def add_term(self, mono: Monomial, coeff) -> None:
        """In-place accumulate the coefficient ``coeff`` at ``mono``."""
        a, b = _split_scalar(coeff)
        _accumulate(self.num, mono, a * self._over(b))

    def add_product(self, image: "FockVector", tau: Monomial, c,
                    den: int) -> None:
        """In place, add (c / den) image (x) tau, each monomial of
        ``image`` multiplied by the monomial ``tau``; ``c`` is a numerator
        (an int, or a ring element), ``image`` is only read."""
        f = _times(c, self._over(den * image.den))
        for mono, x in image.num.items():
            _accumulate(self.num, tuple(sorted(mono + tau)) if tau else mono,
                        x * f)

    def _add(self, other, sign: int):
        """self += sign * other in place, over the lcm of the two
        denominators; ``other`` is only read."""
        f = sign * self._over(other.den)
        items = other.num.items() if other is not self else \
            list(other.num.items())
        for mono, c in items:
            _accumulate(self.num, mono, _times(c, f))
        return self._reduce()

    def __iadd__(self, other):
        """In place; ``other`` is only read, so ``v += v`` doubles v."""
        return self._add(other, 1)

    def __isub__(self, other):
        return self._add(other, -1)

    def __add__(self, other):
        return FockVector._of(dict(self.num), self.den)._add(other, 1)

    def __sub__(self, other):
        return FockVector._of(dict(self.num), self.den)._add(other, -1)

    def __neg__(self):
        return FockVector._of({m: -c for m, c in self.num.items()}, self.den)

    def scaled(self, scalar):
        if not scalar or not self.num:
            return FockVector()
        a, b = _split_scalar(scalar)
        return FockVector._of({m: _times(c, a) for m, c in self.num.items()},
                              self.den * b)._reduce()

    __mul__ = __rmul__ = scaled

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        if self.num.keys() != other.num.keys():
            return False
        a, b = other.den, self.den
        return all(c * a == other.num[m] * b for m, c in self.num.items())

    def __hash__(self):
        raise TypeError("FockVector is mutable; not hashable")

    def __repr__(self):
        if not self.num:
            return "FockVector(0)"
        bits = []
        for mono, c in sorted(self.items()):
            word = "*".join(f"a({-n},{mu})" for n, mu in mono) or "vac"
            bits.append(f"({c!r})*{word}")
        return "FockVector(" + " + ".join(bits) + ")"


def apply_oscillator(factor: tuple[int, int], v: FockVector, params: ModelParams) -> FockVector:
    """Apply alpha^{mu}_{mode} to v; ``factor`` is (mode, mu), mode != 0.

    Creation (mode < 0) inserts the factor into each monomial.  Annihilation
    (mode > 0) contracts against matching creation factors using
    [alpha^mu_m, alpha^nu_{-m}] = m eta^{mu nu}; with the diagonal metric only
    same-direction factors survive.  The zero mode is not an oscillator here
    (it acts as the momentum at the fiber level).  Either way distinct
    monomials stay distinct, so the numerators map one to one, over v's
    denominator.
    """
    mode, mu = factor
    params.check_direction(mu)
    if mode == 0:
        raise ValueError("mode 0 is the momentum; not an oscillator factor")
    out = {}
    if mode < 0:
        key = (-mode, mu)
        for mono, c in v.num.items():
            i = bisect_right(mono, key)
            out[mono[:i] + (key,) + mono[i:]] = c
        return FockVector._of(out, v.den)
    key = (mode, mu)
    weight = mode * params.eta(mu)
    for mono, c in v.num.items():
        mult = mono.count(key)
        if mult:
            i = mono.index(key)
            out[mono[:i] + mono[i + 1:]] = c * (mult * weight)
    return FockVector._of(out, v.den)._reduce()


@lru_cache(maxsize=None)
def monomial_norm(mono: Monomial) -> int:
    """<mono, mono> as an integer: prod over groups n^k * k! * eta^k.

    The canonical basis is orthogonal; this is the only nonzero pairing.
    """
    norm = 1
    i = 0
    while i < len(mono):
        j = i
        while j < len(mono) and mono[j] == mono[i]:
            j += 1
        k = j - i
        n, mu = mono[i]
        fact = 1
        for t in range(2, k + 1):
            fact *= t
        norm *= (n ** k) * fact * ((-1) ** k if mu == 0 else 1)
        i = j
    return norm


def inner_indefinite(u: FockVector, v: FockVector):
    """Indefinite product <u, v>, symmetric and bilinear.

    The coefficient field is real, so the form needs no conjugation.
    <vac, vac> = 1 and (alpha^mu_n)^dagger = alpha^mu_{-n}; on the canonical
    basis the form is diagonal with integer norms, so the numerators pair
    in the ring and the two denominators divide once.  The recursive
    normal-ordering evaluation is kept in the test suite as an independent
    oracle.
    """
    small, big = (u.num, v.num) if len(u.num) <= len(v.num) else (v.num, u.num)
    total = 0
    for mono, cs in small.items():
        cb = big.get(mono)
        if cb is not None:
            total = total + cs * cb * monomial_norm(mono)
    return _value(total, u.den * v.den)


def j_involution(v: FockVector) -> FockVector:
    """Fundamental symmetry J: flip the sign of each timelike factor.

    J alpha^{mu}_{-n} J = eta^{mu mu} alpha^{mu}_{-n}, J vac = vac; J^2 = 1
    and (u, v) := <u, Jv> is positive definite on the monomial basis.
    """
    return FockVector._of({
        mono: -c if sum(1 for _, mu in mono if mu == 0) % 2 else c
        for mono, c in v.num.items()}, v.den)


def inner_positive(u: FockVector, v: FockVector):
    """Positive-definite product (u, v) = <u, J v>."""
    return inner_indefinite(u, j_involution(v))


def iter_level_basis(params: ModelParams, n: int):
    """Yield all level-n canonical monomials in ascending tuple order, lazily.

    A depth-first walk takes the keys (mode, mu) in ascending order and
    extends a prefix only by keys at or after its last key, so each
    multiset comes out once, as a sorted tuple; the first key whose mode
    exceeds the remaining level ends that prefix, as every later key's
    mode is at least as large.  No level-n monomial is a prefix of
    another, so the depth-first order is the ascending tuple order, and
    the level is never collected or sorted.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    keys = [(mode, mu) for mode in range(1, n + 1) for mu in range(params.d)]

    def extend(prefix: Monomial, remaining: int, start: int):
        if remaining == 0:
            yield prefix
            return
        for i in range(start, len(keys)):
            key = keys[i]
            if key[0] > remaining:
                return
            yield from extend(prefix + (key,), remaining - key[0], i)

    yield from extend(VACUUM, n, 0)


def level_basis(params: ModelParams, n: int) -> list[Monomial]:
    return list(iter_level_basis(params, n))


def basis_dimension(d: int, n: int) -> int:
    """dim of level n: coefficient of q^n in prod_{k>=1} (1 - q^k)^(-d).

    Computed by exact series convolution; used as the counting oracle for
    the enumerated bases.
    """
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for k in range(1, n + 1):
        # multiply by (1 - q^k)^(-d) via repeated geometric-series folding:
        # c_new[j] = c_new[j - k] * ... ; the standard partition recurrence
        # applied d times is equivalent to one pass with multiplicity.
        for _ in range(d):
            for j in range(k, n + 1):
                coeffs[j] += coeffs[j - k]
    return coeffs[n]


# -- debug serialisation -------------------------------------------------


def vector_to_json(v: FockVector) -> str:
    """Debug dump: monomials as [mode, dir] pairs with negative modes.  The
    coefficients are rational; the zero ``rad`` part and radicand ``s``
    keep the format's fields."""
    terms = [{"monomial": [[-n, mu] for n, mu in mono],
              "re": str(Fraction(c)), "rad": "0"}
             for mono, c in sorted(v.items())]
    return json.dumps({"terms": terms, "s": 0}, sort_keys=True)


def vector_from_json(text: str) -> FockVector:
    """Inverse of :func:`vector_to_json`.  Coefficients are rational, so a
    term with a nonzero ``im`` or ``irad`` part, or a nonzero surd part
    ``rad``, is refused rather than dropped."""
    data = json.loads(text)
    out = FockVector()
    for t in data["terms"]:
        mono = tuple(sorted((-m, mu) for m, mu in t["monomial"]))
        if Fraction(t.get("im", "0")) or Fraction(t.get("irad", "0")):
            raise ValueError(f"term {t['monomial']} has an imaginary part; "
                             "coefficients are real")
        if Fraction(t.get("rad", "0")):
            raise ValueError(f"term {t['monomial']} has a surd part; "
                             "coefficients are rational")
        out.add_term(mono, Fraction(t["re"]))
    return out._reduce()
