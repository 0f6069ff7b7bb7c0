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

Coefficients are plain Fractions, so the form is symmetric bilinear;
the same vector container also hosts polynomial coefficients for the
momentum-symbolic pipelines, so all arithmetic here is written against the
generic ring protocol (+, *, unary -, truthiness for zero tests).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import json

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


class FockVector:
    """Sparse vector: canonical monomial -> coefficient.

    Zero coefficients are pruned on construction; the empty dict is the zero
    vector.  Scalar multiplication accepts anything the coefficient ring
    multiplies with (int, Fraction, polynomial sections).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[mono] = c

    @classmethod
    def vacuum(cls, coeff=Fraction(1)):
        return cls({VACUUM: coeff})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis_state(cls, mono: Monomial, coeff=Fraction(1)):
        return cls({tuple(sorted(mono)): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def items(self):
        return self.terms.items()

    def level(self) -> int:
        """Highest oscillator level present (0 for the zero vector)."""
        return max((level_of(m) for m in self.terms), default=0)

    def add_term(self, mono: Monomial, coeff) -> None:
        """In-place accumulate (internal builder use)."""
        cur = self.terms.get(mono)
        new = coeff if cur is None else cur + coeff
        if new:
            self.terms[mono] = new
        elif cur is not None:
            del self.terms[mono]

    def __iadd__(self, other):
        """In place; ``other`` is only read, so ``v += v`` doubles v."""
        for mono, c in other.terms.items():
            self.add_term(mono, c)
        return self

    def __isub__(self, other):
        return self.__iadd__(-other)

    def __add__(self, other):
        return FockVector(self.terms).__iadd__(other)

    def __sub__(self, other):
        return FockVector(self.terms).__iadd__(-other)

    def __neg__(self):
        return FockVector({m: -c for m, c in self.terms.items()})

    def scaled(self, scalar):
        if not scalar:
            return FockVector()
        return FockVector({m: scalar * c for m, c in self.terms.items()})

    __mul__ = __rmul__ = scaled

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(other.terms[m] == c for m, c in self.terms.items())

    def __hash__(self):
        raise TypeError("FockVector is mutable; not hashable")

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        bits = []
        for mono, c in sorted(self.terms.items()):
            word = "*".join(f"a({-n},{mu})" for n, mu in mono) or "vac"
            bits.append(f"({c!r})*{word}")
        return "FockVector(" + " + ".join(bits) + ")"


def apply_oscillator(factor: tuple[int, int], v: FockVector, params: ModelParams) -> FockVector:
    """Apply alpha^{mu}_{mode} to v; ``factor`` is (mode, mu), mode != 0.

    Creation (mode < 0) inserts the factor into each monomial.  Annihilation
    (mode > 0) contracts against matching creation factors using
    [alpha^mu_m, alpha^nu_{-m}] = m eta^{mu nu}; with the diagonal metric only
    same-direction factors survive.  The zero mode is not an oscillator here
    (it acts as the momentum at the fiber level).
    """
    mode, mu = factor
    params.check_direction(mu)
    if mode == 0:
        raise ValueError("mode 0 is the momentum; not an oscillator factor")
    out = FockVector()
    if mode < 0:
        key = (-mode, mu)
        for mono, c in v.terms.items():
            lst = list(mono)
            insort(lst, key)
            out.add_term(tuple(lst), c)
        return out
    key = (mode, mu)
    sign = params.eta(mu)
    for mono, c in v.terms.items():
        mult = mono.count(key)
        if not mult:
            continue
        lst = list(mono)
        lst.remove(key)
        out.add_term(tuple(lst), c * (mult * mode * sign))
    return out


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
    basis the form is diagonal with integer norms.  The recursive
    normal-ordering evaluation is kept in the test suite as an independent
    oracle.
    """
    total = Fraction(0)
    small, big = (u.terms, v.terms) if len(u.terms) <= len(v.terms) else (v.terms, u.terms)
    for mono, _ in small.items():
        cu = u.terms.get(mono)
        cv = v.terms.get(mono)
        if cu is None or cv is None:
            continue
        total = total + cu * cv * monomial_norm(mono)
    return total


def j_involution(v: FockVector) -> FockVector:
    """Fundamental symmetry J: flip the sign of each timelike factor.

    J alpha^{mu}_{-n} J = eta^{mu mu} alpha^{mu}_{-n}, J vac = vac; J^2 = 1
    and (u, v) := <u, Jv> is positive definite on the monomial basis.
    """
    out = {}
    for mono, c in v.terms.items():
        t = sum(1 for _, mu in mono if mu == 0)
        out[mono] = -c if t % 2 else c
    return FockVector(out)


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
             for mono, c in sorted(v.terms.items())]
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
    return out
