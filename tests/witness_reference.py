"""A Fraction model of the witness group, with sabotage knobs.

`FractionWitnessGroup` is a `WitnessAmbientGroup` whose x-exponents are
`Fraction`s, computed by the formulas the library used before its x-parts
became (numerator, power of p+1) int pairs.  Its y-action takes two bases:
y_j scales x_j by `up_base` and y_{j-1} scales x_j by 1/`down_base`, both
p+1 unless given, so a test can break one direction of the action.  The
claim families of `ordkit.witness` read x-parts only through group methods
(phi, the sample table, the x-power constructor, `scale_vector`,
`encode`), so `verify_witness_claims` runs on this model unchanged, and a
degenerate base raises the `ZeroDivisionError` that `Fraction` raises.

`to_fraction` maps a value of the standard int-pair group to this model's
value, and `value_from_parts` builds a standard group's value from rational
exponents, so tests compare the two value for value.
`random_subgroup_element` wraps the library's value sampler in an Element.
"""

from fractions import Fraction
from math import gcd

from ordkit.groups import Element
from ordkit.witness import WitnessAmbientGroup, random_subgroup_value


def _shift(vec, s):
    out = [None] * len(vec)
    for idx, v in enumerate(vec):
        out[(idx + s) % len(vec)] = v
    return tuple(out)


def _canon(b):
    return tuple(v - b[-1] for v in b)


class FractionWitnessGroup(WitnessAmbientGroup):
    def __init__(self, p, up_base=None, down_base=None):
        super().__init__(p)
        self.up = p + 1 if up_base is None else up_base
        self.down = p + 1 if down_base is None else down_base
        if (self.up, self.down) != (p + 1, p + 1):
            self.descriptor = f"witness:{p}:up{self.up}:down{self.down}"

    def _factor(self, b, j):
        return Fraction(self.up) ** b[j] * Fraction(self.down) ** (-b[(j - 1) % self.p])

    def _coord(self, n, d):
        return Fraction(n, d)

    def _fmt(self, q):
        return str(q)

    def _identity_value(self):
        return ((Fraction(0),) * self.p, (0,) * self.p, 0)

    def scale_vector(self, vec, b):
        return tuple(vec[j] * self._factor(b, j) for j in range(self.p))

    def _op_values(self, x, y):
        (a, b, i), (a2, b2, i2) = x, y
        p = self.p
        a2, b2 = _shift(a2, i), _shift(b2, i)
        scaled = [a2[j] * self._factor(b, j) for j in range(p)]
        new_a = tuple(a[j] + scaled[j] for j in range(p))
        return (new_a, _canon([b[j] + b2[j] for j in range(p)]), (i + i2) % p)

    def _product_is_identity(self, x, y):
        return self._op_values(x, y) == self._identity_value()

    def _inv_value(self, x):
        a, b, i = x
        unscaled = tuple(-a[j] / self._factor(b, j) for j in range(self.p))
        b_star = _shift(tuple(-v for v in b), -i)
        return (_shift(unscaled, -i), _canon(b_star), (-i) % self.p)

    def phi_H(self, a):
        base = self.p + 1
        total = 0
        for q in a:
            scaled = q
            while scaled.denominator != 1:
                if gcd(scaled.denominator, base) == 1:
                    raise ValueError(
                        f"exponent {q} has denominator outside powers of {base}"
                    )
                scaled *= base
            total += scaled.numerator
        return total % self.p

    def check_value(self, value):
        a, b, i = value
        if not all(isinstance(q, Fraction) for q in a) or len(a) != self.p:
            raise ValueError(f"x-part must be {self.p} Fractions: {a!r}")
        if b[-1] != 0 or not 0 <= i < self.p:
            raise ValueError(f"not canonical: {value!r}")

    def sort_key(self, value):
        return value

    def decode(self, obj):
        value = (
            tuple(Fraction(s) for s in obj["x"]),
            tuple(int(v) for v in obj["y"]),
            int(obj["z"]),
        )
        self.check_value(value)
        return value


def to_fraction(group, value):
    """A value of the standard group `group` with Fraction x-exponents."""
    a, b, i = value
    return (tuple(Fraction(n, group.base**k) for n, k in a), b, i)


def value_from_parts(group, exponents, b, i):
    """The canonical value with rational x-exponents, raw y-part b and
    z-twist i, in `group` (the standard group or the model)."""
    x = tuple(group._coord(*Fraction(q).as_integer_ratio()) for q in exponents)
    return (x, _canon([int(v) for v in b]), i % group.p)


def random_subgroup_element(group, rng):
    """A random element of G, drawn as `random_subgroup_value` draws it."""
    return Element(group, random_subgroup_value(group, rng))
