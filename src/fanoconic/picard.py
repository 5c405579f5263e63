"""Divisor classes on the base family Y_m.

For each integer m >= 2 the base of the construction is the projective
bundle Y = P(O + O(2m) + O(2m)) over P^{3m}, taken in the hyperplane-class
convention.  Its divisor class group has rank 2 with basis

    D  the tautological hyperplane class of the bundle,
    H  the pullback of the hyperplane class of P^{3m},

and every class is stored as an integer pair (a, b) meaning aD + bH.  The
dual basis of curves is ell_f, a line in a fiber of Y -> P^{3m}, and ell_V,
a line in the distinguished section V: aD + bH meets them in a and b points.

The headline feature of the family is that the anticanonical class
-K_Y = 3D + (1-m)H pairs to 1 - m < 0 against ell_V, so -K_Y is never nef.
"""

from __future__ import annotations

import re

MIN_M = 2


class _Record:
    """A frozen dataclass without loading dataclasses and inspect: the fields
    are the annotated names, given in order or by keyword and checked by
    __post_init__; equality, hash and repr read them, equal only to the same
    type, and assignment raises."""

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, key, *value):
        raise AttributeError(f"cannot assign or delete field {key!r}")

    __delattr__ = __setattr__


class ConstructionParams(_Record):
    """The single integer parameter of the family, validated once."""

    m: int

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, int):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if self.m < MIN_M:
            raise ValueError(f"m must be at least {MIN_M}, got {self.m}")

    @property
    def n_base(self) -> int:
        """Dimension of the base projective space P^{3m}."""
        return 3 * self.m

    @property
    def dim_Y(self) -> int:
        return 3 * self.m + 2

    @property
    def twist(self) -> int:
        """The twist 2m of the two nontrivial summands defining Y."""
        return 2 * self.m

    @property
    def n_x(self) -> int:
        """Number of homogeneous coordinates on P^{3m}."""
        return 3 * self.m + 1


class DivisorClassY(_Record):
    """aD + bH as an integer lattice point."""

    a: int
    b: int

    def __add__(self, other: "DivisorClassY") -> "DivisorClassY":
        return DivisorClassY(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DivisorClassY") -> "DivisorClassY":
        return DivisorClassY(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "DivisorClassY":
        return DivisorClassY(-self.a, -self.b)

    def __mul__(self, k: int) -> "DivisorClassY":
        if isinstance(k, bool) or not isinstance(k, int):
            return NotImplemented
        return DivisorClassY(self.a * k, self.b * k)

    __rmul__ = __mul__

    def __str__(self):
        return f"{self.a}D{self.b:+d}H"


def anticanonical_class(params: ConstructionParams) -> DivisorClassY:
    """-K_Y = 3D + (1-m)H.

    Cross-checked elsewhere against the generic projective-bundle formula
    applied to the defining bundle O + O(2m) + O(2m) on P^{3m}.
    """
    return DivisorClassY(3, 1 - params.m)


def standard_classes(params: ConstructionParams) -> dict[str, DivisorClassY]:
    """The named classes of the construction.

    D, H       the lattice basis
    G          the divisor class D - 2mH cut out by either section y_1, y_2
    M          the pullback twist of the defining linear system of the
               conic divisor, -2mH
    Delta      the discriminant class 2(3D - 2mH) of the conic fibration
    """
    t = params.twist
    return {
        "D": DivisorClassY(1, 0),
        "H": DivisorClassY(0, 1),
        "G": DivisorClassY(1, -t),
        "M": DivisorClassY(0, -t),
        "Delta": DivisorClassY(6, -2 * t),
    }


# one term of the grammar, compiled by re on the first parse
_TERM = " *([+-]?) *([0-9]*) *([DH]) *"


def parse_divisor_class(text: str) -> DivisorClassY:
    """Parse the aD+bH grammar: signed integer coefficients, default 1.

    Accepts e.g. "2D-4H", "D", "-H+3D", "0D+1H", "D+D-H", " 3 D + 2 H ";
    round-trips the output of str() bit-exactly.  ASCII and unicode minus
    both work, and spaces are ignored, except that a coefficient is ASCII
    digits with no space inside: "1 2D" and "١٢D" are refused.  Every term
    after the first needs its sign, so "2D3H" and "DD" are refused.
    """
    s = text.replace("−", "-")
    if not s.strip(" "):
        raise ValueError("empty divisor class string")
    a = b = 0
    pos = 0
    for match in re.finditer(_TERM, s):
        if match.start() != pos or (pos and not match.group(1)):
            raise ValueError(f"cannot parse divisor class {text!r}")
        sign = -1 if match.group(1) == "-" else 1
        coeff = int(match.group(2)) if match.group(2) else 1
        if match.group(3) == "D":
            a += sign * coeff
        else:
            b += sign * coeff
        pos = match.end()
    if pos != len(s):
        raise ValueError(f"cannot parse divisor class {text!r}")
    return DivisorClassY(a, b)
