"""Exact 2D cone calculus in the (D, H) divisor lattice.

All cone tests are integer cross products, no floats anywhere.  The cones
of the family are simple: Nef(Y) is spanned by D and H, the effective and
movable cones agree and are spanned by H and D - 2mH, and the movable cone
splits into exactly two Mori chambers separated by the wall at D.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd

from .coxring import generator_degrees
from .picard import ConstructionParams, DivisorClassY, _Record

NEF_LABEL = "NEF_Y"
FLIP_LABEL = "FLIP_CHAMBER"


def cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def primitive_ray(vec) -> tuple[int, int]:
    a, b = vec
    if a == 0 and b == 0:
        raise ValueError("zero vector spans no ray")
    g = gcd(abs(a), abs(b))
    return (a // g, b // g)


class Cone2D(_Record):
    """A strictly convex 2D cone, rays primitive and counterclockwise."""

    ray1: tuple[int, int]
    ray2: tuple[int, int]

    @classmethod
    def span(cls, u, v) -> "Cone2D":
        r1, r2 = primitive_ray(u), primitive_ray(v)
        c = cross(r1, r2)
        if c == 0:
            raise ValueError("rays are parallel, the span is not a full cone")
        if c < 0:
            r1, r2 = r2, r1
        return cls(r1, r2)

    def __post_init__(self):
        if cross(self.ray1, self.ray2) <= 0:
            raise ValueError("rays must be stored counterclockwise")

    def contains(self, vec) -> bool:
        return cross(self.ray1, vec) >= 0 and cross(vec, self.ray2) >= 0

    def contains_interior(self, vec) -> bool:
        return cross(self.ray1, vec) > 0 and cross(vec, self.ray2) > 0

    def rays(self):
        return (self.ray1, self.ray2)


def nef_cone(params: ConstructionParams) -> Cone2D:
    """Nef(Y) = <D, H>: duality against the fiber line and the line in V."""
    return Cone2D.span((1, 0), (0, 1))


def effective_cone(params: ConstructionParams) -> Cone2D:
    """Eff(Y) = <H, D - 2mH>, read off the coordinate degrees."""
    return Cone2D.span((0, 1), (1, -params.twist))


def classify(cls_: DivisorClassY, params: ConstructionParams) -> dict:
    """Positivity flags of a class, all by exact cone membership:
    {"class": str(cls_), "effective", "big", "movable", "nef", "ample"}.

    big is interior-of-effective, ample is interior-of-nef, movable is
    effective (Mov = Eff, the certificate's movable_equals_effective); nef
    agrees with nonnegative pairing against ell_f and ell_V by construction.
    """
    vec = (cls_.a, cls_.b)
    eff = effective_cone(params)
    nef = nef_cone(params)
    return {
        "class": str(cls_),
        "effective": eff.contains(vec),
        "big": eff.contains_interior(vec),
        "movable": eff.contains(vec),
        "nef": nef.contains(vec),
        "ample": nef.contains_interior(vec),
    }


def chamber_decomposition(params: ConstructionParams) -> dict:
    """Mori chambers of the movable cone, cut by the generator degrees:
    {"walls": [[a, b], ...], "chambers": [{"rays": [...], "label": ...}, ...]}.

    The chambers of a Mori dream space are cut by the rays through the
    degrees of its Cox ring generators (Hu-Keel, "Mori dream spaces and
    GIT", 2000), and this grading has three distinct ones (generator_degrees),
    each primitive.  Walls are their rays, swept clockwise from H down to
    the effective boundary; consecutive walls bound a chamber.  The chamber
    equal to Nef(Y) is labeled NEF_Y, everything else FLIP_CHAMBER.
    """
    degrees = ((deg.a, deg.b) for deg in generator_degrees(params))
    walls = sorted(degrees, key=cmp_to_key(cross))
    nef = nef_cone(params)
    chambers = []
    for u, v in zip(walls, walls[1:]):
        cone = Cone2D.span(u, v)
        chambers.append({"rays": [list(r) for r in cone.rays()],
                         "label": NEF_LABEL if cone == nef else FLIP_LABEL})
    return {"walls": [list(w) for w in walls], "chambers": chambers}
