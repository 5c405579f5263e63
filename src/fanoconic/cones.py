"""Exact 2D cone calculus in the (D, H) divisor lattice.

All cone tests are integer cross products, no floats anywhere.  The cones
of the family are simple: Nef(Y) is spanned by D and H, the effective and
movable cones agree and are spanned by H and D - 2mH, and the movable cone
splits into exactly two Mori chambers separated by the wall at D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from math import gcd

from .picard import ConstructionParams, DivisorClassY

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


@dataclass(frozen=True)
class Cone2D:
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


@dataclass(frozen=True)
class PositivityReport:
    cls_: DivisorClassY
    effective: bool
    big: bool
    movable: bool
    nef: bool
    ample: bool

    def as_dict(self) -> dict:
        return {
            "class": str(self.cls_),
            "effective": self.effective,
            "big": self.big,
            "movable": self.movable,
            "nef": self.nef,
            "ample": self.ample,
        }


def classify(cls_: DivisorClassY, params: ConstructionParams) -> PositivityReport:
    """Positivity flags of a class, all by exact cone membership.

    big is interior-of-effective, ample is interior-of-nef, movable is
    effective (Mov = Eff, the certificate's movable_equals_effective); nef
    agrees with nonnegative pairing against ell_f and ell_V by construction.
    """
    vec = (cls_.a, cls_.b)
    eff = effective_cone(params)
    nef = nef_cone(params)
    return PositivityReport(
        cls_=cls_,
        effective=eff.contains(vec),
        big=eff.contains_interior(vec),
        movable=eff.contains(vec),
        nef=nef.contains(vec),
        ample=nef.contains_interior(vec),
    )


@dataclass(frozen=True)
class ChamberDecomposition:
    walls: tuple
    chambers: tuple
    labels: tuple

    def as_dict(self) -> dict:
        return {
            "walls": [list(w) for w in self.walls],
            "chambers": [
                {"rays": [list(r) for r in c.rays()], "label": lab}
                for c, lab in zip(self.chambers, self.labels)
            ],
        }

    def interior_walls(self) -> tuple:
        return self.walls[1:-1]


def chamber_decomposition(degrees, params: ConstructionParams) -> ChamberDecomposition:
    """Mori chambers of the movable cone cut by the given generator degrees.

    Walls are the distinct rays through the degrees, swept from H down to
    the effective boundary; consecutive walls bound a chamber.  The chamber
    equal to Nef(Y) is labeled NEF_Y, everything else FLIP_CHAMBER.  Rays
    must lie in the right half-plane a >= 0 (all effective classes do) and
    must span a full cone.
    """
    rays = []
    for deg in degrees:
        vec = (deg.a, deg.b) if isinstance(deg, DivisorClassY) else tuple(deg)
        ray = primitive_ray(vec)
        if ray[0] < 0:
            raise ValueError(f"degree {vec} lies outside the right half-plane")
        if ray not in rays:
            rays.append(ray)
    if len(rays) < 2:
        raise ValueError("degrees span a single ray, no chambers to cut")

    def clockwise(u, v):
        c = cross(u, v)
        return -1 if c < 0 else (1 if c > 0 else 0)

    walls = tuple(sorted(rays, key=cmp_to_key(clockwise)))
    chambers = tuple(
        Cone2D.span(walls[i], walls[i + 1]) for i in range(len(walls) - 1)
    )
    nef = nef_cone(params)
    labels = tuple(NEF_LABEL if c == nef else FLIP_LABEL for c in chambers)
    return ChamberDecomposition(walls, chambers, labels)
