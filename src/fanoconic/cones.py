"""Exact 2D cone calculus in the (D, H) divisor lattice.

A cone is the pair of its rays, primitive and counterclockwise, and all
cone tests are integer cross products, no floats anywhere.  The cones of
the family are simple: Nef(Y) is spanned by D and H, the effective and
movable cones agree and are spanned by H and D - 2mH, and the movable cone
splits into exactly two Mori chambers separated by the wall at D.
"""

from __future__ import annotations

from functools import cmp_to_key

from .coxring import generator_degrees
from .picard import ConstructionParams, DivisorClassY

NEF_LABEL = "NEF_Y"
FLIP_LABEL = "FLIP_CHAMBER"


def cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def nef_cone(params: ConstructionParams) -> tuple:
    """Nef(Y) = <D, H>: duality against the fiber line and the line in V."""
    return ((1, 0), (0, 1))


def effective_cone(params: ConstructionParams) -> tuple:
    """Eff(Y) = <D - 2mH, H>, which the certificate checks on the Cox degrees."""
    return ((1, -params.twist), (0, 1))


def classify(cls_: DivisorClassY, params: ConstructionParams) -> dict:
    """Positivity flags of a class, all by exact cone membership:
    {"class": str(cls_), "effective", "big", "movable", "nef", "ample"}.

    big is interior-of-effective, ample is interior-of-nef, movable is
    effective (Mov = Eff, the certificate's movable_equals_effective); nef
    agrees with nonnegative pairing against ell_f and ell_V by construction.
    A vector lies in the cone <r1, r2> iff cross(r1, v) and cross(v, r2) are
    both >= 0, and in its interior iff both are > 0.
    """
    vec = (cls_.a, cls_.b)
    eff, nef = (min(cross(r1, vec), cross(vec, r2))
                for r1, r2 in (effective_cone(params), nef_cone(params)))
    return {
        "class": str(cls_),
        "effective": eff >= 0,
        "big": eff > 0,
        "movable": eff >= 0,
        "nef": nef >= 0,
        "ample": nef > 0,
    }


def chamber_decomposition(params: ConstructionParams) -> dict:
    """Mori chambers of the movable cone, cut by the generator degrees:
    {"walls": [[a, b], ...], "chambers": [{"rays": [...], "label": ...}, ...]}.

    The chambers of a Mori dream space are cut by the rays through the
    degrees of its Cox ring generators (Hu-Keel, "Mori dream spaces and
    GIT", 2000), and this grading has three distinct ones (generator_degrees),
    each primitive.  Walls are their rays, swept clockwise from H down to
    the effective boundary; consecutive walls u, v bound the chamber whose
    counterclockwise rays are (v, u).  The chamber equal to Nef(Y) is
    labeled NEF_Y, everything else FLIP_CHAMBER.
    """
    degrees = ((deg.a, deg.b) for deg in generator_degrees(params))
    walls = sorted(degrees, key=cmp_to_key(cross))
    nef = nef_cone(params)
    chambers = [{"rays": [list(v), list(u)],
                 "label": NEF_LABEL if (v, u) == nef else FLIP_LABEL}
                for u, v in zip(walls, walls[1:])]
    return {"walls": [list(w) for w in walls], "chambers": chambers}
