"""Top intersection numbers on split projective bundles over projective space.

For a bundle P(O(t_1) + ... + O(t_r)) -> P^n in the hyperplane-class
convention, with H the pulled-back hyperplane class and D the tautological
class, every top intersection number is a Segre degree:

    deg(D^{r-1+i} H^{n-i}) = h_i(t_1, ..., t_r),    0 <= i <= n,

with h_i the complete homogeneous symmetric polynomial (Fulton,
Intersection Theory, 3.1-3.2), and D^j H^{n+r-1-j} has degree 0 for
j < r - 1.

The base family Y_m is the case n = 3m, twists (0, 2m, 2m); the divisors
G_i inside it are the rank-2 case with twists (0, 2m).
"""

from __future__ import annotations

from .picard import ConstructionParams


def bundle_of_Y(params: ConstructionParams) -> tuple:
    """The twists (0, 2m, 2m) of the defining bundle of the base family."""
    return (0, params.twist, params.twist)


def bundle_of_G(params: ConstructionParams) -> tuple:
    """The twists (0, 2m) of the rank-2 bundle whose projectivization is a
    divisor G_i."""
    return (0, params.twist)


def intersection_number(n_base: int, twists: tuple, factors: dict) -> int:
    """deg of the product of cls^e over {cls: e} on P(O(t_1) + ... + O(t_r))
    -> P^{n_base}, with twists = (t_1, ..., t_r) not empty.

    Each class aD + bH is multiplied out as a polynomial in D, the H power
    being fixed by the degree; classes with a = 0 only scale the result, so
    the cost does not grow with the power of H.
    """
    if not twists:
        raise ValueError("bundle needs at least one summand")
    rank = len(twists)
    exponents = factors.values()
    if sum(exponents) != n_base + rank - 1 or min(exponents, default=0) < 0:
        raise ValueError("the factors must be a product of top degree")
    scale = 1
    coeffs = [1]  # coeffs[j] multiplies D^j
    for cls_, e in factors.items():
        if cls_.a == 0:
            scale *= cls_.b**e
            continue
        for _ in range(e):
            coeffs = [cls_.a * lo + cls_.b * hi
                      for lo, hi in zip([0] + coeffs, coeffs + [0])]
    # segre[i] = h_i(twists): multiply out the series prod 1 / (1 - t x)
    segre = [1] + [0] * (len(coeffs) - rank)
    for t in twists:
        for i in range(1, len(segre)):
            segre[i] += t * segre[i - 1]
    return scale * sum(c * segre[j - rank + 1]
                       for j, c in enumerate(coeffs) if j >= rank - 1)
