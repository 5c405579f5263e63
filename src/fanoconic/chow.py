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

from dataclasses import dataclass

from .picard import ConstructionParams


@dataclass(frozen=True)
class SplitBundleOnP:
    """A direct sum of line bundles O(t_i) on a projective space."""

    twists: tuple[int, ...]

    def __init__(self, twists):
        object.__setattr__(self, "twists", tuple(twists))
        if not self.twists:
            raise ValueError("bundle needs at least one summand")

    @property
    def rank(self) -> int:
        return len(self.twists)


def bundle_of_Y(params: ConstructionParams) -> SplitBundleOnP:
    """The defining bundle O + O(2m) + O(2m) of the base family."""
    return SplitBundleOnP((0, params.twist, params.twist))


def bundle_of_G(params: ConstructionParams) -> SplitBundleOnP:
    """The rank-2 bundle O + O(2m) whose projectivization is a divisor G_i."""
    return SplitBundleOnP((0, params.twist))


def intersection_number(n_base: int, bundle: SplitBundleOnP, factors: dict) -> int:
    """deg of the product of cls^e over {cls: e} on P(bundle) -> P^{n_base}.

    Each class aD + bH is multiplied out as a polynomial in D, the H power
    being fixed by the degree; classes with a = 0 only scale the result, so
    the cost does not grow with the power of H.
    """
    rank = bundle.rank
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
    for t in bundle.twists:
        for i in range(1, len(segre)):
            segre[i] += t * segre[i - 1]
    return scale * sum(c * segre[j - rank + 1]
                       for j, c in enumerate(coeffs) if j >= rank - 1)
