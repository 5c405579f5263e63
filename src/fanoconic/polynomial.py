"""Sparse exact polynomials over the rationals, and univariate helpers.

The drawn sections, conic matrices and line probes run on these
polynomials.  All arithmetic is exact, nothing here touches floats.
Arithmetic on whole polynomials is left to the tests (tests/oracles.py):
a drawn entry is assembled from its blocks, and a draw loads neither
numbers, fractions nor dataclasses.

A polynomial is built from blocks and keeps the plan read off them.
Point evaluation is the hot path of the instance audit, so a polynomial
evaluates through its plan: one dot product per block, the coefficients
of the monomials of one degree in the leading variables times one
monomial in the others, with the complete graded table of the
leading-variable monomials, which the ring keeps for the next polynomial
evaluated at the same point.  Its terms, a dict mapping exponent tuples
to nonzero int or Fraction coefficients, are built from the plan on first
read.  A term dict is the layout with no leading variable and one block
per term.  Plans also give degrees, sizes and coefficients.

The univariate helpers at the end work on coefficient lists.  Their
squarefree test is certified modulo one fixed prime first and falls back
to the exact gcd over Q only when that certificate is undecided.

A ring is just an ordered tuple of variable names.  Two rings with the same
names are interchangeable.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, repeat
from math import comb, gcd, lcm
from operator import add, mul


class PolyRing:
    __slots__ = ("names", "n", "_table")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.n = len(self.names)
        self._table = None  # see _head_table

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"PolyRing({list(self.names)!r})"


class Poly:
    """Immutable sparse polynomial, built from blocks (tail, d, coeffs):
    coefficients, zeros allowed, of the degree-d monomials in the first
    lead variables in table order, times the monomial tail in the others.
    Blocks must not share their tail and degree (ValueError).  It keeps
    only the plan read off its blocks; its terms {exponent tuple:
    coefficient} are built from the plan on first read.  A term dict is
    the layout with lead 0 and one degree-0 block per term.  Equality and
    hash read the terms.
    """

    __slots__ = ("ring", "_plan", "_terms")

    def __init__(self, ring: PolyRing, lead: int, blocks):
        groups, top, seen = [], 0, set()
        for tail, d, coeffs in blocks:
            if (tail, d) in seen:
                raise ValueError(f"two blocks of degree {d} have the tail {tail}")
            seen.add((tail, d))
            idx = range(comb(d - 1 + lead, lead) if d else 0, comb(d + lead, lead))
            if 0 in coeffs:
                idx = list(compress(idx, coeffs))
                coeffs = list(filter(None, coeffs))
            if coeffs:
                groups.append((tuple((lead + k, e) for k, e in enumerate(tail) if e),
                               coeffs, idx))
                top = max(top, d)
        self.ring, self._plan, self._terms = ring, (lead, top, tuple(groups)), None

    @property
    def terms(self) -> dict:
        if self._terms is None:  # unpack the keys (_key_slice)
            lead, top, groups = self._plan
            keys, self._terms = _key_slice(self.ring, lead, top, 0), {}
            for tail, coeffs, idx in groups:
                rest = tuple(map(dict(tail).get, range(lead, self.ring.n), repeat(0)))
                heads = map(tuple, map(int.to_bytes, map(keys.__getitem__, idx),
                                       repeat(lead), repeat("big")))
                self._terms.update(zip(map(add, heads, repeat(rest)), coeffs))
        return self._terms

    # -- basic structure ---------------------------------------------------

    def __len__(self):  # also its truth value
        return sum(len(coeffs) for _, coeffs, _ in self._plan[2])

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring.names == other.ring.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms.items())))

    # -- evaluation --------------------------------------------------------

    def eval(self, values):
        """The value at the given values, exact: an int at int values."""
        if len(values) != self.ring.n:
            raise ValueError("wrong number of values")
        lead, top, groups = self._plan
        get = _head_table(self.ring, tuple(values[:lead]), top).__getitem__
        total = 0
        for tail, coeffs, idx in groups:
            s = sum(map(mul, coeffs, map(get, idx)))
            if s:
                for i, e in tail:
                    s *= values[i] ** e
                total += s
        return total


# -- evaluation plans --------------------------------------------------------
#
# A plan (lead, top, groups) splits the variables into a leading block and
# the rest; each group holds terms of one trailing monomial and one leading
# degree at most top, a block of a drawn entry or a single term, and is a dot
# product of its coefficients with entries of the table of the leading block
# (_extend_table), times its trailing monomial.


def _extend_table(table: list, head, done: int, top: int, op) -> None:
    """Extend the complete graded table of the monomials in head from
    degree done to top, each product by op.  Degree d lists, for i = 0, 1,
    ..., head[i] times the monomials of degree d - 1 in head[i:], which end
    the degree d - 1 part; so a table is a prefix of any of higher top."""
    lead = len(head)
    for d in range(done + 1, top + 1):
        end = len(table)
        for i, v in enumerate(head):
            size = comb(d - 2 + lead - i, lead - 1 - i)
            table.extend(map(op, table[end - size:end], repeat(v)))


def _key_slice(ring: PolyRing, lead: int, top: int, low=None) -> list:
    """The keys of the monomials of degrees low (default top) to top in
    the first lead variables, in table order: their exponents packed into
    bytes, the first variable highest; keys add under products."""
    keys = _head_table(ring, tuple(1 << 8 * i for i in reversed(range(lead))), top, add)
    low = top if low is None else low
    return keys[comb(low - 1 + lead, lead) if low else 0:comb(top + lead, lead)]


def _group_degrees(poly: Poly):
    """(tail, coeffs, d) per group of the plan, d the degree of its leading
    monomials: a group is one block of the draw, or one term (degree 0)."""
    lead, top, groups = poly._plan
    ends = [comb(d + lead, lead) for d in range(top + 1)]
    for tail, coeffs, idx in groups:
        yield tail, coeffs, bisect_right(ends, idx[0])


def _coefficient(poly: Poly, exps):
    """The coefficient of the monomial exps, read off the plan; index 0
    leads the group of its tail.  ValueError when exps has a leading
    variable."""
    lead, _, groups = poly._plan
    if any(exps[:lead]):
        raise ValueError("the monomial has a leading variable of the plan")
    tail = tuple((i, e) for i, e in enumerate(exps) if e)
    return next((coeffs[0] for t, coeffs, idx in groups if t == tail and idx[0] == 0), 0)


def _support_degree(poly: Poly, support) -> int | None:
    """The largest degree of a term of poly in the variables of support,
    None for zero: the plan's table under add at the support's indicator,
    then a max per group."""
    if not poly:
        return None
    lead, top, groups = poly._plan
    degrees = [0]
    _extend_table(degrees, [int(i in support) for i in range(lead)], 0, top, add)
    return max(max(map(degrees.__getitem__, idx)) + sum(e for i, e in tail if i in support)
               for tail, _, idx in groups)


def _head_table(ring: PolyRing, head: tuple, top: int, op=mul) -> list:
    """The table of the monomials in head up to degree top, products by
    op (mul; add for keys).  The ring keeps the last one with its op,
    head values and their types, and extends it; an empty head, of a
    polynomial built from terms, leaves it to the drawn entries."""
    if not head:
        return [1 if op is mul else 0]
    key =(op, head, tuple(map(type, head)))
    if ring._table is None or ring._table[0] != key:
        ring._table = [key, [1 if op is mul else 0], 0]
    _, table, done = ring._table
    if done < top:
        _extend_table(table, head, done, top, op)
        ring._table[2] = top
    return table


# -- univariate helpers ----------------------------------------------------
# Univariate polynomials are plain coefficient lists, ascending in t.

def u_trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def u_add(f: list, g: list) -> list:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return out


def u_mul(f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def u_degree(f: list) -> int:
    """Degree, with the zero polynomial at -1."""
    f = u_trim(list(f))
    return len(f) - 1


def u_diff(f: list) -> list:
    return u_trim([i * c for i, c in enumerate(f)][1:])


def _u_primitive_int(f: list) -> list:
    """Scale a rational coefficient list to a primitive integer one."""
    if not f:
        return []
    scale = lcm(*(c.denominator for c in f))
    ints = [c.numerator * (scale // c.denominator) for c in f]
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _u_pseudo_mod(f: list, g: list) -> list:
    # lc(g)^k * f reduced mod g, over the integers
    dg = len(g) - 1
    lead = g[-1]
    r = list(f)
    while len(r) - 1 >= dg and r:
        if r[-1] == 0:
            r.pop()
            continue
        coef = r[-1]
        shift = len(r) - 1 - dg
        r = [c * lead for c in r]
        for i, c in enumerate(g):
            r[shift + i] -= coef * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def u_gcd(f: list, g: list) -> list:
    """Monic gcd over Q, via a primitive remainder sequence over Z.

    Plain fraction arithmetic blows up catastrophically around degree 20,
    so the Euclidean steps run on primitive integer polynomials with
    pseudo-division, and only the final normalization leaves Z.
    """
    f = _u_primitive_int(u_trim(list(f)))
    g = _u_primitive_int(u_trim(list(g)))
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _u_primitive_int(_u_pseudo_mod(f, g))
    if f:
        from fractions import Fraction  # only here, to keep it off every import
        f = [Fraction(c, f[-1]) for c in f]
    return f


# A Mersenne prime, so the coefficients of the reductions stay within 61 bits.
SQUAREFREE_PRIME = (1 << 61) - 1


def _u_gcd_is_one_mod(f: list, g: list, p: int) -> bool:
    """Whether the gcd of f and g over F_p is a nonzero constant.

    f and g are coefficient lists already reduced mod p; both are consumed.
    """
    u_trim(f)
    u_trim(g)
    while g:
        inv = pow(g[-1], -1, p)
        dg = len(g) - 1
        while len(f) > dg:
            q = f[-1] * inv % p
            shift = len(f) - 1 - dg
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - q * c) % p
            u_trim(f)
        f, g = g, f
    return len(f) == 1


def u_is_squarefree(f: list) -> bool:
    """No repeated roots over the algebraic closure; constants count as yes.

    A certificate mod p = SQUAREFREE_PRIME answers first: if p does not
    divide the leading coefficient of the primitive integer form of f and
    gcd(f, f') = 1 in F_p[t], then the discriminant of f is nonzero mod p,
    hence nonzero, and f is squarefree over Q.  The certificate never says
    no; when it is undecided, the exact gcd over Q decides.
    """
    f = u_trim(list(f))
    if not f:
        raise ValueError("zero polynomial has no squarefree verdict")
    if len(f) == 1:
        return True
    p = SQUAREFREE_PRIME
    ints = _u_primitive_int(f)
    if ints[-1] % p and _u_gcd_is_one_mod([c % p for c in ints],
                                          [c % p for c in u_diff(ints)], p):
        return True
    return len(u_gcd(f, u_diff(f))) == 1
