"""Sparse exact polynomial arithmetic over the rationals.

Everything downstream (section sampling, conic matrices, fiber diagnosis,
line probes) runs on these polynomials, so the representation is kept
deliberately plain: a polynomial is a dict mapping exponent tuples to nonzero
int or Fraction coefficients.  All arithmetic is exact, nothing here ever
touches floats.

Point evaluation is the hot path of the instance audit, so each polynomial
compiles its terms once into a plan: one dot product per trailing-variable
pattern with the complete graded table of the leading-variable monomials,
which the ring keeps for the next polynomial evaluated at the same point.
The leading block shrinks before its table outgrows the polynomial, so it
decides the speed, never the value.

The univariate helpers at the end work on coefficient lists.  Their
squarefree test is certified modulo one fixed prime first and falls back
to the exact gcd over Q only when that certificate is undecided.

A ring is just an ordered tuple of variable names.  Two rings with the same
names are interchangeable.
"""

from __future__ import annotations

from itertools import count, repeat
from math import comb, gcd, lcm
from numbers import Rational
from operator import add, itemgetter, mul


class PolyRing:
    __slots__ = ("names", "n", "_table")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.n = len(self.names)
        self._table = None  # see _head_table

    def var(self, which) -> "Poly":
        """The variable given by index or name, as a polynomial."""
        if isinstance(which, str):
            which = self.names.index(which)
        exps = [0] * self.n
        exps[which] = 1
        return Poly(self, {tuple(exps): 1})

    def constant(self, c: Rational) -> "Poly":
        if c == 0:
            return Poly(self, {})
        return Poly(self, {(0,) * self.n: c})

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(1)

    def monomial(self, exps, coeff: Rational = 1) -> "Poly":
        exps = tuple(exps)
        if len(exps) != self.n:
            raise ValueError("exponent tuple has wrong length")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        if coeff == 0:
            return self.zero()
        return Poly(self, {exps: coeff})

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"PolyRing({list(self.names)!r})"


class Poly:
    """Immutable sparse polynomial: {exponent tuple: coefficient}.

    Construction normalizes nothing beyond dropping explicit zeros, so always
    go through PolyRing factories or arithmetic.  The evaluation plan is
    built on the first eval call and cached on the object.
    """

    __slots__ = ("ring", "terms", "_plan")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        # a plain copy unless there is a zero to drop
        if 0 in terms.values():
            terms = {e: c for e, c in terms.items() if c != 0}
        self.terms = dict(terms)
        self._plan = None

    # -- basic structure ---------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring.names == other.ring.names and self.terms == other.terms
        if isinstance(other, Rational):
            return self == self.ring.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring.names != other.ring.names:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, Rational):
            other = self.ring.constant(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product with a scalar or a polynomial of the same ring, term by
        term, the exponent tuples added entry by entry."""
        if isinstance(other, Rational):
            if other == 0:
                return self.ring.zero()
            return Poly(self.ring, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = get(key, 0) + c1 * c2
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    # -- evaluation --------------------------------------------------------

    def eval(self, values) -> Rational:
        if len(values) != self.ring.n:
            raise ValueError("wrong number of values")
        if self._plan is None:
            self._plan = _build_plan(self.terms, self.ring.n)
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

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        chunks = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e
            )
            if not mono:
                chunks.append(str(c))
            elif c == 1:
                chunks.append(mono)
            elif c == -1:
                chunks.append(f"-{mono}")
            else:
                chunks.append(f"{c}*{mono}")
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"<Poly {self}>"


# -- evaluation plans --------------------------------------------------------
#
# A plan groups the terms by their exponents in a trailing block of variables;
# each group is a dot product of its coefficients with entries of the table
# of the leading block (_extend_table), times its trailing monomial.


def _trailing_split(exponents, n: int) -> tuple:
    """(lead, top): the length of the leading block and its largest degree.

    The block first ends where the longest trailing block of variables
    begins on which the terms show at most n exponent patterns (one pass:
    when the distinct tails seen pass n, the block drops its first
    variable, and the shorter tails come from the distinct longer ones).
    It then drops its last variable while its complete table would hold
    more entries than there are terms, or an exponent above 255.
    """
    start = 0
    tails = set()
    for e in exponents:
        tails.add(e[start:])
        while len(tails) > n and start < n:
            start += 1
            tails = {t[1:] for t in tails}
    while True:
        top = max(map(sum, map(itemgetter(slice(0, start)), exponents)), default=0)
        if not start or top < 256 and comb(top + start, start) <= len(exponents):
            return start, top
        start -= 1


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


def _build_plan(terms: dict, n: int) -> tuple:
    """The evaluation plan (lead, top, groups) of a term dict in n variables.

    groups holds one (tail, coeffs, idx) per trailing pattern: the
    (variable, exponent) pairs of the trailing monomial, the coefficients
    of its terms and the table indices of their leading monomials, found
    in the table of keys that pack the exponents into bytes.
    """
    lead, top = _trailing_split(terms, n)
    keys = [0]
    _extend_table(keys, [1 << 8 * (lead - 1 - i) for i in range(lead)], 0, top, add)
    index = dict(zip(map(tuple, map(int.to_bytes, keys, repeat(lead), repeat("big"))),
                     count()))
    grouped = {}
    for exps, c, i in zip(terms, terms.values(),
                          map(index.__getitem__, map(itemgetter(slice(0, lead)), terms))):
        members = grouped.get(exps[lead:])
        if members is None:
            members = grouped[exps[lead:]] = ([], [])
        members[0].append(c)
        members[1].append(i)
    groups = tuple((tuple((lead + k, e) for k, e in enumerate(tail) if e), coeffs, idx)
                   for tail, (coeffs, idx) in grouped.items())
    return lead, top, groups


def _head_table(ring: PolyRing, head: tuple, top: int) -> list:
    """The table of the monomials in head up to degree top.  The ring keeps
    the last one with its head values and their types, and extends it."""
    key = (head, tuple(map(type, head)))
    if ring._table is None or ring._table[0] != key:
        ring._table = [key, [1], 0]
    _, table, done = ring._table
    if done < top:
        _extend_table(table, head, done, top, mul)
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
