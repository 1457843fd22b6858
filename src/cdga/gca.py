"""Free graded-commutative algebras over Q, and the sparse Element class.

Monomials are kept in a normal form: factors sorted by (degree, ordinal),
odd generators with exponent exactly 1.  Reordering picks up the Koszul sign
(-1)^{|u||v|} per transposition of odd factors, and the square of an odd
generator is zero.

Element is the one element class of both algebra kinds: a finite map from
basis keys to nonzero rational coefficients, so equality is structural.  Its
algebra supplies four things: from_terms (wrap such a map), key_degree,
key_str and mul_terms (the product of two maps).  A free algebra's keys are
normal-form monomials; a tabular algebra's (dga.TabularDGA) are basis
indices.  linear_combination sums scaled maps in one pass.

degree_basis enumerates the monomials of one degree depth-first over the
generators in factor order, on an explicit stack, so no Python recursion
limit bounds the number of generators.  A branch stops as soon as the next
generator's degree exceeds the degree left to fill, since every later one is
at least as large, so the enumeration costs about as much as the basis it
returns.

The bases and their {monomial: position} maps depend only on the generator
degrees in ordinal order, since monomials name generators by ordinal: (2, 3)
and (3, 2) are different shapes.  So they live in a _Shape, one per degree
sequence, shared by every Algebra of that sequence and filled as degrees are
asked for.  The registry holds shapes weakly and each Algebra holds its own
strongly, so a shape lives exactly as long as some algebra of it does.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import MixedAlgebra

# A monomial is a tuple of (generator index, exponent) pairs, sorted by the
# algebra's (degree, ordinal) key.  The empty tuple is the unit.
Monomial = tuple


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    ordinal: int


class _Shape:
    """The degree bases and position maps of the free algebras on one
    sequence of generator degrees."""

    __slots__ = ("degrees", "_order", "_bases", "_indices", "__weakref__")

    def __init__(self, degrees):
        self.degrees = degrees
        # normal-form factor order
        self._order = sorted(range(len(degrees)),
                             key=lambda i: (degrees[i], i))
        self._bases = {}     # k -> sorted list of degree-k monomials
        self._indices = {}   # k -> {degree-k monomial: position}

    def basis(self, k):
        cached = self._bases.get(k)
        if cached is not None:
            return cached
        if k < 0:
            raise ValueError("degree must be >= 0")
        order, degrees = self._order, self.degrees
        out = []
        # (next position in factor order, degree left, monomial so far)
        stack = [(0, k, ())]
        while stack:
            pos, rem, acc = stack.pop()
            if rem == 0:
                out.append(acc)
                continue
            # factors come in degree order: once one is too big, all are
            if pos == len(order) or degrees[order[pos]] > rem:
                continue
            gi = order[pos]
            d = degrees[gi]
            stack.append((pos + 1, rem, acc))
            top = min(rem // d, 1) if d % 2 else rem // d
            for e in range(1, top + 1):
                stack.append((pos + 1, rem - e * d, acc + ((gi, e),)))
        out.sort()
        self._bases[k] = out
        return out

    def index(self, k):
        idx = self._indices.get(k)
        if idx is None:
            idx = self._indices[k] = {b: i for i, b in
                                      enumerate(self.basis(k))}
        return idx


# generator degrees in ordinal order -> the _Shape of the live algebras
_shapes = weakref.WeakValueDictionary()


class Algebra:
    """A free graded-commutative algebra on named generators of degree >= 1."""

    def __init__(self, generators):
        gens = []
        seen = set()
        for ordinal, (name, degree) in enumerate(generators):
            if degree < 1:
                raise ValueError(f"generator {name!r} has degree {degree} < 1")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
            gens.append(Generator(name, int(degree), ordinal))
        self.generators = tuple(gens)
        self._by_name = {g.name: g for g in self.generators}
        degrees = tuple(g.degree for g in gens)
        self._shape = _shapes.get(degrees)
        if self._shape is None:
            self._shape = _shapes[degrees] = _Shape(degrees)

    def __repr__(self):
        inner = ",".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"Algebra({inner})"

    def from_terms(self, terms):
        """The element with this {monomial: nonzero Fraction} map."""
        return Element(self, terms)

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {(): Fraction(1)})

    def gen(self, name):
        """The generator as an element."""
        g = self._by_name[name]
        return Element(self, {((g.ordinal, 1),): Fraction(1)})

    def element(self, terms):
        """Element from a {monomial: coefficient} mapping; normalizes zeros."""
        clean = {}
        for mono, coeff in terms.items():
            c = Fraction(coeff)
            if c:
                clean[tuple(mono)] = clean.get(tuple(mono), Fraction(0)) + c
        return Element(self, {m: c for m, c in clean.items() if c})

    def key_degree(self, mono):
        return sum(self.generators[g].degree * e for g, e in mono)

    def key_str(self, mono):
        if not mono:
            return "1"
        parts = []
        for g, e in mono:
            name = self.generators[g].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def mul_monomials(self, m1, m2):
        """Product of two normal-form monomials: (monomial, sign) or None."""
        gens = self.generators
        out = []
        sign = 1
        i = j = 0
        # total degree of the not-yet-consumed part of m1
        rem1 = sum(gens[g].degree * e for g, e in m1)
        n1, n2 = len(m1), len(m2)
        while i < n1 and j < n2:
            g1, e1 = m1[i]
            g2, e2 = m2[j]
            k1 = (gens[g1].degree, g1)
            k2 = (gens[g2].degree, g2)
            if k1 < k2:
                out.append((g1, e1))
                rem1 -= gens[g1].degree * e1
                i += 1
            elif k1 > k2:
                if (gens[g2].degree * e2) % 2 and rem1 % 2:
                    sign = -sign
                out.append((g2, e2))
                j += 1
            else:
                # same generator; odd generators square to zero
                if gens[g1].degree % 2:
                    return None
                out.append((g1, e1 + e2))
                rem1 -= gens[g1].degree * e1
                i += 1
                j += 1
        out.extend(m1[i:])
        out.extend(m2[j:])
        return tuple(out), sign

    def mul_terms(self, a, b):
        """Product of two {monomial: coefficient} maps, as such a map."""
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                hit = self.mul_monomials(m1, m2)
                if hit is None:
                    continue
                mono, sign = hit
                v = c1 * c2 if sign > 0 else -(c1 * c2)
                old = out.get(mono)
                if old is not None:
                    v += old
                if v:
                    out[mono] = v
                elif old is not None:
                    del out[mono]
        return out

    def degree_basis(self, k):
        """All normal-form monomials of degree k, deterministically ordered.
        The list is shared by every algebra of this one's shape."""
        return self._shape.basis(k)

    def degree_index(self, k):
        """{monomial: position in degree_basis(k)}, shared as the basis is."""
        return self._shape.index(k)


def linear_combination(pairs):
    """The sum of c * terms over the (c, terms) pairs, as one
    {key: Fraction} map; each c is an int or a Fraction, and zero ones are
    skipped.

    The keys come in the order a chain of Element additions would leave
    them in.
    """
    out = {}
    for c, terms in pairs:
        if c:
            for m, x in terms.items():
                s = out.get(m, 0) + c * x
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


class Element:
    """A Q-linear combination of the basis keys of one algebra.

    terms maps each key to its nonzero Fraction coefficient.  The algebra
    supplies from_terms, key_degree, key_str and mul_terms; all else is
    shared.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Common degree of all terms; None for zero, raises if mixed."""
        degs = {self.algebra.key_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def is_homogeneous(self):
        return len({self.algebra.key_degree(m) for m in self.terms}) <= 1

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise MixedAlgebra("elements belong to different algebras")

    def __add__(self, other):
        if isinstance(other, Rational):
            other = self.algebra.one() * other
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, Fraction(0)) + c
            if s:
                terms[m] = s
            elif m in terms:
                del terms[m]
        return self.algebra.from_terms(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.algebra.from_terms({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Rational):
            c = Fraction(other)
            if not c:
                return self.algebra.zero()
            return self.algebra.from_terms(
                {m: k * c for m, k in self.terms.items()})
        self._check(other)
        return self.algebra.from_terms(
            self.algebra.mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        acc = self.algebra.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if isinstance(other, Rational):
            other = self.algebra.one() * other
        return (isinstance(other, Element)
                and self.algebra is other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            ms = self.algebra.key_str(m)
            if m == ():
                # the free unit prints as its coefficient; a tabular unit
                # is a basis label like any other
                parts.append(str(c))
            elif c == 1:
                parts.append(ms)
            elif c == -1:
                parts.append(f"-{ms}")
            else:
                parts.append(f"{c}*{ms}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__
