"""Differentials on free CDGAs, and finite tabular DGAs.

A Differential is given on generators and extended by the graded Leibniz
rule d(a*b) = (da)*b + (-1)^{|a|} a*(db).  Validation checks d о d = 0 on
generators, which suffices by Leibniz.  A TabularDGA holds an integral
table or differential coefficient as an int and any other as a Fraction;
its elements' coefficients are Fractions all the same, since mul_terms
scales the entries by them.  TabularDGA.validate reads its table in one
pass and sorts only the failures.

Both kinds keep their generator images once more as {key: int} maps over
one common denominator, d_den, as exactla.int_rows scales them.
d_pairs(key) gives d of one basis key as (key, int) pairs over d_den: for
a free DGA the Leibniz rule on monomial tuples, for a tabular one the
stored image.  cohomology.ChainComplex writes those pairs straight into
integer d-matrix rows, and d_terms sums them over d_den for an element.

TabularDGA is the finite-dimensional counterpart used as a morphism target:
a basis with a product table and a (possibly zero) differential, e.g. a
cohomology algebra (H^*, 0).  It is its own algebra: it provides the same
interface as gca.Algebra (degree_basis, degree_index, from_terms,
key_degree, key_str, mul_terms), so its elements are gca.Elements keyed by
basis index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (InhomogeneousDifferential, MixedAlgebra, WrongDegree)
from .exactla import int_rows
from .gca import Algebra, Element, linear_combination


def _entry(index, val):
    """The {label: coefficient} map val as an {index[label]: coefficient}
    map of its nonzero coefficients, an integral one as an int and any
    other as a Fraction."""
    return {index[lab]: f.numerator if f.denominator == 1 else f
            for lab, c in val.items()
            if (f := c if type(c) is Fraction else Fraction(c))}


def _failures(width, *parts):
    """The sorted key[:width] of keys whose (key, value) pairs sum to
    nonzero over the parts."""
    sums = {}
    for part in parts:
        for key, v in part:
            sums[key] = sums.get(key, 0) + v
    return sorted({key[:width] for key, v in sums.items() if v})


def _sum_pairs(d_pairs, den, terms):
    """The sum over terms of coefficient * d_pairs(key), divided by den: d of
    a {key: coefficient} map, as such a map."""
    out = {}
    for key, coeff in terms.items():
        for t, c in d_pairs(key):
            v = out.get(t, 0) + coeff * c
            if v:
                out[t] = v
            elif t in out:
                del out[t]
    return out if den == 1 else {t: Fraction(v, den) for t, v in out.items()}


class Differential:
    """Degree +1 derivation, defined by its generator images."""

    def __init__(self, algebra: Algebra, images):
        """images maps generator names to Elements (missing names mean zero)."""
        self.algebra = algebra
        imgs = {}
        for g in algebra.generators:
            e = images.get(g.name)
            if e is None:
                e = algebra.zero()
            if e.algebra is not algebra:
                raise MixedAlgebra(f"image of {g.name} lives in another algebra")
            if not e.is_homogeneous():
                raise InhomogeneousDifferential(
                    f"d({g.name}) mixes degrees: {e}")
            d = e.degree()
            if d is not None and d != g.degree + 1:
                raise WrongDegree(
                    f"d({g.name}) has degree {d}, expected {g.degree + 1}")
            imgs[g.ordinal] = e
        unknown = set(images) - {g.name for g in algebra.generators}
        if unknown:
            raise KeyError(f"images for unknown generators: {sorted(unknown)}")
        self.images = imgs
        # the images once more, as {monomial: int} maps over one denominator
        rows, self.den = int_rows([e.terms for e in imgs.values()])
        self.int_images = dict(zip(imgs, rows))

    def of_generator(self, index):
        return self.images[index]


@dataclass
class ValidationReport:
    d2_failures: list = field(default_factory=list)  # (name, witness Element)

    @property
    def ok(self):
        return not self.d2_failures


class DGA:
    """A free CDGA together with a differential."""

    def __init__(self, algebra: Algebra, differential: Differential):
        if differential.algebra is not algebra:
            raise MixedAlgebra("differential defined on another algebra")
        self.algebra = algebra
        self.differential = differential
        self.d_den = differential.den

    def d(self, e: Element) -> Element:
        """Leibniz extension of the generator images."""
        if e.algebra is not self.algebra:
            raise MixedAlgebra("element belongs to another algebra")
        return Element(self.algebra, self.d_terms(e.terms))

    def d_terms(self, terms):
        """d of a {monomial: coefficient} map, as such a map."""
        return _sum_pairs(self.d_pairs, self.d_den, terms)

    def d_pairs(self, mono):
        """d of one monomial as (monomial, int) pairs over d_den; a monomial
        may occur in more than one pair.

        The graded Leibniz rule on monomial tuples: the factor (g, exp) at
        position pos contributes
        (-1)^{|prefix|} * exp * prefix * d(g) * g^(exp-1) * rest
        with each product formed by Algebra.mul_monomials.
        """
        alg = self.algebra
        gens = alg.generators
        images = self.differential.int_images
        mul = alg.mul_monomials
        out = []
        prefix_deg = 0
        for pos, (gi, exp) in enumerate(mono):
            image = images[gi]
            if image:
                prefix = mono[:pos]
                tail = (((gi, exp - 1),) if exp > 1 else ()) + mono[pos + 1:]
                c = -exp if prefix_deg % 2 else exp
                for m, dc in image.items():
                    sign = 1
                    if prefix:
                        hit = mul(prefix, m)
                        if hit is None:
                            continue
                        m, sign = hit
                    if tail:
                        hit = mul(m, tail)
                        if hit is None:
                            continue
                        m, s = hit
                        sign *= s
                    out.append((m, dc * c if sign > 0 else -dc * c))
            prefix_deg += gens[gi].degree * exp
        return out

    def validate(self) -> ValidationReport:
        """Check d о d = 0 on every generator.

        Homogeneity needs no check here: Differential rejects mixed images.
        """
        report = ValidationReport()
        for g in self.algebra.generators:
            dd = self.d(self.differential.of_generator(g.ordinal))
            if not dd.is_zero():
                report.d2_failures.append((g.name, dd))
        return report

    def is_minimal(self):
        """No linear part in any d(generator); degree-1 generators closed."""
        for g in self.algebra.generators:
            img = self.differential.of_generator(g.ordinal)
            if g.degree == 1 and not img.is_zero():
                return False
            for mono in img.terms:
                if len(mono) == 1 and mono[0][1] == 1:
                    return False
        return True

    def zero(self):
        return self.algebra.zero()

    def one(self):
        return self.algebra.one()

    def gen(self, name):
        return self.algebra.gen(name)


class TabularDGA:
    """A finite-dimensional DGA given by a basis, product table, differential.

    basis: list of (label, degree); exactly one degree-0 label (the unit),
    and no negative degree (ValueError).
    products: {(label_i, label_j): {label_k: coeff}} for i, j nonunit; pairs
    not listed in either order are zero.  The table is completed by graded
    commutativity, and products with the unit are implied: an entry with
    the unit is accepted only if it is the unit law, and ValueError is
    raised otherwise.
    differential: {label: {label: coeff}} (omitted labels are closed).
    """

    def __init__(self, basis, products=None, differential=None):
        self.labels = [str(lab) for lab, _ in basis]
        self.degrees = [int(deg) for _, deg in basis]
        if min(self.degrees, default=0) < 0:
            raise ValueError("basis degrees must be >= 0")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        units = [i for i, d in enumerate(self.degrees) if d == 0]
        if len(units) != 1:
            raise ValueError("degree-0 piece must be spanned by a single unit")
        self.unit = units[0]
        self.max_degree = max(self.degrees)
        self._by_degree = {}
        for i, d in enumerate(self.degrees):
            self._by_degree.setdefault(d, []).append(i)
        self._indices = {}       # k -> {basis index: position in degree k}

        self.table = {}
        index, degrees, unit = self.index, self.degrees, self.unit
        for (la, lb), val in (products or {}).items():
            ia, ib = index[la], index[lb]
            entry = _entry(index, val)
            if unit in (ia, ib):
                other = ib if ia == unit else ia
                if entry != {other: 1}:
                    raise ValueError(f"product {la}*{lb} with the unit must "
                                     f"be {self.labels[other]}")
                continue
            deg = degrees[ia] + degrees[ib]
            for k in entry:
                if degrees[k] != deg:
                    raise WrongDegree(
                        f"product {la}*{lb} hits {self.labels[k]} of wrong degree")
            self.table[(ia, ib)] = entry
            if ia != ib:
                flipped = ({k: -c for k, c in entry.items()} if degrees[ia] % 2
                           and degrees[ib] % 2 else entry.copy())
                if self.table.setdefault((ib, ia), flipped) != flipped:
                    raise ValueError(
                        f"product table not graded-commutative at {la},{lb}")

        self.diff = {}
        for lab, val in (differential or {}).items():
            i = index[lab]
            entry = _entry(index, val)
            for k in entry:
                if degrees[k] != degrees[i] + 1:
                    raise WrongDegree(f"d({lab}) has a wrong-degree component")
            if entry:
                self.diff[i] = entry
        rows, self.d_den = int_rows(list(self.diff.values()))
        self._d_int = dict(zip(self.diff, rows))

    @property
    def algebra(self):
        """The algebra of this DGA's elements: the table itself."""
        return self

    def degree_basis(self, k):
        return self._by_degree.get(k, [])

    def degree_index(self, k):
        """{basis index: position in degree_basis(k)}; a tabular DGA is its
        own shape, so it caches the maps itself."""
        idx = self._indices.get(k)
        if idx is None:
            idx = self._indices[k] = {b: i for i, b in
                                        enumerate(self.degree_basis(k))}
        return idx

    def key_degree(self, i):
        return self.degrees[i]

    def key_str(self, i):
        return self.labels[i]

    def from_terms(self, terms):
        """The element with this {basis index: nonzero Fraction} map."""
        return TabElement(self, terms)

    def zero(self):
        return TabElement(self, {})

    def one(self):
        return TabElement(self, {self.unit: Fraction(1)})

    def gen(self, label):
        return TabElement(self, {self.index[label]: Fraction(1)})

    def mul_basis(self, i, j):
        if i == self.unit:
            return {j: Fraction(1)}
        if j == self.unit:
            return {i: Fraction(1)}
        return self.table.get((i, j), {})

    def d(self, e):
        if e.algebra is not self:
            raise MixedAlgebra("element belongs to another tabular algebra")
        return TabElement(self, self.d_terms(e.terms))

    def d_terms(self, terms):
        """d of a {basis index: coefficient} map, as such a map."""
        return _sum_pairs(self.d_pairs, self.d_den, terms)

    def d_pairs(self, i):
        """d of basis index i as (index, int) pairs over d_den."""
        return self._d_int.get(i, {}).items()

    def validate(self):
        """Associativity, graded commutativity, Leibniz, d^2 = 0.

        Products that would land above the top basis degree are taken to be
        zero, which is consistent for algebras truncated at a top class.
        __init__ completes the table by graded commutativity and rejects
        conflicting orders, so only an odd square can still break
        commutativity: it must vanish.

        One pass over the table builds left[i] = {j: i*j} and right[j] =
        {i: i*j} for the nonzero basis products, the unit's included, from
        the table's own entries; d is the integer one over d_den, a
        common scale of each identity's terms.  Each nonzero term adds its
        classes into lhs - rhs at (candidate, class), so only candidates
        with a nonzero term are formed, each once: no triple through the
        unit, which is associative, and none above the top degree, since a
        nonzero product lands on basis classes.  A candidate fails where a
        sum is nonzero; only the failures are sorted, into lexicographic
        order.
        """
        labels, degrees, unit = self.labels, self.degrees, self.unit
        n, diff, empty = len(labels), self._d_int, {}
        left, right = [{} for _ in range(n)], [{} for _ in range(n)]
        nonzero = []
        for (i, j), entry in self.table.items():
            if entry:
                left[i][j] = right[j][i] = entry
                nonzero.append((i, j, entry))
        for x in range(n):
            left[x][unit] = right[x][unit] = left[unit][x] = \
                right[unit][x] = {x: 1}
        # the terms of lhs - rhs at (candidate, class of the result)
        assoc = _failures(
            3, (((i, j, k, m), c * x) for i, j, row in nonzero       # (ij)k
                for l, c in row.items() for k, lk in left[l].items()
                if k != unit for m, x in lk.items()),
            (((i, j, k, m), -c * x) for j, k, row in nonzero        # i(jk)
             for l, c in row.items() for i, il in right[l].items()
             if i != unit for m, x in il.items()))
        leibniz = _failures(
            2, (((i, j, m), c * x) for i in range(n)                # d(ij)
                for j, ij in left[i].items() for l, c in ij.items()
                for m, x in diff.get(l, empty).items()),
            (((i, j, m), -c * x) for i, image in diff.items()       # d(i)j
             for l, c in image.items() for j, lj in left[l].items()
             for m, x in lj.items()),
            (((i, j, m), c * x if degrees[i] % 2 else -c * x)       # i d(j)
             for j, image in diff.items() for l, c in image.items()
             for i, il in right[l].items() for m, x in il.items()))
        d2 = _failures(1, (((i, m), c * x) for i, image in diff.items()
                           for l, c in image.items()
                           for m, x in diff.get(l, empty).items()))
        return ([f"commutativity fails at {labels[i]},{labels[i]}"
                 for i in range(n) if degrees[i] % 2 and i in left[i]]
                + [f"associativity fails at {labels[i]},{labels[j]},"
                   f"{labels[k]}" for i, j, k in assoc]
                + [f"d^2 nonzero on {labels[i]}" for i, in d2]
                + [f"Leibniz fails at {labels[i]},{labels[j]}"
                   for i, j in leibniz])

    def mul_terms(self, a, b):
        """Product of two {basis index: coefficient} maps, as such a map."""
        return linear_combination((ca * cb, self.mul_basis(i, j))
                                  for i, ca in a.items() for j, cb in b.items())


class TabElement(Element):
    """An Element of a TabularDGA, keyed by basis index; no arithmetic of
    its own."""

    __slots__ = ()

    __mul__ = Element.__mul__   # perfbench/tracing.py wraps it by name
