"""Triple Massey products with indeterminacy and a canonical verdict.

<[a1],[a2],[a3]> is defined when a1*a2 and a2*a3 are exact; with primitives
d(a12) = a1*a2 and d(a23) = a2*a3 the representative is

    a1*a23 + (-1)^{p1+1} a12*a3

living in degree p1+p2+p3-1.  The verdict compares the representative's
class against the indeterminacy subspace [a1]*H^{p2+p3-1} + [a3]*H^{p1+p2-1},
so it does not depend on the primitive choices.

triple() and massey_search share two private helpers: one forms the
representative, the other builds a defined triple's MasseyResult with its
indeterminacy.  The search solves the primitive of each representative
pair once per call, builds the indeterminacy only for a triple whose class
is nonzero, and returns the first non-vanishing triple with the result
triple() builds from the same parts.  sullivan.formality calls the search,
and sullivan re-exports it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cohomology import CohomologySummary, compute
from .errors import BoundTooLow, NoSolution, NotACocycle, NotDefined
from .exactla import Subspace


@dataclass
class MasseyResult:
    defined: bool
    degree: int
    representative: object = None      # element of the underlying DGA
    primitives: tuple = None           # (a12, a23)
    indeterminacy: Subspace = None     # inside H^degree, rep coordinates
    vanishes: bool = None
    representative_class: tuple = None  # rep coordinates of the class
    reason: str = None                 # set when not defined


def triple(obj, a1, a2, a3, summary: CohomologySummary = None,
           primitives=None, max_degree=None) -> MasseyResult:
    """Triple Massey product of three homogeneous cocycles.

    `obj` may be any validated DGA or TabularDGA (any model works, not just a
    minimal one).  A precomputed cohomology summary covering the product
    degree may be passed in; `primitives` optionally overrides the primitive
    choices (their correctness is checked: NoSolution if they do not bound
    the products).
    """
    degrees = []
    for a in (a1, a2, a3):
        if a.is_zero() or not a.is_homogeneous():
            raise NotACocycle("Massey arguments must be homogeneous and nonzero")
        d = a.degree()
        if d <= 0:
            raise NotACocycle("Massey arguments must have positive degree")
        degrees.append(d)
    p1, p2, p3 = degrees
    n = p1 + p2 + p3 - 1
    if summary is None:
        bound = max_degree if max_degree is not None else n
        if bound < n:
            raise BoundTooLow("max_degree below the product degree")
        summary = compute(obj, bound, with_cup=False)
    for a in (a1, a2, a3):
        if not summary.is_cocycle(a):
            raise NotACocycle("Massey arguments must be closed")

    prod12 = a1 * a2
    prod23 = a2 * a3
    if primitives is not None:
        a12, a23 = primitives
        if summary.ctx.d(a12) != prod12 or summary.ctx.d(a23) != prod23:
            raise NoSolution("supplied primitives do not bound the products")
    else:
        a12 = summary.is_exact(prod12)
        if a12 is None:
            raise NotDefined("[a1][a2] is a nonzero class")
        a23 = summary.is_exact(prod23)
        if a23 is None:
            raise NotDefined("[a2][a3] is a nonzero class")

    rep = _representative(a1, a3, a12, a23, p1)
    _, rep_class = summary.class_coords(rep, degree=n)
    return _defined(summary, degrees, a1, a3, (a12, a23), rep, rep_class)


def _representative(a1, a3, a12, a23, p1):
    """The cocycle a1*a23 + (-1)^{p1+1} a12*a3 of <a1, a2, a3>."""
    sign = Fraction(1 if (p1 + 1) % 2 == 0 else -1)
    return a1 * a23 + (a12 * a3) * sign


def _defined(summary, degrees, a1, a3, primitives, rep, rep_class):
    """The MasseyResult of a defined triple whose representative rep has
    class rep_class.  The indeterminacy is spanned by the classes of a1*h
    over the degree-(p2+p3-1) representatives h, then of a3*h over the
    degree-(p1+p2-1) ones, in rep coordinates."""
    p1, p2, p3 = degrees
    n = p1 + p2 + p3 - 1
    vecs = []
    for a, k in ((a1, p2 + p3 - 1), (a3, p1 + p2 - 1)):
        for h in summary.representatives[k]:
            v = summary.class_coords(a * h, degree=n)[1]
            if any(v):
                vecs.append(v)
    indet = Subspace(summary.betti[n], vecs)
    return MasseyResult(
        defined=True, degree=n, representative=rep, primitives=primitives,
        indeterminacy=indet, vanishes=indet.member(rep_class),
        representative_class=rep_class)


def massey_search(obj, summary, cap):
    """First defined, non-vanishing triple Massey product over the chosen
    representatives, or None.

    Triples are visited in a fixed order.  The primitive of each
    representative product r*r' (None when it is a nonzero class) is solved
    once per call and unordered pair: r'*r = (-1)^{pq} r*r', and the solve
    is linear, so the primitive of r'*r is (-1)^{pq} times that of r*r'.
    A defined triple costs its representative and one class solve; only a
    nonzero class goes on to the indeterminacy of its outer pair (r1, r3),
    whose result is built as triple() builds it.
    """
    summary.require(obj, cap)
    reps = summary.representatives
    primitives = {}

    def primitive(p, i, q, j):
        key = (p, i, q, j)
        if key not in primitives:
            if (q, j) < (p, i):
                a = primitive(q, j, p, i)
                primitives[key] = -a if a is not None and p * q % 2 else a
            else:
                primitives[key] = summary.is_exact(reps[p][i] * reps[q][j])
        return primitives[key]

    degs = [k for k in range(1, cap + 1) if summary.betti[k] > 0]
    for p1, p2, p3 in itertools.product(degs, repeat=3):
        n = p1 + p2 + p3 - 1
        if n > cap or summary.betti[n] == 0:
            continue
        for i1, r1 in enumerate(reps[p1]):
            for i2, r2 in enumerate(reps[p2]):
                a12 = primitive(p1, i1, p2, i2)
                if a12 is None:
                    continue
                for i3, r3 in enumerate(reps[p3]):
                    a23 = primitive(p2, i2, p3, i3)
                    if a23 is None:
                        continue
                    rep = _representative(r1, r3, a12, a23, p1)
                    _, rep_class = summary.class_coords(rep, degree=n)
                    if not any(rep_class):
                        continue    # a zero class lies in any indeterminacy
                    res = _defined(summary, (p1, p2, p3), r1, r3, (a12, a23),
                                   rep, rep_class)
                    if not res.vanishes:
                        return (r1, r2, r3), res
    return None


def try_triple(obj, a1, a2, a3, **kw):
    """Like triple(), but returns an undefined MasseyResult instead of raising."""
    try:
        return triple(obj, a1, a2, a3, **kw)
    except NotDefined as exc:
        n = a1.degree() + a2.degree() + a3.degree() - 1
        return MasseyResult(defined=False, degree=n, reason=str(exc))
