"""Shared fixtures and independent oracles for the test suite."""

from fractions import Fraction

import pytest
from hypothesis import settings

from cdga.dga import DGA, TabularDGA
from cdga.gca import Algebra, Element


# more draws for the property tests that leave max_examples to the profile:
# pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=500, deadline=None)


# -- model builders --------------------------------------------------------

@pytest.fixture
def cp2():
    alg = Algebra([("a", 2), ("x", 5)])
    return DGA(alg, {"x": alg.gen("a") ** 3})


@pytest.fixture
def q111():
    from cdga.constructions import q_model
    return q_model((1, 1, 1))


# -- independent oracles ---------------------------------------------------

def naive_rref(rows, ncols):
    """Plain Fraction Gauss-Jordan, written independently of the kernel."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    pr = 0
    for c in range(ncols):
        pivot = next((r for r in range(pr, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        inv = 1 / m[pr][c]
        m[pr] = [x * inv for x in m[pr]]
        for r in range(len(m)):
            if r != pr and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[pr])]
        pivots.append(c)
        pr += 1
    return [tuple(r) for r in m[:pr]], pivots


def list_scan_rref_int(rows, ncols):
    """_core.rref_int as a scan of row lists: for each column, the first
    pending row holding it is the pivot, and every pending and pivoted row
    is visited to clear the column.  Row updates are _core's own."""
    from cdga._core import _clear, _primitive

    pending = [r for r in rows if r]
    done = []
    pivots = []
    for c in range(ncols):
        if not pending:
            break
        pi = next((i for i, r in enumerate(pending) if c in r), -1)
        if pi < 0:
            continue
        prow = _primitive(pending.pop(pi))
        pending = [r for r in (_clear(r, prow, c) if c in r else r
                               for r in pending) if r]
        done = [_clear(r, prow, c) if c in r else r for r in done]
        done.append(prow)
        pivots.append(c)
    return done, pivots


def list_scan_residual(w, echelon):
    """exactla._residual as a scan of an echelon list of (row, pivot) pairs
    in order, each row zero at the pivots before its own: a pivot is
    cleared with _core's row update when w holds it."""
    from cdga._core import _clear

    for row, c in echelon:
        if c in w:
            w = _clear(w, row, c)
    return w


def list_scan_quotient_basis(ambient, sub):
    """exactla.quotient_basis on list_scan_residual: the indices of the
    ambient rows that add rank over sub and the rows kept before them."""
    echelon = list(zip(sub._rows, sub.pivots))
    kept = []
    for i, row in enumerate(ambient._rows):
        w = list_scan_residual(row, echelon)
        if w:
            kept.append(i)
            echelon.append((w, min(w)))
    return kept


def recursive_degree_basis(degrees, k):
    """Normal-form monomials of degree k over generators of the given
    degrees, by a recursion that tries every generator at every level."""
    order = sorted(range(len(degrees)), key=lambda i: (degrees[i], i))
    out = []

    def rec(pos, rem, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        if pos == len(order):
            return
        gi = order[pos]
        d = degrees[gi]
        rec(pos + 1, rem, acc)
        top = min(rem // d, 1) if d % 2 else rem // d
        for e in range(1, top + 1):
            acc.append((gi, e))
            rec(pos + 1, rem - e * d, acc)
            acc.pop()

    rec(0, k, [])
    return sorted(out)


def naive_morphism_image(f, e):
    """f(e) for a DgaMorphism f, multiplying the generator images factor by
    factor for every monomial of e."""
    out = f.codomain.zero()
    for mono, coeff in e.terms.items():
        term = f.codomain.one()
        for gi, exp in mono:
            for _ in range(exp):
                term = term * f.images[gi]
        out = out + term * Fraction(coeff)
    return out


def naive_d(dga, e):
    """d of a free-DGA element by Leibniz through Element products: for each
    factor g^exp of each monomial, prefix * d(g) * g^(exp-1) * rest."""
    alg = dga.algebra
    out = alg.zero()
    for mono, coeff in e.terms.items():
        prefix_deg = 0
        for pos, (gi, exp) in enumerate(mono):
            dg = dga.images[gi]
            if not dg.is_zero():
                prefix = Element(alg, {mono[:pos]: Fraction(1)})
                rest_mono = ((gi, exp - 1),) if exp > 1 else ()
                tail = Element(alg, {rest_mono + mono[pos + 1:]: Fraction(1)})
                sign = -1 if prefix_deg % 2 else 1
                out = out + prefix * dg * tail * Fraction(sign * exp * coeff)
            prefix_deg += alg.generators[gi].degree * exp
    return out


def recomputing_minimal_model(target, max_degree):
    """sullivan.minimal_model without budgets, in its earlier form: after
    the closed generators of step (a) the model is rebuilt and its
    cohomology recomputed before step (b) reads H^{k+1}, and each kernel
    class is built from the dense kernel basis.  Returns the model DGA, the
    stage ledger and the {generator name: image in target} map."""
    from cdga import exactla
    from cdga.cohomology import compute
    from cdga.exactla import Matrix, Subspace
    from cdga.gca import linear_combination
    from cdga.sullivan import DgaMorphism

    ts = compute(target, max_degree + 1, with_cup=False)
    gens, d_images, phi_images, ledger = [], {}, {}, {}

    def build():
        alg = Algebra(gens)
        imgs = {name: Element(alg, dict(e.terms))
                for name, e in d_images.items()}
        return DGA(alg, imgs)

    model = build()
    for k in range(2, max_degree + 1):
        ledger[k] = {"surjective": [], "kernel": []}
        summary = compute(model, k + 1, with_cup=False)
        phi = DgaMorphism(model, target, phi_images)
        img = Subspace(ts.betti[k], [
            ts.class_coords(phi(r), degree=k)[1]
            for r in summary.representatives[k]])
        full = Subspace(ts.betti[k], Matrix.identity(ts.betti[k]).data)
        for n, i in enumerate(exactla.quotient_basis(full, img)):
            v = full.basis[i]
            name = f"w{k}_{n}"
            gens.append((name, k))
            phi_images[name] = ts.ctx.algebra.from_terms(linear_combination(
                (c, r.terms) for c, r in zip(v, ts.representatives[k])))
            ledger[k]["surjective"].append(name)
        if ledger[k]["surjective"]:
            model = build()
            summary = compute(model, k + 1, with_cup=False)
            phi = DgaMorphism(model, target, phi_images)
        reps = summary.representatives[k + 1]
        m = Matrix.from_columns(
            [ts.class_coords(phi(r), degree=k + 1)[1] for r in reps],
            ts.betti[k + 1])
        new = []
        for n, vec in enumerate(exactla.kernel(m).basis):
            z = model.algebra.from_terms(linear_combination(
                (c, r.terms) for c, r in zip(vec, reps)))
            new.append((f"v{k}_{n}", z, ts.is_exact(phi(z))))
        for name, z, primitive in new:
            gens.append((name, k))
            d_images[name] = z
            phi_images[name] = primitive
            ledger[k]["kernel"].append(name)
        if new:
            model = build()
    return model, ledger, phi_images


def naive_tabular_validate(tab):
    """TabularDGA.validate's problem list from full sweeps: every triple
    for associativity, every pair for Leibniz."""
    problems = []
    n = len(tab.labels)
    for i in range(n):
        if tab.degrees[i] % 2 and tab.mul_basis(i, i):
            problems.append(f"commutativity fails at "
                            f"{tab.labels[i]},{tab.labels[i]}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (tab.degrees[i] + tab.degrees[j] + tab.degrees[k]
                        > tab.max_degree):
                    continue
                left = tab.mul_terms(tab.mul_basis(i, j), {k: Fraction(1)})
                right = tab.mul_terms({i: Fraction(1)}, tab.mul_basis(j, k))
                if left != right:
                    problems.append(
                        "associativity fails at "
                        f"{tab.labels[i]},{tab.labels[j]},{tab.labels[k]}")
    for i in range(n):
        ddi = tab.d(tab.d(tab.gen(tab.labels[i])))
        if not ddi.is_zero():
            problems.append(f"d^2 nonzero on {tab.labels[i]}")
    for i in range(n):
        for j in range(n):
            ei, ej = tab.gen(tab.labels[i]), tab.gen(tab.labels[j])
            lhs = tab.d(ei * ej)
            sign = -1 if tab.degrees[i] % 2 else 1
            rhs = tab.d(ei) * ej + (ei * tab.d(ej)) * Fraction(sign)
            if lhs != rhs:
                problems.append(f"Leibniz fails at "
                                f"{tab.labels[i]},{tab.labels[j]}")
    return problems


def naive_massey_search(obj, summary, cap):
    """The Massey search as one try_triple per triple: each call checks its
    arguments, forms both products, solves for both primitives and builds
    the indeterminacy afresh.  Same visiting order as sullivan's search."""
    import itertools

    from cdga.massey import try_triple

    degs = [k for k in range(1, cap + 1) if summary.betti[k] > 0]
    for p1, p2, p3 in itertools.product(degs, repeat=3):
        n = p1 + p2 + p3 - 1
        if n > cap or summary.betti[n] == 0:
            continue
        for r1 in summary.representatives[p1]:
            for r2 in summary.representatives[p2]:
                for r3 in summary.representatives[p3]:
                    res = try_triple(obj, r1, r2, r3, summary=summary)
                    if res.defined and not res.vanishes:
                        return (r1, r2, r3), res
    return None


def poincare_coefficient(generator_degrees, k):
    """Coefficient of t^k in prod_even (1-t^d)^-1 * prod_odd (1+t^d)."""
    series = [0] * (k + 1)
    series[0] = 1
    for d in generator_degrees:
        if d % 2:
            nxt = series[:]
            for i in range(k + 1 - d):
                nxt[i + d] += series[i]
            series = nxt
        else:
            for i in range(d, k + 1):   # geometric series in place
                series[i] += series[i - d]
    return series[k]


def sphere_product_tabular(sphere_degrees, cap):
    """(H^*(S^{n_1} x ... x S^{n_m}), 0) truncated above degree cap.

    Basis: square-free subsets of the sphere classes; products are unions
    with Koszul signs, zero on overlap.
    """
    m = len(sphere_degrees)
    subsets = []
    for mask in range(1 << m):
        deg = sum(sphere_degrees[i] for i in range(m) if mask >> i & 1)
        if deg <= cap:
            subsets.append((mask, deg))

    def label(mask):
        if mask == 0:
            return "1"
        return "s" + "".join(str(i) for i in range(m) if mask >> i & 1)

    def mul_sign(mask_a, mask_b):
        # Koszul sign of interleaving the sorted factor lists
        sign = 1
        for i in range(m):
            if not (mask_b >> i & 1) or sphere_degrees[i] % 2 == 0:
                continue
            higher_a = sum(1 for j in range(i + 1, m)
                           if mask_a >> j & 1 and sphere_degrees[j] % 2)
            if higher_a % 2:
                sign = -sign
        return sign

    basis = [(label(mask), deg) for mask, deg in subsets]
    degset = {mask for mask, _ in subsets}
    products = {}
    for mask_a, deg_a in subsets:
        for mask_b, deg_b in subsets:
            if mask_a == 0 or mask_b == 0 or label(mask_a) > label(mask_b):
                continue
            if mask_a & mask_b or deg_a + deg_b > cap:
                products[(label(mask_a), label(mask_b))] = {}
                continue
            union = mask_a | mask_b
            if union not in degset:
                products[(label(mask_a), label(mask_b))] = {}
                continue
            products[(label(mask_a), label(mask_b))] = {
                label(union): mul_sign(mask_a, mask_b)}
    return TabularDGA(basis, products, {})


def gysin_betti(base_summary, euler, cap):
    """Betti numbers of a circle bundle from the Gysin sequence:
    b_r = dim coker(cup e: H^{r-2} -> H^r) + dim ker(cup e: H^{r-1} -> H^{r+1}).
    """
    from cdga import exactla
    from cdga.exactla import Matrix

    s = base_summary

    def cup_matrix(r):
        """Matrix of cup-with-euler from H^r to H^{r+2}."""
        if r < 0 or r > s.max_degree:
            return Matrix([], cols=0)
        if r + 2 > s.max_degree:
            return Matrix([[Fraction(0)] * s.betti[r]], cols=s.betti[r]) \
                if s.betti[r] else Matrix([], cols=0)
        cols = [s.class_coords(rep * euler, degree=r + 2)[1]
                for rep in s.representatives[r]]
        return Matrix([[col[i] for col in cols]
                       for i in range(s.betti[r + 2])], cols=s.betti[r])

    betti = []
    for r in range(cap + 1):
        coker = (s.betti[r] - cup_matrix(r - 2).rank()) if r <= s.max_degree \
            else 0
        kern = 0
        if 0 <= r - 1 <= s.max_degree:
            m = cup_matrix(r - 1)
            kern = s.betti[r - 1] - m.rank()
        betti.append(coker + kern)
    return betti
