"""Model-building recipes: sphere-bundle extensions, mapping tori, corpus.

Fibration models are built as extensions of a base model by new generators
whose differentials hit the Euler class.  Mapping-torus cohomology is
assembled degreewise from an automorphism of the fibre cohomology:
H^r(torus) = ker(rho* - id on H^r) + nu ^ coker(rho* - id on H^{r-1}),
with nu the distinguished degree-1 class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import exactla
from .cohomology import CohomologySummary, compute
from .dga import DGA, TabularDGA
from .errors import (DegreeGap, NotACocycle, ParamOutOfRange,
                     UnknownCorpusEntry, WrongDegree)
from .exactla import Matrix
from .gca import Algebra, Element, linear_combination
from .sullivan import DgaMorphism, _row_elements, induced


def circle_bundle_model(base, e):
    """base (x) Lambda(y_1) with dy = e, the Euler class: a closed
    degree-2 element of base.

    A free base gives a free DGA; a tabular base gives the tabular tensor
    with Lambda(nu on one odd generator), labels "y" and "y*<label>".
    """
    if not base.d(e).is_zero():
        raise NotACocycle("Euler class is not closed")
    if not e.is_homogeneous() or e.degree() not in (None, 2):
        raise WrongDegree("circle-bundle Euler class must have degree 2")
    if isinstance(base, DGA):
        names = {g.name for g in base.algebra.generators}
        yname = _fresh_y(names.__contains__)
        gens = [(g.name, g.degree) for g in base.algebra.generators]
        gens.append((yname, 1))
        alg = Algebra(gens)
        imgs = {g.name: Element(alg, dict(base.images[g.ordinal].terms))
                for g in base.algebra.generators}
        imgs[yname] = Element(alg, dict(e.terms))
        return DGA(alg, imgs)
    return _tabular_circle_bundle(base, e)


def _fresh_y(taken):
    """The first of y, y0, y1, ... that taken(name) does not reject."""
    name, n = "y", 0
    while taken(name):
        name, n = f"y{n}", n + 1
    return name


def _tabular_circle_bundle(base: TabularDGA, e):
    nbase = len(base.labels)
    yname = _fresh_y(lambda y: y in base.index or any(
        f"{y}*{lab}" in base.index for lab in base.labels))

    def ylab(i):
        return yname if i == base.unit else f"{yname}*{base.labels[i]}"

    basis = list(zip(base.labels, base.degrees))
    basis += [(ylab(i), base.degrees[i] + 1) for i in range(nbase)]
    products = {}
    for i in range(nbase):
        for j in range(i, nbase):
            if i == base.unit or j == base.unit:
                continue
            entry = base.mul_basis(i, j)
            if entry:
                products[(base.labels[i], base.labels[j])] = {
                    base.labels[k]: c for k, c in entry.items()}
    for i in range(nbase):
        for j in range(nbase):
            if j == base.unit:
                continue
            entry = base.mul_basis(i, j)   # (y*m_i) * m_j = y*(m_i m_j)
            if entry:
                products[(ylab(i), base.labels[j])] = {
                    ylab(k): c for k, c in entry.items()}
    differential = {}
    for i in range(nbase):
        if i in base.diff:
            differential[base.labels[i]] = {
                base.labels[k]: c for k, c in base.diff[i].items()}
        # d(y*m) = e*m - y*dm
        dy_m = {}
        em = base.gen(base.labels[i]) * e
        for k, c in em.terms.items():
            dy_m[base.labels[k]] = dy_m.get(base.labels[k], Fraction(0)) + c
        for k, c in base.diff.get(i, {}).items():
            dy_m[ylab(k)] = dy_m.get(ylab(k), Fraction(0)) - c
        dy_m = {lab: c for lab, c in dy_m.items() if c}
        if dy_m:
            differential[ylab(i)] = dy_m
    return TabularDGA(basis, products, differential)


def s4_model() -> DGA:
    """Lambda(a_4, u_7), du = a^2: the rational model of the 4-sphere."""
    alg = Algebra([("a", 4), ("u", 7)])
    return DGA(alg, {"u": alg.gen("a") ** 2})


def s3_bundle_model(base_s4: DGA, e) -> DGA:
    """Total space of an S^3-bundle over the S^4 model: adds b_3, Db = e*a."""
    gens = sorted(((g.name, g.degree) for g in base_s4.algebra.generators),
                  key=lambda t: t[1])
    if [d for _, d in gens] != [4, 7]:
        raise WrongDegree("base must be the S^4 model Lambda(a_4, u_7)")
    aname, uname = gens[0][0], gens[1][0]
    if base_s4.d(base_s4.gen(uname)) != base_s4.gen(aname) ** 2:
        raise WrongDegree("base must satisfy du = a^2")
    bname = "b" if "b" not in (aname, uname) else "b0"
    alg = Algebra([(bname, 3), (aname, 4), (uname, 7)])
    a = alg.gen(aname)
    return DGA(alg, {bname: a * Fraction(e), uname: a ** 2})


def cp2_model() -> DGA:
    """Lambda(a_2, x_5), dx = a^3: the rational model of CP^2."""
    alg = Algebra([("a", 2), ("x", 5)])
    return DGA(alg, {"x": alg.gen("a") ** 3})


def lens_bundle_cp2_model(e) -> DGA:
    """Rational S^3-fibration over CP^2: Lambda(a_2, u_3, x_5), du = e*a^2."""
    alg = Algebra([("a", 2), ("u", 3), ("x", 5)])
    a = alg.gen("a")
    return DGA(alg, {"x": a ** 3, "u": a * a * Fraction(e)})


def s1s2_bundle_cp2_model(e, f, h):
    """S^1 x S^2 bundle over CP^2, after normalization: (DGA, ledger).

    The raw extension differential Dy = c^2 + f*a^2 + h*a*c is normalized by
    c -> c + (h/2)*a, which trades (f, h) for (f - h^2/4, 0); the cross term
    Dc = g*a*b is forced to g = 0 by D^2(y) = 2g*a*b*c = 0.  The ledger
    records the effective coefficient f_tilde.
    """
    f_tilde = Fraction(f) - Fraction(h) ** 2 / 4
    alg = Algebra([("b", 1), ("a", 2), ("c", 2), ("y", 3), ("x", 5)])
    a, c = alg.gen("a"), alg.gen("c")
    dga = DGA(alg, {
        "b": a * Fraction(e),
        "y": c * c + a * a * f_tilde,
        "x": a ** 3,
    })
    ledger = {"e": Fraction(e), "f": Fraction(f), "h": Fraction(h),
              "f_tilde": f_tilde, "g": Fraction(0)}
    return dga, ledger


def _check_degree(summary, r):
    if not 0 <= r <= summary.max_degree:
        raise DegreeGap(f"degree {r} is outside 0..{summary.max_degree}")


class CohomologyAutomorphism:
    """An algebra automorphism of H^*, one invertible matrix per degree.

    Matrices act on the representative basis of the given summary: column i
    of the degree-r matrix is rho(x_i) for representative x_i.  Missing
    degrees can be completed through the top-degree cup pairing.
    """

    def __init__(self, summary: CohomologySummary, matrices, provenance=()):
        self.summary = summary
        self.matrices = {}
        self.provenance = list(provenance)
        for r, m in matrices.items():
            _check_degree(summary, r)
            m = m if isinstance(m, Matrix) else Matrix(m, cols=summary.betti[r])
            if m.rows != summary.betti[r] or m.cols != summary.betti[r]:
                raise exactla.DimensionMismatch(
                    f"degree-{r} matrix does not match b_{r} = {summary.betti[r]}")
            if summary.betti[r] and not m.is_invertible():
                raise ValueError(f"degree-{r} matrix is singular")
            self.matrices[r] = m

    @classmethod
    def identity(cls, summary):
        return cls(summary, {r: Matrix.identity(summary.betti[r])
                             for r in range(summary.max_degree + 1)},
                   provenance=["identity on every degree"])

    @classmethod
    def from_dga_automorphism(cls, summary, gen_images):
        """Induced map of a chain-map algebra endomorphism given on generators."""
        dga = summary.source
        phi = DgaMorphism(dga, dga, gen_images)
        phi.check_chain_map()
        mats = {r: induced(phi, summary, summary, r)
                for r in range(summary.max_degree + 1)}
        return cls(summary, mats,
                   provenance=["induced by an algebra automorphism that "
                               "commutes with the differential"])

    @classmethod
    def from_partial(cls, summary, partial, top_degree, top_sign=1):
        """Completes given degree matrices via the cup pairing into H^top.

        The given matrices are checked as the constructor checks them.  For
        each known degree r with unknown complement n-r, <rho x, rho y> =
        top_sign * <x, y> gives A M_{n-r} = top_sign * P, with A[i][j] =
        <rho x_i, y_j> and P[i][j] = <x_i, y_j>: one solve per column of
        M_{n-r} on A, which is invertible or raises DegreeGap.  Degrees with
        b_r = 0 need no data.
        """
        n = top_degree
        _check_degree(summary, n)
        if summary.betti[n] != 1:
            raise ValueError("duality completion needs one-dimensional H^top")
        zero = {r: [] for r, b in enumerate(summary.betti) if not b}
        rho = cls(summary, {**zero, n: [[top_sign]], 0: Matrix.identity(1),
                            **partial}, provenance=[
            f"orientation action on H^{n} fixed to {top_sign:+d}"])
        mats = rho.matrices

        def pair(x, y):
            return summary.class_coords(x * y, degree=n)[1][0]

        for r in sorted(mats):
            cr = n - r
            if not 0 <= cr <= summary.max_degree or cr in mats:
                continue
            ys = summary.representatives[cr]
            a = Matrix([[pair(rx, y) for y in ys]
                        for rx in rho._images(r)], cols=len(ys))
            # one elimination both solves and shows A invertible
            solver = exactla.LinearSolver(a._columns(), a.rows, a._den)
            if not solver.rows == solver.cols == solver.rank:
                raise DegreeGap(f"cannot complete degree {cr} by duality")
            mats[cr] = Matrix.from_columns(
                [solver.solve([top_sign * pair(x, y)
                               for x in summary.representatives[r]])
                 for y in ys], len(ys))
            rho.provenance.append(f"degree-{cr} action derived from the "
                                  f"degree-{r} action through the cup pairing")
        missing = [r for r in range(summary.max_degree + 1) if r not in mats]
        if missing:
            raise DegreeGap(f"no matrix for degree {missing[0]}")
        return rho

    def _images(self, r):
        """rho(x_i) of each degree-r representative x_i: column i of M_r."""
        m, reps = self.matrices[r], self.summary.representatives[r]
        return [self.summary.ctx.algebra.from_terms(linear_combination(
            (Fraction(x, m._den), reps[a].terms)
            for a, x in sorted(col.items()))) for col in m._columns()]

    def matrix(self, r) -> Matrix:
        if r not in self.matrices:
            raise DegreeGap(f"automorphism not defined in degree {r}")
        return self.matrices[r]

    def cup_compatibility_failures(self):
        """Representative pairs where rho(x . y) != rho(x) . rho(y)."""
        s = self.summary
        images = {r: self._images(r) for r in self.matrices}
        bad = []
        for p in range(s.max_degree + 1):
            for q in range(p, s.max_degree + 1 - p):
                if not {p, q, p + q} <= images.keys():
                    continue
                for i, ri in enumerate(s.representatives[p]):
                    for j, rj in enumerate(s.representatives[q]):
                        _, prod = s.class_coords(ri * rj, degree=p + q)
                        lhs = self.matrices[p + q].apply(prod)
                        _, rhs = s.class_coords(images[p][i] * images[q][j],
                                                degree=p + q)
                        if lhs != rhs:
                            bad.append((p, i, q, j))
        return bad


def mapping_torus_cohomology(h: CohomologySummary, rho: CohomologyAutomorphism,
                             with_cup=True) -> CohomologySummary:
    """Cohomology of the mapping torus of an automorphism of H^*(fibre).

    Degree r of the torus is ker(rho*-id on H^r) plus nu wedge the cokernel
    of (rho*-id on H^{r-1}); the result is packaged as the cohomology of a
    tabular algebra with zero differential, labels "k<r>.<i>" for the
    invariant part and "nu", "nu.k<r>.<i>" for the nu-parts.  Invariant
    classes are the kernel's RREF rows; cokernel coordinates come from one
    LinearSolver per degree.
    """
    n = h.max_degree
    kers, kelems, cokers, ims, solvers = {}, {}, {}, {}, {}
    for r in range(n + 1):
        m = rho.matrix(r)
        # rho* - id over m's denominator: the diagonal loses den
        a = Matrix._of_int(
            [{j: x for j, x in {**row, i: row.get(i, 0) - m._den}.items() if x}
             for i, row in enumerate(m._int)], m.cols, m._den)
        kers[r] = exactla.kernel(a)
        kelems[r] = list(_row_elements(h.ctx.algebra, kers[r],
                                       h.representatives[r]))
        ims[r] = exactla.image(a)
        cokers[r] = exactla.complement(ims[r])

    def klab(r, i):
        return "1" if r == 0 else f"k{r}.{i}"

    def nlab(r, i):
        return "nu" if r == 1 else f"nu.k{r - 1}.{i}"

    basis = []
    for r in range(n + 1):
        for i in range(kers[r].dim):
            basis.append((klab(r, i), r))
    for r in range(1, n + 2):
        for i in range(len(cokers[r - 1])):
            basis.append((nlab(r, i), r))

    def coker_coords(r, vec):
        if r not in solvers:    # the columns span H^r: every class solves
            solvers[r] = exactla.LinearSolver(
                [{i: 1} for i in cokers[r]] + ims[r]._rows, h.betti[r])
        return solvers[r].solve(vec)[:len(cokers[r])]

    products = {}

    def put(la, lb, entry):
        entry = {lab: c for lab, c in entry.items() if c}
        if entry:
            products[(la, lb)] = entry

    for r in range(1, n + 1):
        for rr in range(r, n + 1 - r):
            for i, ei in enumerate(kelems[r]):
                for j, ej in enumerate(kelems[rr]):
                    if (r, i) > (rr, j):
                        continue
                    _, prod = h.class_coords(ei * ej, degree=r + rr)
                    coeffs = kers[r + rr].coordinates(prod)
                    put(klab(r, i), klab(rr, j),
                        {klab(r + rr, t): c for t, c in enumerate(coeffs)})
    for r in range(1, n + 2):           # nu-part times invariant part
        for rr in range(1, n + 2 - r):
            prod_deg = r - 1 + rr       # at most n
            for i, ci in enumerate(cokers[r - 1]):
                ec = h.representatives[r - 1][ci]
                for j, ej in enumerate(kelems[rr]):
                    _, prod = h.class_coords(ec * ej, degree=prod_deg)
                    coeffs = coker_coords(prod_deg, prod)
                    put(nlab(r, i), klab(rr, j),
                        {nlab(prod_deg + 1, t): c
                         for t, c in enumerate(coeffs)})

    tab = TabularDGA(basis, products, {})
    return compute(tab, n + 1, with_cup=with_cup)


# --------------------------------------------------------------------------
# named corpus
# --------------------------------------------------------------------------

@dataclass
class CorpusEntry:
    name: str
    kind: str                 # "dga" | "tabular" | "cohomology"
    obj: object
    dimension: int
    parameters: dict = field(default_factory=dict)
    provenance: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def s2_cubed_model() -> DGA:
    """Model of (S^2)^3: Lambda(a_i:2, x_i:3), dx_i = a_i^2."""
    gens = [(f"a{i}", 2) for i in (1, 2, 3)] + [(f"x{i}", 3) for i in (1, 2, 3)]
    alg = Algebra(gens)
    return DGA(alg, {f"x{i}": alg.gen(f"a{i}") ** 2 for i in (1, 2, 3)})


def q_model(e=(1, 1, 1)) -> DGA:
    """Circle bundle over (S^2)^3 with Euler class e1*a1 + e2*a2 + e3*a3."""
    base = s2_cubed_model()
    alg = base.algebra
    expr = alg.zero()
    for i, ei in enumerate(e, start=1):
        expr = expr + alg.gen(f"a{i}") * Fraction(ei)
    return circle_bundle_model(base, expr)


def del_pezzo_s2_tabular(k) -> TabularDGA:
    """(H^*(P_k x S^2), 0): P_k a k-point blow-up of the projective plane.

    Degree-2 classes a, a_1..a_k, b with a^2 = -a_i^2 = nu, a*a_i = 0,
    a_i*a_j = 0 (i != j), b^2 = 0; top class nu*b in degree 6.
    """
    basis = [("1", 0), ("a", 2)] + [(f"a{i}", 2) for i in range(1, k + 1)]
    basis += [("b", 2), ("nu", 4), ("ab", 4)]
    basis += [(f"a{i}b", 4) for i in range(1, k + 1)]
    basis += [("nub", 6)]
    products = {
        ("a", "a"): {"nu": 1},
        ("b", "b"): {},
        ("a", "b"): {"ab": 1},
        ("a", "nu"): {},
        ("a", "ab"): {"nub": 1},
        ("nu", "b"): {"nub": 1},
        ("ab", "ab"): {},
    }
    for i in range(1, k + 1):
        products[(f"a{i}", f"a{i}")] = {"nu": -1}
        products[("a", f"a{i}")] = {}
        products[(f"a{i}", "b")] = {f"a{i}b": 1}
        products[(f"a{i}", "ab")] = {}
        products[("a", f"a{i}b")] = {}
        products[(f"a{i}", f"a{i}b")] = {"nub": -1}
        for j in range(i + 1, k + 1):
            products[(f"a{i}", f"a{j}")] = {}
            products[(f"a{i}", f"a{j}b")] = {}
            products[(f"a{j}", f"a{i}b")] = {}
    return TabularDGA(basis, products, {})


def s_k_model(k, epsilon=None, big_n=None):
    """Circle bundle over (H^*(P_k x S^2), 0) with Euler class
    N*(a - sum_i eps_i a_i + b); returns (TabularDGA, parameter ledger)."""
    k = _integer("k", k)
    if not 3 <= k <= 8:
        raise ParamOutOfRange("k must satisfy 3 <= k <= 8")
    eps = _rationals("epsilon", epsilon if epsilon is not None
                     else [Fraction(1, 2 * k)] * k, k)
    big_n = _integer("N", big_n) if big_n is not None else 2 * k
    if big_n <= 0:
        raise ParamOutOfRange("N must be positive")
    if any(e <= 0 for e in eps):
        raise ParamOutOfRange("epsilon_i must be positive")
    if sum(eps) >= 1:
        raise ParamOutOfRange("sum of epsilon_i must be < 1")
    if any((big_n * e).denominator != 1 for e in eps):
        raise ParamOutOfRange("N*epsilon_i must all be integers")
    base = del_pezzo_s2_tabular(k)
    expr = base.gen("a") + base.gen("b")
    for i, e in enumerate(eps, start=1):
        expr = expr - base.gen(f"a{i}") * e
    expr = expr * Fraction(big_n)
    ledger = {"k": k, "epsilon": eps, "N": big_n}
    return circle_bundle_model(base, expr), ledger


def x6_model(f=1) -> DGA:
    """S^2-bundle over CP^2: Lambda(a_2, c_2, y_3, x_5), dy = c^2 + f*a^2,
    dx = a^3."""
    alg = Algebra([("a", 2), ("c", 2), ("y", 3), ("x", 5)])
    a, c = alg.gen("a"), alg.gen("c")
    return DGA(alg, {"y": c * c + a * a * Fraction(f), "x": a ** 3})


def _free_line_model():
    """Lambda(a_1), d = 0."""
    alg = Algebra([("a", 1)])
    return DGA(alg, {})


def _circle_times_s2_like_model():
    """Lambda(a_1, b_2, x_3), dx = b^2: minimal model with Betti 1,1,1,1."""
    alg = Algebra([("a", 1), ("b", 2), ("x", 3)])
    return DGA(alg, {"x": alg.gen("b") ** 2})


def _q111_torus_entry():
    dga = q_model((1, 1, 1))
    h = compute(dga, 7, with_cup=False)
    rho = CohomologyAutomorphism.from_dga_automorphism(h, {
        "a1": dga.gen("a2"), "a2": dga.gen("a1"), "a3": dga.gen("a3"),
        "x1": dga.gen("x2"), "x2": dga.gen("x1"), "x3": dga.gen("x3"),
        "y": dga.gen("y")})
    rho.provenance.append(
        "degree-2 action swaps the two surviving classes; higher degrees "
        "induced by the generator swap a1<->a2, x1<->x2")
    torus = mapping_torus_cohomology(h, rho)
    return CorpusEntry(
        name="q111-torus", kind="cohomology", obj=torus, dimension=8,
        parameters={"e": (1, 1, 1)},
        provenance=["mapping torus of the swap automorphism of the "
                    "Q(1,1,1) model"] + rho.provenance,
        metadata={"fibre": "q111", "rho": rho,
                  "formality_model": _circle_times_s2_like_model()})


def _berger_torus_entry():
    dga = s3_bundle_model(s4_model(), -10)
    h = compute(dga, 7, with_cup=False)
    rho = CohomologyAutomorphism.identity(h)
    torus = mapping_torus_cohomology(h, rho)
    return CorpusEntry(
        name="berger-torus", kind="cohomology", obj=torus, dimension=8,
        provenance=["mapping torus of a rational homology 7-sphere; the "
                    "identity is the only rational cohomology automorphism"],
        metadata={"fibre": "berger", "rho": rho,
                  "formality_model": _free_line_model()})


def _w_torus_entry(rho_kind="id"):
    dga = lens_bundle_cp2_model(1)
    h = compute(dga, 7, with_cup=False)
    if rho_kind == "id":
        rho = CohomologyAutomorphism.identity(h)
        model = _circle_times_s2_like_model()
    elif rho_kind == "flip":
        rho = CohomologyAutomorphism.from_partial(
            h, {2: [[Fraction(-1)]]}, top_degree=7, top_sign=1)
        model = _free_line_model()
    else:
        raise ParamOutOfRange("rho must be 'id' or 'flip'")
    torus = mapping_torus_cohomology(h, rho)
    return CorpusEntry(
        name="w-torus", kind="cohomology", obj=torus, dimension=8,
        parameters={"rho": rho_kind},
        provenance=["mapping torus over the rational S^2 x S^5 cohomology; "
                    "degree-5 action completed through the cup pairing with "
                    "orientation sign +1"],
        metadata={"fibre": "aloff-wallach", "rho": rho,
                  "formality_model": model})


def corpus(name, **params) -> CorpusEntry:
    """A named, validated example model with its parameter ledger."""
    key = name.lower().replace("_", "-")
    if key == "q111":
        e = params.pop("e", (1, 1, 1))
        _reject_extra(params)
        _rationals("e", e, 3)
        return CorpusEntry(
            name="q111", kind="dga", obj=q_model(e), dimension=7,
            parameters={"e": tuple(e)},
            provenance=[f"circle bundle over (S^2)^3 with Euler class "
                        f"{e[0]}*a1 + {e[1]}*a2 + {e[2]}*a3"])
    if key in ("s-k", "sk"):
        if "k" not in params:
            raise ParamOutOfRange("s_k needs the parameter k")
        k = params.pop("k")
        eps = params.pop("epsilon", None)
        big_n = params.pop("N", None)
        _reject_extra(params)
        obj, ledger = s_k_model(k, eps, big_n)
        return CorpusEntry(
            name=f"s_{ledger['k']}", kind="tabular", obj=obj, dimension=7,
            parameters=ledger,
            provenance=["circle bundle over the formal model of "
                        f"P_{ledger['k']} x S^2 with Euler class "
                        "N*(a - sum_i eps_i*a_i + b)"],
            metadata={"defaults": "epsilon_i = 1/(2k), N = 2k"})
    if key == "berger":
        _reject_extra(params)
        return CorpusEntry(
            name="berger", kind="dga", obj=s3_bundle_model(s4_model(), -10),
            dimension=7, parameters={"e": -10},
            provenance=["S^3-bundle over S^4 with Euler number -10"])
    if key == "aloff-wallach":
        k = _integer("k", params.pop("k", 1))
        l = _integer("l", params.pop("l", 1))
        _reject_extra(params)
        if k == 0 and l == 0:
            raise ParamOutOfRange("(k, l) must be nonzero")
        p = abs(k + l)
        if p > 0:
            obj = lens_bundle_cp2_model(p)
            prov = [f"rational S^3-fibration over CP^2, lens fibre of "
                    f"order p = |k+l| = {p}, Euler coefficient e = p"]
        else:
            obj, ledger = s1s2_bundle_cp2_model(1, 0, 0)
            prov = ["S^1 x S^2 bundle over CP^2 with e = 1, f = h = 0 "
                    "(the rational model when k + l = 0)"]
        return CorpusEntry(
            name="aloff-wallach", kind="dga", obj=obj, dimension=7,
            parameters={"k": k, "l": l, "p": p}, provenance=prov,
            metadata={"note": "torsion between lens fibres is invisible "
                              "rationally; recorded as metadata only"})
    if key == "x6":
        f = _rational("f", params.pop("f", 1))
        _reject_extra(params)
        return CorpusEntry(
            name="x6", kind="dga", obj=x6_model(f), dimension=6,
            parameters={"f": f},
            provenance=["S^2-bundle over CP^2 with twisting coefficient f"])
    if key == "q111-torus":
        _reject_extra(params)
        return _q111_torus_entry()
    if key == "berger-torus":
        _reject_extra(params)
        return _berger_torus_entry()
    if key == "w-torus":
        rho_kind = params.pop("rho", "id")
        _reject_extra(params)
        return _w_torus_entry(rho_kind)
    raise UnknownCorpusEntry(f"no corpus entry named {name!r}")


CORPUS_NAMES = ("q111", "s_k", "berger", "aloff-wallach", "x6",
                "q111-torus", "berger-torus", "w-torus")


def _reject_extra(params):
    if params:
        raise ParamOutOfRange(f"unknown parameters: {sorted(params)}")


def _integer(name, value):
    """value as an int, from an int or a string of one (a float such as 2.5
    is refused, not truncated); ParamOutOfRange naming name otherwise."""
    if type(value) in (int, str) and str(value).removeprefix("-").isdecimal():
        return int(value)
    raise ParamOutOfRange(f"{name} must be an integer, not {value!r}")


def _rational(name, value):
    """Fraction(value); ParamOutOfRange naming name if value is no rational."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ParamOutOfRange(
            f"{name} must be a rational, not {value!r}") from None


def _rationals(name, values, count):
    """The Fractions of values, a tuple or list of count rationals, as a
    tuple; ParamOutOfRange naming name otherwise."""
    if not isinstance(values, (tuple, list)) or len(values) != count:
        raise ParamOutOfRange(f"{name} must have {count} components")
    return tuple(_rational(name, x) for x in values)
