"""Sullivan minimal models, quasi-isomorphisms, and formality verdicts.

Minimal models are built stage by stage for targets with H^0 = Q, H^1 = 0:
at degree k, closed generators are added to surject onto H^k of the target,
then generators of degree k whose differentials kill the kernel of
H^{k+1}(model) -> H^{k+1}(target).  Each stage computes the model's
cohomology once, before (a): every generator has degree >= 2, so no
degree-(k+1) monomial holds a closed generator of degree k, and (a) leaves
H^{k+1}, its representatives and their images as they were.  One
monomial -> image memo serves every stage's morphism to the target and
the one returned: generators are only appended and no generator's image
changes, so an image computed at one stage holds at every later one.

The s-formality check uses the canonical splitting C^i = ker(d|V^i) with
the echelon complement as N^i.  Its ideal elements are the images of
monomials in a free algebra on the C and N basis vectors.  The check
reports that fact as Inconclusive either way: the definition quantifies
existentially over splittings, so a failed check is never NonFormal.
formality() alone turns facts into verdicts: it applies both manifold
theorems, the dimension-7 b2 shortcut and "s-formal implies formal", and
takes NonFormal from massey.massey_search, which this module re-exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import exactla
from .cohomology import ChainComplex, CohomologySummary, compute
from .dga import DGA
from .errors import (BoundTooLow, MixedAlgebra, ModelTooLarge, NotAChainMap,
                     NotMinimal, NotSimplyConnected, WrongDegree)
from .exactla import Matrix
from .gca import Algebra, Element, linear_combination
from .massey import massey_search

DEFAULT_DIM_BUDGET = 6000
DEFAULT_GEN_BUDGET = 300


class DgaMorphism:
    """A degree-0 algebra morphism DGA -> DGA/TabularDGA on generators."""

    def __init__(self, domain: DGA, codomain, images):
        """images maps generator names of the domain to codomain elements,
        each of its generator's degree or zero."""
        self.domain = domain
        self.codomain = codomain
        self.images = {}
        for g in domain.algebra.generators:
            img = images.get(g.name)
            if img is None:
                raise KeyError(f"no image for generator {g.name}")
            if img.algebra is not codomain.algebra:
                raise MixedAlgebra(
                    f"image of {g.name} lives in another algebra")
            if {img.algebra.key_degree(m) for m in img.terms} - {g.degree}:
                raise WrongDegree(f"image of {g.name} is not of degree "
                                  f"{g.degree}: {img}")
            self.images[g.ordinal] = img
        unknown = set(images) - {g.name for g in domain.algebra.generators}
        if unknown:
            raise KeyError(f"images for unknown generators: {sorted(unknown)}")
        self._mono_images = {(): codomain.one()}  # monomial -> its image

    def _image(self, mono):
        """Image of a normal-form monomial, as image(prefix) * image(last
        factor); each monomial and prefix is evaluated once per memo.  The
        memo is keyed by generator ordinals, so a morphism whose domain
        extends another's by appended generators, with the same images on
        the old ones, may take over its memo (minimal_model's stages do)."""
        memo = self._mono_images
        img = memo.get(mono)
        chain = []
        while img is None:
            chain.append(mono)
            gi, exp = mono[-1]
            mono = mono[:-1] + (((gi, exp - 1),) if exp > 1 else ())
            img = memo.get(mono)
        for mono in reversed(chain):
            img = memo[mono] = img * self.images[mono[-1][0]]
        return img

    def __call__(self, e: Element):
        return self.codomain.algebra.from_terms(linear_combination(
            (c, self._image(mono).terms) for mono, c in e.terms.items()))

    def chain_map_failures(self):
        """Generators on which phi(d g) != d(phi g)."""
        bad = []
        for g in self.domain.algebra.generators:
            lhs = self(self.domain.d(self.domain.gen(g.name)))
            rhs = self.codomain.d(self.images[g.ordinal])
            if lhs != rhs:
                bad.append(g.name)
        return bad

    def check_chain_map(self):
        bad = self.chain_map_failures()
        if bad:
            raise NotAChainMap(f"fails on generators: {', '.join(bad)}")


def induced(phi, source, target, k):
    """The matrix of H^k(phi) from source's summary to target's: column i
    holds the class coordinates of phi(representative i)."""
    return Matrix.from_columns(
        [target.class_coords(phi(r), degree=k)[1]
         for r in source.representatives[k]], target.betti[k])


def is_quasi_iso(f: DgaMorphism, max_degree, codomain_summary=None):
    """(bool, per-degree report) for H^k(f) being an isomorphism, k <= bound."""
    f.check_chain_map()
    ds = compute(f.domain, max_degree, with_cup=False)
    cs = codomain_summary
    if cs is None:
        cs = compute(f.codomain, max_degree, with_cup=False)
    else:
        cs.require(f.codomain, max_degree)
    report = []
    ok = True
    for k in range(max_degree + 1):
        rank = induced(f, ds, cs, k).rank()
        iso = ds.betti[k] == cs.betti[k] and rank == ds.betti[k]
        report.append({"degree": k, "domain_betti": ds.betti[k],
                       "codomain_betti": cs.betti[k], "rank": rank,
                       "isomorphism": iso})
        ok = ok and iso
    return ok, report


@dataclass
class SullivanModel:
    dga: DGA
    morphism: DgaMorphism
    target: object
    built_degree: int
    target_summary: CohomologySummary  # covers at least built_degree + 1
    stage_ledger: dict = field(default_factory=dict)

    def generator_ledger(self):
        """degree -> number of generators of that degree."""
        out = {}
        for g in self.dga.algebra.generators:
            out[g.degree] = out.get(g.degree, 0) + 1
        return dict(sorted(out.items()))


def _row_elements(alg, space, elements):
    """The elements, one per RREF row of space, sum_i (row[i] / row[p]) *
    elements[i] over ascending i, p the row's pivot."""
    return (alg.from_terms(linear_combination(
        (Fraction(row[i], row[p]), elements[i].terms) for i in sorted(row)))
        for row, p in zip(space._rows, space.pivots))


def _guard_dims(alg: Algebra, stage, max_dim):
    """ModelTooLarge unless every piece through degree stage + 2 fits."""
    count = len(alg.generators)
    for k in range(stage + 3):
        dim = len(alg.degree_basis(k))
        if dim > max_dim:
            raise ModelTooLarge(
                f"stage {stage}: the degree-{k} piece has dimension {dim} > "
                f"max_dim {max_dim}, with {count} generators; the target is "
                "too rationally hyperbolic for this bound", stage=stage,
                degree=k, dimension=dim, generators=count)


def _guard_gens(stage, count, max_gens):
    if count > max_gens:
        raise ModelTooLarge(
            f"stage {stage}: {count} generators > max_gens {max_gens}",
            stage=stage, generators=count)


def minimal_model(target, max_degree, max_dim=DEFAULT_DIM_BUDGET,
                  max_gens=DEFAULT_GEN_BUDGET, summary=None) -> SullivanModel:
    """Staged minimal model of a 1-connected DGA or TabularDGA.

    A precomputed cohomology summary of target covering degree
    max_degree + 1 may be passed in.  Stage k raises ModelTooLarge, with
    its stage, degree, dimension and generators set as far as they apply,
    when a piece through degree k + 2 has more than max_dim elements or
    the model has more than max_gens generators.
    """
    if max_degree < 2:
        raise BoundTooLow("max_degree must be >= 2")
    if summary is None:
        summary = compute(target, max_degree + 1, with_cup=False)
    else:
        summary.require(target, max_degree + 1)
    target_summary = summary
    if target_summary.betti[0] != 1:
        raise NotSimplyConnected("target is not connected (H^0 != Q)")
    if target_summary.betti[1] != 0:
        raise NotSimplyConnected("target has H^1 != 0")

    gens = []            # (name, degree), append-only
    d_images = {}        # name -> Element (of the latest algebra)
    phi_images = {}      # name -> target element, never reassigned
    memo = {(): target.one()}  # monomial -> image, for every stage's phi
    ledger = {}

    def morphism():
        phi = DgaMorphism(model, target, phi_images)
        phi._mono_images = memo
        return phi

    def build():
        alg = Algebra(gens)
        # generator lists are append-only, so monomial indices stay valid
        imgs = {name: Element(alg, dict(e.terms))
                for name, e in d_images.items()}
        return DGA(alg, imgs)

    model = build()
    for k in range(2, max_degree + 1):
        ledger[k] = {"surjective": [], "kernel": []}
        _guard_dims(model.algebra, k, max_dim)
        summary = compute(model, k + 1, with_cup=False)
        phi = morphism()

        # (a) closed generators to surject onto H^k(target)
        img = exactla.image(induced(phi, summary, target_summary, k))
        for n, i in enumerate(exactla.complement(img)):
            name = f"w{k}_{n}"
            gens.append((name, k))
            phi_images[name] = target_summary.representatives[k][i]
            ledger[k]["surjective"].append(name)
        _guard_gens(k, len(gens), max_gens)

        # (b) generators of degree k killing ker H^{k+1}(phi); (a) left
        # H^{k+1} as it was, so summary and phi still serve
        kernel_classes = exactla.kernel(
            induced(phi, summary, target_summary, k + 1))
        new = []
        for z in _row_elements(model.algebra, kernel_classes,
                               summary.representatives[k + 1]):
            primitive = target_summary.is_exact(phi(z))
            if primitive is None:
                raise AssertionError("kernel class image not exact in target")
            new.append((f"v{k}_{len(new)}", z, primitive))
        for name, z, primitive in new:
            gens.append((name, k))
            d_images[name] = z  # re-transplanted on the next build()
            phi_images[name] = primitive
            ledger[k]["kernel"].append(name)
        if ledger[k]["surjective"] or new:
            model = build()
        _guard_gens(k, len(gens), max_gens)

    return SullivanModel(dga=model, morphism=morphism(), target=target,
                         built_degree=max_degree,
                         target_summary=target_summary, stage_ledger=ledger)


@dataclass
class FormalityVerdict:
    status: str                      # "Formal" | "NonFormal" | "Inconclusive"
    s: int = None
    degree_cap: int = None
    formal_dimension: int = None
    s_formal: bool = None
    splitting: dict = None           # i -> {"C": dim, "N": dim}
    witness: dict = None
    notes: list = field(default_factory=list)


def required_s(dimension):
    """Smallest s with 's-formal implies formal' for compact orientable
    manifolds of that dimension."""
    return (dimension + 1) // 2 - 1


def s_formality_check(model, s, degree_cap,
                      max_dim=DEFAULT_DIM_BUDGET) -> FormalityVerdict:
    """s-formality of a minimal model via the canonical C/N splitting: an
    Inconclusive verdict with s_formal, the splitting and a witness.

    `model` is a SullivanModel or a minimal DGA.  Exactness of closed ideal
    elements is certified inside the model when it stands alone, or through
    the quasi-isomorphism to the target when one is attached (the class of a
    closed element vanishes in the full model iff its image is exact in the
    target), on the chain complex of the model's target summary.  An image
    among the coboundaries that summary holds needs no solve.
    """
    if isinstance(model, SullivanModel):
        dga, morphism = model.dga, model.morphism
    else:
        dga, morphism = model, None
    if not dga.is_minimal():
        raise NotMinimal("differential has a linear part")
    if degree_cap < s + 1:
        raise BoundTooLow("degree_cap must be >= s + 1")

    alg = dga.algebra
    ctx = ChainComplex(dga)
    exact_in = ctx if morphism is None else model.target_summary.ctx
    # degree -> the coboundaries of the target its summary already holds
    held = {} if morphism is None else model.target_summary.coboundaries

    # canonical splitting of V^i, i <= s: one pseudo-generator per C or N
    # basis vector, in degree order with C before N
    splitting = {}
    pseudo = []          # (name, degree)
    images = {}          # name -> element of the model
    n_parts = set()      # ordinals of the N pseudo-generators
    for i in range(1, s + 1):
        vi = [alg.gen(g.name) for g in alg.generators if g.degree == i]
        if not vi:
            splitting[i] = {"C": 0, "N": 0}
            continue
        c_space = exactla.kernel(
            ctx.columns(i + 1, [dga.d(g).terms for g in vi]))
        n_gens = [vi[j] for j in exactla.complement(c_space)]
        splitting[i] = {"C": c_space.dim, "N": len(n_gens)}
        # the C parts are c_space's RREF rows, the N parts generators of V^i
        for tag, parts in (("C", _row_elements(alg, c_space, vi)),
                           ("N", n_gens)):
            for part in parts:
                if tag == "N":
                    n_parts.add(len(pseudo))
                name = f"{tag}{len(pseudo)}"
                pseudo.append((name, i))
                images[name] = part
    palg = Algebra(pseudo)
    # an algebra morphism only: its memoised monomial images are the products
    products = DgaMorphism(DGA(palg, {}), dga, images)

    def exponents(mono):
        out = [0] * len(pseudo)
        for j, e in mono:
            out[j] = e
        return out

    # closed elements of the ideal generated by the N parts, degree <= cap,
    # from the pseudo monomials in exponent-vector order
    for m_deg in range(1, degree_cap + 1):
        ideal_elems = []
        for mono in sorted(palg.degree_basis(m_deg), key=exponents):
            if any(j in n_parts for j, _ in mono):
                e = products._image(mono)
                if not e.is_zero():
                    ideal_elems.append(e)
        if not ideal_elems:
            continue
        for k in (m_deg, m_deg + 1):
            if ctx.dim(k) > max_dim:
                raise ModelTooLarge(
                    f"s-formality: the degree-{k} piece has dimension "
                    f"{ctx.dim(k)} > max_dim {max_dim}", degree=k,
                    dimension=ctx.dim(k))
        closed = exactla.kernel(
            ctx.columns(m_deg + 1, [dga.d(e).terms for e in ideal_elems]))
        for z in _row_elements(alg, closed, ideal_elems):
            if z.is_zero():
                continue
            image = z if morphism is None else morphism(z)
            if m_deg in held and held[m_deg].member(
                    exact_in.coords(image, m_deg)):
                continue
            if exact_in.is_exact(image) is None:
                return FormalityVerdict(
                    status="Inconclusive", s=s, degree_cap=degree_cap,
                    s_formal=False, splitting=splitting,
                    witness={"kind": "non_exact_ideal_element",
                             "degree": m_deg, "element": str(z)},
                    notes=["canonical splitting fails; another splitting "
                           "could still certify formality"])

    return FormalityVerdict(
        status="Inconclusive", s=s, degree_cap=degree_cap, s_formal=True,
        splitting=splitting,
        witness={"kind": "splitting", "splitting": splitting})


def formality(obj, dimension, s=None, cap=None,
              max_dim=DEFAULT_DIM_BUDGET, summary=None) -> FormalityVerdict:
    """Formality verdict for a model of a closed orientable manifold.

    Tries, in order: the dimension-7 b2 shortcut, a Massey-product
    obstruction search (NonFormal), and the s-formality check on a minimal
    model (Formal when s >= required_s(dimension)).  Anything else is
    Inconclusive.  A precomputed cohomology summary of obj covering the
    degree cap may be passed in.  A cap below 2 raises BoundTooLow; so
    does a cap below s + 1 when no Massey product answers and the
    s-formality check would run, before any model is built.
    """
    cap = cap if cap is not None else dimension + 1
    s = s if s is not None else required_s(dimension)
    # the shortcut and the Massey search read b1 and b2; below degree 2
    # they would read guesses
    if cap < 2:
        raise BoundTooLow("cap must be >= 2")
    if summary is None:
        summary = compute(obj, cap, with_cup=False)
    else:
        summary.require(obj, cap)
    b1, b2 = summary.betti[1], summary.betti[2]

    if dimension == 7 and b1 == 0 and b2 <= 1:
        return FormalityVerdict(
            status="Formal", formal_dimension=7,
            witness={"kind": "b2_shortcut", "b1": b1, "b2": b2},
            notes=["7-manifolds with b1=0 and b2<=1 are 3-formal, so formal"])

    found = massey_search(obj, summary, cap)
    if found is not None:
        (r1, r2, r3), res = found
        return FormalityVerdict(
            status="NonFormal", s=s, degree_cap=cap, formal_dimension=dimension,
            witness={"kind": "massey",
                     "classes": [str(r1), str(r2), str(r3)],
                     "degree": res.degree,
                     "representative": str(res.representative),
                     "indeterminacy_dim": res.indeterminacy.dim},
            notes=["non-vanishing triple Massey product obstructs formality"])

    minimal = isinstance(obj, DGA) and obj.is_minimal()
    if not minimal and b1 != 0:
        return FormalityVerdict(
            status="Inconclusive", s=s, degree_cap=cap,
            formal_dimension=dimension,
            notes=["H^1 != 0 and the model is not minimal; no construction "
                   "available in this regime"])
    if cap < s + 1:
        # the s-formality check needs the cap; refuse before building a model
        raise BoundTooLow(f"cap {cap} must be >= s + 1 = {s + 1}")
    bound = max(2, s)
    model = obj if minimal else minimal_model(
        obj, bound, max_dim=max_dim,
        summary=summary if summary.max_degree >= bound + 1 else None)
    verdict = s_formality_check(model, s, cap, max_dim=max_dim)
    verdict.formal_dimension = dimension
    if verdict.s_formal and s >= required_s(dimension):
        verdict.status = "Formal"
        verdict.notes.append(
            f"{s}-formal and s >= {required_s(dimension)} for a declared "
            f"formal dimension {dimension} "
            "(manifoldness is trusted, not verified)")
    elif verdict.s_formal:
        verdict.notes.append(f"{s}-formal, but no usable formal dimension")
    return verdict
