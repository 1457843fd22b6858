"""Minimal models, quasi-isomorphisms, s-formality, formality verdicts."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdga import exactla, massey, sullivan
from cdga.cohomology import ChainComplex, compute
from cdga.constructions import (corpus, cp2_model, lens_bundle_cp2_model,
                                q_model, s4_model, s_k_model, x6_model)
from cdga.dga import DGA, TabularDGA
from cdga.errors import (BoundTooLow, MixedAlgebra, ModelTooLarge,
                         NotAChainMap, NotMinimal, NotSimplyConnected,
                         WrongDegree)
from cdga.exactla import Subspace
from cdga.gca import Algebra, Element
from cdga.massey import triple
from cdga.modelfile import render_model
from cdga.sullivan import (DgaMorphism, FormalityVerdict, formality,
                           induced, is_quasi_iso, minimal_model, required_s,
                           massey_search, s_formality_check)
from conftest import (naive_massey_search, naive_morphism_image,
                      poincare_coefficient, recomputing_minimal_model,
                      sphere_product_tabular)


def tabular_cohomology_of(dga, bound):
    """(H^*(dga), 0) as a tabular algebra, for use as a model target."""
    s = compute(dga, bound, with_cup=True)
    basis, labels = [], {}
    for k in range(bound + 1):
        for i in range(s.betti[k]):
            lab = "1" if k == 0 else f"h{k}.{i}"
            labels[(k, i)] = lab
            basis.append((lab, k))
    products = {}
    for (p, i, q, j), vec in s.cup.items():
        if p == 0 or q == 0 or labels[(p, i)] > labels[(q, j)]:
            continue
        entry = {labels[(p + q, t)]: c for t, c in enumerate(vec) if c}
        products[(labels[(p, i)], labels[(q, j)])] = entry
    return TabularDGA(basis, products, {})


class TestMorphism:
    def test_chain_map_validation(self, cp2):
        alg = Algebra([("a", 2), ("x", 5)])
        other = DGA(alg, {"x": alg.gen("a") ** 3})
        good = DgaMorphism(other, cp2, {"a": cp2.gen("a"), "x": cp2.gen("x")})
        assert good.chain_map_failures() == []
        bad = DgaMorphism(other, cp2, {"a": cp2.gen("a"), "x": cp2.zero()})
        assert bad.chain_map_failures() == ["x"]
        with pytest.raises(NotAChainMap):
            bad.check_chain_map()

    def test_morphism_is_multiplicative(self, cp2):
        alg = Algebra([("a", 2), ("x", 5)])
        other = DGA(alg, {"x": alg.gen("a") ** 3})
        f = DgaMorphism(other, cp2, {"a": cp2.gen("a") * 2,
                                     "x": cp2.gen("x") * 8})
        e = alg.gen("a") ** 2 + alg.gen("a") * Fraction(1, 2)
        assert f(e) == cp2.gen("a") ** 2 * 4 + cp2.gen("a")

    def test_minimal_model_of_lens_total_space(self):
        # Lambda(a, u, xt) with du = e*a^2, d(xt) = 0 maps quasi-isomorphically
        # into the lens model through xt -> x - a*u/e
        e = 3
        lens = lens_bundle_cp2_model(e)
        dom_alg = Algebra([("a", 2), ("u", 3), ("xt", 5)])
        dom = DGA(dom_alg, {"u": dom_alg.gen("a") ** 2 * e})
        f = DgaMorphism(dom, lens, {
            "a": lens.gen("a"),
            "u": lens.gen("u"),
            "xt": lens.gen("x") - lens.gen("a") * lens.gen("u")
            * Fraction(1, e)})
        f.check_chain_map()
        ok, report = is_quasi_iso(f, 7)
        assert ok and all(r["isomorphism"] for r in report)

    def test_quasi_iso_detects_failure(self, cp2):
        dom_alg = Algebra([("a", 2)])
        dom = DGA(dom_alg, {})
        f = DgaMorphism(dom, cp2, {"a": cp2.gen("a")})
        ok, report = is_quasi_iso(f, 6)
        assert not ok
        by_degree = {r["degree"]: r for r in report}
        assert by_degree[2]["isomorphism"]
        assert not by_degree[6]["isomorphism"]

    def test_quasi_iso_identity(self, cp2):
        f = DgaMorphism(cp2, cp2, {"a": cp2.gen("a"), "x": cp2.gen("x")})
        ok, report = is_quasi_iso(f, 6)
        assert ok and all(r["isomorphism"] for r in report)

    def test_quasi_iso_checks_the_summaries_it_is_given(self, cp2, q111):
        f = DgaMorphism(cp2, cp2, {"a": cp2.gen("a"), "x": cp2.gen("x")})
        covering = compute(cp2, 6, with_cup=False)
        assert is_quasi_iso(f, 6, codomain_summary=covering) == \
            is_quasi_iso(f, 6)
        short = compute(cp2, 2, with_cup=False)
        other = compute(q111, 7, with_cup=False)
        for summary in (short, other):
            with pytest.raises(BoundTooLow):
                is_quasi_iso(f, 6, codomain_summary=summary)

    @pytest.mark.parametrize("case, error, message", [
        ("wrong_degree", WrongDegree, "^image of a is not of degree 2: x$"),
        ("mixed_degree", WrongDegree,
         "^image of a is not of degree 2: a \\+ x$"),
        ("other_algebra", MixedAlgebra,
         "^image of a lives in another algebra$"),
        ("missing", KeyError, "no image for generator x"),
    ])
    def test_bad_images_rejected_like_dga(self, case, error, message, cp2,
                                          q111):
        a, x = cp2.gen("a"), cp2.gen("x")
        images = {"wrong_degree": {"a": x, "x": x},
                  "mixed_degree": {"a": a + x, "x": x},
                  "other_algebra": {"a": q111.gen("a1"), "x": x},
                  "missing": {"a": a}}[case]
        with pytest.raises(error, match=message):
            DgaMorphism(cp2, cp2, images)

    def test_unknown_generator_images_rejected(self, cp2):
        with pytest.raises(KeyError, match="unknown generators"):
            DgaMorphism(cp2, cp2, {"a": cp2.gen("a"), "x": cp2.gen("x"),
                                   "y": cp2.gen("x")})

    @pytest.mark.parametrize("name", ["s_3", "q111", "x6"])
    def test_images_match_per_factor_evaluation(self, name, q111):
        target = {"s_3": s_k_model(3)[0], "q111": q111,
                  "x6": x6_model()}[name]
        f = minimal_model(target, 5).morphism
        alg = f.domain.algebra
        for k in range(8):
            basis = alg.degree_basis(k)
            for mono in basis:
                e = Element(alg, {mono: Fraction(1)})
                assert f(e) == naive_morphism_image(f, e)
            mixed = Element(alg, {m: Fraction(i + 1, i % 5 + 1)
                                  for i, m in enumerate(basis)})
            assert f(mixed) == naive_morphism_image(f, mixed)
            assert f(mixed) == naive_morphism_image(f, mixed)   # memo hits


class TestMinimalModel:
    def test_cp2_from_its_cohomology(self, cp2):
        target = tabular_cohomology_of(cp2, 6)
        model = minimal_model(target, 6)
        assert model.generator_ledger() == {2: 1, 5: 1}
        ok, _ = is_quasi_iso(model.morphism, 6)
        assert ok
        assert model.dga.is_minimal()

    def test_s4_from_its_cohomology(self):
        tab = TabularDGA([("1", 0), ("s", 4)], {("s", "s"): {}}, {})
        model = minimal_model(tab, 8)
        assert model.generator_ledger() == {4: 1, 7: 1}
        ok, _ = is_quasi_iso(model.morphism, 8)
        assert ok

    def test_s3_from_its_cohomology(self):
        tab = TabularDGA([("1", 0), ("s", 3)], {("s", "s"): {}}, {})
        model = minimal_model(tab, 4)
        assert model.generator_ledger() == {3: 1}
        ok, _ = is_quasi_iso(model.morphism, 4)
        assert ok

    def test_stage_ledger_records_generators(self):
        tab = TabularDGA([("1", 0), ("s", 4)], {("s", "s"): {}}, {})
        model = minimal_model(tab, 8)
        assert model.stage_ledger[4]["surjective"] == ["w4_0"]
        assert model.stage_ledger[7]["kernel"] == ["v7_0"]

    def test_rejects_nonconnected_targets(self):
        tab = TabularDGA([("1", 0), ("u", 1)], {("u", "u"): {}}, {})
        with pytest.raises(NotSimplyConnected):
            minimal_model(tab, 4)
        with pytest.raises(BoundTooLow):
            minimal_model(TabularDGA([("1", 0)], {}, {}), 1)

    @pytest.mark.parametrize("target", ["free", "tabular"])
    def test_target_summary_serves_quasi_iso(self, target, cp2):
        obj = cp2 if target == "free" else tabular_cohomology_of(cp2, 6)
        model = minimal_model(obj, 6)
        assert model.target_summary.source is obj
        assert model.target_summary.max_degree == 7
        assert is_quasi_iso(model.morphism, 6,
                            codomain_summary=model.target_summary) == \
            is_quasi_iso(model.morphism, 6)

    def test_passed_summary_is_used_and_checked(self, cp2, q111):
        summary = compute(cp2, 8, with_cup=False)
        model = minimal_model(cp2, 6, summary=summary)
        assert model.target_summary is summary
        assert model.stage_ledger == minimal_model(cp2, 6).stage_ledger
        with pytest.raises(BoundTooLow):
            minimal_model(cp2, 6, summary=compute(cp2, 6, with_cup=False))
        with pytest.raises(BoundTooLow):
            minimal_model(cp2, 6, summary=compute(q111, 8, with_cup=False))

    def test_model_too_large_names_where_it_stopped(self):
        s3 = s_k_model(3)[0]
        with pytest.raises(ModelTooLarge) as info:
            minimal_model(s3, 7, max_gens=50)
        exc = info.value
        assert (exc.stage, exc.generators) == (5, 75)
        assert str(exc) == "stage 5: 75 generators > max_gens 50"
        with pytest.raises(ModelTooLarge) as info:
            minimal_model(s3, 7, max_dim=100)
        exc = info.value
        # generators through stage 4: 4, 10 and 16 of degrees 2, 3 and 4
        dim = poincare_coefficient([2] * 4 + [3] * 10 + [4] * 16, 6)
        assert (exc.stage, exc.degree, exc.dimension, exc.generators) == \
            (5, 6, dim, 30)
        assert str(exc).startswith(
            f"stage 5: the degree-6 piece has dimension {dim} > max_dim "
            "100, with 30 generators;")

    def test_one_model_summary_per_stage(self, q111, monkeypatch):
        seen = []

        def counting(obj, max_degree, *args, **kw):
            seen.append((obj, max_degree))
            return compute(obj, max_degree, *args, **kw)

        monkeypatch.setattr(sullivan, "compute", counting)
        model = minimal_model(q111, 5)
        # stage 2 adds closed generators and does not recompute after them
        assert model.stage_ledger[2]["surjective"]
        assert [m for obj, m in seen if obj is not q111] == [3, 4, 5, 6]
        seen.clear()
        assert is_quasi_iso(model.morphism, 5)[0]
        assert [m for _, m in seen] == [5, 5]

    @pytest.mark.parametrize("name, degree", [
        ("cp2", 6), ("s4", 8), ("lens2", 7), ("q111", 5), ("q100", 5),
        ("x6", 5), ("s_3", 6), ("s_4", 5)])
    def test_matches_the_recomputing_loop(self, name, degree):
        target = {"cp2": cp2_model, "s4": s4_model,
                  "lens2": lambda: lens_bundle_cp2_model(2),
                  "q111": lambda: q_model((1, 1, 1)),
                  "q100": lambda: q_model((1, 0, 0)), "x6": x6_model,
                  "s_3": lambda: s_k_model(3)[0],
                  "s_4": lambda: s_k_model(4)[0]}[name]()
        model = minimal_model(target, degree)
        dga, ledger, images = recomputing_minimal_model(target, degree)
        assert render_model(model.dga) == render_model(dga)
        assert model.stage_ledger == ledger
        assert {g.name: str(model.morphism.images[g.ordinal])
                for g in model.dga.algebra.generators} == \
            {name: str(e) for name, e in images.items()}

    @pytest.mark.parametrize("name", ["s_3", "q111"])
    def test_stage_image_is_the_span_of_the_class_vectors(self, name, q111,
                                                          monkeypatch):
        # stage (a) reads the image of H^k(phi) as the column space of
        # induced(...); it must be the subspace the class vectors of the
        # representatives' images span, row for row and pivot for pivot
        target = q111 if name == "q111" else s_k_model(3)[0]
        seen = []

        def spy(phi, source, tgt, k):
            cols, den = induced(phi, source, tgt, k)
            vecs = [tgt.class_coords(phi(r), degree=k)[1]
                    for r in source.representatives[k]]
            # column i over den is the class vector of representative i
            assert [tuple(Fraction(col.get(a, 0), den)
                          for a in range(tgt.betti[k])) for col in cols] \
                == vecs
            seen.append((k, exactla.image(cols, tgt.betti[k]),
                         Subspace(tgt.betti[k], vecs)))
            return cols, den

        monkeypatch.setattr(sullivan, "induced", spy)
        minimal_model(target, 5)
        # one call per stage for (a), at degree k, and one for (b), at k + 1
        assert [k for k, _, _ in seen] == [2, 3, 3, 4, 4, 5, 5, 6]
        assert any(want.dim for _, _, want in seen)
        for _, got, want in seen:
            assert (got._rows, got.pivots) == (want._rows, want.pivots)

    @pytest.mark.parametrize("name", ["s_3", "q111"])
    def test_stage_memo_holds_fresh_images(self, name, q111):
        # one monomial -> image memo serves every stage's phi and the
        # returned morphism; each entry must be what a new morphism with
        # the same generator images computes
        target = q111 if name == "q111" else s_k_model(3)[0]
        model = minimal_model(target, 5)
        f = model.morphism
        fresh = DgaMorphism(f.domain, target, {
            g.name: f.images[g.ordinal] for g in f.domain.algebra.generators})
        memo = f._mono_images
        assert len(memo) > 1
        for mono, img in memo.items():
            assert img == fresh._image(mono), mono
        assert model.stage_ledger == recomputing_minimal_model(target, 5)[1]

    def test_q111_model_matches_to_degree_five(self, q111):
        model = minimal_model(q111, 5)
        ok, _ = is_quasi_iso(model.morphism, 5)
        assert ok
        assert model.dga.is_minimal()


class TestSFormality:
    def test_required_s_values(self):
        assert required_s(6) == 2
        assert required_s(7) == 3
        assert required_s(8) == 3

    def test_x6_is_two_formal_hence_formal(self):
        verdict = formality(x6_model(), 6)
        assert verdict.status == "Formal"
        assert verdict.s_formal
        assert verdict.s >= required_s(6)

    def test_minimality_required(self):
        alg = Algebra([("b", 1), ("a", 2)])
        nonmin = DGA(alg, {"b": alg.gen("a")})
        with pytest.raises(NotMinimal):
            s_formality_check(nonmin, 1, 3)

    def test_cap_must_cover_s(self, cp2):
        with pytest.raises(BoundTooLow):
            s_formality_check(cp2, 3, 3)

    def test_standalone_minimal_circle_times_s2(self):
        from cdga.constructions import _circle_times_s2_like_model
        dga = _circle_times_s2_like_model()
        verdict = s_formality_check(dga, 3, 8)
        # the check reports s-formality; only formality() concludes
        assert verdict.status == "Inconclusive"
        assert verdict.s_formal is True
        assert verdict.formal_dimension is None
        assert verdict.notes == []
        assert formality(dga, 8).status == "Formal"
        assert verdict.splitting[1] == {"C": 1, "N": 0}
        assert verdict.splitting[2] == {"C": 1, "N": 0}
        assert verdict.splitting[3] == {"C": 0, "N": 1}

    @pytest.mark.parametrize("name", ["circle-times-s2", "cp2", "x6",
                                      "q100"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_check_never_concludes(self, name, s, cp2):
        from cdga.constructions import _circle_times_s2_like_model
        model = {"circle-times-s2": _circle_times_s2_like_model,
                 "cp2": lambda: cp2,
                 "x6": lambda: minimal_model(x6_model(), 3),
                 "q100": lambda: minimal_model(q_model((1, 0, 0)), 3)}[name]()
        verdict = s_formality_check(model, s, 7)
        assert verdict.status == "Inconclusive"
        assert verdict.formal_dimension is None

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_bare_dga_and_its_model_agree(self, s):
        # exactness is decided in x6 itself, or in x6 as the model's target
        dga = x6_model()
        bare = s_formality_check(dga, s, 7)
        via = s_formality_check(minimal_model(dga, s), s, 7)
        assert (bare.status, bare.s_formal, bare.splitting) == \
            (via.status, via.s_formal, via.splitting)

    def test_witness_of_q111(self, q111):
        verdict = s_formality_check(minimal_model(q111, 3), 3, 7)
        assert verdict.status == "Inconclusive"
        assert verdict.witness == {"kind": "non_exact_ideal_element",
                                   "degree": 5,
                                   "element": "-w2_0*v3_0 + w2_1*v3_1"}

    def test_witness_of_a_bare_minimal_dga(self):
        # Lambda(a, b, x, y, z), dx = a^2, dy = a*b: C^3 = <z>, N^3 = <x, y>
        alg = Algebra([("a", 2), ("b", 2), ("x", 3), ("y", 3), ("z", 3)])
        a, b = alg.gen("a"), alg.gen("b")
        dga = DGA(alg, {"x": a * a, "y": a * b})
        verdict = s_formality_check(dga, 3, 7)
        assert verdict.status == "Inconclusive"
        assert verdict.splitting[3] == {"C": 1, "N": 2}
        assert verdict.witness == {"kind": "non_exact_ideal_element",
                                   "degree": 5, "element": "-a*y + b*x"}

    def test_model_too_large_names_the_piece(self, q111):
        model = minimal_model(q111, 3)
        with pytest.raises(ModelTooLarge) as info:
            s_formality_check(model, 3, 7, max_dim=5)
        exc = info.value
        dim = ChainComplex(model.dga).dim(exc.degree)
        assert exc.dimension == dim > 5
        assert str(exc) == (f"s-formality: the degree-{exc.degree} piece "
                            f"has dimension {dim} > max_dim 5")

    def test_splitting_invariant_under_generator_order(self):
        a1 = Algebra([("a", 1), ("b", 2), ("x", 3)])
        m1 = DGA(a1, {"x": a1.gen("b") ** 2})
        a2 = Algebra([("x", 3), ("b", 2), ("a", 1)])
        m2 = DGA(a2, {"x": a2.gen("b") ** 2})
        v1 = s_formality_check(m1, 3, 8)
        v2 = s_formality_check(m2, 3, 8)
        assert v1.s_formal is v2.s_formal is True
        assert v1.splitting == v2.splitting


class TestCoverCheck:
    # every caller handed a summary checks it with CohomologySummary.require
    CALLERS = {
        "massey_search": lambda obj, summary: massey_search(obj, summary, 6),
        "formality": lambda obj, summary: formality(obj, 8, cap=6,
                                                    summary=summary),
        "is_quasi_iso": lambda obj, summary: is_quasi_iso(
            DgaMorphism(obj, obj, {"a": obj.gen("a"), "x": obj.gen("x")}),
            6, codomain_summary=summary),
        "minimal_model": lambda obj, summary: minimal_model(
            obj, 5, summary=summary),
    }

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    @pytest.mark.parametrize("summary_of", ["too_short", "another_object"])
    def test_refused_through_every_caller(self, caller, summary_of, cp2,
                                          q111):
        summary = (compute(cp2, 5, with_cup=False) if summary_of == "too_short"
                   else compute(q111, 8, with_cup=False))
        with pytest.raises(BoundTooLow, match="^summary does not cover the "
                                              "requested degree cap$"):
            self.CALLERS[caller](cp2, summary)

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_covering_summary_is_accepted(self, caller, cp2):
        self.CALLERS[caller](cp2, compute(cp2, 6, with_cup=False))


def duality_probe():
    """Lambda(x_3, y_3, z_5), dz = xy: minimal, but no Poincare duality
    algebra in dimension 7."""
    alg = Algebra([("x", 3), ("y", 3), ("z", 5)])
    return DGA(alg, {"z": alg.gen("x") * alg.gen("y")})


@st.composite
def non_duality_tables(draw):
    """(Tabular algebra with d = 0, dimension n) whose cohomology fails the
    duality check in dimension n through degree n + 1: a product of spheres
    of degrees >= 2 truncated below degree n, so b_n = 0, or a table with
    every product zero, a top class in degree n and classes between, whose
    pairing into the top class is zero."""
    n = draw(st.sampled_from([5, 6, 7, 7, 8]))
    if draw(st.booleans()):
        degrees = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
        return sphere_product_tabular(degrees, n - 1), n
    middle = draw(st.lists(st.integers(2, n - 2), min_size=1, max_size=3))
    return TabularDGA([("1", 0)] + [(f"c{i}", d) for i, d in enumerate(middle)]
                      + [("top", n)]), n


@settings(deadline=None)
@given(non_duality_tables())
def test_no_formal_verdict_from_a_theorem_whose_hypothesis_fails(table):
    # a tabular algebra is never the minimal model itself, so neither the
    # b2 shortcut nor "s-formal implies formal" may answer
    obj, n = table
    verdict = formality(obj, n)
    assert verdict.status != "Formal", verdict
    if verdict.s_formal:
        assert "no manifold theorem applies" in verdict.notes[-1]


X6_SPLIT = {1: {"C": 0, "N": 0}, 2: {"C": 2, "N": 0}}
Q100_SPLIT = {**X6_SPLIT, 3: {"C": 1, "N": 2}}


class TestFormalityDriver:
    def test_q111_nonformal_with_massey_witness(self, q111):
        verdict = formality(q111, 7, cap=7)
        assert verdict.status == "NonFormal"
        assert verdict.witness["kind"] == "massey"
        assert verdict.witness["degree"] == 5

    def test_q100_formal(self):
        from cdga.constructions import q_model
        verdict = formality(q_model((1, 0, 0)), 7, cap=7)
        assert verdict.status == "Formal"

    def test_berger_formal_via_shortcut(self):
        from cdga.constructions import s3_bundle_model, s4_model
        verdict = formality(s3_bundle_model(s4_model(), -10), 7)
        assert verdict.status == "Formal"
        assert verdict.witness["kind"] == "b2_shortcut"

    @pytest.mark.parametrize("name, dimension, kind", [
        ("berger", 7, "b2_shortcut"),         # b1 = 0, b2 = 0
        ("aloff-wallach", 7, "b2_shortcut"),  # b1 = 0, b2 = 1
        ("q100", 7, "splitting"),             # b2 = 2
        ("circle-times-s2", 7, "splitting"),  # b1 = 1
        ("berger", 8, "splitting"),           # not a 7-manifold
    ])
    def test_b2_shortcut_needs_its_hypotheses(self, name, dimension, kind):
        from cdga.constructions import _circle_times_s2_like_model
        obj = {"berger": lambda: corpus("berger").obj,
               "aloff-wallach": lambda: corpus("aloff-wallach").obj,
               "q100": lambda: q_model((1, 0, 0)),
               "circle-times-s2": _circle_times_s2_like_model}[name]()
        verdict = formality(obj, dimension)
        # Berger's b_8 = 0, so it is no 8-manifold either: 3-formal, but
        # no theorem makes that formal
        assert verdict.status == ("Inconclusive" if dimension == 8
                                  else "Formal")
        assert verdict.witness["kind"] == kind

    @pytest.mark.parametrize("cap, status", [
        (None, "NonFormal"), (7, "Inconclusive")], ids=["default-cap", "cap-7"])
    def test_no_manifold_theorem_without_duality(self, cap, status):
        # b = 1,0,0,2,0,0,0,0,2,0,0,1: no closed 7-manifold, and <x, x, y>
        # = [xz] with zero indeterminacy, in degree 8
        obj = duality_probe()
        verdict = formality(obj, 7, cap=cap)
        assert verdict.status == status
        if cap is None:
            assert verdict.witness["classes"] == ["x", "x", "y"]
            assert verdict.witness["degree"] == 8
        else:
            assert verdict.s_formal is True
            assert verdict.notes == [
                "not a Poincare duality algebra in dimension 7 through "
                "degree 7 (b_7 = 0, not 1), so no manifold theorem applies"]

    @pytest.mark.parametrize("obj, dimension, cap, failure", [
        ("cp2", 4, 5, None),
        ("cp2", 4, 3, "the degree cap 3 is below the dimension 4"),
        ("cp2", 6, 7, "b_6 = 0, not 1"),
        ("cp2", 2, 4, "b_4 = 1 above the dimension 2"),
        ("cp2", -3, 5, "b_0 = 1 above the dimension -3"),
        ("s2_wedge_s4", 6, 7,
         "the pairing H^2 x H^4 -> H^6 is degenerate"),
        ("s2_and_top", 5, 6, "b_2 = 1 but b_3 = 0")], ids=[
            "cp2-passes", "cap-below-dimension", "no-top-class",
            "class-above-dimension", "negative-dimension", "zero-pairing",
            "unequal-betti"])
    def test_duality_failures_are_named(self, obj, dimension, cap, failure):
        # tables with every product zero: a class between 0 and the top
        # pairs to zero
        obj = {"cp2": cp2_model,
               "s2_wedge_s4": lambda: TabularDGA(
                   [("1", 0), ("a", 2), ("b", 4), ("t", 6)]),
               "s2_and_top": lambda: TabularDGA(
                   [("1", 0), ("a", 2), ("t", 5)])}[obj]()
        summary = compute(obj, cap, with_cup=False)
        assert sullivan._duality_failure(summary, dimension, cap) == failure

    @pytest.mark.parametrize("name, dimension, s, want", [
        ("berger", 7, None, FormalityVerdict(
            status="Formal", formal_dimension=7,
            witness={"kind": "b2_shortcut", "b1": 0, "b2": 0},
            notes=["7-manifolds with b1=0 and b2<=1 are 3-formal, so "
                   "formal"])),
        ("x6", 6, None, FormalityVerdict(
            status="Formal", s=2, degree_cap=7, formal_dimension=6,
            s_formal=True, splitting=X6_SPLIT,
            witness={"kind": "splitting", "splitting": X6_SPLIT},
            notes=["2-formal and s >= 2 for a declared formal dimension 6 "
                   "(manifoldness is trusted, not verified)"])),
        ("q100", 7, None, FormalityVerdict(
            status="Formal", s=3, degree_cap=8, formal_dimension=7,
            s_formal=True, splitting=Q100_SPLIT,
            witness={"kind": "splitting", "splitting": Q100_SPLIT},
            notes=["3-formal and s >= 3 for a declared formal dimension 7 "
                   "(manifoldness is trusted, not verified)"])),
        ("q100", 7, 2, FormalityVerdict(
            status="Inconclusive", s=2, degree_cap=8, formal_dimension=7,
            s_formal=True, splitting=X6_SPLIT,
            witness={"kind": "splitting", "splitting": X6_SPLIT},
            notes=["2-formal, but no usable formal dimension"])),
    ])
    def test_verdict_field_by_field(self, name, dimension, s, want):
        obj = {"berger": lambda: corpus("berger").obj, "x6": x6_model,
               "q100": lambda: q_model((1, 0, 0))}[name]()
        assert formality(obj, dimension, s=s) == want

    @pytest.mark.parametrize("given_model", [False, True])
    def test_failed_splitting_field_by_field(self, given_model, q111,
                                            monkeypatch):
        # Q(1,1,1) has a Massey product; without the search, the canonical
        # splitting of its minimal model fails
        monkeypatch.setattr(sullivan, "massey_search", lambda *a: None)
        obj = minimal_model(q111, 3).dga if given_model else q111
        split = {**X6_SPLIT, 3: {"C": 0, "N": 3}}
        assert formality(obj, 7, cap=7) == FormalityVerdict(
            status="Inconclusive", s=3, degree_cap=7, formal_dimension=7,
            s_formal=False, splitting=split,
            witness={"kind": "non_exact_ideal_element", "degree": 5,
                     "element": "-w2_0*v3_0 + w2_1*v3_1"},
            notes=["canonical splitting fails; another splitting could "
                   "still certify formality"])

    @pytest.mark.parametrize("cap", [-1, 0, 1])
    def test_cap_below_two_is_refused(self, q111, cap):
        # the b2 shortcut on unread b1 and b2 would answer Formal for
        # Q(1,1,1), which criterion 1 shows NonFormal
        with pytest.raises(BoundTooLow, match="^cap must be >= 2$"):
            formality(q111, 7, cap=cap)
        with pytest.raises(BoundTooLow, match="^cap must be >= 2$"):
            formality(q111, 7, cap=cap,
                      summary=compute(q111, 7, with_cup=False))

    @pytest.mark.parametrize("name, dimension", [("q110", 7), ("cp2", 8)])
    def test_cap_below_s_plus_one_is_refused_before_a_model(
            self, name, dimension, cp2, monkeypatch):
        # q110 would need a minimal model, cp2 is minimal itself; neither
        # has a Massey product below the cap, and s = 3 needs cap >= 4
        # (dimension 8 keeps cp2 off the dimension-7 b2 shortcut)
        obj = q_model((1, 1, 0)) if name == "q110" else cp2
        seen = []

        def spy(fn):
            def wrapped(*args, **kw):
                seen.append(fn.__name__)
                return fn(*args, **kw)
            return wrapped

        monkeypatch.setattr(sullivan, "minimal_model",
                            spy(sullivan.minimal_model))
        monkeypatch.setattr(sullivan, "s_formality_check",
                            spy(sullivan.s_formality_check))
        with pytest.raises(BoundTooLow,
                           match=r"^cap 3 must be >= s \+ 1 = 4$"):
            formality(obj, dimension, cap=3)
        assert seen == []

    def test_massey_answer_below_s_plus_one_is_kept(self):
        # the Massey search runs before the cap is checked against s
        alg = Algebra([("x", 1), ("y", 1), ("z", 1)])
        heisenberg = DGA(alg, {"z": alg.gen("x") * alg.gen("y")})
        verdict = formality(heisenberg, 7, cap=2)
        assert verdict.status == "NonFormal"
        assert verdict.witness["classes"] == ["x", "x", "y"]

    def test_nonminimal_with_h1_is_inconclusive(self):
        alg = Algebra([("b", 1), ("a", 2), ("c", 1)])
        obj = DGA(alg, {"b": alg.gen("a")})
        verdict = formality(obj, 3, cap=3)
        assert verdict.status == "Inconclusive"

    @pytest.mark.parametrize("obj, dimension", [
        (q_model((1, 0, 0)), 7), (q_model((0, 2, 1)), 7), (x6_model(), 6)])
    def test_summary_hand_off_keeps_the_verdict(self, obj, dimension):
        s = required_s(dimension)
        handed = formality(obj, dimension, cap=7)
        fresh = s_formality_check(minimal_model(obj, s), s, 7)
        assert handed.status == "Formal"
        assert (handed.s, handed.degree_cap, handed.s_formal,
                handed.splitting, handed.witness) == \
            (fresh.s, fresh.degree_cap, fresh.s_formal, fresh.splitting,
             fresh.witness)

    def test_formality_computes_its_model_cohomology_once(self,
                                                          monkeypatch):
        obj = q_model((1, 0, 0))
        seen = []

        def counting(target, *args, **kw):
            seen.append(target)
            return compute(target, *args, **kw)

        monkeypatch.setattr(sullivan, "compute", counting)
        assert formality(obj, 7, cap=7).status == "Formal"
        assert sum(1 for t in seen if t is obj) == 1

    def test_decomposable_differential_in_every_model(self, q111):
        model = minimal_model(q111, 5)
        assert model.dga.is_minimal()
        for g in model.dga.algebra.generators:
            img = model.dga.images[g.ordinal]
            for mono in img.terms:
                assert sum(e for _, e in mono) >= 2


def _two_primitive_model():
    """S^2 v S^3 through its degree-5 generators, with a second primitive t
    of a^2 listed first.  is_exact(a^2) is then t, which carries the closed
    class t - x, so <a, a, c> has a nonzero class inside its
    indeterminacy [a]*H^4 + [c]*H^3, and the two halves have different
    degrees."""
    alg = Algebra([("t", 3), ("a", 2), ("c", 3), ("x", 3), ("y", 4),
                   ("v", 5)])
    a, c, x, y = (alg.gen(n) for n in "acxy")
    return DGA(alg, {
        "t": a ** 2, "x": a ** 2, "y": a * c, "v": a * y + c * x})


def _filiform_model():
    """The 4-dimensional filiform nilmanifold: du = dw = 0, dz = u*w,
    ds = u*z.  Its degree-1 classes u, w have an exact product, so the
    search needs primitives of both u*w and w*u, which differ in sign."""
    alg = Algebra([("u", 1), ("w", 1), ("z", 1), ("s", 1)])
    u, w, z = (alg.gen(n) for n in "uwz")
    return DGA(alg, {"z": u * w, "s": u * z})


def _search_models():
    yield "two-primitive", _two_primitive_model()
    yield "filiform", _filiform_model()
    for e in itertools.product(range(-2, 3), repeat=3):
        yield f"q{e}", q_model(e)
    yield "x6", x6_model()
    yield "berger", corpus("berger").obj
    yield "aw(1,1)", corpus("aloff-wallach", k=1, l=1).obj
    yield "aw(1,-1)", corpus("aloff-wallach", k=1, l=-1).obj
    yield "s_3", s_k_model(3)[0]
    yield "s_4", s_k_model(4)[0]


class TestMasseySearch:
    def test_one_search_beside_triple(self):
        assert massey.massey_search is sullivan.massey_search
        assert massey_search.__module__ == "cdga.massey"

    def test_agrees_with_one_try_triple_per_triple(self):
        hits = 0
        for name, obj in _search_models():
            summary = compute(obj, 7, with_cup=False)
            want = naive_massey_search(obj, summary, 7)
            got = massey_search(obj, summary, 7)
            assert (got is None) == (want is None), name
            if got is None:
                continue
            hits += 1
            assert got[0] == want[0], name
            res, ref = got[1], want[1]
            assert res.degree == ref.degree
            assert str(res.representative) == str(ref.representative)
            assert res.primitives == ref.primitives
            assert res.indeterminacy.dim == ref.indeterminacy.dim
            assert res.representative_class == ref.representative_class
            assert res.vanishes is ref.vanishes is False
        # 64 of the 125 Q(e) have e1*e2*e3 != 0, s_3, s_4 and the
        # filiform nilmanifold are non-formal, and the truncated
        # two-primitive model has a non-vanishing triple in degree 7
        assert hits == 68

    def test_primitives_bound_the_products_in_order(self, monkeypatch):
        # r1*r2 and r2*r1 differ by (-1)^{p1 p2}, so a primitive of one is
        # not one of the other; every representative the search forms must
        # use d(a12) = r1*r2 and d(a23) = r2*r3 for one middle class r2
        representative = massey._representative
        checked = []
        for name, obj in _search_models():
            summary = compute(obj, 7, with_cup=False)
            reps = summary.representatives

            def checking(r1, r3, a12, a23, p1):
                d12, d23 = summary.ctx.d(a12), summary.ctx.d(a23)
                middle = [r2 for k in range(1, 8) for r2 in reps[k]
                          if d12 == r1 * r2 and d23 == r2 * r3]
                assert middle, name
                checked.append(any(
                    (p1 * r2.degree()) % 2 and not (r1 * r2).is_zero()
                    or (r2.degree() * r3.degree()) % 2
                    and not (r2 * r3).is_zero()
                    for r2 in middle))
                return representative(r1, r3, a12, a23, p1)

            monkeypatch.setattr(massey, "_representative", checking)
            massey_search(obj, summary, 7)
        assert len(checked) > 100 and any(checked)

    @pytest.mark.parametrize("e", [(1, 1, 1), (1, 0, 0), (0, 0, 0)])
    def test_one_witness_and_one_solve_per_pair(self, e, monkeypatch):
        obj = q_model(e)
        summary = compute(obj, 7, with_cup=False)
        solved, operands = [], []
        exact = summary.is_exact
        rep_of = {id(r): (k, i) for k, reps in summary.representatives.items()
                  for i, r in enumerate(reps)}
        # unordered pairs of representatives with product degree <= 7
        pairs = (sum(summary.betti[p] * summary.betti[q]
                     for p in range(1, 8) for q in range(1, 8 - p))
                 + sum(summary.betti[p] for p in range(1, 4))) // 2
        mul = Element.__mul__

        def recording_mul(x, y):
            if id(x) in rep_of and id(y) in rep_of:
                operands.append((rep_of[id(x)], rep_of[id(y)]))
            return mul(x, y)

        def counting_exact(z):
            solved.append(frozenset(operands[-1]))
            return exact(z)

        monkeypatch.setattr(Element, "__mul__", recording_mul)
        monkeypatch.setattr(summary, "is_exact", counting_exact)
        found = massey_search(obj, summary, 7)
        monkeypatch.undo()
        assert (found is not None) == (e == (1, 1, 1))
        if found is not None:
            # the witness is the one massey.triple builds for its classes
            (r1, r2, r3), res = found
            ref = triple(obj, r1, r2, r3, summary=summary)
            assert str(res.representative) == str(ref.representative)
            assert [str(a) for a in res.primitives] == \
                [str(a) for a in ref.primitives]
            assert res.representative_class == ref.representative_class
            assert res.indeterminacy.basis == ref.indeterminacy.basis
            assert res.vanishes is ref.vanishes is False
            assert res.degree == ref.degree
        # r*r' and r'*r share one solve: each unordered pair of
        # representatives is solved for a primitive at most once
        assert 0 < len(solved) <= pairs
        assert len(set(solved)) == len(solved)
        if e == (0, 0, 0):
            assert len(solved) == pairs == 62

    def test_summary_must_cover_the_cap(self, q111):
        short = compute(q111, 5, with_cup=False)
        with pytest.raises(BoundTooLow,
                           match="^summary does not cover the requested "
                                 "degree cap$"):
            massey_search(q111, short, 7)
        other = compute(q_model((1, 1, 1)), 7, with_cup=False)
        with pytest.raises(BoundTooLow,
                           match="^summary does not cover the requested "
                                 "degree cap$"):
            massey_search(q111, other, 7)

    def test_nonzero_class_inside_the_indeterminacy_vanishes(self):
        obj = _two_primitive_model()
        summary = compute(obj, 7, with_cup=False)
        a, c = obj.gen("a"), obj.gen("c")
        res = triple(obj, a, a, c, summary=summary)
        assert any(res.representative_class) and res.vanishes
