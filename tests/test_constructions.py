"""Bundle models, mapping tori, automorphisms, and the named corpus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdga.cohomology import compute
from cdga.constructions import (CohomologyAutomorphism, circle_bundle_model,
                                corpus, del_pezzo_s2_tabular,
                                lens_bundle_cp2_model,
                                mapping_torus_cohomology, q_model,
                                s1s2_bundle_cp2_model, s2_cubed_model,
                                s3_bundle_model, s4_model, s_k_model,
                                x6_model)
from cdga.dga import TabularDGA
from cdga.errors import (DegreeGap, NotACocycle, ParamOutOfRange,
                         UnknownCorpusEntry, WrongDegree)

from conftest import gysin_betti, sphere_product_tabular


class TestCircleBundle:
    def test_q111_betti(self):
        s = compute(q_model((1, 1, 1)), 7, with_cup=False)
        assert s.betti_vector() == (1, 0, 2, 0, 0, 2, 0, 1)

    def test_trivial_bundle_adds_circle_factor(self):
        base = s2_cubed_model()
        total = circle_bundle_model(base, base.zero())
        s = compute(total, 7, with_cup=False)
        # (S^2)^3 x S^1
        assert s.betti_vector() == (1, 1, 3, 3, 3, 3, 1, 1)

    def test_euler_class_must_be_closed_degree_two(self):
        base = s2_cubed_model()
        with pytest.raises(NotACocycle):
            circle_bundle_model(base, base.gen("x1"))
        with pytest.raises(WrongDegree):
            circle_bundle_model(base, base.gen("a1") ** 2)

    def test_name_collision_avoided(self):
        import cdga.gca as gca
        from cdga.dga import DGA, Differential
        alg = gca.Algebra([("y", 2), ("q", 3)])
        base = DGA(alg, Differential(alg, {"q": alg.gen("y") ** 2}))
        total = circle_bundle_model(base, base.gen("y"))
        names = {g.name for g in total.algebra.generators}
        assert "y0" in names

    def test_tabular_name_collision_avoided(self):
        # s_3 is a circle bundle itself: y and every y*<label> are taken
        base = s_k_model(3)[0]
        total = circle_bundle_model(base, base.gen("a"))
        assert total.validate() == []
        assert total.labels[:len(base.labels)] == base.labels
        assert total.labels[len(base.labels)] == "y0"
        assert "y0*a" in total.labels

    def test_tabular_name_skips_a_clash_of_y_star_label(self):
        tab = TabularDGA([("1", 0), ("s", 2), ("y*s", 3)])
        total = circle_bundle_model(tab, tab.gen("s"))
        assert total.labels == ["1", "s", "y*s", "y0", "y0*s", "y0*y*s"]

    def test_tabular_circle_bundle_matches_free_one(self):
        # the same bundle built from the free (S^2)^3 model and from its
        # cohomology table must have identical Betti numbers
        tab = sphere_product_tabular([2, 2, 2], 8)
        e = tab.gen("s0") + tab.gen("s1") + tab.gen("s2")
        total_tab = circle_bundle_model(tab, e)
        assert total_tab.validate() == []
        s_tab = compute(total_tab, 7, with_cup=False)
        s_free = compute(q_model((1, 1, 1)), 7, with_cup=False)
        assert s_tab.betti == s_free.betti


class TestGysinOracle:
    def test_fifty_random_bundles_match_the_gysin_ranks(self):
        rng = random.Random(20240818)
        for trial in range(50):
            nf = rng.randrange(1, 4)
            degrees = [rng.choice([2, 2, 3, 4, 5]) for _ in range(nf)]
            base = sphere_product_tabular(degrees, 8)
            two_classes = [base.gen(base.labels[i])
                           for i in base.degree_basis(2)]
            e = base.zero()
            for cls in two_classes:
                e = e + cls * Fraction(rng.randrange(-3, 4))
            total = circle_bundle_model(base, e)
            summary = compute(base, 8, with_cup=False)
            expect = gysin_betti(summary, e, 8)
            got = list(compute(total, 8, with_cup=False).betti)
            assert got == expect, (degrees, str(e))


class TestSphereBundles:
    def test_berger_is_a_rational_homology_sphere(self):
        dga = s3_bundle_model(s4_model(), -10)
        s = compute(dga, 7, with_cup=False)
        assert s.betti_vector() == (1, 0, 0, 0, 0, 0, 0, 1)

    def test_zero_euler_gives_product(self):
        s = compute(s3_bundle_model(s4_model(), 0), 7, with_cup=False)
        assert s.betti_vector() == (1, 0, 0, 1, 1, 0, 0, 1)

    def test_base_shape_is_validated(self):
        with pytest.raises(WrongDegree):
            s3_bundle_model(lens_bundle_cp2_model(1), 1)

    def test_lens_betti(self):
        for e in (-3, -2, -1, 1, 2, 3):
            s = compute(lens_bundle_cp2_model(e), 7, with_cup=False)
            assert s.betti_vector() == (1, 0, 1, 0, 0, 1, 0, 1), e

    def test_lens_zero_euler_is_s3_times_cp2(self):
        s = compute(lens_bundle_cp2_model(0), 7, with_cup=False)
        assert s.betti_vector() == (1, 0, 1, 1, 1, 1, 0, 1)

    def test_s1s2_normalization_drops_h(self):
        dga1, ledger1 = s1s2_bundle_cp2_model(2, 1, 2)
        dga2, ledger2 = s1s2_bundle_cp2_model(2, 0, 0)
        assert ledger1["f_tilde"] == Fraction(0) == ledger2["f_tilde"]
        assert ledger1["g"] == 0
        s1 = compute(dga1, 7, with_cup=False)
        s2 = compute(dga2, 7, with_cup=False)
        assert s1.betti == s2.betti

    def test_x6_betti(self):
        s = compute(x6_model(), 6, with_cup=False)
        assert s.betti_vector() == (1, 0, 2, 0, 2, 0, 1)


class TestSK:
    def test_base_table_is_consistent(self):
        for k in (3, 5, 8):
            assert del_pezzo_s2_tabular(k).validate() == []

    def test_s3_betti(self):
        tab, ledger = s_k_model(3)
        assert tab.validate() == []
        s = compute(tab, 7, with_cup=False)
        assert s.betti_vector() == (1, 0, 4, 0, 0, 4, 0, 1)
        assert ledger == {"k": 3, "epsilon": (Fraction(1, 6),) * 3, "N": 6}

    def test_sk_betti_all_k(self):
        for k in range(3, 9):
            tab, _ = s_k_model(k)
            s = compute(tab, 7, with_cup=False)
            assert s.betti_vector() == (1, 0, k + 1, 0, 0, k + 1, 0, 1), k

    def test_parameter_validation(self):
        with pytest.raises(ParamOutOfRange):
            s_k_model(2)
        with pytest.raises(ParamOutOfRange):
            s_k_model(9)
        with pytest.raises(ParamOutOfRange):
            s_k_model(3, epsilon=[Fraction(1, 2)] * 3)     # sum >= 1
        with pytest.raises(ParamOutOfRange):
            s_k_model(3, epsilon=[Fraction(-1, 6)] + [Fraction(1, 6)] * 2)
        with pytest.raises(ParamOutOfRange):
            s_k_model(3, epsilon=[Fraction(1, 7)] * 3, big_n=6)
        with pytest.raises(ParamOutOfRange):
            s_k_model(3, epsilon=[Fraction(1, 6)] * 2)
        # N = 0 would make the Euler class zero: a product with a circle
        for big_n in (0, -6):
            with pytest.raises(ParamOutOfRange, match="N must be positive"):
                s_k_model(3, big_n=big_n)


@pytest.fixture(scope="module")
def q_summary():
    return compute(q_model((1, 1, 1)), 7, with_cup=False)


class TestAutomorphisms:
    def test_identity_is_cup_compatible(self, q_summary):
        rho = CohomologyAutomorphism.identity(q_summary)
        assert rho.cup_compatibility_failures() == []

    def test_swap_chain_automorphism(self, q_summary):
        dga = q_summary.source
        rho = CohomologyAutomorphism.from_dga_automorphism(q_summary, {
            "a1": dga.gen("a2"), "a2": dga.gen("a1"), "a3": dga.gen("a3"),
            "x1": dga.gen("x2"), "x2": dga.gen("x1"), "x3": dga.gen("x3"),
            "y": dga.gen("y")})
        assert rho.cup_compatibility_failures() == []
        m2 = rho.matrix(2)
        for i in range(m2.cols):
            e = [Fraction(i == j) for j in range(m2.cols)]
            assert m2.apply(m2.apply(e)) == tuple(e)
        assert m2 != m2.identity(2)

    def test_duality_completion_agrees_with_chain_automorphism(self, q_summary):
        dga = q_summary.source
        chain = CohomologyAutomorphism.from_dga_automorphism(q_summary, {
            "a1": dga.gen("a2"), "a2": dga.gen("a1"), "a3": dga.gen("a3"),
            "x1": dga.gen("x2"), "x2": dga.gen("x1"), "x3": dga.gen("x3"),
            "y": dga.gen("y")})
        completed = CohomologyAutomorphism.from_partial(
            q_summary, {2: chain.matrix(2)}, top_degree=7,
            top_sign=int(chain.matrix(7).data[0][0]))
        for r in range(8):
            assert completed.matrix(r) == chain.matrix(r), r

    def test_singular_matrix_rejected(self, q_summary):
        with pytest.raises(ValueError):
            CohomologyAutomorphism(q_summary, {2: [[1, 0], [1, 0]]})

    @pytest.mark.parametrize("r", [-1, 9])
    def test_degree_out_of_range(self, r):
        # the W model has b = 1,0,1,0,0,1,0,1: degree -1 must not read b_7
        h = compute(lens_bundle_cp2_model(1), 7, with_cup=False)
        with pytest.raises(DegreeGap, match=r"0\.\.7"):
            CohomologyAutomorphism(h, {r: [[1]]})
        with pytest.raises(DegreeGap, match=r"0\.\.7"):
            CohomologyAutomorphism.from_partial(h, {r: [[1]]}, top_degree=7)
        with pytest.raises(DegreeGap, match=r"0\.\.7"):
            CohomologyAutomorphism.from_partial(h, {}, top_degree=r)

    def test_degenerate_pairing_cannot_complete(self):
        # H(S^1 v S^2 v S^3): every cup product vanishes, so the pairing
        # H^1 x H^2 -> H^3 is zero and gives no degree-2 matrix
        h = compute(TabularDGA([("1", 0), ("x", 1), ("y", 2), ("z", 3)]), 3,
                    with_cup=False)
        with pytest.raises(DegreeGap,
                           match="cannot complete degree 2 by duality"):
            CohomologyAutomorphism.from_partial(h, {1: [[1]]}, top_degree=3)

    def test_singular_pairing_cannot_complete(self):
        # H^1 = <x1, x2>, H^2 = <y1, y2>, and only x1*y1 = z: the pairing
        # matrix [[1, 0], [0, 0]] is square and nonzero but singular
        h = compute(TabularDGA(
            [("1", 0), ("x1", 1), ("x2", 1), ("y1", 2), ("y2", 2), ("z", 3)],
            {("x1", "y1"): {"z": 1}}), 3, with_cup=False)
        assert h.betti == [1, 2, 2, 1]
        with pytest.raises(DegreeGap,
                           match="cannot complete degree 2 by duality"):
            CohomologyAutomorphism.from_partial(
                h, {1: [[1, 0], [0, 1]]}, top_degree=3)


def _det(rows):
    """The determinant of a matrix of at most 2 x 2."""
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return rows[0][0] if rows else 1


def invertible(n):
    """Invertible n x n integer matrices, n <= 2, as lists of rows."""
    return st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                    min_size=n, max_size=n).filter(_det)


@pytest.fixture(scope="module")
def q_cup():
    return compute(q_model((1, 1, 1)), 7, with_cup=True).cup


class TestCupTableOracle:
    """Automorphisms of H(Q(1,1,1)) against the cup table of its summary:
    with rho(x_i) = sum_a M[a][i] x_a, the products of images follow from
    the table alone.  max_examples comes from the hypothesis profile."""

    @settings(deadline=None)
    @given(st.data())
    def test_cup_compatibility_failures(self, q_summary, q_cup, data):
        b = q_summary.betti
        mats = {r: data.draw(invertible(b[r])) for r in range(8)}
        want = []
        for p in range(8):
            for q in range(p, 8 - p):
                for i in range(b[p]):
                    for j in range(b[q]):
                        image_of_product = [
                            sum(mats[p + q][t][u] * q_cup[p, i, q, j][u]
                                for u in range(b[p + q]))
                            for t in range(b[p + q])]
                        product_of_images = [
                            sum(mats[p][a][i] * mats[q][c][j]
                                * q_cup[p, a, q, c][t]
                                for a in range(b[p]) for c in range(b[q]))
                            for t in range(b[p + q])]
                        if image_of_product != product_of_images:
                            want.append((p, i, q, j))
        rho = CohomologyAutomorphism(q_summary, mats)
        assert rho.cup_compatibility_failures() == want

    @settings(deadline=None)
    @given(st.sampled_from([2, 5]), invertible(2), st.sampled_from([1, -1]))
    def test_duality_completion_preserves_the_pairing(self, q_summary, q_cup,
                                                      r, m, sign):
        rho = CohomologyAutomorphism.from_partial(q_summary, {r: m},
                                                  top_degree=7, top_sign=sign)
        cr = 7 - r        # the one degree the completion derives
        done = rho.matrix(cr).data
        for i in range(2):
            for j in range(2):
                paired = sum(m[a][i] * done[c][j] * q_cup[r, a, cr, c][0]
                             for a in range(2) for c in range(2))
                assert paired == sign * q_cup[r, i, cr, j][0], (i, j)


class TestMappingTorus:
    def test_q111_swap_torus_dimensions(self):
        entry = corpus("q111-torus")
        assert list(entry.obj.betti[:5]) == [1, 1, 1, 1, 0]
        assert entry.obj.betti[8] == 1

    def test_berger_torus_dimensions(self):
        entry = corpus("berger-torus")
        assert list(entry.obj.betti[:7]) == [1, 1, 0, 0, 0, 0, 0]

    def test_w_torus_dimensions(self):
        ident = corpus("w-torus", rho="id")
        assert list(ident.obj.betti[:5]) == [1, 1, 1, 1, 0]
        flip = corpus("w-torus", rho="flip")
        assert list(flip.obj.betti[:5]) == [1, 1, 0, 0, 0]

    def test_euler_characteristic_vanishes(self):
        for name, kw in (("q111-torus", {}), ("berger-torus", {}),
                         ("w-torus", {"rho": "id"}),
                         ("w-torus", {"rho": "flip"})):
            entry = corpus(name, **kw)
            chi = sum((-1) ** r * b for r, b in enumerate(entry.obj.betti))
            assert chi == 0, (name, kw)

    def test_identity_torus_is_a_product_with_a_circle(self):
        fibre = lens_bundle_cp2_model(1)
        h = compute(fibre, 7, with_cup=False)
        torus = mapping_torus_cohomology(
            h, CohomologyAutomorphism.identity(h), with_cup=False)
        expect = []
        for r in range(9):
            br = h.betti[r] if r <= 7 else 0
            brm = h.betti[r - 1] if 1 <= r <= 8 else 0
            expect.append(br + brm)
        assert list(torus.betti) == expect

    def test_torus_formality_models_give_formal_verdicts(self):
        # each torus entry carries a low-degree minimal model matching the
        # torus Betti numbers through degree 4 (the range feeding the
        # 3-formality argument) with a Formal verdict at dimension 8
        from cdga.sullivan import formality
        for name, kw in (("q111-torus", {}), ("berger-torus", {}),
                         ("w-torus", {"rho": "id"}),
                         ("w-torus", {"rho": "flip"})):
            entry = corpus(name, **kw)
            model = entry.metadata["formality_model"]
            s = compute(model, 4, with_cup=False)
            assert list(s.betti) == list(entry.obj.betti)[:5], (name, kw)
            verdict = formality(model, 8, cap=8)
            assert verdict.status == "Formal", (name, kw)

    @pytest.mark.parametrize("name, kw", [
        ("q111-torus", {}), ("berger-torus", {}), ("w-torus", {"rho": "id"}),
        ("w-torus", {"rho": "flip"})])
    def test_formality_model_ring_matches_the_torus(self, name, kw):
        # the stand-in and the torus share Betti numbers and cup products
        # through degree 4, where every piece has dimension at most 1; zero
        # patterns are compared, not values (the q111 torus reads 2 where
        # its stand-in reads 1)
        entry = corpus(name, **kw)
        torus = entry.obj
        model = compute(entry.metadata["formality_model"], 4, with_cup=True)
        assert list(model.betti) == list(torus.betti[:5])
        assert max(model.betti) <= 1
        for p in range(1, 4):
            for q in range(1, 5 - p):
                for i in range(model.betti[p]):
                    for j in range(model.betti[q]):
                        key = (p, i, q, j)
                        assert any(torus.cup[key]) == any(model.cup[key]), key


class TestCorpus:
    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownCorpusEntry):
            corpus("nope")

    def test_extra_parameters_rejected(self):
        with pytest.raises(ParamOutOfRange):
            corpus("berger", k=1)

    def test_aloff_wallach_generic(self):
        entry = corpus("aloff-wallach", k=1, l=1)
        assert entry.parameters["p"] == 2
        s = compute(entry.obj, 7, with_cup=False)
        assert s.betti_vector() == (1, 0, 1, 0, 0, 1, 0, 1)

    def test_aloff_wallach_degenerate(self):
        entry = corpus("aloff-wallach", k=1, l=-1)
        assert entry.parameters["p"] == 0
        s = compute(entry.obj, 7, with_cup=False)
        assert s.betti_vector() == (1, 0, 1, 0, 0, 1, 0, 1)
        with pytest.raises(ParamOutOfRange):
            corpus("aloff-wallach", k=0, l=0)

    def test_q111_entry_parameters(self):
        entry = corpus("q111", e=(2, 1, 1))
        assert entry.dimension == 7
        assert entry.parameters["e"] == (2, 1, 1)

    def test_sk_entry(self):
        entry = corpus("s-k", k=4)
        assert entry.name == "s_4"
        assert entry.parameters["N"] == 8
