"""Cohomology summaries: Betti numbers, classes, exactness, cup products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdga.cohomology import ChainComplex, compute, is_exact
from cdga.constructions import CORPUS_NAMES, corpus, s_k_model, x6_model
from cdga.dga import DGA, TabularDGA
from cdga.errors import BoundTooLow, NotACocycle, WrongDegree
from cdga.gca import Algebra, linear_combination

from conftest import naive_d


class TestExamples:
    def test_cp2_betti(self, cp2):
        s = compute(cp2, 5)
        assert s.betti_vector() == (1, 0, 1, 0, 1, 0)

    def test_q111_betti(self, q111):
        s = compute(q111, 7, with_cup=False)
        assert s.betti_vector() == (1, 0, 2, 0, 0, 2, 0, 1)

    def test_seven_sphere_betti(self):
        alg = Algebra([("u", 7)])
        s = compute(DGA(alg, {}), 7, with_cup=False)
        assert s.betti_vector() == (1, 0, 0, 0, 0, 0, 0, 1)

    def test_exactness_with_primitive(self, cp2):
        a = cp2.gen("a")
        w = compute(cp2, 6, with_cup=False).is_exact(a ** 3)
        assert w is not None and cp2.d(w) == a ** 3
        ok, prim = is_exact(cp2, a ** 3)
        assert ok and cp2.d(prim) == a ** 3

    def test_nonexact_class(self, cp2):
        s = compute(cp2, 4, with_cup=False)
        assert s.is_exact(cp2.gen("a")) is None
        assert any(s.class_coords(cp2.gen("a"))[1])

    def test_q111_a2a3_is_exact(self, q111):
        a2, a3 = q111.gen("a2"), q111.gen("a3")
        s = compute(q111, 5, with_cup=False)
        prim = s.is_exact(a2 * a3)
        assert prim is not None and q111.d(prim) == a2 * a3
        # the closed combination (x1 - y*a1 + y*a2 + y*a3 - x2 - x3)/2
        # also bounds a2*a3
        x1, x2, x3 = (q111.gen(n) for n in ("x1", "x2", "x3"))
        y = q111.gen("y")
        a1 = q111.gen("a1")
        cand = (x1 - y * a1 + y * a2 + y * a3 - x2 - x3) * Fraction(1, 2)
        assert q111.d(cand) == a2 * a3

    def test_unit_is_not_exact(self, q111):
        # degree 0 has no degree -1 piece to bound from, free or tabular
        tab = TabularDGA([("1", 0), ("u", 1)], {("u", "u"): {}}, {})
        for dga in (q111, tab):
            assert compute(dga, 3).is_exact(dga.one()) is None
            assert is_exact(dga, dga.one()) == (False, None)

    def test_not_a_cocycle_raises(self, cp2):
        # every non-closed basis element, free (cp2) and tabular (s_3)
        for obj in (cp2, s_k_model(3)[0]):
            s = compute(obj, 6, with_cup=False)
            chain = s.ctx
            open_elems = [e for k in range(7) for e in
                          (chain.from_coords(k, [Fraction(i == j)
                                                 for j in range(chain.dim(k))])
                           for i in range(chain.dim(k)))
                          if not s.is_cocycle(e)]
            assert open_elems
            for e in open_elems:
                with pytest.raises(NotACocycle):
                    s.class_coords(e)
                with pytest.raises(NotACocycle,
                                   match="^element is not closed$"):
                    s.is_exact(e)

    def test_degree_bound_enforced(self, cp2):
        s = compute(cp2, 2, with_cup=False)
        with pytest.raises(BoundTooLow):
            s.class_coords(cp2.gen("a") ** 2)
        with pytest.raises(BoundTooLow):
            compute(cp2, -1)

    def test_require_checks_object_and_bound(self, q111, cp2):
        s = compute(q111, 5, with_cup=False)
        s.require(q111, 5)
        s.require(q111, 0)
        for obj, degree in ((q111, 6), (cp2, 5)):
            with pytest.raises(BoundTooLow, match="^summary does not cover "
                                                  "the requested degree cap$"):
                s.require(obj, degree)

    def test_zero_class_needs_degree(self, cp2):
        s = compute(cp2, 2, with_cup=False)
        with pytest.raises(WrongDegree,
                           match="^zero element needs an explicit degree$"):
            s.class_coords(cp2.zero())
        assert s.class_coords(cp2.zero(), degree=2) == (2, (Fraction(0),))

    def test_class_of_another_degree_is_refused(self, cp2):
        s = compute(cp2, 4, with_cup=False)
        with pytest.raises(WrongDegree,
                           match="^element has degree 2, expected 3$"):
            s.class_coords(cp2.gen("a"), degree=3)

    @pytest.mark.parametrize("kind", ["free", "tabular"])
    def test_zero_class_degree_is_checked(self, kind, cp2):
        obj = cp2 if kind == "free" else s_k_model(3)[0]
        s = compute(obj, 4, with_cup=False)
        assert s.class_coords(obj.zero(), degree=0) == (0, (Fraction(0),))
        assert s.class_coords(obj.zero(), degree=4)[0] == 4
        with pytest.raises(BoundTooLow, match="^degree must be >= 0, got -1$"):
            s.class_coords(obj.zero(), degree=-1)
        with pytest.raises(BoundTooLow,
                           match="degree 5 beyond computed bound 4"):
            s.class_coords(obj.zero(), degree=5)

    @pytest.mark.parametrize("kind", ["free", "tabular"])
    def test_not_a_cocycle_message(self, kind, cp2):
        # class_coords finds a non-closed element by its failed solve on
        # [representatives | coboundaries], with the message of the
        # explicit d(e) = 0 check it replaces
        obj = cp2 if kind == "free" else s_k_model(3)[0]
        s = compute(obj, 7, with_cup=False)
        chain = s.ctx
        found = 0
        for k in range(8):
            for i in range(chain.dim(k)):
                e = chain.from_coords(k, [Fraction(i == j)
                                          for j in range(chain.dim(k))])
                if s.is_cocycle(e):
                    s.class_coords(e, degree=k)
                    continue
                found += 1
                with pytest.raises(NotACocycle) as err:
                    s.class_coords(e, degree=k)
                assert str(err.value) == f"element of degree {k} is not closed"
                if s.betti[k]:
                    with pytest.raises(NotACocycle, match="is not closed"):
                        s.class_coords(e + s.representatives[k][0])
        assert found

    def test_tabular_cohomology(self):
        tab = TabularDGA([("1", 0), ("u", 1), ("s", 2)], {("u", "u"): {},
                                                          ("u", "s"): {},
                                                          ("s", "s"): {}},
                         {"u": {"s": 2}})
        s = compute(tab, 2, with_cup=False)
        assert s.betti_vector() == (1, 0, 0)

    def test_cup_table_on_cp2(self, cp2):
        s = compute(cp2, 4, with_cup=True)
        # [a] cup [a] = [a^2], both one-dimensional
        assert s.cup[(2, 0, 2, 0)] == (Fraction(1),)

    @pytest.mark.parametrize("kind", ["free", "tabular"])
    def test_rep_combination_is_the_coordinate_sum(self, kind, q111):
        obj = q111 if kind == "free" else s_k_model(3)[0]
        s = compute(obj, 6, with_cup=False)
        for k in range(7):
            b = s.betti[k]
            reps = [s.ctx.coords(r, k) for r in s.representatives[k]]
            vecs = [[Fraction(0)] * b,
                    [Fraction(i % 2) for i in range(b)],
                    [Fraction(-i, 3) for i in range(b)],
                    [Fraction(i + 1) * (i != b - 1) for i in range(b)]]
            for v in vecs:
                want = s.ctx.from_coords(
                    k, [sum((c * r[t] for c, r in zip(v, reps)), Fraction(0))
                        for t in range(s.ctx.dim(k))])
                assert s.ctx.algebra.from_terms(linear_combination(
                    (c, r.terms) for c, r in zip(v, s.representatives[k]))) \
                    == want

    @pytest.mark.parametrize("name", ["x6", "q111", "s_3"])
    def test_class_coords_are_fractions(self, name, q111):
        # the CLI prints a Fraction as "p/q" and an int as a JSON number, so
        # an int coordinate would change --ring output
        obj = {"q111": q111, "x6": x6_model(),
               "s_3": s_k_model(3)[0]}[name]
        s = compute(obj, 7)
        vecs = list(s.cup.values())
        for k in range(8):
            for i, rep in enumerate(s.representatives[k]):
                vecs.append(s.class_coords(rep * Fraction(3, 2), degree=k)[1])
            vecs.append(s.class_coords(obj.zero(), degree=k)[1])
        assert vecs and all(type(c) is Fraction for v in vecs for c in v)

    def test_rep_combination_inverts_class_coords(self, q111):
        s = compute(q111, 5, with_cup=False)
        for k in (2, 5):
            for i, rep in enumerate(s.representatives[k]):
                _, vec = s.class_coords(rep, degree=k)
                assert vec == tuple(Fraction(t == i)
                                    for t in range(s.betti[k]))
                assert s.ctx.algebra.from_terms(linear_combination(
                    (c, r.terms) for c, r in zip(vec, s.representatives[k]))) \
                    == rep


def dense_columns(chain, k):
    """chain.d_matrix(k) as dense Fraction columns, its sparse integer
    columns over the DGA's d_den, after checking that they hold only
    nonzero ints."""
    cols = chain.d_matrix(k)
    assert all(type(x) is int and x for col in cols for x in col.values())
    assert all(0 <= i < chain.dim(k + 1) for col in cols for i in col)
    return [tuple(Fraction(col.get(i, 0), chain.dga.d_den)
                  for i in range(chain.dim(k + 1))) for col in cols]


class TestChainComplex:
    @pytest.mark.parametrize("kind", ["free", "tabular"])
    def test_is_exact_ignores_the_summary_bound(self, kind, q111):
        # q111 is free, s_3 tabular; each exactness question must get the
        # same answer whatever degree bound the asking summary was built to
        obj = q111 if kind == "free" else s_k_model(3)[0]
        low = compute(obj, 1, with_cup=False)
        high = compute(obj, 8, with_cup=False)
        chain = ChainComplex(obj)

        def primitive(z):
            w = chain.is_exact(z)
            assert low.is_exact(z) == w and high.is_exact(z) == w
            assert is_exact(obj, z) == (w is not None, w)
            return w

        for k in range(8):
            n = chain.dim(k - 1)
            for i in range(n):
                b = chain.from_coords(k - 1, [Fraction(i == j)
                                              for j in range(n)])
                z = obj.d(b)
                w = primitive(z)
                assert w is not None and obj.d(w) == z
                assert w.is_zero() or w.degree() == k - 1
            for r in high.representatives[k]:
                assert primitive(r) is None

    @pytest.mark.parametrize("name", ["q111", "x6", "s_3"])
    def test_d_matrix_is_the_matrix_of_d(self, name, q111):
        # sparse assembly against coordinates of d on each basis element
        obj = {"q111": q111, "x6": x6_model(),
               "s_3": s_k_model(3)[0]}[name]
        chain = ChainComplex(obj)
        for k in range(9):
            n = chain.dim(k)
            cols = [chain.coords(obj.d(chain.from_coords(
                k, [Fraction(i == j) for j in range(n)])), k + 1)
                for i in range(n)]
            assert dense_columns(chain, k) == cols

    def test_d_matrix_on_every_corpus_model(self):
        # the integer assembly against the coordinates of d on each basis
        # element, with integer and with non-integer differentials
        models = corpus_models() + fractional_models()
        for name, obj in models:
            chain = ChainComplex(obj)
            one = Fraction(1)
            for k in range(9):
                cols = [chain.coords(obj.d(obj.algebra.from_terms({b: one})),
                                     k + 1) for b in chain.basis(k)]
                assert dense_columns(chain, k) == cols, (name, k)
        assert {obj.d_den for _, obj in fractional_models()} == {18, 6}

    def test_fractional_differential_by_element_products(self):
        _, obj = fractional_models()[0]
        chain = ChainComplex(obj)
        for k in range(9):
            for b in chain.basis(k):
                e = obj.algebra.from_terms({b: Fraction(3, 4)})
                assert obj.d(e) == naive_d(obj, e)

    def test_summary_shares_its_chain_complex(self, q111):
        s = compute(q111, 3, with_cup=False)
        assert s.d_matrix(2) is s.ctx.d_matrix(2)

    def test_rejects_other_objects(self):
        with pytest.raises(TypeError):
            ChainComplex(object())


def corpus_models():
    """(name, DGA or TabularDGA) of every corpus entry; a mapping-torus
    entry is a cohomology summary, given by its formality model."""
    entries = [corpus(name) for name in CORPUS_NAMES if name != "s_k"]
    entries += [corpus("s_k", k=k) for k in range(3, 9)]
    entries += [corpus("w-torus", rho="flip"),
                corpus("aloff-wallach", k=1, l=-1)]
    return [(e.name, e.metadata.get("formality_model", e.obj))
            for e in entries]


def fractional_models():
    """A free and a tabular DGA whose differentials have non-integer
    coefficients of different denominators in different degrees."""
    alg = Algebra([("a", 2), ("b", 2), ("x", 3), ("y", 5)])
    a, b = alg.gen("a"), alg.gen("b")
    free = DGA(alg, {
        "x": a * b * Fraction(1, 2),
        "y": a ** 3 * Fraction(2, 3) - b ** 3 * Fraction(4, 9)})
    tab = TabularDGA([("1", 0), ("e", 1), ("f", 2), ("g", 3), ("h", 4)],
                     {}, {"e": {"f": "1/2"}, "g": {"h": "2/3"}})
    return [("fractional free", free), ("fractional tabular", tab)]


def permuted_q_model():
    """The Q(1,1,1) generators listed in a different order."""
    alg = Algebra([("x3", 3), ("a2", 2), ("y", 1), ("x1", 3),
                   ("a1", 2), ("a3", 2), ("x2", 3)])
    return DGA(alg, {
        "y": alg.gen("a1") + alg.gen("a2") + alg.gen("a3"),
        "x1": alg.gen("a1") ** 2,
        "x2": alg.gen("a2") ** 2,
        "x3": alg.gen("a3") ** 2})


class TestInvariance:
    def test_betti_invariant_under_generator_permutation(self, q111):
        assert compute(q111, 7, with_cup=False).betti == \
            compute(permuted_q_model(), 7, with_cup=False).betti

    def test_summary_is_deterministic(self, q111):
        s1 = compute(q111, 6, with_cup=False)
        s2 = compute(q111, 6, with_cup=False)
        assert s1.betti == s2.betti
        assert [list(map(str, s1.representatives[k])) for k in range(7)] == \
            [list(map(str, s2.representatives[k])) for k in range(7)]


@pytest.fixture(scope="module")
def x6_summary():
    from cdga.constructions import x6_model
    return compute(x6_model(), 6, with_cup=True)


class TestCupProperties:
    def test_cup_graded_commutative_on_classes(self, x6_summary):
        s = x6_summary
        for p in range(7):
            for q in range(7 - p):
                sign = Fraction(-1 if (p % 2 and q % 2) else 1)
                for i in range(s.betti[p]):
                    for j in range(s.betti[q]):
                        assert s.cup[(p, i, q, j)] == tuple(
                            c * sign for c in s.cup[(q, j, p, i)])

    def test_cup_associative_on_classes(self, x6_summary):
        s = x6_summary
        for p in range(7):
            for q in range(7 - p):
                for r in range(7 - p - q):
                    for i in range(s.betti[p]):
                        for j in range(s.betti[q]):
                            for k in range(s.betti[r]):
                                x = s.representatives[p][i]
                                y = s.representatives[q][j]
                                z = s.representatives[r][k]
                                left = s.class_coords((x * y) * z,
                                                      degree=p + q + r)[1]
                                right = s.class_coords(x * (y * z),
                                                       degree=p + q + r)[1]
                                assert left == right
