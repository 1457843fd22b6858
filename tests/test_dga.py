"""Differentials: Leibniz extension, validation, tabular algebras."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdga.constructions import corpus, q_model, s_k_model, x6_model
from cdga.dga import DGA, Differential, TabularDGA
from cdga.errors import InhomogeneousDifferential, MixedAlgebra, WrongDegree
from cdga.gca import Algebra
from cdga.sullivan import minimal_model

from conftest import naive_d, naive_tabular_validate


class TestExamples:
    def test_leibniz_on_powers(self, cp2):
        a, x = cp2.gen("a"), cp2.gen("x")
        assert cp2.d(x) == a ** 3
        assert cp2.d(a * x) == a ** 4
        assert cp2.d(cp2.one()).is_zero()
        assert cp2.d(cp2.zero()).is_zero()

    def test_leibniz_sign_on_odd_prefix(self, cp2):
        a, x = cp2.gen("a"), cp2.gen("x")
        # d(x * a) = (dx) * a  since |x| is odd but x*a = a*x
        assert cp2.d(x * a) == a ** 4

    def test_d2_witness_for_twisted_extension(self):
        # Dc = g*a*b, Dy = c^2 forces D^2(y) = 2g*a*b*c, so g must vanish
        g = Fraction(2)
        alg = Algebra([("b", 1), ("a", 2), ("c", 2), ("y", 3)])
        a, b, c = alg.gen("a"), alg.gen("b"), alg.gen("c")
        dga = DGA(alg, Differential(alg, {"c": a * b * g, "y": c * c}))
        report = dga.validate()
        assert not report.ok
        assert report.d2_failures == [("y", a * b * c * (2 * g))]

    def test_d2_cross_term_with_twisted_b(self):
        # with Db = e*a as well, D^2(c) = e*g*a^2 also obstructs
        e, g = Fraction(3), Fraction(2)
        alg = Algebra([("b", 1), ("a", 2), ("c", 2), ("y", 3)])
        a, b, c = alg.gen("a"), alg.gen("b"), alg.gen("c")
        dga = DGA(alg, Differential(alg, {
            "b": a * e, "c": a * b * g, "y": c * c}))
        failures = dict(dga.validate().d2_failures)
        assert failures["c"] == a * a * (e * g)
        assert failures["y"] == a * b * c * (2 * g)

    def test_zero_twist_validates(self):
        alg = Algebra([("b", 1), ("a", 2), ("c", 2), ("y", 3)])
        a, c = alg.gen("a"), alg.gen("c")
        dga = DGA(alg, Differential(alg, {"b": a * 3, "y": c * c}))
        assert dga.validate().ok

    def test_wrong_degree_image_rejected(self):
        alg = Algebra([("a", 2), ("x", 5)])
        with pytest.raises(WrongDegree):
            Differential(alg, {"x": alg.gen("a") ** 2})

    def test_inhomogeneous_image_rejected(self):
        alg = Algebra([("a", 2), ("z", 3), ("x", 5)])
        with pytest.raises(InhomogeneousDifferential):
            Differential(alg, {"x": alg.gen("a") ** 3 + alg.gen("z")})

    def test_unknown_generator_image_rejected(self):
        alg = Algebra([("a", 2)])
        with pytest.raises(KeyError):
            Differential(alg, {"q": alg.zero()})

    def test_foreign_element_rejected(self, cp2):
        other = Algebra([("a", 2)])
        with pytest.raises(MixedAlgebra):
            cp2.d(other.gen("a"))

    def test_minimality_detection(self, cp2):
        assert cp2.is_minimal()
        alg = Algebra([("a", 2), ("u", 3)])
        linear = DGA(alg, Differential(alg, {"u": alg.gen("a") ** 2}))
        assert linear.is_minimal()
        alg2 = Algebra([("b", 1), ("a", 2)])
        nonmin = DGA(alg2, Differential(alg2, {"b": alg2.gen("a")}))
        assert not nonmin.is_minimal()


SEVEN = Algebra([("y", 1), ("a1", 2), ("a2", 2), ("a3", 2),
                 ("x1", 3), ("x2", 3), ("x3", 3)])
SEVEN_DGA = DGA(SEVEN, Differential(SEVEN, {
    "y": SEVEN.gen("a1") + SEVEN.gen("a2") + SEVEN.gen("a3"),
    "x1": SEVEN.gen("a1") ** 2,
    "x2": SEVEN.gen("a2") ** 2,
    "x3": SEVEN.gen("a3") ** 2}))


@st.composite
def homogeneous(draw, alg=SEVEN, max_degree=8):
    degrees = [k for k in range(1, max_degree + 1) if alg.degree_basis(k)]
    k = draw(st.sampled_from(degrees))
    basis = alg.degree_basis(k)
    out = alg.zero()
    for _ in range(draw(st.integers(1, 3))):
        mono = basis[draw(st.integers(0, len(basis) - 1))]
        out = out + alg.element({mono: Fraction(draw(st.integers(-5, 5)),
                                                draw(st.integers(1, 3)))})
    return out


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(homogeneous(), homogeneous())
    def test_leibniz_rule(self, x, y):
        d = SEVEN_DGA.d
        sign = 1
        if not x.is_zero() and x.degree() % 2:
            sign = -1
        assert d(x * y) == d(x) * y + (x * d(y)) * Fraction(sign)

    @settings(max_examples=200, deadline=None)
    @given(homogeneous())
    def test_d_squared_zero(self, x):
        assert SEVEN_DGA.d(SEVEN_DGA.d(x)).is_zero()

    @settings(max_examples=100, deadline=None)
    @given(homogeneous(), homogeneous())
    def test_d_is_linear(self, x, y):
        d = SEVEN_DGA.d
        assert d(x + y) == d(x) + d(y)
        assert d(x * Fraction(5, 3)) == d(x) * Fraction(5, 3)


@pytest.fixture(scope="module")
def x6():
    return x6_model()


@pytest.fixture(scope="module")
def s3_minimal():
    return minimal_model(s_k_model(3)[0], 5).dga


class TestMonomialLeibniz:
    """DGA.d against naive_d, the same rule through Element products; both
    the coefficients and the order of the terms must agree."""

    @staticmethod
    def check(dga, e):
        fast, slow = dga.d(e), naive_d(dga, e)
        assert list(fast.terms.items()) == list(slow.terms.items())

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*[st.integers(-2, 2)] * 3).map(q_model), st.data())
    def test_q_models(self, dga, data):
        self.check(dga, data.draw(homogeneous(dga.algebra, 9)))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_x6(self, x6, data):
        self.check(x6, data.draw(homogeneous(x6.algebra, 9)))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_minimal_model_of_s3(self, s3_minimal, data):
        self.check(s3_minimal, data.draw(homogeneous(s3_minimal.algebra, 7)))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_image_factor_after_an_odd_tail(self, data):
        # d(g) = f sorts after t, so g*t -> f*t = -t*f needs the sign of
        # moving f past the tail
        alg = Algebra([("g", 2), ("t", 3), ("f", 3)])
        dga = DGA(alg, Differential(alg, {"g": alg.gen("f")}))
        g, t, f = alg.gen("g"), alg.gen("t"), alg.gen("f")
        assert dga.d(g * t) == f * t == -(t * f)
        self.check(dga, data.draw(homogeneous(alg, 12)))

    def test_every_basis_monomial(self, x6, s3_minimal):
        for dga in (q_model((1, 1, 1)), x6, s3_minimal):
            for k in range(8):
                for mono in dga.algebra.degree_basis(k):
                    self.check(dga, dga.algebra.element({mono: 1}))


# every tabular model of the corpus: the s_k models and the tori, whose
# corpus object is the cohomology summary of a tabular algebra
TABULAR_CORPUS = [("s_k", {"k": k}) for k in range(3, 9)] + [
    ("q111-torus", {}), ("berger-torus", {}), ("w-torus", {"rho": "id"}),
    ("w-torus", {"rho": "flip"})]


def perturbed(tab, products, differential):
    """tab rebuilt with some product and differential entries replaced;
    products are keyed by label pairs in basis order."""
    old_products = {}
    for (i, j), entry in tab.table.items():
        if i <= j:
            old_products[(tab.labels[i], tab.labels[j])] = {
                tab.labels[k]: c for k, c in entry.items()}
    old_diff = {tab.labels[i]: {tab.labels[k]: c for k, c in entry.items()}
                for i, entry in tab.diff.items()}
    basis = list(zip(tab.labels, tab.degrees))
    return TabularDGA(basis, {**old_products, **products},
                      {**old_diff, **differential})


def rescaled(tab, scales):
    """tab on the basis scales[i] * e_i (the unit keeps scale 1): the same
    algebra, with rational structure constants for rational scales."""
    lam = [Fraction(1) if i == tab.unit else Fraction(x)
           for i, x in enumerate(scales)]
    products = {
        (tab.labels[i], tab.labels[j]): {
            tab.labels[k]: c * lam[i] * lam[j] / lam[k]
            for k, c in entry.items()}
        for (i, j), entry in tab.table.items() if i <= j}
    differential = {
        tab.labels[i]: {tab.labels[k]: c * lam[i] / lam[k]
                        for k, c in entry.items()}
        for i, entry in tab.diff.items()}
    return TabularDGA(list(zip(tab.labels, tab.degrees)), products,
                      differential)


nonzero_scales = st.fractions(-3, 3, max_denominator=7).filter(bool)


@st.composite
def rescaled_tables(draw, tab):
    return rescaled(tab, draw(st.lists(nonzero_scales, min_size=len(tab.labels),
                                       max_size=len(tab.labels))))


@st.composite
def broken_tables(draw, tab, coeff=st.integers(-2, 2)):
    """tab with up to three product and two differential entries changed,
    each to coeff times a class of the right degree."""
    n = len(tab.labels)
    nonunit = [i for i in range(n) if i != tab.unit]
    by_degree = {}
    for i, d in enumerate(tab.degrees):
        by_degree.setdefault(d, []).append(i)
    products = {}
    for _ in range(draw(st.integers(0, 3))):
        i, j = sorted(draw(st.tuples(st.sampled_from(nonunit),
                                     st.sampled_from(nonunit))))
        targets = by_degree.get(tab.degrees[i] + tab.degrees[j], [])
        value = {}
        if targets and draw(st.booleans()):
            value = {tab.labels[draw(st.sampled_from(targets))]: draw(coeff)}
        products[(tab.labels[i], tab.labels[j])] = value
    differential = {}
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.sampled_from(range(n)))
        targets = by_degree.get(tab.degrees[i] + 1, [])
        value = {}
        if targets and draw(st.booleans()):
            value = {tab.labels[draw(st.sampled_from(targets))]: draw(coeff)}
        differential[tab.labels[i]] = value
    return perturbed(tab, products, differential)


# a table of nonnegative degrees cannot hit the unit, its only degree-0
# class, so this one meets the unit's scale 1 through its rational product
# and differential instead
RATIONAL_TABLE = TabularDGA([("1", 0), ("w", 1), ("u", 1), ("s", 2)],
                            {("w", "u"): {"s": Fraction(1, 2)}},
                            {"w": {"s": Fraction(2, 3)}})


@pytest.fixture(scope="module")
def s3_table():
    return s_k_model(3)[0]


@pytest.fixture(scope="module")
def torus_table():
    return corpus("w-torus", rho="id").obj.source


class TestSparseValidate:
    """TabularDGA.validate against naive_tabular_validate, the full n^3 and
    n^2 sweeps: the same problems in the same order."""

    @pytest.mark.parametrize("name,params", TABULAR_CORPUS)
    def test_corpus_models(self, name, params):
        tab = corpus(name, **params).obj
        tab = tab if isinstance(tab, TabularDGA) else tab.source
        assert tab.validate() == naive_tabular_validate(tab) == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_broken_tables(self, s3_table, torus_table, data):
        tab = data.draw(st.one_of(broken_tables(s3_table),
                                  broken_tables(torus_table)))
        assert tab.validate() == naive_tabular_validate(tab)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_rescaled_corpus_models(self, s3_table, torus_table, data):
        # rational structure constants: the validation scales differ from 1
        tab = data.draw(st.one_of(rescaled_tables(s3_table),
                                  rescaled_tables(torus_table)))
        assert tab.validate() == naive_tabular_validate(tab) == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_broken_tables_with_rational_entries(self, s3_table, torus_table,
                                                 data):
        # the third table's own product and differential are rational
        coeff = st.fractions(-2, 2, max_denominator=7)
        base = data.draw(st.sampled_from([s3_table, torus_table,
                                          RATIONAL_TABLE]))
        if data.draw(st.booleans()):
            base = data.draw(rescaled_tables(base))
        tab = data.draw(broken_tables(base, coeff))
        assert tab.validate() == naive_tabular_validate(tab)

    def test_broken_s3_has_every_kind_of_problem(self, s3_table):
        tab = perturbed(s3_table, {("a", "a"): {"nu": 2}, ("y", "y"): {}},
                        {"a": {"y*a": 1}})
        problems = tab.validate()
        assert problems == naive_tabular_validate(tab)
        for kind in ("associativity", "d^2", "Leibniz"):
            assert any(p.startswith(kind) for p in problems)

    def test_two_failures_of_each_kind_in_the_oracle_order(self, s3_table):
        tab = perturbed(s3_table, {("y", "y"): {"a": 1},
                                   ("y*a", "y*a"): {"nub": 1},
                                   ("a", "a"): {"nu": 2}},
                        {"a": {"y*a": 1}, "b": {"y*b": 1}})
        problems = tab.validate()
        assert problems == naive_tabular_validate(tab)
        for kind in ("commutativity", "associativity", "d^2", "Leibniz"):
            assert sum(p.startswith(kind) for p in problems) >= 2

    def test_differential_on_the_unit(self):
        # d(1) = u breaks Leibniz on every pair through the unit whose
        # d(1)*x or x*d(1) is nonzero
        tab = TabularDGA([("1", 0), ("u", 1), ("s", 2), ("us", 3)],
                         {("u", "s"): {"us": 1}}, {"1": {"u": 1}})
        problems = tab.validate()
        assert problems == naive_tabular_validate(tab)
        assert "Leibniz fails at 1,s" in problems

    def test_a_class_that_would_hit_the_unit_is_refused(self):
        # only a class of degree -1 makes w*u or d(w) a multiple of the unit
        with pytest.raises(ValueError, match="basis degrees must be >= 0"):
            TabularDGA([("1", 0), ("w", -1), ("u", 1), ("s", 2)],
                       {("w", "u"): {"1": 1}}, {"w": {"1": 1}})


class TestTabular:
    def tab_sphere(self):
        return TabularDGA([("1", 0), ("s", 2), ("t", 4)],
                          {("s", "s"): {"t": 1}, ("s", "t"): {},
                           ("t", "t"): {}}, {})

    def test_products_and_unit(self):
        tab = self.tab_sphere()
        s = tab.gen("s")
        assert s * s == tab.gen("t")
        assert tab.one() * s == s
        assert (s * tab.gen("t")).is_zero()

    def test_validate_clean(self):
        assert self.tab_sphere().validate() == []

    def test_degree_index_is_cached_per_object(self):
        tab = TabularDGA([("1", 0), ("u", 3), ("s", 2), ("v", 3)])
        assert tab.degree_basis(3) == [1, 3]
        assert tab.degree_index(3) == {1: 0, 3: 1}
        assert tab.degree_index(3) is tab.degree_index(3)
        assert tab.degree_index(5) == {}

    def test_integral_entries_are_ints_and_coefficients_fractions(self):
        tab = TabularDGA([("1", 0), ("s", 2), ("u", 3), ("t", 4)],
                         {("s", "s"): {"t": Fraction(2)}},
                         {"u": {"t": Fraction(1, 2)}})
        (entry,), (image,) = tab.table.values(), tab.diff.values()
        assert entry == {3: 2} and type(entry[3]) is int
        assert image == {3: Fraction(1, 2)}
        s = tab.gen("s")
        for e in (s * s, (s * Fraction(1, 3)) * s, tab.d(tab.gen("u"))):
            assert e.terms and all(type(c) is Fraction
                                   for c in e.terms.values())
        s3 = s_k_model(3)[0]
        product = s3.gen("a") * s3.gen("y*a")
        assert product.terms and all(type(c) is Fraction
                                     for c in product.terms.values())

    def test_graded_commutativity_completed_with_sign(self):
        tab = TabularDGA([("1", 0), ("u", 3), ("v", 3), ("w", 6)],
                         {("u", "v"): {"w": 1}, ("u", "u"): {},
                          ("v", "v"): {}, ("u", "w"): {}, ("v", "w"): {},
                          ("w", "w"): {}}, {})
        u, v, w = tab.gen("u"), tab.gen("v"), tab.gen("w")
        assert u * v == w
        assert v * u == -w
        assert tab.validate() == []

    def test_inconsistent_commutativity_rejected(self):
        with pytest.raises(ValueError):
            TabularDGA([("1", 0), ("u", 3), ("v", 3), ("w", 6)],
                       {("u", "v"): {"w": 1}, ("v", "u"): {"w": 1}}, {})

    def test_differential_degree_checked(self):
        with pytest.raises(WrongDegree):
            TabularDGA([("1", 0), ("u", 1), ("t", 4)], {},
                       {"u": {"t": 1}})

    def test_d2_detected_by_validate(self):
        tab = TabularDGA([("1", 0), ("u", 1), ("s", 2), ("v", 3)], {},
                         {"u": {"s": 1}, "s": {"v": 1}})
        assert any("d^2" in p for p in tab.validate())

    def test_odd_square_breaks_commutativity(self):
        tab = TabularDGA([("1", 0), ("u", 1), ("s", 2)],
                         {("u", "u"): {"s": 1}}, {})
        assert tab.validate() == ["commutativity fails at u,u"]

    def test_associativity_failure_reported(self):
        # (a*a)*b = c*b = t, but a*(a*b) = 0
        tab = TabularDGA([("1", 0), ("a", 2), ("b", 2), ("c", 4), ("t", 6)],
                         {("a", "a"): {"c": 1}, ("c", "b"): {"t": 1}}, {})
        assert tab.validate() == ["associativity fails at a,a,b",
                                  "associativity fails at b,a,a"]

    def test_leibniz_failure_reported(self):
        # d(u*a) = d(v) = w, but d(u)*a - u*d(a) = 0
        tab = TabularDGA([("1", 0), ("u", 1), ("a", 2), ("v", 3), ("w", 4)],
                         {("u", "a"): {"v": 1}}, {"v": {"w": 1}})
        assert tab.validate() == ["Leibniz fails at u,a",
                                  "Leibniz fails at a,u"]

    def test_unit_law_entries_accepted(self):
        tab = TabularDGA([("1", 0), ("s", 2), ("t", 2)],
                         {("1", "s"): {"s": 1}, ("t", "1"): {"t": 1},
                          ("1", "1"): {"1": 1}}, {})
        assert tab.table == {}
        assert tab.validate() == []

    @pytest.mark.parametrize("products", [
        {("1", "s"): {"t": 2}}, {("s", "1"): {"s": 2}}, {("1", "s"): {}},
        {("1", "s"): {"s": 1, "t": 1}}, {("1", "1"): {}}])
    def test_unit_products_other_than_the_unit_law_rejected(self, products):
        # mul_basis uses 1*x = x whatever the table says
        with pytest.raises(ValueError, match="with the unit"):
            TabularDGA([("1", 0), ("s", 2), ("t", 2)], products, {})

    def test_negative_power_rejected(self):
        tab = self.tab_sphere()
        s = tab.gen("s")
        assert s ** 0 == tab.one() and s ** 2 == tab.gen("t")
        with pytest.raises(ValueError, match="negative power"):
            s ** -1

    def test_needs_single_unit(self):
        with pytest.raises(ValueError):
            TabularDGA([("1", 0), ("1b", 0)], {}, {})
        with pytest.raises(ValueError):
            TabularDGA([("s", 2)], {}, {})
