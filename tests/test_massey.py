"""Triple Massey products: definedness, indeterminacy, choice independence."""

import random
from fractions import Fraction

import pytest

from cdga.cohomology import compute
from cdga.errors import BoundTooLow, NoSolution, NotACocycle, NotDefined
from cdga.exactla import Subspace
from cdga.massey import triple, try_triple


class TestExamples:
    def test_q111_witness(self, q111):
        a2, a3 = q111.gen("a2"), q111.gen("a3")
        res = triple(q111, a2, a2, a3, max_degree=5)
        assert res.defined
        assert res.degree == 5
        assert res.indeterminacy.dim == 0
        assert not res.vanishes
        assert any(res.representative_class)
        # sanity: both primitives actually bound the cup products
        a12, a23 = res.primitives
        assert q111.d(a12) == a2 * a2
        assert q111.d(a23) == a2 * a3

    def test_cp2_power_products_obstruct(self, cp2):
        a = cp2.gen("a")
        with pytest.raises(NotDefined):
            triple(cp2, a, a, a, max_degree=5)
        res = try_triple(cp2, a, a, a, max_degree=5)
        assert not res.defined and res.degree == 5
        assert "nonzero class" in res.reason

    def test_s3_default_obstruction(self):
        from cdga.constructions import s_k_model
        tab, ledger = s_k_model(3)
        a, a1 = tab.gen("a"), tab.gen("a1")
        res = triple(tab, a, a, a1, max_degree=5)
        assert res.defined
        assert res.indeterminacy.dim == 0
        assert not res.vanishes
        # closed form: -(1 - sum eps_i^2)^{-1} (eps_1*nu - b*a1) * (y/N)
        eps = ledger["epsilon"]
        scale = -1 / (1 - sum(e * e for e in eps))
        expected = (tab.gen("y") * Fraction(1, ledger["N"])) * \
            (tab.gen("nu") * eps[0] - tab.gen("a1b")) * scale
        s = compute(tab, 5, with_cup=False)
        _, want = s.class_coords(expected, degree=5)
        assert res.representative_class == want

    def test_arguments_must_be_closed_and_homogeneous(self, cp2):
        a, x = cp2.gen("a"), cp2.gen("x")
        with pytest.raises(NotACocycle):
            triple(cp2, x, a, a, max_degree=8)
        with pytest.raises(NotACocycle):
            triple(cp2, a + x, a, a, max_degree=8)
        with pytest.raises(NotACocycle):
            triple(cp2, cp2.zero(), a, a, max_degree=8)

    def test_supplied_primitives_are_checked(self, q111):
        a2, a3 = q111.gen("a2"), q111.gen("a3")
        with pytest.raises(NoSolution, match="do not bound the products"):
            triple(q111, a2, a2, a3, max_degree=5,
                   primitives=(q111.zero(), q111.zero()))

    def test_bound_below_product_degree_rejected(self, q111):
        a2, a3 = q111.gen("a2"), q111.gen("a3")
        with pytest.raises(BoundTooLow):
            triple(q111, a2, a2, a3, max_degree=4)


def closed_perturbation(summary, degree, rng):
    """A random cocycle of the given degree (possibly exact)."""
    z = summary.source.zero()
    for v in summary.cocycles[degree].basis:
        z = z + summary.ctx.from_coords(degree, v) * \
            Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return z


class TestChoiceIndependence:
    def test_verdict_constant_under_primitive_perturbations(self, q111):
        summary = compute(q111, 5, with_cup=False)
        a2, a3 = q111.gen("a2"), q111.gen("a3")
        base = triple(q111, a2, a2, a3, summary=summary)
        a12, a23 = base.primitives
        rng = random.Random(20240801)
        for _ in range(60):
            z1 = closed_perturbation(summary, 3, rng)
            z2 = closed_perturbation(summary, 3, rng)
            res = triple(q111, a2, a2, a3, summary=summary,
                         primitives=(a12 + z1, a23 + z2))
            assert res.defined
            assert res.vanishes == base.vanishes
            # the class may shift only inside the indeterminacy
            diff = tuple(x - y for x, y in zip(res.representative_class,
                                               base.representative_class))
            assert base.indeterminacy.member(diff)

    def test_linearity_in_the_outer_argument(self, q111):
        summary = compute(q111, 5, with_cup=False)
        a2, a3 = q111.gen("a2"), q111.gen("a3")
        base = triple(q111, a2, a2, a3, summary=summary)
        lam = Fraction(7, 3)
        scaled = triple(q111, a2, a2, a3 * lam, summary=summary)
        assert scaled.representative_class == tuple(
            c * lam for c in base.representative_class)
        assert scaled.vanishes == base.vanishes


class TestIndeterminacy:
    # on Q(0,0,0) = (S^2)^3 x S^1, <y, y*a1, a1> has [y]*H^4 not inside
    # [a1]*H^2, and the reversed triple the other way round
    @pytest.mark.parametrize("reverse", [False, True])
    def test_both_halves_of_the_indeterminacy(self, reverse):
        from cdga.constructions import q_model
        obj = q_model((0, 0, 0))
        s = compute(obj, 7, with_cup=False)
        y, a1 = obj.gen("y"), obj.gen("a1")
        b1, b3 = (a1, y) if reverse else (y, a1)
        res = triple(obj, b1, y * a1, b3, summary=s)
        p1, p3 = b1.degree(), b3.degree()
        n = res.degree
        assert n == p1 + 3 + p3 - 1

        def half(a, k):
            return Subspace(s.betti[n], [s.class_coords(a * h, degree=n)[1]
                                         for h in s.representatives[k]])

        left, right = half(b1, 3 + p3 - 1), half(b3, p1 + 3 - 1)
        assert res.indeterminacy == Subspace(
            s.betti[n], list(left.basis) + list(right.basis))
        outer, inner = (right, left) if reverse else (left, right)
        assert not inner.contains(outer)


class TestFormalityConsistency:
    def test_nonvanishing_product_forces_nonformal_verdict(self, q111):
        from cdga.sullivan import formality
        res = triple(q111, q111.gen("a2"), q111.gen("a2"), q111.gen("a3"),
                     max_degree=5)
        assert res.defined and not res.vanishes
        assert formality(q111, 7, cap=7).status == "NonFormal"
