"""Free and tabular twins: two models of one space must agree.

A twin pair models one circle bundle over a product of spheres twice: as a
free model, and as the tabular circle bundle over the spheres' cohomology
table.  The two reach cohomology and formality through different code:
monomial bases shared across algebras of one shape and Leibniz d-pairs on
one side, basis indices and a stored table on the other.  So each checks
the other.  Twins agree on Betti numbers and on verdicts; the one allowed
difference is an Inconclusive on one side.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cdga.cohomology import compute
from cdga.constructions import circle_bundle_model, q_model
from cdga.dga import DGA
from cdga.gca import Algebra
from cdga.sullivan import formality

from conftest import sphere_product_tabular


def free_sphere_product(degrees):
    """Lambda(a_i) for each odd sphere, Lambda(a_i, x_i), dx_i = a_i^2, for
    each even one: the free model of the product of spheres."""
    gens = []
    for i, n in enumerate(degrees):
        gens.append((f"a{i}", n))
        if n % 2 == 0:
            gens.append((f"x{i}", 2 * n - 1))
    alg = Algebra(gens)
    return DGA(alg, {
        f"x{i}": alg.gen(f"a{i}") ** 2
        for i, n in enumerate(degrees) if n % 2 == 0})


def tabular_twin(degrees, e):
    """The tabular circle bundle over H(S^{n_1} x ... x S^{n_m}) with Euler
    class sum e_i s_i over the degree-2 spheres."""
    base = sphere_product_tabular(degrees, sum(degrees))
    euler = base.zero()
    for i, c in enumerate(e):
        if c:
            euler = euler + base.gen(f"s{i}") * c
    return circle_bundle_model(base, euler)


@pytest.fixture(scope="module")
def q_twins():
    """{e: ((free Betti numbers, verdict), (twin's))} for the 125 Q(e),
    e in {-2..2}^3, with all 125 free models alive at once."""
    free = {e: q_model(e) for e in itertools.product(range(-2, 3), repeat=3)}
    out = {}
    for e, obj in free.items():
        pair = []
        for model in (obj, tabular_twin((2, 2, 2), e)):
            summary = compute(model, 7, with_cup=False)
            verdict = formality(model, 7, cap=7, summary=summary)
            pair.append((summary.betti_vector(), verdict.status))
        out[e] = tuple(pair)
    return out


def test_q_twins_have_equal_betti_numbers(q_twins):
    assert len(q_twins) == 125
    assert not [e for e, (free, twin) in q_twins.items()
                if free[0] != twin[0]]


def test_q_twins_have_equal_verdicts_but_at_the_trivial_bundle(q_twins):
    # Q(0,0,0) = (S^2)^3 x S^1: the free model is minimal, so s-formality is
    # checked on it directly, while its twin has b1 = 1 and is not minimal
    differ = {e: (free[1], twin[1]) for e, (free, twin) in q_twins.items()
              if free[1] != twin[1]}
    assert differ == {(0, 0, 0): ("Formal", "Inconclusive")}


@st.composite
def twin_pairs(draw):
    """Sphere degrees and an Euler class on the degree-2 spheres, drawn as
    criterion 8c draws its random circle bundles."""
    degrees = draw(st.lists(st.sampled_from([2, 2, 3, 4, 5]),
                            min_size=1, max_size=3))
    e = [draw(st.integers(-3, 3)) if n == 2 else 0 for n in degrees]
    return tuple(degrees), tuple(e)


@settings(deadline=None)
@given(twin_pairs())
def test_random_twins_agree(pair):
    degrees, e = pair
    free = free_sphere_product(degrees)
    euler = free.zero()
    for i, c in enumerate(e):
        if c:
            euler = euler + free.gen(f"a{i}") * c
    dimension = sum(degrees) + 1
    statuses = []
    betti = []
    for model in (circle_bundle_model(free, euler), tabular_twin(degrees, e)):
        summary = compute(model, dimension + 1, with_cup=False)
        betti.append(summary.betti_vector())
        statuses.append(formality(model, dimension, summary=summary).status)
    assert betti[0] == betti[1]
    assert statuses[0] == statuses[1] or "Inconclusive" in statuses, statuses
