import pytest
from hypothesis import given, settings, strategies as st

from dunklstar.poly import ExactDivisionError, MultiPoly, divide_exact
from dunklstar.rational import GaussianRational, I
from dunklstar.randgen import random_poly

x = MultiPoly.var("x")
p = MultiPoly.var("p")

coeffs = st.builds(GaussianRational, st.integers(-6, 6), st.integers(-6, 6))
monomials = st.builds(lambda a, b, c: {"x": a, "p": b, "k": c},
                      st.integers(0, 3), st.integers(0, 3), st.integers(0, 1))
polys = st.lists(st.tuples(monomials, coeffs), max_size=5).map(
    lambda rows: sum((MultiPoly.monomial(m, c) for m, c in rows), MultiPoly.zero()))


def test_addition_cancels_to_zero():
    assert (x ** 2 + (-(x ** 2))).is_zero()
    assert (x ** 2 - x ** 2) == MultiPoly.zero()


def test_difference_of_squares():
    assert (x + p) * (x - p) == x ** 2 - p ** 2


def test_scale_by_imaginary_unit():
    assert (x * p).scale(I) == MultiPoly.monomial({"x": 1, "p": 1}, I)


def test_no_zero_terms_stored(rng):
    for _ in range(50):
        f = random_poly(rng, 4)
        g = random_poly(rng, 4)
        for poly in (f + g, f - g, f * g, (f - g).rename("p", "x"),
                     (f * g).eval_at({"x": 1})):
            assert all(not c.is_zero() for c in poly.terms.values())
    k = MultiPoly.var("k")
    assert (x - p).rename("p", "x").terms == {}
    assert (k * x - x).eval_at({"k": 1}).terms == {}


@pytest.mark.parametrize("value, even, odd", [(0, 0, 0), (1, 1, 1), (-1, 1, -1),
                                              (I, 1, I)])
def test_eval_at_huge_exponent(value, even, odd):
    # h2^(2^70) at 0, 1, -1 or i is cheap by repeated squaring; one
    # multiplication per unit of exponent never finishes
    h2 = MultiPoly.var("h2")
    N = 2 ** 70
    assert (h2 ** N + x).eval_at({"h2": value}) == x + MultiPoly.const(even)
    assert (h2 ** (N + 1) * p + x).eval_at({"h2": value}) == x + p.scale(odd)


def test_by_degree_reconstruction(rng):
    for _ in range(30):
        f = random_poly(rng, 5, vars=("x", "p", "k"))
        for name in ("x", "p", "k"):
            groups = f.by_degree(name)
            v = MultiPoly.var(name)
            assert sum((g * v ** e for e, g in groups.items()), MultiPoly.zero()) == f
            assert all(g and name not in g.variables() for g in groups.values())
    assert MultiPoly.zero().by_degree("x") == {}


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert f + g == g + f


def test_differentiate_examples():
    assert (x ** 3).differentiate("x") == (x ** 2).scale(3)
    assert (x ** 2).differentiate("p").is_zero()
    assert (x ** 2 * p).differentiate("x") == (x * p).scale(2)


def test_differentiate_unknown_variable():
    with pytest.raises(KeyError):
        x.differentiate("nope")


def test_reflect_examples():
    assert (x ** 2 * p).reflect({"x": -1}) == x ** 2 * p
    assert (x * p).reflect({"x": -1, "p": -1}) == x * p
    assert (x ** 3).reflect({"x": -1}) == -(x ** 3)


def test_reflect_is_involution(rng):
    for _ in range(30):
        f = random_poly(rng, 5)
        signs = {"x": rng.choice((1, -1)), "p": rng.choice((1, -1))}
        assert f.reflect(signs).reflect(signs) == f


def test_reflect_anticommutes_with_differentiate(rng):
    for _ in range(30):
        f = random_poly(rng, 5)
        lhs = f.differentiate("x").reflect({"x": -1})
        rhs = -(f.reflect({"x": -1}).differentiate("x"))
        assert lhs == rhs


def test_divide_exact_examples():
    y = MultiPoly.var("p")
    assert divide_exact(x ** 2 - y ** 2, x - y) == x + y
    assert divide_exact(x ** 3 + x, x) == x ** 2 + MultiPoly.const(1)
    with pytest.raises(ExactDivisionError):
        divide_exact(x ** 2 + MultiPoly.const(1), x)
    with pytest.raises(ExactDivisionError):
        divide_exact(x, MultiPoly.zero())


def test_divide_exact_roundtrip(rng):
    for _ in range(40):
        f = random_poly(rng, 3, terms=4)
        g = random_poly(rng, 3, terms=3)
        if g.is_zero():
            continue
        assert divide_exact(f * g, g) == f


def test_degree_queries():
    f = x ** 3 * p + p ** 2
    assert f.degree("x") == 3
    assert f.degree("p") == 2
    assert MultiPoly.zero().degree("x") == -1
