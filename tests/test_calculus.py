import math
from fractions import Fraction

import pytest

from dunklstar.calculus import (Composition, CompositionStats, a_nu, b_nu,
                                c_nu, c_nu_word_count, d_tilde, delta,
                                delta_iter, delta_n, dunkl,
                                enumerate_compositions, stats)
from dunklstar.poly import MultiPoly, divide_exact
from dunklstar.randgen import random_poly
from dunklstar.rational import GaussianRational

from conftest import random_single_var

x = MultiPoly.var("x")
p = MultiPoly.var("p")
k = MultiPoly.var("k")
q1 = MultiPoly.var("q1")
q2 = MultiPoly.var("q2")
q3 = MultiPoly.var("q3")


def test_d_tilde_examples():
    assert d_tilde(x ** 3, "x") == (x ** 2).scale(2)
    assert d_tilde(x ** 2, "x").is_zero()
    assert d_tilde(x, "x") == MultiPoly.const(2)


def test_d_tilde_output_is_even(rng):
    for _ in range(20):
        f = random_single_var(rng)
        g = d_tilde(f, "x")
        assert g.reflect({"x": -1}) == g


def test_d_tilde_matches_definition(rng):
    # (f - f(-v))/v by exact division, against the closed form
    # v^e -> 2 v^(e-1) (e odd), 0 (e even)
    def by_definition(f, v):
        num = f - f.reflect({v: -1})
        return divide_exact(num, MultiPoly.var(v)) if num else MultiPoly.zero()

    y = MultiPoly.var("y")
    fixed = [MultiPoly.zero(), MultiPoly.const(3), x ** 4 * p - k,
             (x ** 5 * y ** 2).scale(Fraction(1, 2)) + x.scale(Fraction(-3, 4)),
             (x * k ** 3).scale(GaussianRational(Fraction(2, 3), Fraction(-1, 6)))]
    randoms = []
    for _ in range(40):
        f = random_poly(rng, 7, vars=("x", "p", "k", "y"))
        c = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 8)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
        randoms += [f, f.scale(c) + random_poly(rng, 5, vars=("x", "p", "k", "y"))]
    for f in fixed + randoms:
        for v in ("x", "p", "k", "y", "h1"):  # h1 never occurs: result 0
            got, want = d_tilde(f, v), by_definition(f, v)
            assert got == want, (f, v)
            # same normalized coefficient parts (int when integral)
            assert ({m: (type(c.re), type(c.im)) for m, c in got.terms.items()}
                    == {m: (type(c.re), type(c.im)) for m, c in want.terms.items()})


def test_dunkl_examples():
    assert dunkl(x ** 2, "x") == x.scale(2)
    assert dunkl(x, "x") == MultiPoly.const(1) + k.scale(2)
    assert dunkl(x ** 3, "x") == (x ** 2).scale(3) + k * (x ** 2).scale(2)


def test_dunkl_splits_into_derivative_and_difference(rng):
    for _ in range(20):
        f = random_single_var(rng)
        assert dunkl(f, "x") == f.differentiate("x") + k * d_tilde(f, "x")


def test_delta_examples():
    f = MultiPoly.var("q1") ** 2  # stands for q^2 in its own variable
    assert delta(f, "q1", ("q1", "q2")) == q1 + q2
    assert delta(MultiPoly.const(7), "q1", ("q1", "q2")).is_zero()


def test_delta_diagonal_is_derivative(rng):
    for _ in range(25):
        f = random_single_var(rng)
        g = delta(f, "x", ("q1", "q2"))
        diag = g.rename("q2", "q1").rename("q1", "x")
        assert diag == f.differentiate("x")


def test_delta_antidiagonal_is_half_difference(rng):
    from dunklstar.calculus import eval_slots
    for _ in range(25):
        f = random_single_var(rng)
        g = delta_iter(f, "x", 1)
        anti = eval_slots(g, 1, 1, "x")  # slots (x, -x)
        assert anti == d_tilde(f, "x").scale(Fraction(1, 2))


def test_delta_coassociative(rng):
    for _ in range(25):
        f = random_single_var(rng, degree=8)
        g = delta(f, "x", ("q1", "q2"))
        left = delta(g, "q1", ("q1", "q3"))          # slots (q1, q3, q2)
        right = delta(g, "q2", ("q2", "q3"))         # slots (q1, q2, q3)
        left_ordered = (left.rename("q2", "q9").rename("q3", "q2")
                        .rename("q9", "q3"))
        assert left_ordered == right


def test_delta_leibniz(rng):
    for _ in range(25):
        f = random_single_var(rng, degree=4)
        g = random_single_var(rng, degree=4)
        lhs = delta(f * g, "x", ("q1", "q2"))
        rhs = (f.rename("x", "q1") * delta(g, "x", ("q1", "q2"))
               + delta(f, "x", ("q1", "q2")) * g.rename("x", "q2"))
        assert lhs == rhs


def test_delta_iter_examples():
    f = MultiPoly.var("q1") ** 3
    assert delta_iter(f, "q1", 2) == q1 + q2 + q3
    assert delta_iter(MultiPoly.var("q1") ** 2, "q1", 3).is_zero()
    g = x ** 2 + x
    assert delta_iter(g, "x", 0) == g.rename("x", "q1")


def test_delta_iter_symmetric(rng):
    for _ in range(15):
        f = random_single_var(rng, degree=7)
        r = rng.randint(1, 4)
        g = delta_iter(f, "x", r)
        slots = [f"q{i}" for i in range(1, r + 2)]
        perm = slots[:]
        rng.shuffle(perm)
        h = g
        for i, s in enumerate(slots):  # rename via temporaries to permute
            h = h.rename(s, f"q{20 + i}")
        for i, s in enumerate(perm):
            h = h.rename(f"q{20 + i}", s)
        assert h == g


def test_delta_iter_vanishes_past_degree(rng):
    for _ in range(15):
        f = random_single_var(rng, degree=5)
        d = f.degree("x")
        if d >= 0:
            assert delta_iter(f, "x", d + 1).is_zero()


def test_delta_n_single_function_reduces_to_delta():
    f = x ** 3 + x.scale(2)
    got = delta_n([f], ["x"], ["q1"])
    assert got == delta(f, "x", ("x", "q1"))


def test_delta_n_linear_coordinates_give_one():
    f1 = MultiPoly.var("x")
    f2 = MultiPoly.var("p")
    assert delta_n([f1, f2], ["x", "p"]) == MultiPoly.const(1)


def test_delta_n_constant_factor_kills():
    f1 = MultiPoly.const(5)
    f2 = MultiPoly.var("p")
    assert delta_n([f1, f2], ["x", "p"]).is_zero()


def test_enumerate_examples():
    assert [c.entries for c in enumerate_compositions(0, 0)] == [(0,)]
    assert [c.entries for c in enumerate_compositions(1, 1)] == [(0, 1), (1, 0)]
    assert enumerate_compositions(0, 2) == []
    assert enumerate_compositions(-1, 0) == []


def test_enumerate_cardinality():
    for m in range(13):
        assert len(enumerate_compositions(m, 0)) == 1
        for n in range(1, 13):
            assert len(enumerate_compositions(m, n)) == math.comb(m + 1, n)


def test_enumerate_lexicographic():
    for m in range(6):
        for n in range(4):
            got = [c.entries for c in enumerate_compositions(m, n)]
            assert got == sorted(got)


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition((1, 0, 1))  # interior zero
    with pytest.raises(ValueError):
        Composition((-1,))


def test_stats_examples():
    assert stats(Composition((1, 0))) == CompositionStats(1, 0, 0, 1)
    assert stats(Composition((0, 1))) == CompositionStats(0, 1, 0, 1)
    assert stats(Composition((5,))) == CompositionStats(5, 0, 0, 0)


def test_stats_sums(rng):
    for m in range(7):
        for n in range(5):
            for nu in enumerate_compositions(m, n):
                st = stats(nu)
                assert st.lambda0 + st.lambda1 == m
                assert st.n0 + st.n1 == n


def test_b_nu_examples():
    assert b_nu(Composition((3,)), x ** 4, "x") == x.scale(24)
    assert b_nu(Composition((1, 0)), x ** 2, "x") == MultiPoly.const(4)
    assert b_nu(Composition((0, 1)), x ** 2, "x").is_zero()


def test_a_nu_pure_derivative_case(rng):
    for j in range(4):
        for _ in range(8):
            f = random_single_var(rng, var="p", degree=6)
            got = a_nu(Composition((j,)), f, "p")
            want = f
            for _ in range(j):
                want = want.differentiate("p")
            assert got == want.scale(Fraction(1, math.factorial(j)))


def test_a_nu_antidiagonal_case(rng):
    for _ in range(10):
        f = random_single_var(rng, var="p", degree=6)
        got = a_nu(Composition((0, 0)), f, "p")
        assert got == d_tilde(f, "p").scale(Fraction(1, 2))


def test_a_nu_cubic_example():
    assert a_nu(Composition((1, 0)), p ** 3, "p") == p


def test_operator_degree_drop(rng):
    for _ in range(20):
        f = random_single_var(rng, var="x", degree=7)
        m = rng.randint(0, 3)
        n = rng.randint(0, 2)
        comps = enumerate_compositions(m, n)
        if not comps:
            continue
        nu = rng.choice(comps)
        bf = b_nu(nu, f, "x")
        if not bf.is_zero():
            assert bf.degree("x") <= f.degree("x") - (m + n)
        af = a_nu(nu, f.rename("x", "p"), "p")
        if not af.is_zero():
            assert af.degree("p") <= f.degree("x") - (m + n)


def test_c_nu_examples():
    for nu in (Composition((0,)), Composition((0, 0)), Composition((2, 1, 3))):
        assert c_nu(nu, 0) == 1
    for s in range(8):
        assert c_nu(Composition((0, 0)), s) == (1 if s % 2 == 0 else 0)
    for m in range(5):
        for s in range(8):
            assert c_nu(Composition((m,)), s) == math.comb(m + s, s)


def test_c_nu_matches_signed_word_count():
    for m in range(7):
        for n in range(7 - m):
            for nu in enumerate_compositions(m, n):
                for s in range(8):
                    assert c_nu(nu, s) == c_nu_word_count(nu, s)


def test_c_nu_negative_index():
    with pytest.raises(ValueError):
        c_nu(Composition((1,)), -1)
