import random
from fractions import Fraction

import pytest

from dunklstar.cherednik import (NormalForm, action_vanishes, apply,
                                 from_symbol, multiply, reduce_word,
                                 to_symbol_layers)
from dunklstar.poly import MultiPoly
from dunklstar.randgen import random_poly
from dunklstar.rational import GaussianRational
from dunklstar.star import CrossedElement, k_layers

x = MultiPoly.var("x")
p = MultiPoly.var("p")
k = MultiPoly.var("k")
one = MultiPoly.const(1)

P = NormalForm.basis(0, 1, 0)
X = NormalForm.basis(1, 0, 0)
G = NormalForm.basis(0, 0, 1)


def random_normal_form(rng, max_pow=2, max_kdeg=2, terms=3):
    out = {}
    for _ in range(terms):
        key = (rng.randint(0, max_pow), rng.randint(0, max_pow), rng.randint(0, 1))
        c = MultiPoly.monomial({"k": rng.randint(0, max_kdeg)},
                               GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)))
        if key in out:
            out[key] = out[key] + c
        else:
            out[key] = c
    return NormalForm({kk: v for kk, v in out.items() if not v.is_zero()})


def random_xpoly(rng, degree=4):
    f = MultiPoly.zero()
    for d in range(degree + 1):
        f = f + MultiPoly.monomial({"x": d}, GaussianRational(rng.randint(-3, 3)))
    return f


def test_multiply_commutation_rule():
    got = multiply(P, X)
    assert got.terms == {
        (1, 1, 0): one,
        (0, 0, 0): one.scale(GaussianRational(0, -1)),
        (0, 0, 1): k.scale(GaussianRational(0, -2)),
    }


def test_multiply_sign_rules():
    assert multiply(G, X).terms == {(1, 0, 1): one.scale(-1)}
    assert multiply(G, P).terms == {(0, 1, 1): one.scale(-1)}
    assert multiply(G, G).terms == {(0, 0, 0): one}


def test_multiply_squared_generators():
    got = multiply(multiply(P, P), multiply(X, X))
    assert got.terms == {
        (2, 2, 0): one,
        (1, 1, 0): one.scale(GaussianRational(0, -4)),
        (0, 0, 0): one.scale(-2),
        (0, 0, 1): k.scale(-4),
    }


def test_confluence_random_words(rng):
    for trial in range(100):
        word = tuple(rng.choice("XPG") for _ in range(rng.randint(1, 8)))
        leftmost = reduce_word(word, "leftmost")
        rightmost = reduce_word(word, "rightmost")
        shuffled = reduce_word(word, "random", rng=random.Random(trial))
        assert leftmost == rightmost == shuffled, word


def test_apply_examples():
    assert apply(NormalForm.basis(2, 0, 0), x) == x ** 3
    assert apply(P, x) == MultiPoly.const(GaussianRational(0, -1)) + k.scale(GaussianRational(0, -2))
    assert apply(G, x ** 2 + x) == x ** 2 - x


def test_apply_is_a_homomorphism(rng):
    for _ in range(40):
        L = random_normal_form(rng)
        R = random_normal_form(rng)
        g = random_xpoly(rng)
        assert apply(multiply(L, R), g) == apply(L, apply(R, g))


def test_multiply_associative(rng):
    for _ in range(15):
        A = random_normal_form(rng)
        B = random_normal_form(rng)
        C = random_normal_form(rng)
        assert multiply(multiply(A, B), C) == multiply(A, multiply(B, C))


def test_uniqueness_by_action(rng):
    ks = (Fraction(1), Fraction(1, 2), Fraction(3))
    assert action_vanishes(NormalForm.zero(), 3, ks)
    for _ in range(50):
        N = random_normal_form(rng)
        d = max((a + b for (a, b, _e) in N.terms), default=0) + 1
        assert action_vanishes(N, d, ks) == N.is_zero()


def test_from_symbol_examples():
    assert from_symbol(x * p).terms == {(1, 1, 0): one}
    got = from_symbol(one, one)
    assert got.terms == {(0, 0, 0): one, (0, 0, 1): one}
    assert from_symbol(p ** 2).terms == {(0, 2, 0): one}


def test_from_symbol_accepts_crossed_element():
    from dunklstar.star import CrossedElement

    elem = CrossedElement(x * p, k * p)
    assert from_symbol(elem) == from_symbol(x * p, k * p)
    with pytest.raises(ValueError):
        from_symbol(elem, one)


def test_from_symbol_rejects_other_variables():
    with pytest.raises(ValueError):
        from_symbol(MultiPoly.var("h1"))


def test_symbol_layer_round_trip(rng):
    for _ in range(20):
        f = MultiPoly.zero()
        g = MultiPoly.zero()
        for _ in range(4):
            mono = {"x": rng.randint(0, 3), "p": rng.randint(0, 3)}
            f = f + MultiPoly.monomial(mono, GaussianRational(rng.randint(-4, 4)))
            g = g + MultiPoly.monomial(mono, GaussianRational(0, rng.randint(-4, 4)))
        layers = to_symbol_layers(from_symbol(f, g))
        if f.is_zero() and g.is_zero():
            assert layers == {}
        else:
            assert set(layers) == {0}
            assert layers[0].plain == f and layers[0].gamma == g


def test_symbol_layers_match_k_layers(rng):
    for _ in range(20):
        A = CrossedElement(random_poly(rng, 6, vars=("x", "p", "k")),
                           random_poly(rng, 6, vars=("k", "x", "p")))
        assert max(A.plain.degree("k"), A.gamma.degree("k")) > 1
        assert to_symbol_layers(from_symbol(A)) == k_layers(A)


def test_to_symbol_layers_of_product():
    layers = to_symbol_layers(multiply(from_symbol(p), from_symbol(x)))
    assert set(layers) == {0, 1}
    assert layers[0].plain == x * p - one.scale(GaussianRational(0, 1))
    assert layers[0].gamma.is_zero()
    assert layers[1].plain.is_zero()
    assert layers[1].gamma == one.scale(GaussianRational(0, -2))
