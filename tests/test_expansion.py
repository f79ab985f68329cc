from fractions import Fraction

import pytest

from dunklstar.calculus import Composition, c_nu
from dunklstar.expansion import (expansion_product, k_layers,
                                 specialize_parameters, verify_pair,
                                 word_census)
from dunklstar.poly import MultiPoly, divide_exact
from dunklstar.randgen import random_poly
from dunklstar.rational import MINUS_I, GaussianRational
from dunklstar.star import CrossedElement

x = MultiPoly.var("x")
p = MultiPoly.var("p")
one = MultiPoly.const(1)


def test_expansion_linear_example():
    layers = expansion_product(p, x)
    assert set(layers) == {0, 1}
    assert layers[0].plain == x * p - one.scale(GaussianRational(0, 1))
    assert layers[0].gamma.is_zero()
    assert layers[1].plain.is_zero()
    assert layers[1].gamma == one.scale(GaussianRational(0, -2))


def word_walk_product(a, b):
    """Reference: apply each of the 3^alpha words to the right factor on its own.

    A letter is p1, A = -i d_y, or B = -i k (p1 -> -p1) dtilde_y, which
    flips the reflection flag; dtilde is taken from its definition.
    """
    p1 = MultiPoly.var("p1")
    y = MultiPoly.var("y")
    minus_ik = MultiPoly.monomial({"k": 1}, MINUS_I)

    def letter_b(f):
        num = f - f.reflect({"y": -1})
        if not num:
            return MultiPoly.zero()
        return divide_exact(num, y).reflect({"p1": -1}) * minus_ik

    b0 = b.rename("x", "y").rename("p", "p1")
    plain = gamma = MultiPoly.zero()
    for alpha, a_alpha in sorted(a.by_degree("p").items()):
        acc = [MultiPoly.zero(), MultiPoly.zero()]

        def walk(state, flag, depth):
            if state.is_zero():
                return
            if depth == alpha:
                acc[flag] = acc[flag] + state
                return
            walk(p1 * state, flag, depth + 1)
            walk(state.differentiate("y").scale(MINUS_I), flag, depth + 1)
            walk(letter_b(state), flag ^ 1, depth + 1)

        walk(b0, 0, 0)
        plain = plain + a_alpha * acc[0]
        gamma = gamma + a_alpha * acc[1]
    return k_layers(CrossedElement(plain.rename("y", "x").rename("p1", "p"),
                                   gamma.rename("y", "x").rename("p1", "p")))


def test_expansion_matches_word_walk(rng):
    # the letter-by-letter sweep over both reflection parities must equal
    # the sum over all 3^alpha words, for every alpha <= 7
    for trial in range(6):
        a = MultiPoly.zero()
        for alpha in range(8):
            a = a + MultiPoly.monomial({"x": rng.randint(0, 2), "p": alpha},
                                       GaussianRational(rng.randint(1, 5), rng.randint(-3, 3)))
        b = random_poly(rng, rng.randint(1, 4))
        if trial % 2:
            c = GaussianRational(Fraction(rng.randint(1, 9), rng.randint(2, 7)),
                                 Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            a = a.scale(c)
            b = b.scale(Fraction(1, rng.randint(2, 5))) + random_poly(rng, 3)
        assert expansion_product(a, b) == word_walk_product(a, b), (a, b)


def test_expansion_degenerate_left_factor(rng):
    a = x ** 2 + x.scale(3)  # no p dependence: only the empty word survives
    b = random_poly(rng, 4)
    layers = expansion_product(a, b)
    assert set(layers) <= {0}
    got = layers.get(0, CrossedElement.zero())
    assert got.plain == a * b and got.gamma.is_zero()


def test_expansion_quadratic_example():
    layers = expansion_product(p ** 2, x ** 2)
    assert layers[0].plain == (x ** 2 * p ** 2
                               - (x * p).scale(GaussianRational(0, 4))
                               - one.scale(2))
    assert layers[1].gamma == one.scale(-4)
    assert layers[1].plain.is_zero()


def test_expansion_rejects_parameter_variables():
    with pytest.raises(ValueError):
        expansion_product(MultiPoly.var("h1"), x)


def test_k_layers_and_specialization():
    A = CrossedElement(MultiPoly.var("h1") * x + MultiPoly.var("h1") ** 2,
                       MultiPoly.var("h1") * MultiPoly.var("h2") * p)
    spec = specialize_parameters(A)
    layers = k_layers(spec)
    assert layers[0].plain == x + one
    assert layers[1].gamma == p


def test_word_census_reproduces_multiplicities():
    for alpha in range(7):
        census = word_census(alpha)
        for (pattern, s), count in census.items():
            if any(v < 1 for v in pattern[1:-1]):
                continue  # adjacent difference letters act as zero
            nu = Composition(pattern)
            assert nu.m + nu.n + s == alpha
            assert count == c_nu(nu, s), (pattern, s)


def test_word_census_accounts_for_every_word():
    # dropping the signs and reflections, the shapes must tile all 3^alpha words
    for alpha in range(6):
        raw = 0
        for (pattern, s), _count in word_census(alpha).items():
            import math
            ways = 1
            slots = list(pattern)
            total_p = s
            # p1 letters distribute into len(pattern) blocks with binomials
            def distributions(blocks, left):
                if len(blocks) == 1:
                    return math.comb(blocks[0] + left, left)
                return sum(math.comb(blocks[0] + t, t) * distributions(blocks[1:], left - t)
                           for t in range(left + 1))
            raw += distributions(slots, total_p)
        assert raw == 3 ** alpha


def test_verify_pair_worked_examples():
    assert verify_pair(p, x).ok
    assert verify_pair(one, x * p + p ** 2).ok
    assert verify_pair(p ** 2, x ** 2).ok
    report = verify_pair(p ** 4, x ** 5)  # orientation-sensitive case
    assert report.ok, report.describe()


def test_verify_pair_random(rng):
    for _ in range(10):
        report = verify_pair(random_poly(rng, 4), random_poly(rng, 4))
        assert report.ok, report.describe()


def test_verify_pair_high_p_degree():
    # alpha = 40 means 3^40 words for the literal walk; the sweep takes 40 steps
    right = x ** 4 * p + (x ** 3).scale(3) + x * p
    report = verify_pair(x * p ** 40 + x ** 2 * p ** 37, right)
    assert report.ok, report.describe()
    report = verify_pair((x * p ** 40).scale(Fraction(2, 3)) + x ** 2 * p ** 37,
                         x ** 4 + (x ** 2 * p ** 2).scale(Fraction(-1, 2)) + p ** 3)
    assert report.ok, report.describe()


def test_report_details_mention_layer():
    from dunklstar.expansion import _compare_layers

    base = {0: CrossedElement(x, MultiPoly.zero())}
    other = {0: CrossedElement(p, MultiPoly.zero()),
             1: CrossedElement(MultiPoly.zero(), one)}
    mismatches = _compare_layers(base, other, "probe")
    kinds = {(m.layer, m.component) for m in mismatches}
    assert kinds == {(0, "plain"), (1, "gamma")}
    assert "layer k^0 plain" in mismatches[0].describe()
