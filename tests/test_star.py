import sys
from fractions import Fraction

import pytest

from dunklstar.calculus import b_nu, c_nu, enumerate_compositions
from dunklstar.cherednik import from_symbol, multiply, to_symbol_layers
from dunklstar.expansion import specialize_parameters
from dunklstar.poly import MultiPoly
from dunklstar.randgen import random_crossed, random_invariant_poly, random_poly
from dunklstar.rational import GaussianRational, I
from dunklstar.star import (CrossedElement, NonInvariantError,
                            SphericalElement, c0, c1, commutator,
                            gamma_twist, is_gamma_invariant, k_layers, moyal,
                            spherical, star, star_pair, weight)

x = MultiPoly.var("x")
p = MultiPoly.var("p")
h1 = MultiPoly.var("h1")
h2 = MultiPoly.var("h2")
one = MultiPoly.const(1)


def drop_h2(f: MultiPoly) -> MultiPoly:
    return f.eval_at({"h2": 0})


# -- layer operators ----------------------------------------------------------


def test_c0_worked_examples():
    assert c0(0, 0, p, x) == p * x
    assert c0(1, 0, p, x) == one.scale(GaussianRational(0, -1))
    assert c0(2, 0, p ** 2, x ** 2) == one.scale(-2)


def test_c1_worked_examples():
    assert c1(1, 1, p, x) == one.scale(GaussianRational(0, -2))
    assert c1(1, 1, x, p).is_zero()
    assert c1(2, 1, p ** 2, x ** 2) == one.scale(-4)


def test_c1_orientation_pins_the_chain_pairing():
    # the slot statistics pair with the reversed chain tuple; these values
    # flip sign under the opposite orientation and are fixed by the
    # normal-form oracle (see the three-way agreement sweeps)
    assert c1(2, 1, p ** 3, x ** 3) == (x * p).scale(-4)
    assert c1(3, 1, p ** 4, x ** 5) == (x ** 2 * p).scale(GaussianRational(0, -32))


def test_parity_vanishing(rng):
    for _ in range(10):
        a = random_poly(rng, 4)
        b = random_poly(rng, 4)
        for j in range(5):
            for l in range(j + 2):
                if l % 2 == 1:
                    assert c0(j, l, a, b).is_zero()
                else:
                    assert c1(j, l, a, b).is_zero()


def test_vanishing_outside_index_range(rng):
    a = random_poly(rng, 6)
    b = random_poly(rng, 6)
    for j in range(7):
        for l in range(7):
            if l > j or j - l < l - 1:
                assert c0(j, l, a, b).is_zero()
                assert c1(j, l, a, b).is_zero()


def test_degree_upper_bounds(rng):
    for _ in range(15):
        a = random_poly(rng, 5, terms=4)
        b = random_poly(rng, 5, terms=4)
        m1, n1 = a.degree("x"), a.degree("p")
        m2, n2 = b.degree("x"), b.degree("p")
        if min(m1, n1, m2, n2) < 0:
            continue
        for j in range(5):
            for l in range(j + 1):
                for fn in (c0, c1):
                    out = fn(j, l, a, b)
                    if out.is_zero():
                        continue
                    assert out.degree("x") <= m1 + m2 - j
                    assert out.degree("p") <= n1 + n2 - j


def test_weight_additivity_on_monomials(rng):
    for _ in range(20):
        a_exp = (rng.randint(0, 4), rng.randint(0, 4))
        b_exp = (rng.randint(0, 4), rng.randint(0, 4))
        a = MultiPoly.monomial({"x": a_exp[0], "p": a_exp[1]})
        b = MultiPoly.monomial({"x": b_exp[0], "p": b_exp[1]})
        w = (a_exp[0] - a_exp[1]) + (b_exp[0] - b_exp[1])
        for j in range(5):
            for l in range(j + 1):
                for fn in (c0, c1):
                    out = fn(j, l, a, b)
                    if not out.is_zero():
                        assert weight(out) == w


def test_fast_path_matches_layer_operators(rng):
    """star's grouped evaluation must agree with the substitution path."""
    for _ in range(10):
        u = random_poly(rng, 4)
        v = random_poly(rng, 4)
        s0, s1 = star_pair(u, v)
        ref0 = MultiPoly.zero()
        ref1 = MultiPoly.zero()
        jmax = max(min(u.degree("p"), v.degree("x")), 0)
        for j in range(jmax + 1):
            for l in range(j + 1):
                hb = MultiPoly.monomial({"h1": j, "h2": l})
                ref0 = ref0 + c0(j, l, u, v) * hb
                ref1 = ref1 + c1(j, l, u, v) * hb
        assert s0 == ref0 and s1 == ref1


def test_layer_weights_match_composition_sum():
    """Each transfer-matrix weight equals its sum over composition tuples:
    c_nu of the reversed tuple times the chain scalar of the tuple on x^a."""
    # the package binds the name star to the function, not the module
    layer_weight = sys.modules["dunklstar.star"]._layer_weight
    for j in range(13):
        for a in range(j, j + 6):
            for l in range(j + 1):
                chains = []
                for nu in enumerate_compositions(j - l, l):
                    out = b_nu(nu, x ** a, "x")
                    if not out.is_zero():
                        (beta,) = out.terms.values()
                        assert beta.im == 0
                        chains.append((nu.reversed(), beta.re))
                for s in range(5):
                    want = sum(c_nu(rev, s) * beta for rev, beta in chains)
                    assert layer_weight(j, l, s, a) == want, (j, l, s, a)


# -- the star product ---------------------------------------------------------


def test_star_worked_identities():
    got = star(p, x)
    assert got.plain == p * x - h1.scale(I)
    assert got.gamma == (h1 * h2).scale(GaussianRational(0, -2))
    assert star(x, p) == CrossedElement.from_poly(x * p)

    got = star(p ** 2, x ** 2)
    assert got.plain == (x ** 2 * p ** 2
                         - (x * p * h1).scale(GaussianRational(0, 4))
                         - (h1 ** 2).scale(2))
    assert got.gamma == -(h1 ** 2 * h2).scale(4)


def test_star_order_cap_is_a_prefix():
    """The profiling cap must agree with the full product through order j."""
    full = star(p ** 2, x ** 2)
    capped = star(p ** 2, x ** 2, max_j=1)

    def truncate(f, jmax):
        from dunklstar.poly import var_index
        h1_idx = var_index("h1")
        return MultiPoly({m: c for m, c in f.terms.items()
                          if all(not (i == h1_idx and e > jmax) for i, e in m)})

    assert capped.plain == truncate(full.plain, 1)
    assert capped.gamma == truncate(full.gamma, 1)


def test_unit_element(rng):
    for _ in range(10):
        A = random_crossed(rng, 4)
        E = CrossedElement.from_poly(one)
        assert star(E, A) == A
        assert star(A, E) == A


def test_projector_is_idempotent():
    half = MultiPoly.const(Fraction(1, 2))
    P = CrossedElement(half, half)
    assert star(P, P) == P


def test_gamma_conjugation_is_twist(rng):
    g = CrossedElement(MultiPoly.zero(), one)
    for _ in range(10):
        A = random_crossed(rng, 4)
        assert star(star(g, A), g) == A.twist()


def test_associativity_small(rng):
    for _ in range(25):
        A = random_crossed(rng, 3, terms=4)
        B = random_crossed(rng, 3, terms=4)
        C = random_crossed(rng, 3, terms=4)
        assert star(star(A, B), C) == star(A, star(B, C))


def test_moyal_examples():
    assert moyal(p, x) - moyal(x, p) == -h1.scale(I)
    f = x ** 2 * p + p ** 3
    assert moyal(f, one) == f and moyal(one, f) == f
    assert moyal(x ** 2, p ** 2) == x ** 2 * p ** 2


def test_moyal_reduction(rng):
    for _ in range(20):
        a = random_poly(rng, 5)
        b = random_poly(rng, 5)
        st = star(a, b)
        assert drop_h2(st.gamma).is_zero()
        assert drop_h2(st.plain) == moyal(a, b)


@pytest.mark.parametrize("a, b", [(p ** 40, x ** 40),
                                  (x ** 3 * p ** 40, x ** 40 * p ** 2)])
def test_moyal_reduction_high_degree(a, b):
    st = star(a, b)
    assert drop_h2(st.gamma).is_zero()
    assert drop_h2(st.plain) == moyal(a, b)


@pytest.mark.slow
def test_star_matches_normal_form_at_degree_24():
    A, B = x ** 2 * p ** 24, x ** 24 * p ** 3
    got = k_layers(specialize_parameters(star(A, B)))
    assert got == to_symbol_layers(multiply(from_symbol(A), from_symbol(B)))


@pytest.mark.slow
def test_star_matches_normal_form_at_degree_32():
    # the leftmost rewriting of P^32 X^32 chains about 32 * 32 rewrites,
    # deeper than the default recursion limit
    A, B = x ** 2 * p ** 32, x ** 32 * p ** 3
    got = k_layers(specialize_parameters(star(A, B)))
    assert got == to_symbol_layers(multiply(from_symbol(A), from_symbol(B)))


# -- kernel edge cases ----------------------------------------------------------


def test_central_scalar_beyond_any_fixed_width(rng):
    """h1 is central, so a huge power of it factors out of the product."""
    scalar = h1 ** (2 ** 70)
    for _ in range(4):
        A = random_crossed(rng, 4)
        B = random_crossed(rng, 4)
        lifted = CrossedElement(A.plain * scalar, A.gamma * scalar)
        want = star(A, B)
        assert star(lifted, B) == CrossedElement(want.plain * scalar, want.gamma * scalar)


def test_moyal_reduction_beyond_any_fixed_width():
    a, b = x ** (2 ** 70) * p ** 2, x ** 3
    st = star(a, b)
    assert drop_h2(st.gamma).is_zero()
    assert drop_h2(st.plain) == moyal(a, b)
    assert st.plain.degree("x") == 2 ** 70 + 3


def test_fraction_inputs_give_normal_form_coefficients():
    got = star((p ** 2).scale(Fraction(1, 2)), (x ** 2).scale(2))
    assert got == star(p ** 2, x ** 2)
    parts = [part for f in (got.plain, got.gamma) for c in f.terms.values()
             for part in (c.re, c.im)]
    assert parts and all(type(part) is int for part in parts)
    thirds = star(p.scale(Fraction(1, 3)), x.scale(Fraction(2, 3)))
    assert thirds == CrossedElement(star(p, x).plain.scale(Fraction(2, 9)),
                                    star(p, x).gamma.scale(Fraction(2, 9)))


def test_commutator_canonical_pair():
    got = commutator(p, x)
    assert got.plain == -h1.scale(I)
    assert got.gamma == (h1 * h2).scale(GaussianRational(0, -2))
    A = CrossedElement(x * p, x ** 2)
    assert commutator(A, A) == CrossedElement.zero()


def _poisson_with_xp(f: MultiPoly) -> MultiPoly:
    xp = x * p
    return (xp.differentiate("p") * f.differentiate("x")
            - f.differentiate("p") * xp.differentiate("x")).scale(GaussianRational(0, -1))


def test_commutator_with_quadratic_invariant(rng):
    for _ in range(25):
        f = random_invariant_poly(rng, 6)
        got = commutator(x * p, f)
        assert got.gamma.is_zero()
        assert got.plain == _poisson_with_xp(f) * h1
        assert got.plain.degree("h2") <= 0


def test_commutator_quadratic_noninvariant_control():
    f = x  # not twist-invariant
    got = commutator(x * p, f)
    expected_gamma = (f - gamma_twist(f)).scale(GaussianRational(0, -1)) * h1 * h2
    assert got.gamma == expected_gamma
    assert not got.gamma.is_zero()


def test_layers_vanish_on_quadratic_radial(rng):
    xp = x * p
    for _ in range(6):
        g = random_poly(rng, 5)
        for j in range(2, 7):
            for l in range(j + 1):
                for fn in (c0, c1):
                    assert fn(j, l, xp, g).is_zero()
                    assert fn(j, l, g, xp).is_zero()


# -- spherical corner ----------------------------------------------------------


def test_spherical_unit_and_closure(rng):
    assert spherical(one, x * p).value == x * p
    prod = star(x ** 2, p ** 2)
    got = spherical(x ** 2, p ** 2)
    assert got.value == prod.plain + prod.gamma
    assert is_gamma_invariant(got.value)
    for _ in range(15):
        u = random_invariant_poly(rng, 4)
        v = random_invariant_poly(rng, 4)
        out = spherical(u, v)
        assert is_gamma_invariant(out.value)


def test_spherical_associative(rng):
    for _ in range(10):
        u = random_invariant_poly(rng, 3, terms=4)
        v = random_invariant_poly(rng, 3, terms=4)
        w = random_invariant_poly(rng, 3, terms=4)
        # products acquire h-dependence; they stay twist-invariant
        assert spherical(spherical(u, v).value, w) == spherical(u, spherical(v, w).value)


def test_spherical_matches_projector_sandwich(rng):
    half = MultiPoly.const(Fraction(1, 2))
    P = CrossedElement(half, half)
    for _ in range(10):
        u = random_invariant_poly(rng, 4)
        v = random_invariant_poly(rng, 4)
        c = spherical(u, v).value
        lhs = star(star(CrossedElement(u, MultiPoly.zero()), P),
                   star(CrossedElement(v, MultiPoly.zero()), P))
        assert lhs == CrossedElement(c * half, c * half)


def test_spherical_rejects_noninvariant():
    with pytest.raises(NonInvariantError):
        spherical(x, x * p)
    with pytest.raises(NonInvariantError):
        SphericalElement(x + p)


def test_weight_examples():
    assert weight(x ** 2 * p) == 1
    assert weight(x * p) == 0
    assert weight(x + p) == "mixed"
    with pytest.raises(ValueError):
        weight(MultiPoly.zero())
