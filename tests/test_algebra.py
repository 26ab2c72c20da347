"""The corollaries' congruences hold by algebra, checked on the shipped formulas.

Notation: alpha = inv(a mod b), beta = inv(b mod a), gamma = inv(c mod d) and
delta = inv(d mod c), with R1 = a*alpha + b*beta - 1 - a*b and R2 = c*gamma +
d*delta - 1 - c*d, the paper's identity for each pair.  The core's certificate
makes R1 = R2 = 0 on every pair it returns, so a congruence whose miss is a
combination of R1 and R2 holds for every input and not only on the sweeps'
bounded box.

Where a function is plain arithmetic in its operands and inverses (the quad
report's ``quad._cross_terms``, ``recip.solve_diophantine``, the minus
reduction's call of the plus form), it runs here on symbols, with what it calls
(``inverse_pair``, or the plus form) patched to take them, and gives
polynomials; so every pair and proof flag of a quad report, and with them its
sum flags, hold for every input.  Where it
compares or reduces with ``%`` (``reduce_inverse_plus``,
``inverse_mod_gaussian_linear``, ``square_inverse``, ``gaussian_inverse``,
``gaussian_bezout_identity``), its formula is restated here, and the
restatement is held to the shipped value at certified integer points.

The two Gaussian checks take z = a + b*i and w = c + d*i with the norms
s = a*a + b*b and t = c*c + d*d; there gamma and delta stand for inv(s mod t)
and inv(t mod s), and R3 = s*gamma + t*delta - 1 - s*t.
"""

import pytest

from modrecip import gaussian, identities, quad, recip
from modrecip.core import inverse, inverse_pair
from modrecip.gaussian import (GaussianInteger, gaussian_bezout_identity, gaussian_inverse,
                               inverse_mod_gaussian_linear)

SYMBOLS = "a b c d alpha beta gamma delta k".split()


class Poly:
    """An integer polynomial in SYMBOLS: a dict from exponent tuples to nonzero coefficients."""

    def __init__(self, terms: dict[tuple[int, ...], int]):
        self.terms = {exps: k for exps, k in terms.items() if k}

    @classmethod
    def symbol(cls, name: str) -> "Poly":
        return cls({tuple(int(s == name) for s in SYMBOLS): 1})

    @classmethod
    def lift(cls, other) -> "Poly":
        return other if isinstance(other, Poly) else cls({(0,) * len(SYMBOLS): other})

    def __add__(self, other):
        terms = dict(self.terms)
        for exps, k in Poly.lift(other).terms.items():
            terms[exps] = terms.get(exps, 0) + k
        return Poly(terms)

    def __neg__(self):
        return Poly({exps: -k for exps, k in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly.lift(other)

    def __rsub__(self, other):
        return Poly.lift(other) - self

    def __mul__(self, other):
        terms: dict[tuple[int, ...], int] = {}
        for e1, k1 in self.terms.items():
            for e2, k2 in Poly.lift(other).terms.items():
                exps = tuple(map(sum, zip(e1, e2)))
                terms[exps] = terms.get(exps, 0) + k1 * k2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == Poly.lift(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def at(self, values: dict[str, int]) -> int:
        """The value at integer values of the symbols."""
        total = 0
        for exps, k in self.terms.items():
            for name, e in zip(SYMBOLS, exps):
                if e:
                    k *= values[name] ** e
            total += k
        return total


a, b, c, d, alpha, beta, gamma, delta, k = map(Poly.symbol, SYMBOLS)
u, v, s, t = a * c + b * d, a * d - b * c, a * a + b * b, c * c + d * d
R1 = a * alpha + b * beta - 1 - a * b
R2 = c * gamma + d * delta - 1 - c * d
R3 = s * gamma + t * delta - 1 - s * t  # gamma, delta as the inverses of the norms


@pytest.fixture
def cross_terms(monkeypatch):
    """The shipped x, y and z of the quad report, as polynomials."""
    inverses = {(a, b): (alpha, beta), (c, d): (gamma, delta)}
    monkeypatch.setattr(quad, "inverse_pair", lambda p, q: inverses[p, q])
    return quad._cross_terms(a, b, c, d)


def test_symbolic_run_matches_the_integer_run(cross_terms, monkeypatch):
    # the patched symbols stand where the real inverses do: at a certified
    # quadruple the polynomials take _cross_terms's own integer values
    monkeypatch.undo()
    point = {"a": 3, "b": 5, "c": 7, "d": 2}
    x, y, z = quad._cross_terms(*point.values())
    point |= {"alpha": 2, "beta": 2, "gamma": 1, "delta": 4}  # inverses of (3, 5) and (7, 2)
    assert [[p.at(point) for p in group] for group in cross_terms] == [list(x), list(y), list(z)]
    assert R1.at(point) == R2.at(point) == 0


# x_i*y_i - 1 = n*C_i + (c*gamma + d*delta - c*d)*R1 + R2, with n = u or v and
# C_i the exact cofactor of the pair flag
PAIR_COFACTORS = [
    (u, a * delta + d * alpha - alpha * gamma - beta * delta),
    (u, b * gamma + c * beta - alpha * gamma - beta * delta),
    (v, b * delta - d * beta - alpha * delta + beta * gamma),
    (v, c * alpha - a * gamma - alpha * delta + beta * gamma),
]


@pytest.mark.parametrize("i", range(4), ids=["x1*y1", "x2*y2", "x3*y3", "x4*y4"])
def test_pair_products_are_one_modulo_their_moduli(cross_terms, i):
    x, y, _ = cross_terms
    n, cofactor = PAIR_COFACTORS[i]
    assert x[i] * y[i] - 1 == n * cofactor + (c * gamma + d * delta - c * d) * R1 + R2


# each proof identity's miss is a multiple of one pair's identity; the sum flag
# that shares its e holds whenever it does
PROOF_MISSES = {
    "s*y1 = v + u*z1": (lambda x, y, z: s * y[0] - v - u * z[0], v * R1),
    "t*x1 = v + u*z2": (lambda x, y, z: t * x[0] - v - u * z[1], v * R2),
    "s*y4 = u - v*z1": (lambda x, y, z: s * y[3] - u + v * z[0], u * R1),
    "t*x4 = u + v*z3": (lambda x, y, z: t * x[3] - u - v * z[2], u * R2),
}


@pytest.mark.parametrize("identity", PROOF_MISSES)
def test_proof_identities_are_multiples_of_the_pair_identities(cross_terms, identity):
    miss, multiple = PROOF_MISSES[identity]
    assert miss(*cross_terms) == multiple


# reduce_inverse_plus, inverse_mod_gaussian_linear and square_inverse, restated
# from the value of inverse_pair(a, b) or inverse(b, a)
def plus_form(a, b, k, pair):
    x, y = pair
    return k * (a - y) + x


def gaussian_linear_form(a, pair):
    x, y = pair
    return GaussianInteger(x, a - y)


def square_forms(b, i):
    """square_inverse's two forms before their reduction modulo a*a."""
    half = (b * i - 2) * i
    return half * half, (3 - 2 * b * i) * i * i


@pytest.mark.parametrize("a_, b_, k_", [(7, 3, 2), (-5, 3, -1), (4, -1, 3), (9, -7, 0),
                                        (-2, 1, 5), (3**40, -(2**70 + 1), 4)])
def test_restated_formulas_give_the_shipped_values(a_, b_, k_):
    pair = inverse_pair(a_, b_)
    assert identities.reduce_inverse_plus(a_, b_, k_) == plus_form(a_, b_, k_, pair)
    assert inverse_mod_gaussian_linear(a_, b_) == gaussian_linear_form(a_, pair)
    forms = square_forms(b_, inverse(b_, a_))
    assert [identities.square_inverse(a_, b_)] * 2 == [f % (a_ * a_) for f in forms]


def test_reduction_plus_is_one_modulo_its_modulus():
    x = plus_form(a, b, k, (alpha, beta))
    assert a * x - 1 == (k * a + b) * (a - beta) + R1


def test_reduction_minus_is_the_plus_form_at_minus_b(monkeypatch):
    # inverse_pair(a, -b) is (alpha - b, a - beta): that pair meets the identity
    # at (a, -b) exactly when (alpha, beta) meets it at (a, b)
    pairs = {(a, b): (alpha, beta), (a, -b): (alpha - b, a - beta)}
    assert a * (alpha - b) - b * (a - beta) - 1 + a * b == R1
    monkeypatch.setattr(identities, "reduce_inverse_plus",
                        lambda p, q, m: plus_form(p, q, m, pairs[p, q]))
    x = identities.reduce_inverse_minus(a, b, k)
    assert x == k * beta - (b - alpha)
    assert a * x - 1 == (k * a - b) * beta + R1


def test_diophantine_solution_meets_its_equation(monkeypatch):
    monkeypatch.setattr(recip, "inverse_pair", lambda p, q: {(a, b): (alpha, beta)}[p, q])
    x, cofactor = recip.solve_diophantine(a, b)
    assert a * x - cofactor * b - 1 == R1


def test_gaussian_linear_inverse_is_one_modulo_its_modulus():
    g = gaussian_linear_form(a, (alpha, beta))
    assert g * GaussianInteger(a, 0) - 1 == (GaussianInteger(b, a) * GaussianInteger(a - beta, 0)
                                             + GaussianInteger(R1, 0))


def test_square_inverse_forms_are_one_modulo_a_squared():
    # e is a multiple of a once R1 = 0, so e*e is one of a*a
    e = b * beta - 1
    assert e == a * (b - alpha) + R1
    form1, form2 = square_forms(b, beta)
    assert b * b * form1 == 1 - 2 * e * e + e * e * e * e
    assert b * b * form2 == 1 - 3 * e * e - 2 * e * e * e


# gaussian_inverse's representative and gaussian_bezout_identity's left side,
# restated from the inverse pair of the norms
def gaussian_inverse_form(z, pair):
    return z.conjugate() * GaussianInteger(pair[0], 0)


def bezout_left_side(z, w, pair):
    x, y = pair
    return z * (z.conjugate() * GaussianInteger(x, 0)) + w * (w.conjugate() * GaussianInteger(y, 0))


@pytest.mark.parametrize("z, w", [((1, 1), (1, 2)), ((2, 3), (1, 4)), ((-3, 2), (5, -2)),
                                  ((-1, -1), (2, -1)), ((4, -1), (-1, 1)),
                                  ((3**20, -(2**34 + 2)), (7**15, 2**40 + 3)),
                                  ((3**600, -(2**900 + 2)), (7**450, 2**1000 + 3))])
def test_restated_gaussian_formulas_give_the_shipped_values(z, w, monkeypatch):
    # the last point's norms, of 1902 and 2527 bits, take the batched route
    z, w = GaussianInteger(*z), GaussianInteger(*w)
    s_, t_ = z.norm(), w.norm()
    x, y = inverse_pair(s_, t_)
    assert gaussian_inverse(z, w)[0] == gaussian_inverse_form(z, (x, y))
    assert bezout_left_side(z, w, (x, y)) == GaussianInteger(1 + s_ * t_, 0)
    # the shipped check holds exactly when the restated side is 1 + s*t: the
    # pair shifted by (t, -s) keeps the identity, one off by 1 misses it by s
    for pair, holds in (((x, y), True), ((x + t_, y - s_), True), ((x + 1, y), False)):
        monkeypatch.setattr(gaussian, "inverse_pair", lambda p, q, pair=pair: pair)
        assert gaussian_bezout_identity(z.re, z.im, w.re, w.im) is holds
        assert (bezout_left_side(z, w, pair) == GaussianInteger(1 + s_ * t_, 0)) is holds


def test_gaussian_inverse_is_one_modulo_its_modulus():
    z, w = GaussianInteger(a, b), GaussianInteger(c, d)
    rep = gaussian_inverse_form(z, (gamma, delta))
    assert z * rep - 1 == w * (w.conjugate() * GaussianInteger(s - delta, 0)) + GaussianInteger(R3, 0)


def test_gaussian_bezout_left_side_is_one_plus_the_norm_product():
    lhs = bezout_left_side(GaussianInteger(a, b), GaussianInteger(c, d), (gamma, delta))
    assert lhs == GaussianInteger(s * t + 1 + R3, 0)
    assert lhs.im == 0
