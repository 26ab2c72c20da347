"""The quad report's congruences hold by algebra, checked on the shipped formulas.

``quad._cross_terms`` is pure arithmetic in a, b, c, d and the inverses of the
two pairs: alpha = inv(a mod b), beta = inv(b mod a), gamma = inv(c mod d) and
delta = inv(d mod c).  Run on symbols, with ``inverse_pair`` patched to return
them, it gives polynomials.  Each congruence of a quad report then differs from
a multiple of its modulus by a combination of R1 = a*alpha + b*beta - 1 - a*b
and R2 = c*gamma + d*delta - 1 - c*d, the paper's identity for each pair.  The
core's certificate makes R1 = R2 = 0 on every pair it returns, so every pair and
proof flag of a quad report, and with them the sum flags, hold for every input
and not only on the sweeps' bounded box.
"""

import pytest

from modrecip import quad

SYMBOLS = "a b c d alpha beta gamma delta".split()


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

    def __mul__(self, other):
        terms: dict[tuple[int, ...], int] = {}
        for e1, k1 in self.terms.items():
            for e2, k2 in Poly.lift(other).terms.items():
                exps = tuple(map(sum, zip(e1, e2)))
                terms[exps] = terms.get(exps, 0) + k1 * k2
        return Poly(terms)

    def __eq__(self, other):
        return self.terms == Poly.lift(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def at(self, values: dict[str, int]) -> int:
        """The value at integer values of the symbols."""
        total = 0
        for exps, k in self.terms.items():
            for name, e in zip(SYMBOLS, exps):
                k *= values[name] ** e
            total += k
        return total


a, b, c, d, alpha, beta, gamma, delta = map(Poly.symbol, SYMBOLS)
u, v, s, t = a * c + b * d, a * d - b * c, a * a + b * b, c * c + d * d
R1 = a * alpha + b * beta - 1 - a * b
R2 = c * gamma + d * delta - 1 - c * d


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
