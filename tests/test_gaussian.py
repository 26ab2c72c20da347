import math
import pickle

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from modrecip.core import DomainError, NotCoprimeError, ZeroOperandError
from modrecip.gaussian import (
    GaussianInteger,
    divides,
    format_gaussian,
    gaussian_bezout_identity,
    gaussian_divmod,
    gaussian_inverse,
    inverse_mod_gaussian_linear,
    parse_gaussian,
)

G = GaussianInteger

coords = st.integers(min_value=-(10**6), max_value=10**6)
gaussians = st.builds(G, coords, coords)


def test_norm_and_conjugate():
    assert G(1, 1).norm() == 2
    assert G(2, 1).norm() == 5
    assert G(0, 0).norm() == 0
    assert G(1, 2).conjugate() == G(1, -2)
    assert G(3, 0).conjugate() == G(3, 0)
    assert G(0, -1).conjugate() == G(0, 1)


def test_gaussian_integer_is_an_immutable_value():
    z, again = G(1, 2), G(re=1, im=2)
    assert z == again and z is not again and (z.re, z.im) == (1, 2)
    assert hash(z) == hash(again) and len({z, again, G(2, 1)}) == 2
    assert z != G(1, -2) and z != (1, 2) and (1, 2) != z and G(3, 0) != 3
    assert repr(z) == "GaussianInteger(re=1, im=2)"
    assert repr(G(-3, 0)) == "GaussianInteger(re=-3, im=0)"
    for mutate in (lambda: setattr(z, "re", 5), lambda: setattr(z, "extra", 1),
                   lambda: delattr(z, "im")):
        with pytest.raises(AttributeError):
            mutate()
    assert (z.re, z.im) == (1, 2)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(z, protocol)) == z
    with pytest.raises(TypeError):
        G(1)


@given(gaussians, coords)
def test_int_operands_act_as_real_gaussians(z, n):
    real = G(n, 0)
    assert z + n == n + z == z + real
    assert z - n == z - real and n - z == real - z
    assert z * n == n * z == z * real
    assert z * True == z and True - z == G(1, 0) - z  # bool is an int


def test_other_operands_are_refused():
    for other in (1.5, "x", (1, 2)):
        for op in (lambda: G(1, 2) + other, lambda: other - G(1, 2), lambda: G(1, 2) * other):
            with pytest.raises(TypeError):
                op()


def test_ring_arithmetic():
    assert G(1, 2) + G(3, -1) == G(4, 1)
    assert G(1, 2) - G(3, -1) == G(-2, 3)
    assert G(1, 1) * G(1, 1) == G(0, 2)
    assert G(2, 1) * G(2, -1) == G(5, 0)
    assert -G(2, -3) == G(-2, 3)
    assert 1 + G(2, 3) == G(3, 3)
    assert 2 * G(1, -1) == G(2, -2)
    assert 1 - G(2, 3) == G(-1, -3)


@given(gaussians)
def test_norm_is_multiplicative_with_conjugate(z):
    assert (z * z.conjugate()) == G(z.norm(), 0)


def test_divmod_examples():
    q, r = gaussian_divmod(G(5, 0), G(2, 1))
    assert q == G(2, -1) and r == G(0, 0)
    q, r = gaussian_divmod(G(3, -3), G(2, 1))
    assert q == G(1, -2) and r == G(-1, 0)


def test_divmod_tie_rounds_toward_minus_infinity():
    q, r = gaussian_divmod(G(1, 1), G(2, 0))
    assert q == G(0, 0) and r == G(1, 1)
    assert 2 * r.norm() == G(2, 0).norm()  # the bound is tight here
    q, r = gaussian_divmod(G(-1, -1), G(2, 0))
    assert q == G(-1, -1) and r == G(1, 1)


def test_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroOperandError):
        gaussian_divmod(G(1, 1), G(0, 0))


@given(gaussians, gaussians)
def test_divmod_law(n, d):
    assume(not d.is_zero())
    q, r = gaussian_divmod(n, d)
    assert n == d * q + r
    assert 2 * r.norm() <= d.norm()


def test_divides():
    assert divides(G(2, 1), G(5, 0))
    assert not divides(G(2, 1), G(4, 0))
    assert divides(G(0, 0), G(0, 0))
    assert not divides(G(0, 0), G(1, 0))


def test_gaussian_inverse_examples():
    rep, canon = gaussian_inverse(G(1, 1), G(2, 1))
    assert rep == G(3, -3)
    assert canon == G(-1, 0)
    assert divides(G(2, 1), G(1, 1) * canon - 1)

    rep, canon = gaussian_inverse(G(2, 1), G(1, 1))
    assert rep == G(2, -1)
    assert divides(G(1, 1), G(2, 1) * canon - 1)


def test_gaussian_inverse_hypothesis_checks():
    with pytest.raises(NotCoprimeError):
        gaussian_inverse(G(1, 2), G(3, 4))  # norms 5 and 25
    with pytest.raises(DomainError):
        gaussian_inverse(G(1, 0), G(2, 1))  # zero component
    with pytest.raises(DomainError):
        gaussian_inverse(G(1, 1), G(0, 3))


def test_gaussian_inverse_sweep_small():
    vals = [n for n in range(-4, 5) if n != 0]
    for a in vals:
        for b in vals:
            z = G(a, b)
            for c in vals:
                for d in vals:
                    w = G(c, d)
                    if math.gcd(z.norm(), w.norm()) != 1:
                        continue
                    rep, canon = gaussian_inverse(z, w)
                    assert divides(w, z * canon - 1)
                    assert divides(w, z * rep - 1)
                    assert 2 * canon.norm() <= w.norm()
                    assert gaussian_divmod(rep, w).remainder == canon


def test_bezout_identity_examples():
    assert gaussian_bezout_identity(1, 1, 2, 1)
    assert gaussian_bezout_identity(1, 1, 1, 2)
    with pytest.raises(NotCoprimeError):
        gaussian_bezout_identity(1, 2, 3, 4)


def test_bezout_identity_sides_match_reciprocity_instance():
    # (1+i)(3-3i) + (2+i)(2-i) = 6 + 5 = 11 = 1 + 2*5
    z, w = G(1, 1), G(2, 1)
    u = z.conjugate() * 3
    v = w.conjugate() * 1
    assert z * u + w * v == G(11, 0)
    assert 1 + z * w * z.conjugate() * w.conjugate() == G(11, 0)


def test_linear_inverse_examples():
    assert inverse_mod_gaussian_linear(3, 2) == G(1, 1)
    assert inverse_mod_gaussian_linear(7, 1) == G(1, 6)
    assert inverse_mod_gaussian_linear(5, 2) == G(1, 2)
    for a, b in ((3, 2), (7, 1), (5, 2)):
        value = inverse_mod_gaussian_linear(a, b)
        assert divides(G(b, a), value * a - 1)


def test_linear_inverse_rejects():
    with pytest.raises(DomainError):
        inverse_mod_gaussian_linear(1, 5)
    with pytest.raises(ZeroOperandError):
        inverse_mod_gaussian_linear(5, 0)
    with pytest.raises(NotCoprimeError):
        inverse_mod_gaussian_linear(4, 6)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3-3i", G(3, -3)),
        ("-1", G(-1, 0)),
        ("2i", G(0, 2)),
        ("i", G(0, 1)),
        ("-i", G(0, -1)),
        ("+i", G(0, 1)),
        ("0", G(0, 0)),
        ("2-1i", G(2, -1)),
        ("1+1i", G(1, 1)),
        ("3 - 3i", G(3, -3)),
        ("-12+7i", G(-12, 7)),
        ("0i", G(0, 0)),
    ],
)
def test_parse_gaussian(text, expected):
    assert parse_gaussian(text) == expected


@pytest.mark.parametrize("text", ["", "x", "1+", "i1", "2+2", "1+2j", "--3", "3i+2",
                                  "1 2", "3 4i", "1 2+3i"])
def test_parse_gaussian_rejects(text):
    with pytest.raises(ValueError):
        parse_gaussian(text)


def test_parse_gaussian_quotes_a_bounded_part_of_the_text():
    # up to 40 characters the whole text, past that a prefix and the length
    with pytest.raises(ValueError, match=r"^not a Gaussian integer: '1\+i1'$"):
        parse_gaussian("1+i1")
    text = "7" * 5000 + "x"
    with pytest.raises(ValueError) as info:
        parse_gaussian(text)
    assert str(info.value) == f"not a Gaussian integer: {'7' * 40!r}... (5001 characters)"


def test_format_gaussian_forms():
    assert format_gaussian(G(3, -3)) == "3-3i"
    assert format_gaussian(G(-1, 0)) == "-1"
    assert format_gaussian(G(0, 2)) == "2i"
    assert format_gaussian(G(0, 0)) == "0"
    assert format_gaussian(G(2, -1)) == "2-1i"
    assert str(G(1, 1)) == "1+1i"


@given(gaussians)
def test_parser_round_trips_printer(z):
    assert parse_gaussian(format_gaussian(z)) == z
