import random
from fractions import Fraction as F

import pytest

from hodgespec.spectra import (
    BiSpectrum,
    Spectrum,
    fold_bispectrum,
    frac,
    geometric_factor,
    mod1,
    steenbrink_rhs,
)

t = Spectrum.monomial
b = BiSpectrum.monomial


def test_exponent_addition():
    assert t(F(1, 2)) * t(F(1, 3)) == t(F(5, 6))


def test_cancellation():
    assert t(F(1, 2)) + (-1) * t(F(1, 2)) == Spectrum.zero()
    assert not (t(1) - t(1))
    assert t(1) - t(1) == 0 and 3 * Spectrum.one() == 3 != t(1)


def test_difference_of_squares():
    one = Spectrum.one()
    assert (one + t(F(1, 2))) * (one - t(F(1, 2))) == one - t(1)


def test_mod1_and_frac():
    assert mod1(F(-1, 2)) == F(1, 2)
    assert mod1(F(7, 3)) == F(1, 3)
    assert frac((3, 6)) == F(1, 2)
    assert frac("2/8") == F(1, 4)


def test_fold_examples():
    assert fold_bispectrum(b(F(1, 2), F(1, 2), 0)) == t(1)
    assert fold_bispectrum(b(0, 0, 3)) == t(3)
    # collision of images
    assert fold_bispectrum(b(F(2, 3), F(2, 3), 0) + b(F(1, 3), 0, 1)) == 2 * t(F(4, 3))


def test_fold_scaled_examples():
    assert fold_bispectrum(b(F(1, 2), F(1, 2), 0), 3) == t(F(2, 3))
    assert fold_bispectrum(b(0, F(3, 4), 1), 2) == t(F(11, 8))
    x = b(F(1, 5), F(2, 5), 2) - 3 * b(0, F(1, 2), -1)
    assert fold_bispectrum(x, 1) == fold_bispectrum(x)


def test_fold_additive():
    rng = random.Random(3)
    for _ in range(50):
        terms1 = [((F(rng.randint(0, 5), 6), F(rng.randint(0, 5), 6), rng.randint(-2, 2)), rng.randint(-2, 2)) for _ in range(3)]
        terms2 = [((F(rng.randint(0, 5), 6), F(rng.randint(0, 5), 6), rng.randint(-2, 2)), rng.randint(-2, 2)) for _ in range(3)]
        x, y = BiSpectrum(terms1), BiSpectrum(terms2)
        N = rng.randint(1, 5)
        assert fold_bispectrum(x + y, N) == fold_bispectrum(x, N) + fold_bispectrum(y, N)


def test_fold_wraparound_breaks_multiplicativity():
    m1 = b(F(1, 2), 0, 0)
    m2 = b(F(2, 3), 0, 0)
    assert fold_bispectrum(m1 * m2) == t(F(1, 6))
    assert fold_bispectrum(m1) * fold_bispectrum(m2) == t(F(7, 6))


def test_geometric_factor():
    assert geometric_factor(1) == Spectrum.one()
    assert geometric_factor(3) == Spectrum.one() + t(F(1, 3)) + t(F(2, 3))
    assert geometric_factor(2) == Spectrum.one() + t(F(1, 2))
    one = Spectrum.one()
    for m in range(1, 65):
        assert geometric_factor(m) * (one - t(F(1, m))) == one - t(1)


def test_steenbrink_rhs_examples():
    assert steenbrink_rhs([(F(1, 2), F(1, 2))], 1, 3) == t(F(2, 3)) + t(1) + t(F(4, 3))
    assert steenbrink_rhs([], 4, 9) == Spectrum.zero()
    assert steenbrink_rhs([(F(1, 2), F(1, 2))], 1, 4) == (
        t(F(5, 8)) + t(F(7, 8)) + t(F(9, 8)) + t(F(11, 8))
    )


def test_steenbrink_rhs_rejects_bad_residue():
    with pytest.raises(ValueError):
        steenbrink_rhs([(F(1, 2), F(3, 2))], 1, 3)
    with pytest.raises(ValueError):
        steenbrink_rhs([(F(1, 2), F(-1, 2))], 1, 3)


def test_ring_axioms_random():
    rng = random.Random(11)

    def rand():
        return Spectrum(
            [(F(rng.randint(-40, 40), rng.randint(1, 24)), rng.randint(-3, 3)) for _ in range(4)]
        )

    for _ in range(60):
        x, y, z = rand(), rand(), rand()
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * Spectrum.one() == x


def test_render_format():
    assert (t(F(5, 6)) + t(F(7, 6))).render() == "t^(5/6) + t^(7/6)"
    assert Spectrum.zero().render() == "0"
    assert (2 * t(F(4, 3))).render() == "2*t^(4/3)"
    assert (Spectrum.one() - 2 * t(F(1, 2))).render() == "t^(0) - 2*t^(1/2)"
    assert (-t(F(1, 2)) + t(2)).render() == "-t^(1/2) + t^(2)"
    assert t(F(-1, 2)).render() == "t^(-1/2)"


def test_bispectrum_render():
    x = b(F(1, 2), F(1, 3), -1) - 2 * b(0, 0, 0)
    assert x.render() == "-2*t^(0)*u^(0)*v^(0) + t^(1/2)*u^(1/3)*v^(-1)"
