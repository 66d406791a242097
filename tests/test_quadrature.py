"""The sinc^2 integral behind the capture fraction, diffraction._half_capture,
checked against scipy's Si and against a brute-force trapezoid sum."""
import math

import numpy as np
import pytest
from scipy.special import sici

from ris_vlc.diffraction import _half_capture


def sinc2(t):
    return np.sinc(t) ** 2


def sinc2_integral(t):
    # closed-form antiderivative of sinc^2 with F(0) = 0:
    #   F(t) = Si(2 pi t) / pi - sin^2(pi t) / (pi^2 t)
    si, _ = sici(2.0 * math.pi * t)
    return si / math.pi - math.sin(math.pi * t) ** 2 / (math.pi ** 2 * t)


@pytest.mark.parametrize("upper", [0.5, 1.0, 3.5, 100.0, 6250.44])
def test_sinc2_against_closed_form(upper):
    assert _half_capture(upper) == pytest.approx(sinc2_integral(upper),
                                                 abs=1e-12)


@pytest.mark.parametrize("upper", [1.0, 3.5])
def test_against_brute_force_trapezoid(upper):
    # independent oracle: 10^6 uniform trapezoid samples
    t = np.linspace(0.0, upper, 1_000_001)
    brute = np.trapezoid(sinc2(t), t)
    assert abs(_half_capture(upper) - brute) < 1e-6
