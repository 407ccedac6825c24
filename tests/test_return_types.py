"""The scalar return-type contract of the psi, k, j and spectrum evaluators.

A scalar argument (a Python number or a numpy scalar) gets a Python float back,
a complex for psi and the spectrum; a list or an array gets an ndarray.
"""

import numpy as np
import pytest

from backflow import contwave as cw
from backflow import ringwave as rw
from backflow.contwave import RationalSpec, Root

LINE = cw.make_line_wavefunction(RationalSpec(zeros=(Root(0.3 - 0.2j),), poles=(Root(-1j, 2),)))
RING = rw.make_ring_wavefunction(RationalSpec(zeros=(Root(0j),), poles=(Root(1.5 + 0j, 3),)), 1.0)
SPECTRUM = cw.momentum_spectrum(LINE)

EVALUATORS = {
    "line-psi": (LINE, complex),
    "ring-psi": (RING, complex),
    "line-k": (lambda x: cw.local_wavenumber(LINE, x), float),
    "line-j": (lambda x: cw.probability_current(LINE, x), float),
    "line-spectrum": (lambda p: cw.eval_spectrum(SPECTRUM, p), complex),
    "ring-k": (lambda x: rw.ring_wavenumber(RING, x), float),
    "ring-j": (lambda x: rw.ring_current(RING, x), float),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@pytest.mark.parametrize("x", [0, 0.3, np.float64(0.3)], ids=["int", "float", "float64"])
def test_scalar_gives_python_number(name, x):
    evaluate, kind = EVALUATORS[name]
    value = evaluate(x)
    assert type(value) is kind
    assert value == evaluate(np.array([x], float))[0]


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_list_gives_array(name):
    evaluate, _ = EVALUATORS[name]
    values = evaluate([-0.2, 0.0, 0.3])
    assert type(values) is np.ndarray and values.shape == (3,)
