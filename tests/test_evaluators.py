"""Scalar and array calls of k, j and the line spectrum give the same values.

Each grid holds a zero of psi (a real zero on the line, a circle zero on the
ring), where k is undefined: a scalar call raises SingularPoint, an array
call holds NaN, and j is 0.
"""

import warnings

import numpy as np
import pytest

from backflow import cli
from backflow import contwave as cw
from backflow import ringwave as rw
from backflow.contwave import RationalSpec, Root
from backflow.errors import SingularPoint

LINE = cw.make_line_wavefunction(
    RationalSpec(
        zeros=(Root(1.0 + 0j), Root(0.3 - 0.2j), Root(-0.7 + 0.5j, 2)),
        poles=(Root(0.1 - 0.8j, 3), Root(-1.2 - 1.5j, 2)),
    )
)
# z (z - 1) / (z - 1.5 e^{0.4i})^2: the zero at z = 1 sits on the circle at x = 0
RING = rw.make_ring_wavefunction(
    RationalSpec(zeros=(Root(0j), Root(1.0 + 0j)), poles=(Root(1.5 * np.exp(0.4j), 2),)), 1.0
)
Z_Z_MINUS_1 = rw.make_ring_wavefunction(RationalSpec(zeros=(Root(0j), Root(1.0 + 0j))), 1.0)

GEOMETRIES = {
    "line": (LINE, np.linspace(-4.0, 4.0, 161), 1.0, cw.local_wavenumber, cw.probability_current),
    "ring": (RING, np.linspace(-0.5, 0.5, 201), 0.0, rw.ring_wavenumber, rw.ring_current),
}


def scalar_values(f, wf, xs):
    """f at each point of xs by scalar calls; NaN where the call raises."""
    out = []
    for x in xs.tolist():
        try:
            out.append(f(wf, x))
        except SingularPoint:
            out.append(np.nan)
    return np.array(out)


def assert_agree(scalar, array):
    assert np.array_equal(np.isnan(scalar), np.isnan(array))
    finite = ~np.isnan(scalar)
    scale = np.max(np.abs(scalar[finite]))
    assert np.max(np.abs(array[finite] - scalar[finite])) <= 1e-13 * scale


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_wavenumber_and_current_arrays_match_scalars(geometry):
    wf, xs, zero_x, k_of, j_of = GEOMETRIES[geometry]
    singular = xs == zero_x
    assert singular.sum() == 1

    ks = scalar_values(k_of, wf, xs)
    assert np.array_equal(np.isnan(ks), singular)
    assert_agree(ks, k_of(wf, xs))

    js = scalar_values(j_of, wf, xs)
    assert not np.isnan(js).any()
    assert_agree(js, j_of(wf, xs))
    assert js[singular] == 0.0
    assert j_of(wf, xs)[singular] == 0.0


SPECTRUM_STATES = {
    # decay order n - m = 1: the half-sum applies at p = 0
    1: RationalSpec(zeros=(Root(-0.25j),), poles=(Root(-1j, 2),)),
    # decay order 2: the continuous limit applies at p = 0
    2: RationalSpec(zeros=(Root(0.3 - 0.2j),), poles=(Root(-1j, 2), Root(0.5 - 0.7j))),
}


@pytest.mark.parametrize("decay_order", sorted(SPECTRUM_STATES))
def test_spectrum_array_matches_scalars(decay_order):
    sp = cw.momentum_spectrum(cw.make_line_wavefunction(SPECTRUM_STATES[decay_order]))
    assert sp.decay_order == decay_order
    ps = np.concatenate([np.linspace(-30.0, -0.1, 40), [0.0], np.linspace(0.01, 12.0, 200)])
    scalar = np.array([cw.eval_spectrum(sp, p) for p in ps.tolist()])
    array = cw.eval_spectrum(sp, ps)
    assert np.all(scalar[ps < 0] == 0) and np.all(array[ps < 0] == 0)
    limit = sum(t.coeffs[0] for t in sp.terms)
    assert array[ps == 0][0] == scalar[ps == 0][0] == (0.5 * limit if decay_order == 1 else limit)
    assert np.max(np.abs(array - scalar)) <= 1e-13 * np.max(np.abs(scalar))


def test_circle_zero_raises_no_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = rw.ring_backflow_intervals(Z_Z_MINUS_1)
        xs, _, ks, js = cli.sample_field(Z_Z_MINUS_1, -0.5, 0.5, 2001)
    assert report.intervals == ()
    zero = xs == 0.0
    assert np.isnan(ks[zero]).all() and js[zero][0] == 0.0
