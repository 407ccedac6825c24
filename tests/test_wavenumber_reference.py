"""k on the leading root axis against the per-root loop it replaced, bit for bit.

local_wavenumber and ring_wavenumber sum one term per root, zeros first, in root
order, for a scalar and for an array alike. The loops below are that sum written
out one root at a time, and serve as the reference. psi's root products are held
to their per-root power loop the same way.
"""

import cmath
import math

import numpy as np
import pytest

from backflow import contwave as cw
from backflow import padegen as pg
from backflow import ringwave as rw
from backflow.contwave import RationalSpec, Root
from backflow.errors import SingularPoint


def line_k_loop(wf, xs):
    total = 0.0
    for sign, roots in ((1, wf.spec.zeros), (-1, wf.spec.poles)):
        for r in roots:
            u, v = r.position.real, r.position.imag
            d2 = (xs - u) ** 2 + v * v
            if sign > 0:
                d2 = np.where(d2 < 1e-24, np.nan, d2)
            total = total + sign * r.multiplicity * v / d2
    return total


def ring_k_loop(wf, xs):
    theta = 2 * math.pi * xs / wf.period
    total = 0.0
    for sign, roots in ((1, wf.spec.zeros), (-1, wf.spec.poles)):
        for r in roots:
            d2 = abs(np.exp(1j * theta) - r.position) ** 2
            if sign > 0:
                d2 = np.where(d2 < 1e-24, np.nan, d2)
            num = 1.0 - abs(r.position) * np.cos(theta - cmath.phase(r.position))
            total = total + sign * r.multiplicity * num / d2
    return (2 * math.pi / wf.period) * total


def design(m: int, b_over_pi: float):
    return pg.design_wavefunction(pg.exp_design_problem(m, b_over_pi * math.pi, math.pi)).wavefunction


STATES = {
    "line-c04": lambda: cw.make_line_wavefunction(RationalSpec((Root(0.5 - 1j),), (Root(-1j, 2),))),
    "line-real-zero": lambda: cw.make_line_wavefunction(
        RationalSpec((Root(1.0 + 0j), Root(0.3 - 0.2j), Root(-0.7 + 0.5j, 2)), (Root(0.1 - 0.8j, 3), Root(-1.2 - 1.5j, 2)))
    ),
    "design-m12": lambda: design(12, 6.5),
    "design-m16": lambda: design(16, 10.0),
    "ring-1.01": lambda: rw.make_ring_wavefunction(RationalSpec((Root(0j),), (Root(1.01 + 0j, 3),)), 1.0),
    "ring-circle-zero": lambda: rw.make_ring_wavefunction(
        RationalSpec((Root(0j), Root(1.0 + 0j)), (Root(1.5 * np.exp(0.4j), 2),)), 2.5
    ),
    "ring-many-roots": lambda: rw.make_ring_wavefunction(
        RationalSpec((Root(0j, 2), Root(0.3 - 0.5j), Root(1.7j)), (Root(-2.0 + 1j), Root(1.2j, 2), Root(1.9 - 0.4j))), 1.0
    ),
    # ten or more roots, past the 8 from which a pairwise sum over one point would differ from the loop
    "line-eleven-roots": lambda: cw.make_line_wavefunction(
        RationalSpec(
            tuple(Root(complex(t, 0.4 - 0.3 * t * t)) for t in (-2.1, -1.3, -0.6, 0.2, 0.9)),
            tuple(Root(complex(t, -0.5 - 0.2 * abs(t))) for t in (-2.4, -1.0, 0.1, 1.1, 2.2, 3.0)),
        )
    ),
    "ring-ten-roots": lambda: rw.make_ring_wavefunction(
        RationalSpec(
            (Root(0j),) + tuple(Root(1.2 * t * np.exp(2.1j * t)) for t in (1.0, 1.4, 1.8, 2.2, 2.6)),
            tuple(Root(1.1 * t * np.exp(-1.3j * t)) for t in (1.1, 1.5, 1.9, 2.3)),
        ),
        1.7,
    ),
}


@pytest.mark.parametrize("name", sorted(STATES))
def test_k_matches_per_root_loop(name):
    wf = STATES[name]()
    line = isinstance(wf, cw.LineWaveFunction)
    k_of, loop = (cw.local_wavenumber, line_k_loop) if line else (rw.ring_wavenumber, ring_k_loop)
    xs = np.linspace(-4.0, 4.0, 401) if line else np.linspace(-0.5, 0.5, 401) * wf.period
    assert len(wf.spec.zeros + wf.spec.poles) >= 2
    np.testing.assert_array_equal(k_of(wf, xs), loop(wf, xs))
    for x in xs.tolist():
        want = loop(wf, np.array([x]))[0]
        if math.isnan(want):
            with pytest.raises(SingularPoint):
                k_of(wf, x)
        else:
            assert k_of(wf, x) == want


def test_design_has_many_roots():
    # a pairwise sum over the root axis would first differ from the loop from 8 roots on
    assert len(design(16, 10.0).spec.zeros) == 16


def test_cached_root_columns_leave_equality_and_hash():
    spec, twin = (RationalSpec((Root(0.3 - 0.2j),), (Root(-1j, 2),)) for _ in range(2))
    spec.root_columns
    assert spec == twin and hash(spec) == hash(twin)
    assert {spec: 1}[twin] == 1


class Powers(np.ndarray):
    """An array that records each exponent it is raised to."""

    taken: list = []

    def __pow__(self, n):
        Powers.taken.append(n)
        return super().__pow__(n)


@pytest.mark.parametrize("name", ["line-real-zero", "ring-many-roots"])
def test_products_match_per_root_power_loop(name, monkeypatch):
    # simple and repeated roots; the points avoid the real zero, where d ** 1 may flip the sign of 0
    spec = STATES[name]().spec
    x = np.linspace(-4.0, 4.0, 401) + 0.003
    z = x + 0j if name.startswith("line") else np.exp(2j * math.pi * x / 8.0)
    want = []
    for roots in (spec.zeros, spec.poles):
        acc = 1.0 + 0j
        for r in roots:
            acc = acc * (z - r.position) ** r.multiplicity
        want.append(acc)
    monkeypatch.setattr(Powers, "taken", [])
    got = spec.products(z.view(Powers))
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == w.tobytes()
    # a simple root is multiplied in as it is, without numpy's general complex power
    assert sorted(Powers.taken) == sorted(r.multiplicity for r in spec.zeros + spec.poles if r.multiplicity > 1)
