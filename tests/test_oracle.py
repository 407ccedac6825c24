import ast
import cmath
import math
from pathlib import Path

import pytest

from backflow import contwave as cw
from backflow import oracle
from backflow import ringwave as rw
from backflow.errors import SingularPoint

SQRT_2PI = math.sqrt(2 * math.pi)


def example_one(a=-0.25j):
    spec = cw.RationalSpec(zeros=(cw.Root(a),), poles=(cw.Root(-1j, 2),))
    return cw.make_line_wavefunction(spec)


def closed_form_spectrum(wf, a, p):
    return -1j * wf.norm_constant * SQRT_2PI * (1 + (1j * a - 1) * p) * math.exp(-p)


class TestFourierQuadrature:
    def test_matches_closed_form_at_p_one(self):
        a = -0.25j
        wf = example_one(a)
        got = oracle.fourier_quadrature(wf, 1.0, tol=1e-9)
        assert got.value == pytest.approx(closed_form_spectrum(wf, a, 1.0), abs=1e-8)
        assert got.est_error < 1e-8
        assert got.evaluations > 0

    def test_negative_p_vanishes(self):
        wf = example_one()
        got = oracle.fourier_quadrature(wf, -2.0, tol=1e-8)
        assert abs(got.value) < 1e-6

    def test_principal_value_at_zero(self):
        a = -0.25j
        wf = example_one(a)
        got = oracle.fourier_quadrature(wf, 0.0, tol=1e-9)
        # decay exponent 1: half of the p -> 0+ limit
        expect = 0.5 * closed_form_spectrum(wf, a, 0.0)
        assert got.value == pytest.approx(expect, abs=1e-8)

    def test_smooth_case_at_zero(self):
        spec = cw.RationalSpec(poles=(cw.Root(-1j, 2),))
        wf = cw.make_line_wavefunction(spec)
        got = oracle.fourier_quadrature(wf, 0.0, tol=1e-9)
        # integral of 1/(x+i)^2 over R vanishes; only the residue sum survives at 0+
        assert abs(got.value) < 1e-8

    def test_self_consistency_under_refinement(self):
        wf = example_one(0.6 - 0.9j)
        coarse = oracle.fourier_quadrature(wf, 2.3, tol=1e-6)
        fine = oracle.fourier_quadrature(wf, 2.3, tol=1e-10)
        assert abs(coarse.value - fine.value) <= max(coarse.est_error, 1e-9)

    def test_phase_gradient_consistent_under_h_halving(self):
        wf = example_one(0.6 - 0.9j)
        for x in (-1.3, 0.2, 2.1):
            full = oracle.phase_gradient_fd(wf, x, 1e-4)
            half = oracle.phase_gradient_fd(wf, x, 5e-5)
            assert abs(full - half) < 1e-6


class TestPhaseGradient:
    def test_pure_eigenstate_is_exact(self):
        spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(1.5 + 0j, 3),))
        wf = rw.make_ring_wavefunction(spec, 1.0)
        # single-eigenstate-like check on the analytic plane-wave factor
        plane = lambda x: complex(math.cos(2 * math.pi * x), math.sin(2 * math.pi * x))

        class Wrapper:
            def __call__(self, x):
                return plane(x)

        fd = oracle.phase_gradient_fd(Wrapper(), 0.3, 1e-6)
        assert fd == pytest.approx(2 * math.pi, abs=1e-6)

    def test_example_one_at_origin(self):
        wf = example_one()
        assert oracle.phase_gradient_fd(wf, 0.0, 1e-5) == pytest.approx(-2.0, abs=1e-4)

    def test_unwraps_across_the_branch_cut(self):
        # turned by -i, example one's phase at the origin is -pi: the samples straddle the cut
        wf = example_one()
        turned = cw.with_phase(wf, -1j)
        assert cmath.phase(turned(1e-5)) > 3 and cmath.phase(turned(-1e-5)) < -3
        got = oracle.phase_gradient_fd(turned, 0.0)
        assert got == pytest.approx(oracle.phase_gradient_fd(wf, 0.0), abs=1e-9)
        assert got == pytest.approx(-2.0, abs=1e-4)

    def test_straddling_real_zero_raises(self):
        spec = cw.RationalSpec(zeros=(cw.Root(1.0),), poles=(cw.Root(-1j, 2),))
        wf = cw.make_line_wavefunction(spec)
        with pytest.raises(SingularPoint):
            oracle.phase_gradient_fd(wf, 1.0, 1e-5)


class TestNormQuadrature:
    def test_normalized_state(self):
        wf = example_one()
        got = oracle.norm_quadrature(wf, 1e-10)
        assert got.value.real == pytest.approx(1.0, abs=1e-8)

    def test_unnormalized_example_one(self):
        spec = cw.RationalSpec(zeros=(cw.Root(-0.25j),), poles=(cw.Root(-1j, 2),))
        raw = cw.LineWaveFunction(spec, 1.0)
        got = oracle.norm_quadrature(raw, 1e-10)
        assert got.value.real == pytest.approx(math.pi * (1 + 1 / 16) / 2, rel=1e-10)

    def test_ring_periodic_trapezoid(self):
        spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(1.5 + 0j, 3),))
        wf = rw.make_ring_wavefunction(spec, 1.0)
        got = oracle.norm_quadrature(wf, 1e-12)
        assert got.value.real == pytest.approx(1.0, abs=1e-10)

    def test_reference_integral_feeds_footnote_norm(self):
        # the closed-form ring normalization is built on this quadrature
        ref = oracle.single_pole_reference_norm(1.5, 3)
        wf = rw.make_ring_wavefunction(
            cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(1.5 + 0j, 3),)), 1.0
        )
        assert wf.norm_constant == pytest.approx(ref, rel=1e-9)


def test_plancherel_for_example_one():
    from scipy.integrate import quad

    wf = example_one()
    sp = cw.momentum_spectrum(wf)
    val, err = quad(lambda p: abs(cw.eval_spectrum(sp, p)) ** 2, 0, 60, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_analytic_modules_do_not_import_the_oracle():
    """Construction and analysis never call the oracle, so it stays an independent check."""
    package = Path(cw.__file__).parent
    importers = []
    for name in ("contwave", "ringwave", "polyring", "padegen"):
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "oracle" for n in names):
                importers.append(f"{name}.py:{node.lineno}")
    assert importers == []


def importers(modules, imported: set[str]) -> list[str]:
    """module.py:line of each import statement in backflow/<module>.py that names a module in
    `imported`, as any part of a dotted name (`from . import contwave`, `import scipy.integrate`)."""
    package = Path(cw.__file__).parent
    found = []
    for name in modules:
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                if any(set(n.split(".")) & imported for n in names):
                    found.append(f"{name}.py:{node.lineno}")
    return found


def test_oracle_imports_no_analytic_module():
    """The oracle reads states as data and evaluates a line state's psi itself, so it checks the
    analytic modules without running their code."""
    assert importers(["oracle"], {"contwave", "ringwave", "polyring", "padegen"}) == []


def test_analytic_modules_do_not_import_scipy():
    """Only the oracle integrates numerically."""
    assert importers(["contwave", "ringwave", "padegen", "polyring"], {"scipy"}) == []


def test_scipy_is_imported_only_inside_the_quadpack_helper():
    """Importing backflow loads no scipy: the oracle's _quad imports it when it integrates."""
    source = Path(oracle.__file__)
    found = importers(sorted(p.stem for p in source.parent.glob("*.py")), {"scipy"})
    tree = ast.parse(source.read_text(encoding="utf-8"))
    quad = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_quad")
    assert len(found) == 1 and found[0].startswith("oracle.py:"), found
    assert quad.lineno < int(found[0].split(":")[1]) <= quad.end_lineno


@pytest.mark.parametrize("case", ["norm", "p=0 asymptote", "p=1.3"])
def test_evaluations_count_psi_calls(monkeypatch, case):
    """QuadratureResult.evaluations is the number of times the quadratures called psi."""
    calls = []
    plain = oracle._psi

    def counting(wf):
        psi = plain(wf)

        def counted(x):
            calls.append(x)
            return psi(x)

        return counted

    monkeypatch.setattr(oracle, "_psi", counting)
    if case == "norm":
        got = oracle.norm_quadrature(example_one())
    elif case == "p=0 asymptote":  # 1/(x + i): decay exponent 1, the principal-value path
        got = oracle.fourier_quadrature(cw.make_line_wavefunction(cw.RationalSpec(poles=(cw.Root(-1j),))), 0.0)
    else:
        got = oracle.fourier_quadrature(example_one(), 1.3)
    assert got.evaluations == len(calls) > 0
