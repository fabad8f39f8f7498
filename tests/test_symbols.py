from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import ebk
from ebk import portrait, symbols
from ebk.errors import InvalidSymbol, NonCompactWindow, PreimageNotEnclosed
from ebk.symbols import CATALOG, Box, PotentialSpec
from oracles import stencil_levels


def test_eval_symbol_catalog_values(harmonic, quartic, morse):
    assert ebk.eval_symbol(harmonic, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert ebk.eval_symbol(quartic, 1.0, 1.0) == pytest.approx(1.5, abs=1e-15)
    assert ebk.eval_symbol(morse, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_eval_gradient_catalog_values(harmonic, quartic, double_well):
    assert quartic.gradient(1.0, 1.0) == pytest.approx((4.0, 1.0))
    assert harmonic.gradient(0.0, 0.0) == (0.0, 0.0)
    assert double_well.gradient(1.0, 0.0) == (0.0, 0.0)


def _all_catalog_symbols():
    return [
        ebk.schrodinger_symbol(ebk.harmonic_potential()),
        ebk.schrodinger_symbol(ebk.quartic_potential()),
        ebk.schrodinger_symbol(ebk.polynomial_potential([1.0, 0.1, -2.0, 0.0, 1.0])),
        ebk.schrodinger_symbol(ebk.double_well_potential(1.0)),
        ebk.schrodinger_symbol(ebk.morse_potential(1.0, 1.0)),
        ebk.kerr_symbol(0.5),
        ebk.anisotropic_symbol(1.0, 2.0),
    ]


@pytest.mark.parametrize("spec", _all_catalog_symbols(), ids=lambda s: s.name)
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(1234)
    step = 1e-5
    for _ in range(100):
        x, xi = rng.uniform(-1.0, 1.0, size=2)
        gx, gxi = spec.gradient(x, xi)
        fdx = (ebk.eval_symbol(spec, x + step, xi) - ebk.eval_symbol(spec, x - step, xi)) / (2 * step)
        fdxi = (ebk.eval_symbol(spec, x, xi + step) - ebk.eval_symbol(spec, x, xi - step)) / (2 * step)
        assert abs(fdx - gx) <= 1e-6 * max(1.0, abs(gx))
        assert abs(fdxi - gxi) <= 1e-6 * max(1.0, abs(gxi))


def test_regularity_double_well_clear_window(double_well):
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    report = ebk.regularity_report(double_well, window, Box(-2, 2, -2, 2))
    assert report.regular
    assert report.critical_values_found == ()


def test_regularity_double_well_barrier_top(double_well):
    window = ebk.EnergyWindow(0.9, 1.1, 0.05)
    report = ebk.regularity_report(double_well, window, Box(-2, 2, -2.5, 2.5))
    assert not report.regular
    assert any(abs(v - 1.0) < 1e-8 for v in report.critical_values_found)


def test_regularity_harmonic(harmonic):
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    report = ebk.regularity_report(harmonic, window, Box(-2, 2, -2, 2))
    assert report.regular


def test_regularity_rejects_leaky_box(harmonic):
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    with pytest.raises(PreimageNotEnclosed):
        ebk.regularity_report(harmonic, window, Box(-1, 1, -1, 1))


def test_compact_box_harmonic(harmonic):
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    box = ebk.compact_preimage_box(harmonic, window)
    turning = math.sqrt(2 * 0.85)
    assert box.x_lo < -turning and box.x_hi > turning
    assert box.xi_lo < -turning and box.xi_hi > turning


def test_compact_box_morse(morse):
    box = ebk.compact_preimage_box(morse, ebk.EnergyWindow(0.1, 0.6, 0.05))
    assert math.isfinite(box.x_hi) and box.x_hi > 0


def test_compact_box_morse_noncompact(morse):
    with pytest.raises(NonCompactWindow):
        ebk.compact_preimage_box(morse, ebk.EnergyWindow(0.8, 1.2, 0.05))


@pytest.mark.parametrize("spec", _all_catalog_symbols(), ids=lambda s: s.name)
def test_window_below_minimum_raises_noncompact(spec):
    # Every level of a window whose widened top is not above the least value
    # of H is empty: no sublevel interval, box or oracle basis, one typed error.
    pot = spec.potential
    vmin = pot.min_value() if pot is not None else 0.0
    at = vmin - 0.05
    while at + 0.05 > vmin:  # the tilted polynomial's vmin - 0.05 rounds
        at = math.nextafter(at, -math.inf)
    for e2 in (vmin - 0.25, at):  # the widened top below vmin, then at it
        window = ebk.EnergyWindow(e2 - 0.3, e2, 0.05)
        with pytest.raises(NonCompactWindow):
            ebk.compact_preimage_box(spec, window)
        if pot is not None:
            with pytest.raises(NonCompactWindow):
                ebk.solve_basis(pot, window, 0.1)
    if pot is not None:
        with pytest.raises(NonCompactWindow, match="below its minimum"):
            pot.sublevel_interval(vmin - 0.2)
        lo, hi = pot.sublevel_interval(vmin + 0.2)
        assert lo < hi


def test_compact_box_nonconfining_polynomial():
    cubic = ebk.schrodinger_symbol(ebk.polynomial_potential([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(NonCompactWindow):
        ebk.compact_preimage_box(cubic, ebk.EnergyWindow(0.1, 0.5, 0.05))


def test_symbol_from_config_errors():
    with pytest.raises(InvalidSymbol):
        ebk.symbol_from_config("nonexistent", {})
    with pytest.raises(InvalidSymbol):
        ebk.symbol_from_config("morse", {"D": 1.0, "width": 2.0})
    with pytest.raises(InvalidSymbol):
        ebk.symbol_from_config("polynomial", {})


def test_non_finite_parameters_rejected():
    with pytest.raises(InvalidSymbol):
        ebk.polynomial_potential([1.0, float("nan")])
    with pytest.raises(InvalidSymbol, match="'chi' must be a finite number"):
        ebk.kerr_symbol(float("nan"))
    with pytest.raises(InvalidSymbol, match="'b' must be a finite number"):
        ebk.anisotropic_symbol(1.0, float("inf"))
    with pytest.raises(InvalidSymbol, match="'a' overflows the coefficient a\\^4"):
        ebk.double_well_potential(1e200)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_entry_builds_from_its_fields(name):
    # Every config name builds from {} (the polynomial from its
    # coefficients), round-trips its name, accepts exactly its entry's
    # fields, and names an unknown key, a bool and a non-finite value.
    params = {"coefficients": [0.0, 0.0, 1.0]} if name == "polynomial" else {}
    spec = ebk.symbol_from_config(name, params)
    assert spec.name == name
    entry = spec.potential if spec.potential is not None else spec
    keys = [f.name for f in dataclasses.fields(entry)]
    assert ebk.symbol_from_config(name, {k: getattr(entry, k) for k in keys}) == spec
    with pytest.raises(InvalidSymbol, match=f"{name!r}: unknown parameter 'nope'"):
        ebk.symbol_from_config(name, {**params, "nope": 1.0})
    for key in keys:
        for bad in (True, math.nan, math.inf):
            value = [0.0, bad, 1.0] if key == "coefficients" else bad
            with pytest.raises(InvalidSymbol, match=f"{name!r}: parameter {key!r} must be"):
                ebk.symbol_from_config(name, {**params, key: value})


def test_window_validation():
    with pytest.raises(InvalidSymbol):
        ebk.EnergyWindow(0.8, 0.2, 0.05)
    with pytest.raises(InvalidSymbol):
        ebk.EnergyWindow(0.2, 0.8, 0.0)


def test_regularity_implies_gradient_positive_on_components(double_well):
    # Cross-module assertion: a regular verdict means no traced point can
    # sit near a critical point.
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    box = ebk.compact_preimage_box(double_well, window)
    assert ebk.regularity_report(double_well, window, box).regular
    energies = [0.25, 0.5, 0.75]
    loops = portrait._marching_loops(double_well, energies, box, 201)
    tol = portrait.DEFAULT_TRACE_TOL
    for comps in portrait._traced_components(double_well, energies, loops, tol):
        for comp in comps:
            gx, gxi = double_well.gradient(comp.points[:, 0], comp.points[:, 1])
            norms = np.hypot(np.asarray(gx), np.asarray(gxi))
            assert float(norms.min()) > 1e-3


SEXTIC = [0.0, 0.0, 3.0, 0.0, -3.5, 0.0, 1.0]  # 3x^2 - 3.5x^4 + x^6: three wells


@pytest.mark.parametrize(
    "spec",
    _all_catalog_symbols() + [ebk.schrodinger_symbol(ebk.polynomial_potential(SEXTIC))],
    ids=lambda s: s.name,
)
def test_critical_points_are_exact_and_complete(spec):
    points = np.array(spec.critical_points())
    gx, gxi = spec.gradient(points[:, 0], points[:, 1])
    assert np.max(np.hypot(gx, gxi)) <= 1e-12
    # The old scan's starts on a 401^2 grid over the box: nodes where
    # |grad H| < 1e-3 is a local minimum, and cells in which both gradient
    # components change sign. Each lies within one cell of a listed point.
    box = ebk.compact_preimage_box(spec, ebk.EnergyWindow(0.1, 0.6, 0.05))
    xs = np.linspace(box.x_lo, box.x_hi, 401)
    xis = np.linspace(box.xi_lo, box.xi_hi, 401)
    gx, gxi = spec.gradient(*np.meshgrid(xs, xis, indexing="ij"))
    norm = np.hypot(gx, gxi)
    starts = np.zeros(norm.shape, dtype=bool)
    starts[1:-1, 1:-1] = norm[1:-1, 1:-1] < 1e-3
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            starts[1:-1, 1:-1] &= norm[1:-1, 1:-1] <= norm[di : 399 + di, dj : 399 + dj]

    def flips(sign):
        corners = np.stack([sign[:-1, :-1], sign[1:, :-1], sign[:-1, 1:], sign[1:, 1:]])
        return corners.any(axis=0) & ~corners.all(axis=0)

    starts[:-1, :-1] |= flips(gx > 0) & flips(gxi > 0)
    assert starts.any()
    dx, dxi = xs[1] - xs[0], xis[1] - xis[0]
    for i, j in zip(*np.nonzero(starts)):
        assert np.any(
            (np.abs(points[:, 0] - xs[i]) <= dx) & (np.abs(points[:, 1] - xis[j]) <= dxi)
        )


def test_sextic_landmarks_find_every_well():
    sextic = ebk.schrodinger_symbol(ebk.polynomial_potential(SEXTIC))
    window = ebk.EnergyWindow(0.1, 0.4, 0.05)
    pot = sextic.potential
    xlo, xhi = pot.sublevel_interval(0.45)
    assert pot.value(xlo) == pytest.approx(0.45, abs=1e-12)
    assert pot.value(xhi) == pytest.approx(0.45, abs=1e-12)
    assert xhi == pytest.approx(-xlo) and xhi > 1.497
    box = ebk.compact_preimage_box(sextic, window)
    assert box.x_lo < -1.497 and box.x_hi > 1.497
    assert ebk.regularity_report(sextic, window, box).regular
    assert len(ebk.build_families(sextic, window)) == 3


def test_regularity_lists_degenerate_minimum_once(quartic):
    window = ebk.EnergyWindow(0.05, 0.35, 0.05)
    box = ebk.compact_preimage_box(quartic, window)
    report = ebk.regularity_report(quartic, window, box)
    assert not report.regular
    assert report.critical_values_found == (0.0,)


def test_polynomial_multiple_roots_count():
    # The companion matrix returns a multiple root as a cluster of complex
    # values: the triple root of V' for V = (x - 1)^4, and the double roots
    # of V at its minimum for V = (x^2 - 1)^2.
    pot = ebk.polynomial_potential([1.0, -4.0, 6.0, -4.0, 1.0])
    assert pot.critical_points() and all(abs(x - 1.0) < 1e-4 for x in pot.critical_points())
    assert abs(pot.min_value()) <= 1e-15
    with pytest.raises(NonCompactWindow):
        pot.sublevel_interval(-0.1)
    well = ebk.polynomial_potential([1.0, 0.0, -2.0, 0.0, 1.0])
    assert well.sublevel_interval(0.0) == pytest.approx((-1.0, 1.0), abs=1e-12)
    assert well.critical_points() == pytest.approx((-1.0, 0.0, 1.0), abs=1e-12)
    with pytest.raises(NonCompactWindow):
        ebk.polynomial_potential([0.0, 1.0]).min_value()



@pytest.mark.parametrize(
    "coefficients",
    [
        [0.0, 0.0, 0.5],
        [1.0, 0.1, -2.0, 0.0, 1.0],
        SEXTIC,
        [1.0, -2.0, 1.0],  # (x - 1)^2: a double root
        [1.0, 0.0, -2.0, 0.0, 1.0],  # (x^2 - 1)^2: two double roots
        [1.0, -4.0, 6.0, -4.0, 1.0],  # (x - 1)^4: a cluster of equal real parts
        [1.0, 0.0, 1.0],  # x^2 + 1: no real root
    ],
)
def test_real_roots_equal_np_unique(coefficients):
    # _real_roots removes repeated roots by a sort and a neighbour mask, which
    # must give what np.unique gives on the roots that pass its residual test.
    def unique_roots(c):
        c = np.asarray(c, dtype=float)
        x = npoly.polyroots(c).real
        scale = np.max(np.abs(c)) * np.maximum(1.0, np.abs(x)) ** (c.size - 1)
        return np.unique(x[np.abs(npoly.polyval(x, c)) <= ebk.symbols._ROOT_TOL * scale])

    for c in (coefficients, npoly.polyder(coefficients)):
        got = ebk.symbols._real_roots(c)
        assert np.array_equal(got, unique_roots(c))
        assert np.all(np.diff(got) > 0)


def test_polynomial_roots_beyond_float_range():
    # At level 9e307 the companion matrix of V - c overflows: a typed error,
    # not numpy's LinAlgError.
    with pytest.raises(InvalidSymbol, match="float range"):
        ebk.polynomial_potential([0.0, 0.0, 0.5]).sublevel_interval(8.98846567431158e307)


@st.composite
def _confining_polynomials(draw):
    degree = 2 * draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.floats(-3.0, 3.0), min_size=degree, max_size=degree))
    lead = draw(st.floats(0.01, 2.0))  # a small lead puts roots far out
    x0 = draw(st.floats(-2.0, 2.0))
    offset = draw(st.floats(1e-3, 5.0))
    pot = ebk.polynomial_potential(coeffs + [lead])
    return pot, float(pot.value(x0)) + offset


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_confining_polynomials())
def test_polynomial_landmarks_property_sweep(case):
    pot, c = case
    shifted = npoly.polysub(pot.coefficients, [c])
    top = float(np.max(np.abs(shifted)))

    def size(x):  # the largest term of V - c at x
        return top * max(1.0, abs(x)) ** (shifted.size - 1)

    xlo, xhi = pot.sublevel_interval(c)
    for end in (xlo, xhi):
        assert abs(pot.value(end) - c) <= 1e-8 * size(end)
    # Cauchy's bound holds every real root of V - c and of V'.
    bound = 1.0 + float(np.max(np.abs(shifted[:-1]))) / shifted[-1]
    xs = np.linspace(-bound, bound, 20001)
    dx = xs[1] - xs[0]
    vals = pot.value(xs)
    inside = xs[vals <= c]
    assert inside.size and xlo - 1e-9 <= inside[0] and inside[-1] <= xhi + 1e-9
    i = int(np.argmin(vals))
    assert pot.min_value() <= vals[i] + 1e-12 * size(xs[i])
    crit = np.array(pot.critical_points())
    slope = np.sign(pot.derivative(xs))
    for i in np.nonzero(slope[:-1] * slope[1:] < 0)[0]:
        assert np.any((crit >= xs[i] - dx) & (crit <= xs[i + 1] + dx))


# The named polynomial potentials with their closed forms: V, V', the right
# end of the sublevel interval at level c (the left end is its negative) and
# the critical points.
CLOSED_FORMS = [
    ("harmonic", {}, lambda x: x * x / 2, lambda x: x, lambda c: math.sqrt(2 * c), [0.0]),
    ("quartic", {}, lambda x: x**4, lambda x: 4 * x**3, lambda c: c**0.25, [0.0]),
] + [
    (
        "double_well",
        {"a": a},
        lambda x, a=a: (x * x - a * a) ** 2,
        lambda x, a=a: 4 * x * (x * x - a * a),
        lambda c, a=a: math.sqrt(a * a + math.sqrt(c)),
        [-a, 0.0, a],
    )
    for a in (0.5, 1.0, 1.7)
]


@pytest.mark.parametrize(
    "name, params, v, dv, edge, crit",
    CLOSED_FORMS,
    ids=[f"{c[0]}{c[1].get('a', '')}" for c in CLOSED_FORMS],
)
def test_presets_match_their_closed_forms(name, params, v, dv, edge, crit):
    pot = ebk.symbol_from_config(name, params).potential
    xs = np.random.default_rng(7).uniform(-3.0, 3.0, 100)
    ulp = np.finfo(float).eps
    # Relative to the sum of the terms' sizes: (x^2 - a^2)^2 expanded cancels
    # near x = a, where no evaluation of the sum does better.
    for got, ref, c in (
        (pot.value(xs), v(xs), pot.coefficients),
        (pot.derivative(xs), dv(xs), npoly.polyder(pot.coefficients)),
    ):
        size = npoly.polyval(np.abs(xs), np.abs(c))
        assert np.all(np.abs(got - ref) <= 4 * ulp * size)
    for c in (0.05, 0.6, 2.0, 20.0):
        r = edge(c)
        # 1e-14 relative, times the root's relative condition number where
        # that exceeds 1: the companion matrix loses digits where the outer
        # root of V - c crowds the inner one (c small, a large; 12.9 at
        # a = 1.7, c = 0.05).
        cond = npoly.polyval(r, np.abs(pot.coefficients)) / (r * abs(dv(r)))
        lo, hi = pot.sublevel_interval(c)
        assert max(abs(hi - r), abs(lo + r)) <= 1e-14 * max(1.0, cond) * r
    assert pot.critical_points() == pytest.approx(crit, rel=0, abs=1e-14)


@dataclasses.dataclass(frozen=True)
class _ClosedFormDoubleWell(PotentialSpec):
    """V = (x^2 - a^2)^2 with closed-form landmarks, outside the catalog.

    The module's postponed annotations give ``a`` the type name "float" that
    the catalog's parameter check reads.
    """

    a: float = 1.0
    name = "closed_form_double_well"

    def value(self, x):
        return np.square(np.square(x) - self.a * self.a)

    def derivative(self, x):
        return 4.0 * np.asarray(x) * (np.square(x) - self.a * self.a)

    def critical_points(self):
        return (-self.a, 0.0, self.a)

    def tail_sup(self):
        return math.inf, math.inf

    def _sublevel(self, c):
        r = math.sqrt(self.a * self.a + math.sqrt(c))
        return -r, r


def test_polynomial_sublevel_solved_once_per_level(monkeypatch):
    # The roots of V - c are solved on the first call at each level c; a
    # repeat returns the same floats without a companion-matrix eigensolve.
    pot = ebk.double_well_potential(1.0)
    pot.min_value()  # caches the critical points, also found by _real_roots
    solves = []
    real_roots = symbols._real_roots
    monkeypatch.setattr(symbols, "_real_roots", lambda c: solves.append(c) or real_roots(c))
    first = pot.sublevel_interval(0.65)
    assert pot.sublevel_interval(0.65) == first and len(solves) == 1
    assert pot.sublevel_interval(0.05) != first and len(solves) == 2


@pytest.mark.parametrize("a", [0.5, 1.0, 1.7])
def test_double_well_preset_levels_match_closed_form(a):
    window = ebk.EnergyWindow(0.1, 0.6, 0.05)
    # The basis oracle solves the preset as an exact band and the closed
    # form, with no coefficients, in its DVR; the stencil reference of the
    # closed form checks both (measured: within 4.0e-13).
    got = ebk.solve_basis(ebk.double_well_potential(a), window, 0.05).result
    ref = ebk.solve_basis(_ClosedFormDoubleWell(a), window, 0.05).result
    assert np.array_equal(got.indices, ref.indices) and got.indices.size
    assert np.max(np.abs(got.eigenvalues - ref.eigenvalues)) <= 1e-13
    levels, indices = stencil_levels(_ClosedFormDoubleWell(a), window, 0.05)
    assert np.array_equal(indices, got.indices)
    assert np.max(np.abs(levels - got.eigenvalues)) <= 1e-12
