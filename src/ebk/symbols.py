"""Hamiltonian symbol catalog and admissibility checks.

A symbol is a smooth function H(x, xi) on the phase plane. The catalog is
closed: each entry is one frozen dataclass whose fields are its config
parameters and whose class attribute ``name`` is its config name. A potential
V(x) (PotentialSpec) runs as the Schrodinger symbol xi^2/2 + V(x). Every
polynomial potential, named or not, takes its value, derivative and landmarks
from its coefficients; Morse and the symbols of SymbolSpec are closed forms.
There is no expression parser.

Downstream modules require two geometric admissibility properties on an
energy window [e1, e2] with margin eps:

* regularity: no critical point of H has its value in [e1-eps, e2+eps];
* compactness: the preimage H^{-1}([e1-eps, e2+eps]) fits in a bounded box.

Both are checked here from exact landmarks: for a polynomial potential the
real roots of V' and of V - c, for the other entries closed forms. Only the
box-edge enclosure check samples H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidSymbol, NonCompactWindow, PreimageNotEnclosed

# Samples per box edge in the enclosure check (see regularity_report).
_EDGE_SAMPLES = 401
# A root's real part counts when |p| there is at most this times the size of
# p's largest term, max|coefficient| * max(1, |x|)^degree: the companion
# matrix returns a multiple root as a cluster of complex values around it.
_ROOT_TOL = 1e-8


def finite_float(v) -> float | None:
    """v as a float if it is a number, not a bool, of finite float value.

    JSON gives NaN and Infinity as floats, and an integer beyond the float
    range as an int.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        f = float(v)
    except OverflowError:
        return None
    return f if math.isfinite(f) else None


def _real_roots(coefficients) -> np.ndarray:
    """Sorted distinct real roots of the polynomial (ascending coefficients)."""
    c = np.asarray(coefficients, dtype=float)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            x = npoly.polyroots(c).real
    except np.linalg.LinAlgError as exc:  # the companion matrix overflowed
        raise InvalidSymbol("polynomial roots beyond the float range") from exc
    scale = np.max(np.abs(c)) * np.maximum(1.0, np.abs(x)) ** (c.size - 1)
    x = np.sort(x[np.abs(npoly.polyval(x, c)) <= _ROOT_TOL * scale])
    # np.unique's first call in a process costs milliseconds; this is what it computes.
    return x[np.r_[True, x[1:] != x[:-1]]] if x.size else x


def _check_params(entry) -> None:
    """Store each float field of a catalog entry as a finite float and any other
    as a non-empty tuple of them; else, a bool included, raise InvalidSymbol."""
    for f in fields(entry):
        v = getattr(entry, f.name)
        if f.type == "float":
            checked, what = finite_float(v), "a finite number"
        else:
            items = [finite_float(c) for c in v] if isinstance(v, (list, tuple)) else []
            ok = bool(items) and None not in items
            checked, what = (tuple(items) if ok else None), "a non-empty list of finite numbers"
        if checked is None:
            raise InvalidSymbol(f"symbol {entry.name!r}: parameter {f.name!r} must be {what}")
        object.__setattr__(entry, f.name, checked)


@dataclass(frozen=True)
class PotentialSpec:
    """One confinement potential V(x) from the closed catalog.

    Each subclass is one entry and defines value, derivative, tail_sup (the
    limits of V at -inf and +inf) and _sublevel (the sublevel interval of a
    confined level). The defaults are one critical point at 0 and minimum 0.
    terms holds a polynomial V's ascending coefficients and is None for a
    closed form; even says V(-x) = V(x) in floating point.
    """

    __post_init__ = _check_params
    terms = None
    even = False

    def critical_points(self) -> tuple[float, ...]:
        """Every real x with V'(x) = 0, ascending."""
        return (0.0,)

    def min_value(self) -> float:
        """Global minimum of V: the least value at a critical point."""
        return 0.0

    def confining_below(self, c: float) -> bool:
        """True when the sublevel set {V <= c} is bounded."""
        left, right = self.tail_sup()
        return left > c and right > c

    def sublevel_interval(self, c: float) -> tuple[float, float]:
        """Smallest interval [xlo, xhi] containing {V <= c}.

        A closed form for Morse; for a polynomial, the least and greatest
        real roots of V - c. Raises NonCompactWindow when the sublevel set
        is unbounded or empty (c under min_value).
        """
        if not self.confining_below(c):
            raise NonCompactWindow(f"{self.name} potential: level {c:g} reaches the tail value")
        if c < self.min_value():
            raise NonCompactWindow(f"{self.name} potential: level {c:g} is below its minimum")
        return self._sublevel(c)


def _horner(coefficients, x):
    """sum_k coefficients[k] x^k by Horner's rule, adding no zero term."""
    r = coefficients[-1]
    for c in coefficients[-2::-1]:
        r = r * x
        if c:
            r = r + c
    return r if len(coefficients) > 1 else r + 0.0 * x


@dataclass(frozen=True)
class _PolynomialPotential(PotentialSpec):
    """V = sum_k coefficients[k] x^k (ascending): value and derivative by
    Horner's rule, landmarks from the real roots of V' and V - c."""

    @cached_property
    def terms(self) -> tuple[float, ...]:
        """The coefficients without trailing zeros (one term for a constant)."""
        c = list(self.coefficients)
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        return tuple(c)

    @cached_property
    def even(self) -> bool:
        """V(-x) = V(x) exactly: no odd coefficient, and _horner adds no zero term."""
        return not any(self.terms[1::2])

    @cached_property
    def _slope_terms(self) -> tuple[float, ...]:
        return tuple(k * c for k, c in enumerate(self.terms))[1:] or (0.0,)

    @cached_property
    def _sublevels(self) -> dict[float, tuple[float, float]]:
        return {}

    @cached_property
    def _critical(self) -> tuple[float, ...]:
        return tuple(float(x) for x in _real_roots(self._slope_terms))

    def value(self, x):
        return _horner(self.terms, x)

    def derivative(self, x):
        return _horner(self._slope_terms, x)

    def critical_points(self) -> tuple[float, ...]:
        return self._critical

    def min_value(self) -> float:
        """Raises NonCompactWindow for a polynomial unbounded below."""
        if not self.confining_below(-math.inf):
            raise NonCompactWindow(f"{self.name} potential is unbounded below")
        # x = 0 stands in for the critical points of a constant V
        return float(np.min(self.value(np.array([*self._critical, 0.0]))))

    def tail_sup(self) -> tuple[float, float]:
        terms = self.terms
        right = math.copysign(math.inf, terms[-1]) if len(terms) > 1 else terms[-1]
        return (right if len(terms) % 2 else -right), right

    def _sublevel(self, c):
        """The extreme real roots of V - c, solved once per level c."""
        found = self._sublevels.get(c)
        if found is None:
            roots = _real_roots(npoly.polysub(self.terms, [c]))
            if roots.size == 0:
                raise NonCompactWindow(f"{self.name} sublevel set at {c:g} is empty")
            found = self._sublevels[c] = (float(roots[0]), float(roots[-1]))
        return found


@dataclass(frozen=True)
class Harmonic(_PolynomialPotential):
    name = "harmonic"
    coefficients = (0.0, 0.0, 0.5)


@dataclass(frozen=True)
class Quartic(_PolynomialPotential):
    name = "quartic"
    coefficients = (0.0, 0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class Polynomial(_PolynomialPotential):
    """V = sum_k coefficients[k] x^k for any finite coefficients."""

    coefficients: tuple[float, ...] = ()
    name = "polynomial"


@dataclass(frozen=True)
class DoubleWell(_PolynomialPotential):
    a: float = 1.0
    name = "double_well"

    def __post_init__(self):
        super().__post_init__()
        if self.a <= 0:
            raise InvalidSymbol("double_well width a must be positive")
        if not all(map(math.isfinite, self.coefficients)):
            raise InvalidSymbol("symbol 'double_well': parameter 'a' overflows the coefficient a^4")

    @property
    def coefficients(self) -> tuple[float, ...]:
        a2 = self.a * self.a
        return (a2 * a2, 0.0, -2.0 * a2, 0.0, 1.0)


@dataclass(frozen=True)
class Morse(PotentialSpec):
    """V = D (1 - exp(-a x))^2, plateau D as x -> inf (D, a > 0)."""

    D: float = 1.0
    a: float = 1.0
    name = "morse"

    def __post_init__(self):
        super().__post_init__()
        if self.D <= 0 or self.a <= 0:
            raise InvalidSymbol("morse parameters D, a must be positive")

    def value(self, x):
        u = 1.0 - np.exp(-self.a * np.asarray(x, dtype=float))
        return self.D * u * u

    def derivative(self, x):
        e = np.exp(-self.a * np.asarray(x, dtype=float))
        return 2.0 * self.a * self.D * (1.0 - e) * e

    def tail_sup(self) -> tuple[float, float]:
        return math.inf, self.D

    def _sublevel(self, c):
        s = math.sqrt(c / self.D)
        return -math.log1p(s) / self.a, -math.log(1.0 - s) / self.a


@dataclass(frozen=True)
class SymbolSpec:
    """A catalog Hamiltonian H(x, xi) with exact gradient.

    Each subclass is one entry and defines value and gradient: Schrodinger
    wraps a potential; a closed form, whose potential is None, also defines
    bounding_radius. even says H(-x, -xi) = H(x, xi) in floating point, so
    the reflection (x, xi) -> (-x, -xi) maps each computed flow orbit onto
    the one through the reflected point, bit for bit.
    """

    potential = None
    even = False
    __post_init__ = _check_params

    def critical_points(self) -> tuple[tuple[float, float], ...]:
        """Every critical point of H: the origin unless the entry says otherwise."""
        return ((0.0, 0.0),)


@dataclass(frozen=True)
class Schrodinger(SymbolSpec):
    """H = xi^2/2 + V(x), mass absorbed into the semiclassical parameter."""

    potential: PotentialSpec

    def __post_init__(self):
        if not isinstance(self.potential, PotentialSpec):
            raise InvalidSymbol("schrodinger symbol needs a potential")

    @property
    def name(self) -> str:
        return self.potential.name

    @property
    def even(self) -> bool:
        return self.potential.even

    def value(self, x, xi):
        return 0.5 * np.square(xi) + self.potential.value(x)

    def gradient(self, x, xi):
        return self.potential.derivative(x), np.asarray(xi, dtype=float) + 0.0

    def critical_points(self) -> tuple[tuple[float, float], ...]:
        return tuple((x, 0.0) for x in self.potential.critical_points())


@dataclass(frozen=True)
class Kerr(SymbolSpec):
    chi: float = 0.5
    name = "kerr"
    even = True

    def __post_init__(self):
        super().__post_init__()
        if self.chi < 0:
            raise InvalidSymbol("kerr coefficient chi must be nonnegative")

    def value(self, x, xi):
        r2 = np.square(x) + np.square(xi)
        return 0.5 * r2 + 0.25 * self.chi * r2 * r2

    def gradient(self, x, xi):
        s = 1.0 + self.chi * (np.square(x) + np.square(xi))
        return np.asarray(x) * s, np.asarray(xi) * s

    def bounding_radius(self, emax: float) -> tuple[float, float]:
        """Half-widths (x, xi) of a box containing {H <= emax}, emax > 0."""
        chi = self.chi
        r = math.sqrt((math.sqrt(1.0 + 4.0 * chi * emax) - 1.0) / chi if chi > 0 else 2.0 * emax)
        return r, r


@dataclass(frozen=True)
class AnisotropicHarmonic(SymbolSpec):
    a: float = 1.0
    b: float = 1.0
    name = "anisotropic_harmonic"
    even = True

    def __post_init__(self):
        super().__post_init__()
        if self.a <= 0 or self.b <= 0:
            raise InvalidSymbol("anisotropic_harmonic needs a, b > 0")

    def value(self, x, xi):
        return 0.5 * (self.a * np.square(xi) + self.b * np.square(x))

    def gradient(self, x, xi):
        return self.b * np.asarray(x, dtype=float), self.a * np.asarray(xi, dtype=float)

    def bounding_radius(self, emax: float) -> tuple[float, float]:
        """Half-widths (x, xi) of a box containing {H <= emax}, emax > 0."""
        return math.sqrt(2.0 * emax / self.b), math.sqrt(2.0 * emax / self.a)


# Config name -> catalog entry; a potential is run as its Schrodinger symbol.
CATALOG = {
    entry.name: entry
    for entry in (Harmonic, Quartic, Polynomial, DoubleWell, Morse, Kerr, AnisotropicHarmonic)
}

# The entries under their constructor names.
harmonic_potential = Harmonic
quartic_potential = Quartic
polynomial_potential = Polynomial
double_well_potential = DoubleWell
morse_potential = Morse
schrodinger_symbol = Schrodinger
kerr_symbol = Kerr
anisotropic_symbol = AnisotropicHarmonic


def symbol_from_config(name: str, params: dict) -> SymbolSpec:
    """Build a catalog symbol from a run-config entry.

    The accepted keys are the entry's fields. Every parameter value must be
    a finite number, not a bool (finite_float), and polynomial coefficients
    a non-empty list of such numbers; any other value raises InvalidSymbol.
    """
    entry = CATALOG.get(name)
    if entry is None:
        raise InvalidSymbol(f"unknown symbol name {name!r}")
    unknown = sorted(set(params) - {f.name for f in fields(entry)})
    if unknown:
        raise InvalidSymbol(f"symbol {name!r}: unknown parameter {unknown[0]!r}")
    spec = entry(**params)
    return Schrodinger(spec) if isinstance(spec, PotentialSpec) else spec


@dataclass(frozen=True)
class EnergyWindow:
    """Closed energy interval [e1, e2] with a regularity margin eps > 0."""

    e1: float
    e2: float
    margin: float

    def __post_init__(self):
        if not (self.e1 < self.e2):
            raise InvalidSymbol("energy window needs e1 < e2")
        if not (self.margin > 0):
            raise InvalidSymbol("energy window margin must be positive")

    @property
    def lo(self) -> float:
        return self.e1 - self.margin

    @property
    def hi(self) -> float:
        return self.e2 + self.margin


@dataclass(frozen=True)
class Box:
    """Axis-aligned phase-space rectangle."""

    x_lo: float
    x_hi: float
    xi_lo: float
    xi_hi: float

    def __post_init__(self):
        vals = (self.x_lo, self.x_hi, self.xi_lo, self.xi_hi)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidSymbol("box bounds must be finite")
        if self.x_lo >= self.x_hi or self.xi_lo >= self.xi_hi:
            raise InvalidSymbol("box bounds must be ordered")


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    critical_values_found: tuple[float, ...] = field(default_factory=tuple)


def eval_symbol(spec: SymbolSpec, x: float, xi: float) -> float:
    """H(x, xi); raises InvalidSymbol on a non-finite result."""
    v = float(spec.value(x, xi))
    if not math.isfinite(v):
        raise InvalidSymbol(f"H({x}, {xi}) is not finite")
    return v


def regularity_report(spec: SymbolSpec, window: EnergyWindow, box: Box) -> RegularityReport:
    """Check that no critical value of H intrudes on the widened window.

    The critical values come from the catalog's exact critical points. The
    band preimage must also stay off the box boundary, sampled at
    _EDGE_SAMPLES points per edge (PreimageNotEnclosed otherwise), so
    downstream component counting can trust the box.
    """
    xs = np.linspace(box.x_lo, box.x_hi, _EDGE_SAMPLES)
    xis = np.linspace(box.xi_lo, box.xi_hi, _EDGE_SAMPLES)
    for edge_x, edge_xi in (
        (xs, np.full_like(xs, box.xi_lo)),
        (xs, np.full_like(xs, box.xi_hi)),
        (np.full_like(xis, box.x_lo), xis),
        (np.full_like(xis, box.x_hi), xis),
    ):
        h = np.asarray(spec.value(edge_x, edge_xi), dtype=float)
        if np.any((h >= window.lo) & (h <= window.hi)):
            raise PreimageNotEnclosed(
                "energy band reaches the box boundary; enlarge the box"
            )

    crit_vals = sorted(
        eval_symbol(spec, px, pxi) for px, pxi in spec.critical_points()
    )
    bad = tuple(v for v in crit_vals if window.lo <= v <= window.hi)
    return RegularityReport(regular=not bad, critical_values_found=bad)


def compact_preimage_box(spec: SymbolSpec, window: EnergyWindow) -> Box:
    """A rectangle strictly containing H^{-1}([e1-eps, e2+eps]).

    Schrodinger symbols use the potential sublevel interval padded by 10%
    and the momentum bound from the energy budget; closed forms use their
    catalog bounding radii. Raises NonCompactWindow when the preimage is
    unbounded or e2 + eps is not above the least value of H, so that every
    level of the window is empty.
    """
    c = window.hi
    pot = spec.potential
    vmin = pot.min_value() if pot is not None else 0.0  # every closed form's is 0
    if not c > vmin:
        raise NonCompactWindow(f"{spec.name}: level {c:g} is not above the least value of H")
    if pot is not None:
        xlo, xhi = pot.sublevel_interval(c)
        cx, wx = 0.5 * (xlo + xhi), 0.5 * (xhi - xlo)
        wx = 1.1 * wx if wx > 0 else 0.1
        ximax = 1.1 * math.sqrt(2.0 * (c - vmin))
        return Box(cx - wx, cx + wx, -ximax, ximax)
    rx, rxi = spec.bounding_radius(c)
    return Box(-1.1 * rx, 1.1 * rx, -1.1 * rxi, 1.1 * rxi)
