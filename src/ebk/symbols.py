"""Hamiltonian symbol catalog and admissibility checks.

A symbol is a smooth function H(x, xi) on the phase plane. The catalog is
closed: every entry is an elementary closed form with an exact analytic
gradient, either a Schrodinger-form symbol xi^2/2 + V(x) built from a
potential, or one of a few named closed-form symbols. There is no runtime
expression parser.

Downstream modules require two geometric admissibility properties on an
energy window [e1, e2] with margin eps:

* regularity: no critical point of H has its value in [e1-eps, e2+eps];
* compactness: the preimage H^{-1}([e1-eps, e2+eps]) fits in a bounded box.

Both are checked here from exact landmarks: closed-form critical points and
sublevel intervals, or for a polynomial potential the real roots of V' and
of V - c. Only the box-edge enclosure check samples H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidSymbol, NonCompactWindow, PreimageNotEnclosed

POTENTIAL_KINDS = ("harmonic", "quartic", "polynomial", "double_well", "morse")
CLOSED_FORM_KINDS = ("kerr", "anisotropic_harmonic")

# Samples per box edge in the enclosure check (see regularity_report).
_EDGE_SAMPLES = 401
# A root's real part counts when |p| there is at most this times the size of
# p's largest term, max|coefficient| * max(1, |x|)^degree: the companion
# matrix returns a multiple root as a cluster of complex values around it.
_ROOT_TOL = 1e-8


def _real_roots(coefficients) -> np.ndarray:
    """Sorted distinct real roots of the polynomial (ascending coefficients)."""
    c = np.asarray(coefficients, dtype=float)
    x = npoly.polyroots(c).real
    scale = np.max(np.abs(c)) * np.maximum(1.0, np.abs(x)) ** (c.size - 1)
    return np.unique(x[np.abs(npoly.polyval(x, c)) <= _ROOT_TOL * scale])


@dataclass(frozen=True)
class PotentialSpec:
    """One confinement potential V(x) from the closed catalog.

    ``params`` holds the numeric parameters as a sorted tuple of pairs so the
    spec is hashable and immutable. Use the module-level constructors
    (``harmonic_potential`` etc.) rather than building instances by hand.
    """

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise InvalidSymbol(f"unknown potential kind {self.kind!r}")
        for _, v in self.params:
            arr = np.asarray(v, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise InvalidSymbol(f"non-finite parameter in {self.kind} potential")

    @cached_property
    def _p(self) -> dict:
        return dict(self.params)

    @property
    def coefficients(self) -> np.ndarray:
        """Ascending polynomial coefficients (polynomial kind only)."""
        return np.asarray(self._p["coefficients"], dtype=float)

    def value(self, x):
        k = self.kind
        if k == "harmonic":
            return 0.5 * np.square(x)
        if k == "quartic":
            return np.square(x) ** 2
        if k == "polynomial":
            return npoly.polyval(x, self.coefficients)
        if k == "double_well":
            a = self._p["a"]
            return np.square(np.square(x) - a * a)
        if k == "morse":
            d, a = self._p["D"], self._p["a"]
            u = 1.0 - np.exp(-a * np.asarray(x, dtype=float))
            return d * u * u
        raise InvalidSymbol(self.kind)

    def derivative(self, x):
        k = self.kind
        if k == "harmonic":
            return np.asarray(x, dtype=float) + 0.0
        if k == "quartic":
            return 4.0 * np.power(x, 3)
        if k == "polynomial":
            return npoly.polyval(x, npoly.polyder(self.coefficients))
        if k == "double_well":
            a = self._p["a"]
            return 4.0 * np.asarray(x) * (np.square(x) - a * a)
        if k == "morse":
            d, a = self._p["D"], self._p["a"]
            e = np.exp(-a * np.asarray(x, dtype=float))
            return 2.0 * a * d * (1.0 - e) * e
        raise InvalidSymbol(self.kind)

    def critical_points(self) -> tuple[float, ...]:
        """Every real x with V'(x) = 0, ascending."""
        k = self.kind
        if k == "double_well":
            a = self._p["a"]
            return (-a, 0.0, a)
        if k == "polynomial":
            return tuple(float(x) for x in _real_roots(npoly.polyder(self.coefficients)))
        return (0.0,)

    def min_value(self) -> float:
        """Global minimum of V: the least value at a critical point.

        Raises NonCompactWindow for a polynomial unbounded below.
        """
        k = self.kind
        if k in ("harmonic", "quartic", "double_well", "morse"):
            return 0.0
        if not self.confining_below(-math.inf):
            raise NonCompactWindow("polynomial potential is unbounded below")
        # x = 0 stands in for the critical points of a constant V
        return float(np.min(self.value(np.array([*self.critical_points(), 0.0]))))

    def tail_sup(self) -> tuple[float, float]:
        """Limits of V at -inf and +inf (inf for confining tails)."""
        k = self.kind
        if k == "morse":
            return math.inf, float(self._p["D"])
        if k == "polynomial":
            c = self.coefficients
            deg = len(c) - 1
            while deg > 0 and c[deg] == 0.0:
                deg -= 1
            lead = c[deg]
            if deg == 0:
                return float(lead), float(lead)
            right = math.inf if lead > 0 else -math.inf
            left = right if deg % 2 == 0 else -right
            return left, right
        return math.inf, math.inf

    def confining_below(self, c: float) -> bool:
        """True when the sublevel set {V <= c} is bounded."""
        left, right = self.tail_sup()
        return left > c and right > c

    def sublevel_interval(self, c: float) -> tuple[float, float]:
        """Smallest interval [xlo, xhi] containing {V <= c}.

        Closed forms for the named potentials; for a polynomial, the least
        and greatest real roots of V - c. Raises NonCompactWindow when the
        sublevel set is unbounded or empty.
        """
        if not self.confining_below(c):
            raise NonCompactWindow(
                f"{self.kind} potential: level {c:g} reaches the tail value"
            )
        k = self.kind
        if k == "harmonic":
            r = math.sqrt(2.0 * max(c, 0.0))
            return -r, r
        if k == "quartic":
            r = max(c, 0.0) ** 0.25
            return -r, r
        if k == "double_well":
            a = self._p["a"]
            r = math.sqrt(a * a + math.sqrt(max(c, 0.0)))
            return -r, r
        if k == "morse":
            d, a = self._p["D"], self._p["a"]
            s = math.sqrt(c / d)
            return -math.log1p(s) / a, -math.log(1.0 - s) / a
        roots = _real_roots(npoly.polysub(self.coefficients, [c]))
        if roots.size == 0:
            raise NonCompactWindow(f"polynomial sublevel set at {c:g} is empty")
        return float(roots[0]), float(roots[-1])


def harmonic_potential() -> PotentialSpec:
    return PotentialSpec("harmonic")


def quartic_potential() -> PotentialSpec:
    return PotentialSpec("quartic")


def polynomial_potential(coefficients) -> PotentialSpec:
    coeffs = tuple(float(c) for c in coefficients)
    if not coeffs:
        raise InvalidSymbol("polynomial needs at least one coefficient")
    return PotentialSpec("polynomial", (("coefficients", coeffs),))


def double_well_potential(a: float = 1.0) -> PotentialSpec:
    if a <= 0:
        raise InvalidSymbol("double_well width a must be positive")
    return PotentialSpec("double_well", (("a", float(a)),))


def morse_potential(depth: float = 1.0, a: float = 1.0) -> PotentialSpec:
    if depth <= 0 or a <= 0:
        raise InvalidSymbol("morse parameters D, a must be positive")
    return PotentialSpec("morse", (("D", float(depth)), ("a", float(a))))


@dataclass(frozen=True)
class SymbolSpec:
    """A catalog Hamiltonian H(x, xi) with exact gradient.

    kind is "schrodinger" (H = xi^2/2 + V(x), mass absorbed into the
    semiclassical parameter) or "closed_form" (a named full-phase-space
    expression). Instances are immutable and safe to share across workers.
    """

    kind: str
    potential: PotentialSpec | None = None
    form: str | None = None
    params: tuple[tuple[str, float], ...] = ()
    description: str = ""

    def __post_init__(self):
        if self.kind == "schrodinger":
            if self.potential is None:
                raise InvalidSymbol("schrodinger symbol needs a potential")
        elif self.kind == "closed_form":
            if self.form not in CLOSED_FORM_KINDS:
                raise InvalidSymbol(f"unknown closed form {self.form!r}")
        else:
            raise InvalidSymbol(f"unknown symbol kind {self.kind!r}")

    @cached_property
    def _p(self) -> dict:
        return dict(self.params)

    @property
    def is_schrodinger(self) -> bool:
        return self.kind == "schrodinger"

    def value(self, x, xi):
        if self.kind == "schrodinger":
            return 0.5 * np.square(xi) + self.potential.value(x)
        if self.form == "kerr":
            chi = self._p["chi"]
            r2 = np.square(x) + np.square(xi)
            return 0.5 * r2 + 0.25 * chi * r2 * r2
        # anisotropic_harmonic
        a, b = self._p["a"], self._p["b"]
        return 0.5 * (a * np.square(xi) + b * np.square(x))

    def gradient(self, x, xi):
        if self.kind == "schrodinger":
            return self.potential.derivative(x), np.asarray(xi, dtype=float) + 0.0
        if self.form == "kerr":
            chi = self._p["chi"]
            r2 = np.square(x) + np.square(xi)
            s = 1.0 + chi * r2
            return np.asarray(x) * s, np.asarray(xi) * s
        a, b = self._p["a"], self._p["b"]
        return b * np.asarray(x, dtype=float), a * np.asarray(xi, dtype=float)

    def critical_points(self) -> tuple[tuple[float, float], ...]:
        """Every critical point of H: (x, 0) at each critical x of V, or the
        origin for kerr (chi >= 0) and anisotropic_harmonic."""
        if self.kind == "schrodinger":
            return tuple((x, 0.0) for x in self.potential.critical_points())
        return ((0.0, 0.0),)

    def bounding_radius(self, emax: float) -> tuple[float, float]:
        """Half-widths (x, xi) of a box containing {H <= emax} (closed forms)."""
        if self.form == "kerr":
            chi = self._p["chi"]
            if emax <= 0:
                return 0.0, 0.0
            if chi > 0:
                r2 = (math.sqrt(1.0 + 4.0 * chi * emax) - 1.0) / chi
            else:
                r2 = 2.0 * emax
            r = math.sqrt(r2)
            return r, r
        if self.form == "anisotropic_harmonic":
            a, b = self._p["a"], self._p["b"]
            return math.sqrt(2.0 * emax / b), math.sqrt(2.0 * emax / a)
        raise InvalidSymbol(f"no bounding radius for {self.form!r}")


def schrodinger_symbol(potential: PotentialSpec, description: str = "") -> SymbolSpec:
    if not description:
        description = f"xi^2/2 + {potential.kind} potential"
    return SymbolSpec("schrodinger", potential=potential, description=description)


def kerr_symbol(chi: float = 0.5) -> SymbolSpec:
    if chi < 0:
        raise InvalidSymbol("kerr coefficient chi must be nonnegative")
    return SymbolSpec(
        "closed_form",
        form="kerr",
        params=(("chi", float(chi)),),
        description="radially symmetric oscillator with quartic momentum mixing",
    )


def anisotropic_symbol(a: float = 1.0, b: float = 1.0) -> SymbolSpec:
    if a <= 0 or b <= 0:
        raise InvalidSymbol("anisotropic_harmonic needs a, b > 0")
    return SymbolSpec(
        "closed_form",
        form="anisotropic_harmonic",
        params=(("a", float(a)), ("b", float(b))),
        description="elliptic oscillator (a xi^2 + b x^2)/2",
    )


def symbol_from_config(name: str, params: dict) -> SymbolSpec:
    """Build a catalog symbol from a run-config entry."""
    params = dict(params)

    def _take(keys):
        unknown = set(params) - set(keys)
        if unknown:
            raise InvalidSymbol(
                f"symbol {name!r}: unknown parameter {sorted(unknown)[0]!r}"
            )

    if name == "harmonic":
        _take([])
        return schrodinger_symbol(harmonic_potential())
    if name == "quartic":
        _take([])
        return schrodinger_symbol(quartic_potential())
    if name == "polynomial":
        _take(["coefficients"])
        if "coefficients" not in params:
            raise InvalidSymbol("polynomial symbol needs 'coefficients'")
        return schrodinger_symbol(polynomial_potential(params["coefficients"]))
    if name == "double_well":
        _take(["a"])
        return schrodinger_symbol(double_well_potential(params.get("a", 1.0)))
    if name == "morse":
        _take(["D", "a"])
        return schrodinger_symbol(
            morse_potential(params.get("D", 1.0), params.get("a", 1.0))
        )
    if name == "kerr":
        _take(["chi"])
        return kerr_symbol(params.get("chi", 0.5))
    if name == "anisotropic_harmonic":
        _take(["a", "b"])
        return anisotropic_symbol(params.get("a", 1.0), params.get("b", 1.0))
    raise InvalidSymbol(f"unknown symbol name {name!r}")


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

    def scaled(self, factor: float) -> "Box":
        cx = 0.5 * (self.x_lo + self.x_hi)
        cxi = 0.5 * (self.xi_lo + self.xi_hi)
        wx = 0.5 * (self.x_hi - self.x_lo) * factor
        wxi = 0.5 * (self.xi_hi - self.xi_lo) * factor
        return Box(cx - wx, cx + wx, cxi - wxi, cxi + wxi)


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


def eval_gradient(spec: SymbolSpec, x: float, xi: float) -> tuple[float, float]:
    """Exact (dH/dx, dH/dxi); raises InvalidSymbol on non-finite values."""
    gx, gxi = spec.gradient(x, xi)
    gx, gxi = float(gx), float(gxi)
    if not (math.isfinite(gx) and math.isfinite(gxi)):
        raise InvalidSymbol(f"gradient at ({x}, {xi}) is not finite")
    return gx, gxi


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
    catalog bounding radii.
    """
    c = window.hi
    if spec.is_schrodinger:
        pot = spec.potential
        xlo, xhi = pot.sublevel_interval(c)
        cx, wx = 0.5 * (xlo + xhi), 0.5 * (xhi - xlo)
        wx = 1.1 * wx if wx > 0 else 0.1
        ximax = 1.1 * math.sqrt(2.0 * max(c - pot.min_value(), 0.0))
        return Box(cx - wx, cx + wx, -ximax, ximax)
    rx, rxi = spec.bounding_radius(c)
    return Box(-1.1 * rx, 1.1 * rx, -1.1 * rxi, 1.1 * rxi)
