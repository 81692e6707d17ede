"""Constructive recovery of the regrade for associative binary operations.

If a smooth two-argument operation S is associative, there is a strictly
monotone function xi with xi(S(u, v)) = xi(u) + xi(v) + const: any consistent
combination rule is a relabelling of addition (Aczel 1966).  Writing S1, S2
for the partial derivatives, G = S2/S1, and u0 for the lower edge of the
domain, this module recovers

    xi(u) = integral_{u0}^{u} G(u0, v) dv / G(u0, u0).

Differentiating the additivity identity in u and in v gives
xi'(S) S1 = xi'(u) and xi'(S) S2 = xi'(v), so G(u, v) = xi'(v)/xi'(u); along
u = u0 that is xi' up to the factor 1/xi'(u0), which dividing by G(u0, u0)
sets to one.  G is evaluated once on a uniform grid, from the analytic
partials when the sampler has them and central differences otherwise, and
integrated by cumulative composite Simpson (Cartwright 2017, eq. 8).  Between
the grid points xi is the cubic Hermite interpolant of the tabulated values
and the exact slopes xi' = G(u0, v)/G(u0, u0), the integrand itself, at every
node: local to each cell, with no spline's global solve.  A G that changes
sign yields a xi that is not monotone, and no regrade exists.  xi is defined
only up to an affine transformation (integration constant and overall
scale), so every comparison against a reference is made after a
least-squares affine fit, never raw.

``product_rule_residual`` tests a candidate two-argument operation against
the two distributivity constraints and associativity; the only operations
passing all three are numerically indistinguishable from C*u*v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

ASSOC_GATE = 1e-8

MIN_GRID = 16


class RegradeError(ValueError):
    """Regrade recovery failed or was given unusable input."""


class NonAssociativeError(RegradeError):
    """The sampled operation violates associativity beyond the gate;
    ``residual`` is the measured associativity residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class BinaryOpSampler:
    """A two-argument operation sampled with both arguments in one interval.

    ``fn`` is applied elementwise to numpy arrays (u, v), under
    ``np.errstate`` raising on overflow, division by zero and invalid values
    (underflow stays silent); its result is broadcast to their shape, so a
    constant partial gives a full grid.  Wrap an operation written for
    scalars only in ``np.vectorize(fn, otypes=[float])``.  ``domain`` is the
    interval (lo, hi) of both u and v, as the regrade is one function of one
    variable.  ``partials``, when given, are analytic (dS/du, dS/dv), applied
    the same way and only inside the domain.  Without them, ``fn`` must stay
    evaluable 1e-5 of the domain width beyond its edges, where the
    central-difference stencils overstep them.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: tuple[float, float]
    grid_n: int = 256
    partials: tuple[Callable, Callable] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise RegradeError("domain must be finite with lo < hi")
        if self.grid_n < MIN_GRID:
            raise RegradeError(f"grid_n must be at least {MIN_GRID}")

    def __call__(self, u, v):
        return self._apply(self.fn, u, v)

    def _apply(self, f, u, v):
        """``f(u, v)`` for ``fn`` or a partial, as floats of the shape of u and v;
        a floating-point error there (a catalog parameter out of range) is a
        RegradeError naming the operation, whose catalog name holds the parameter."""
        try:
            with np.errstate(all="raise", under="ignore"):
                values = np.asarray(f(u, v), dtype=float)
            return np.broadcast_to(values, np.broadcast(u, v).shape)
        except ArithmeticError as exc:
            raise RegradeError(
                f"operation {self.name or self.fn!r} cannot be evaluated on "
                f"its domain: {exc}"
            ) from None


@dataclass(frozen=True, eq=False)
class RegradeResult:
    """Tabulated regrade with cubic Hermite interpolation.

    ``slopes`` are the exact derivatives xi' = G(u0, u)/G(u0, u0) at the
    grid points, the integrand whose cumulative Simpson integral is
    ``xi_values``.  ``c_constant`` is pinned to one, the value forced by
    associativity; ``c_diagnostic`` is the measured G(u0, u0), the scale
    divided out of xi, as an empirical cross-check (one for a commutative
    operation).  The additivity stats summarize the residual of
    xi(S(u, v)) - xi(u) - xi(v) over a pair grid, after removing the fitted
    constant offset.
    ``assoc_residual`` is the associativity residual that passed the gate.
    """

    u_grid: np.ndarray
    xi_values: np.ndarray
    c_constant: float
    c_diagnostic: float
    additivity_max: float
    additivity_mean: float
    assoc_residual: float
    slopes: np.ndarray = field(repr=False)

    def xi(self, u):
        """Regrade value(s) at ``u`` inside the tabulated range: on each grid
        cell the cubic Hermite interpolant of the values and slopes at its
        ends, so ``xi(u_grid)`` is ``xi_values`` exactly."""
        return _hermite(self.u_grid, self.xi_values, self.slopes, u)


def _hermite(x: np.ndarray, y: np.ndarray, dydx: np.ndarray, u) -> np.ndarray:
    """The cubic Hermite interpolant of values ``y`` and slopes ``dydx`` at the
    increasing nodes ``x``, evaluated at ``u``: on each cell [x_i, x_i+1] the
    cubic in d = u - x_i with value and slope matching at both ends, in
    Horner form, so a node returns its value bit for bit.  Beyond the nodes
    the end cells' cubics extend."""
    u = np.asarray(u, dtype=float)
    i = np.clip(np.searchsorted(x, u, side="right") - 1, 0, len(x) - 2)
    h = x[i + 1] - x[i]
    secant = (y[i + 1] - y[i]) / h
    c2 = (3.0 * secant - 2.0 * dydx[i] - dydx[i + 1]) / h
    c3 = (dydx[i] + dydx[i + 1] - 2.0 * secant) / (h * h)
    d = u - x[i]
    value = y[i] + d * (dydx[i] + d * (c2 + d * c3))
    # the last node is the far end of the last cell, where d = h rounds
    return np.where(u == x[-1], y[-1], value)


def _simpson_cells(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson's integral over the first cell of each pair of adjacent cells
    of widths ``dx``, from the parabola through the pair's three values of
    ``y`` (Cartwright 2017, eq. 8); on reversed arrays, over the second."""
    x21, x32 = dx[:-1], dx[1:]
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` over the increasing nodes ``x``
    (at least 3), from 0 at ``x[0]``: the same operations, so the same bits,
    as ``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)``.  Each cell
    takes the parabola through its own pair of cells, even cells the pair to
    their right and odd cells and the last one the pair to their left."""
    dx = np.diff(x)
    first = _simpson_cells(y, dx)
    second = _simpson_cells(y[::-1], dx[::-1])[::-1]
    cells = np.empty(len(dx))
    cells[:-1:2] = first[::2]
    cells[1::2] = second[::2]
    cells[-1] = second[-1]
    return np.concatenate(([0.0], np.cumsum(cells)))


def associativity_residual(sampler: BinaryOpSampler, n_axis: int = 12) -> float:
    """Max |S(S(u,v),w) - S(u,S(v,w))| over a deterministic triple grid.

    Triples whose intermediate values leave the declared domain are skipped;
    if nothing remains the domain is unusable and an error is raised.
    """
    lo, hi = sampler.domain
    axis = np.linspace(lo, hi, n_axis)
    u, v, w = np.meshgrid(axis, axis, axis, indexing="ij")
    r = sampler(u, v)  # S(u, v), used as a first argument
    s = sampler(v, w)  # S(v, w), used as a second argument
    valid = (
        np.isfinite(r) & np.isfinite(s) & (r >= lo) & (r <= hi) & (s >= lo) & (s <= hi)
    )
    if not np.any(valid):
        raise RegradeError("all triples leave the evaluable domain")
    lhs = sampler(r[valid], w[valid])
    rhs = sampler(u[valid], s[valid])
    return float(np.max(np.abs(lhs - rhs)))


def recover_regrade(sampler: BinaryOpSampler) -> RegradeResult:
    """Recover the additive regrade xi of an associative operation.

    Rejects non-associative input (gate ``ASSOC_GATE``), vanishing first
    partials, and non-monotone results (a G that changes sign).
    """
    residual = associativity_residual(sampler)
    if not residual <= ASSOC_GATE:
        raise NonAssociativeError(
            f"operation {sampler.name or repr(sampler.fn)} is not associative "
            f"(residual {residual:.3e}); no regrade exists",
            residual,
        )
    u_lo, u_hi = sampler.domain
    grid = np.linspace(u_lo, u_hi, sampler.grid_n)
    u0 = np.full_like(grid, u_lo)
    if sampler.partials is not None:
        s1, s2 = (sampler._apply(d, u0, grid) for d in sampler.partials)
    else:
        h = 1e-5 * (u_hi - u_lo)
        s1 = (sampler(u0 + h, grid) - sampler(u0 - h, grid)) / (2.0 * h)
        s2 = (sampler(u0, grid + h) - sampler(u0, grid - h)) / (2.0 * h)
    if not (np.all(np.isfinite(s1)) and np.all(np.isfinite(s2))):
        raise RegradeError("partial derivatives not finite on domain")
    if np.any(np.abs(s1) < 1e-12):
        raise RegradeError("first partial S1 vanishes on the domain")
    # xi' is G(u0, v) = S2/S1 along u = u0, scaled so that xi'(u0) = 1
    g = s2 / s1
    slopes = g / g[0]
    xi_values = _cumulative_simpson(slopes, grid)
    if not np.all(np.diff(xi_values) > 0):
        raise RegradeError("recovered regrade is not strictly monotone")
    disc = _xi_discrepancies(partial(_hermite, grid, xi_values, slopes), sampler)
    return RegradeResult(
        u_grid=grid,
        xi_values=xi_values,
        c_constant=1.0,
        c_diagnostic=float(g[0]),
        additivity_max=float(np.max(np.abs(disc))),
        additivity_mean=float(np.mean(np.abs(disc))),
        assoc_residual=residual,
        slopes=slopes,
    )


def _xi_discrepancies(
    xi: Callable,
    sampler: BinaryOpSampler,
    n_axis: int = 24,
) -> np.ndarray:
    """Centred values of xi(S(u,v)) - xi(u) - xi(v) over the valid pair grid."""
    lo, hi = sampler.domain
    axis = np.linspace(lo, hi, n_axis)
    u, v = np.meshgrid(axis, axis, indexing="ij")
    s = sampler(u, v)
    valid = np.isfinite(s) & (s >= lo) & (s <= hi)
    if not np.any(valid):
        raise RegradeError("all pairs map outside the tabulated range")
    disc = xi(s[valid]) - xi(u[valid]) - xi(v[valid])
    return disc - np.mean(disc)


def additivity_residual(
    result: RegradeResult,
    sampler: BinaryOpSampler,
    n_axis: int = 24,
) -> float:
    """Max |xi(S(u,v)) - xi(u) - xi(v) - kappa| with kappa the fitted offset.

    Pairs whose S value leaves the tabulated range are skipped.
    """
    disc = _xi_discrepancies(result.xi, sampler, n_axis)
    return float(np.max(np.abs(disc)))


def affine_fit_deviation(reference: np.ndarray, values: np.ndarray) -> float:
    """Max deviation of ``values`` from the best affine image of ``reference``.

    The regrade is only defined up to an affine map, so this is the canonical
    distance between a recovered tabulation and an analytic one.
    """
    reference = np.asarray(reference, dtype=float)
    values = np.asarray(values, dtype=float)
    slope, intercept = np.polyfit(reference, values, 1)
    return float(np.max(np.abs(slope * reference + intercept - values)))


@dataclass(frozen=True)
class ProductRuleReport:
    """Residuals of the two distributivity constraints and associativity for
    a candidate product representation, plus the best C*u*v fit."""

    left_distributivity: float
    right_distributivity: float
    associativity: float
    c_fit: float
    fit_residual: float

    def passes(self, tol: float = 1e-10) -> bool:
        """All three residuals at most ``tol``; a NaN residual fails."""
        return all(
            r <= tol
            for r in (
                self.left_distributivity,
                self.right_distributivity,
                self.associativity,
            )
        )


def _distributivity(op: Callable, axis, domain) -> float:
    """Max |op(x, y+z) - op(x, y) - op(x, z)| over the triples of the grid
    axis^3 whose sum y+z stays in ``domain``."""
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    ok = (y + z >= domain[0]) & (y + z <= domain[1])
    if not np.any(ok):
        raise RegradeError("domain is not closed under sums")
    x, y, z = x[ok], y[ok], z[ok]
    return float(np.max(np.abs(op(x, y + z) - op(x, y) - op(x, z))))


def product_rule_residual(candidate: BinaryOpSampler) -> ProductRuleReport:
    """Check P(u,v+w) = P(u,v)+P(u,w), P(u+v,w) = P(u,w)+P(v,w), and
    associativity on a 10-point axis grid; fit the best C for P ~ C*u*v on
    the pair grid."""
    n_axis = 10
    axis = np.linspace(*candidate.domain, n_axis)
    left = _distributivity(candidate, axis, candidate.domain)
    right = _distributivity(lambda x, y: candidate(y, x), axis, candidate.domain)
    assoc = associativity_residual(candidate, n_axis)

    gu, gv = np.meshgrid(axis, axis, indexing="ij")
    values = candidate(gu, gv)
    basis = gu * gv
    denom = float(np.sum(basis * basis))
    c_fit = float(np.sum(values * basis) / denom) if denom > 0 else 0.0
    fit_residual = float(np.max(np.abs(values - c_fit * basis)))
    return ProductRuleReport(
        left_distributivity=left,
        right_distributivity=right,
        associativity=assoc,
        c_fit=c_fit,
        fit_residual=fit_residual,
    )


# name: (S(a, u, v), dS/du, dS/dv, domain of u and v, label, default a).  The
# parameter a comes first so that functools.partial binds it; a default of
# None marks an operation that takes no parameter.  argparse lists the names
# in this order.
_CATALOG = {
    "add": (
        lambda a, u, v: u + v,
        lambda a, u, v: 1.0,
        lambda a, u, v: 1.0,
        (0.0, 2.0), "add", None,
    ),
    "cubic-mean": (
        lambda p, u, v: (u**p + v**p) ** (1.0 / p),
        lambda p, u, v: u ** (p - 1.0) * (u**p + v**p) ** (1.0 / p - 1.0),
        lambda p, u, v: v ** (p - 1.0) * (u**p + v**p) ** (1.0 / p - 1.0),
        (0.5, 1.5), "cubic-mean(p={:g})", 3.0,
    ),
    "uv-shift": (
        lambda c, u, v: u + v + c * u * v,
        lambda c, u, v: 1.0 + c * v,
        lambda c, u, v: 1.0 + c * u,
        (0.1, 1.0), "uv-shift(c={:g})", 1.0,
    ),
    "product": (
        lambda a, u, v: u * v,
        lambda a, u, v: v,
        lambda a, u, v: u,
        (0.2, 2.0), "product", None,
    ),
    "broken-assoc": (
        lambda k, u, v: u + v**k,
        lambda k, u, v: 1.0,
        lambda k, u, v: k * v ** (k - 1.0),
        (0.0, 1.0), "broken-assoc(k={:g})", 2.0,
    ),
}

CATALOG_NAMES = tuple(_CATALOG)


def catalog_op(
    name: str, param: float | None = None, grid_n: int = 256
) -> BinaryOpSampler:
    """The named catalog operation, used by the command line and the test
    suite, with its parameter ``param`` or else its default."""
    if name not in _CATALOG:
        choices = ", ".join(CATALOG_NAMES)
        raise RegradeError(f"unknown operation {name!r}; choose from {choices}")
    fn, d1, d2, domain, label, default = _CATALOG[name]
    if param is not None and default is None:
        raise RegradeError(f"operation {name!r} takes no parameter")
    if param is not None and not np.isfinite(param):
        raise RegradeError(f"param must be finite, got {param}")
    a = default if param is None else float(param)
    if name == "cubic-mean" and a <= 0:
        raise RegradeError("cubic-mean power must be positive")
    return BinaryOpSampler(
        fn=partial(fn, a),
        domain=domain,
        grid_n=grid_n,
        partials=(partial(d1, a), partial(d2, a)),
        name=label.format(a),
    )
