import random
from functools import partial

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicHermiteSpline

from amplab import (
    BinaryOpSampler,
    NonAssociativeError,
    ProductRuleReport,
    RegradeError,
    additivity_residual,
    affine_fit_deviation,
    associativity_residual,
    catalog_op,
    product_rule_residual,
    recover_regrade,
)
from amplab.regrade import CATALOG_NAMES, _cumulative_simpson

from genutil import increasing_inverse


def eta_operation(a: float, b: float, g: float, lo=0.4, hi=1.4, grid_n=128):
    """S = eta^{-1}(eta(u) + eta(v)) for eta(u) = a u + b u^2 + g u^3,
    inverted by bisection on whole arrays: eta increases on [0, 16]."""

    def eta(u):
        return a * u + b * u * u + g * u**3

    def fn(u, v):
        return increasing_inverse(eta, eta(u) + eta(v), 0.0, 16.0)

    sampler = BinaryOpSampler(fn=fn, domain=(lo, hi), grid_n=grid_n)
    return sampler, eta


def test_sampler_validation():
    with pytest.raises(RegradeError):
        BinaryOpSampler(fn=lambda u, v: u, domain=(1.0, 0.0))
    with pytest.raises(RegradeError):
        BinaryOpSampler(fn=lambda u, v: u, domain=(0.0, 1.0), grid_n=8)


def test_addition_is_associative_to_rounding():
    assert associativity_residual(catalog_op("add")) <= 1e-15


def test_cubic_mean_is_associative():
    assert associativity_residual(catalog_op("cubic-mean")) <= 1e-12


def test_broken_op_flagged():
    residual = associativity_residual(catalog_op("broken-assoc"))
    assert residual > 0.1
    with pytest.raises(NonAssociativeError) as excinfo:
        recover_regrade(catalog_op("broken-assoc"))
    assert excinfo.value.residual == residual
    assert str(excinfo.value) == (
        f"operation broken-assoc(k=2) is not associative "
        f"(residual {residual:.3e}); no regrade exists"
    )


def test_all_triples_out_of_domain():
    # associative, but S lands far outside the declared domain
    shifted = BinaryOpSampler(fn=lambda u, v: u + v + 10.0, domain=(0.0, 1.0))
    with pytest.raises(RegradeError):
        associativity_residual(shifted)


def test_regrade_of_addition_is_identity():
    sampler = catalog_op("add")
    result = recover_regrade(sampler)
    assert additivity_residual(result, sampler) <= 1e-14
    assert affine_fit_deviation(result.u_grid, result.xi_values) <= 1e-12
    assert result.c_constant == 1.0
    assert abs(result.c_diagnostic - 1.0) <= 1e-9


def test_regrade_of_cubic_mean_matches_cubic_oracle():
    sampler = catalog_op("cubic-mean")
    result = recover_regrade(sampler)
    # xi(S) = xi(u) + xi(v) holds exactly for xi(u) = u^3
    assert additivity_residual(result, sampler) <= 1e-6
    assert affine_fit_deviation(result.u_grid**3, result.xi_values) <= 1e-6


def test_regrade_of_shifted_product_matches_log_oracle():
    sampler = catalog_op("uv-shift")
    result = recover_regrade(sampler)
    assert result.assoc_residual == associativity_residual(sampler)
    # xi(S) = log((1+u)(1+v)) identity
    assert additivity_residual(result, sampler) <= 1e-6
    assert affine_fit_deviation(np.log1p(result.u_grid), result.xi_values) <= 1e-6


def test_regrade_of_product_matches_log_oracle():
    sampler = catalog_op("product")
    result = recover_regrade(sampler)
    assert affine_fit_deviation(np.log(result.u_grid), result.xi_values) <= 1e-5


def test_regrade_of_product_on_a_fine_grid_is_exact_to_rounding():
    # with exact partials, G is exact and only Simpson's error remains, which
    # a fine grid takes below rounding
    result = recover_regrade(catalog_op("product", grid_n=16384))
    assert result.additivity_max <= 1e-12


# odd and even point counts: an even count ends on a cell with no pair of
# its own, which takes the pair to its left
_SCIPY_GRIDS = [16, 17, 33, 256, 16384]


@pytest.mark.parametrize("grid_n", _SCIPY_GRIDS)
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cumulative_simpson_is_scipys_bit_for_bit(name, grid_n):
    sampler = catalog_op(name, grid_n=grid_n)
    grid = np.linspace(*sampler.domain, grid_n)
    u0 = np.full_like(grid, grid[0])
    s1, s2 = (sampler._apply(d, u0, grid) for d in sampler.partials)
    g = s2 / s1
    want = cumulative_simpson(g, x=grid, initial=0.0)
    assert _cumulative_simpson(g, grid).tobytes() == want.tobytes()
    if name != "broken-assoc":
        result = recover_regrade(sampler)
        want = cumulative_simpson(result.slopes, x=grid, initial=0.0)
        assert result.xi_values.tobytes() == want.tobytes()


# cubic-mean at p=8: xi = u**8 holds most of its rise in the last cell, whose
# cubic, evaluated from its left end, rounds at the last node (at grid 16)
@pytest.mark.parametrize("grid_n", _SCIPY_GRIDS)
@pytest.mark.parametrize(
    "name, param",
    [("add", None), ("cubic-mean", None), ("cubic-mean", 8.0), ("uv-shift", None),
     ("product", None)],
)
def test_xi_is_the_hermite_interpolant_of_the_exact_slopes(name, param, grid_n):
    result = recover_regrade(catalog_op(name, param=param, grid_n=grid_n))
    grid, values = result.u_grid, result.xi_values
    assert result.xi(grid).tobytes() == values.tobytes()
    # midpoints and quarter points of every cell, and the cells' ends moved
    # one ulp inwards
    h = np.diff(grid)
    u = np.concatenate(
        [grid[:-1] + f * h for f in (0.25, 0.5, 0.75)]
        + [np.nextafter(grid[:-1], np.inf), np.nextafter(grid[1:], -np.inf)]
    )
    want = CubicHermiteSpline(grid, values, result.slopes)(u)
    np.testing.assert_allclose(result.xi(u), want, rtol=1e-14, atol=0)


def _recording(f, calls):
    """``f``, keeping the (u, v) arrays of every call, flattened."""

    def recorded(u, v):
        calls.append([np.ravel(x) for x in np.broadcast_arrays(u, v)])
        return f(u, v)

    return recorded


def _recorded_points(calls):
    """Every u and every v that the recorded calls were applied to."""
    u, v = (np.concatenate(x) for x in zip(*calls))
    return u, v


def test_analytic_partials_stay_inside_the_domain():
    lo, hi = 0.2, 2.0
    calls = []
    sampler = BinaryOpSampler(
        fn=lambda u, v: u * v,
        domain=(lo, hi),
        partials=(
            _recording(lambda u, v: v, calls),
            _recording(lambda u, v: u, calls),
        ),
    )
    recover_regrade(sampler)
    u, v = _recorded_points(calls)
    assert u.size > 0
    assert lo <= u.min() and u.max() <= hi
    assert lo <= v.min() and v.max() <= hi


def test_sampler_without_partials_oversteps_the_domain_by_at_most_1e_5():
    lo, hi = 0.1, 1.0
    calls = []
    sampler = BinaryOpSampler(
        fn=_recording(lambda u, v: u + v + u * v, calls),
        domain=(lo, hi),
    )
    recover_regrade(sampler)
    u, v = _recorded_points(calls)
    overstep = max(lo - u.min(), u.max() - hi, lo - v.min(), v.max() - hi)
    assert overstep <= 1e-5 * (hi - lo) * (1 + 1e-9)


@pytest.mark.parametrize("c", [-1.5, -1.2])
def test_sign_changing_first_partial_has_no_regrade(c):
    # S1 = 1 + c v changes sign inside (0.1, 1.0), so G does too and the
    # integral of G is not monotone
    with pytest.raises(RegradeError, match="not strictly monotone"):
        recover_regrade(catalog_op("uv-shift", param=c))


def test_uv_shift_with_coefficient():
    sampler = catalog_op("uv-shift", param=0.5)
    result = recover_regrade(sampler)
    assert affine_fit_deviation(
        np.log1p(0.5 * result.u_grid), result.xi_values
    ) <= 1e-6


def test_vanishing_first_partial_rejected():
    constant = BinaryOpSampler(fn=lambda u, v: 1.0, domain=(0.0, 1.0))
    with pytest.raises(RegradeError):
        recover_regrade(constant)


def test_eta_round_trip():
    rng = random.Random(19)
    for _ in range(3):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.0, 1.0)
        g = rng.uniform(0.0, 1.0)
        sampler, eta = eta_operation(a, b, g)
        # any relabelled addition is associative up to the inversion tolerance
        assert associativity_residual(sampler) <= 1e-10
        result = recover_regrade(sampler)
        n = len(result.u_grid)
        interior = slice(n // 10, n - n // 10)
        fit = affine_fit_deviation(
            eta(result.u_grid[interior]), result.xi_values[interior]
        )
        assert fit <= 1e-5
        assert additivity_residual(result, sampler) <= 1e-6


def test_additivity_skips_out_of_range_pairs():
    sampler = catalog_op("cubic-mean")
    result = recover_regrade(sampler)
    # large u, v push S beyond the tabulated range; those pairs are skipped,
    # the rest still satisfy additivity
    assert additivity_residual(result, sampler, n_axis=40) <= 1e-6


def test_affine_fit_deviation_exact_line():
    x = np.linspace(0.0, 1.0, 50)
    assert affine_fit_deviation(x, 3.0 * x + 2.0) <= 1e-12


def test_product_rule_residual_for_product():
    report = product_rule_residual(catalog_op("product"))
    assert report.passes(1e-12)
    assert report.c_fit == pytest.approx(1.0, abs=1e-12)
    assert report.fit_residual <= 1e-12


def test_product_rule_residual_for_scaled_product():
    doubled = BinaryOpSampler(
        fn=lambda u, v: 2.0 * u * v,
        domain=(0.2, 2.0),
        partials=(lambda u, v: 2.0 * v, lambda u, v: 2.0 * u),
    )
    report = product_rule_residual(doubled)
    assert report.passes(1e-12)
    assert report.c_fit == pytest.approx(2.0, abs=1e-12)
    # passing all three constraints pins the candidate to C*u*v on the grid
    assert report.fit_residual <= 1e-8


def test_product_rule_rejects_addition():
    addition = BinaryOpSampler(fn=lambda u, v: u + v, domain=(0.0, 2.0))
    report = product_rule_residual(addition)
    assert not report.passes()
    assert report.left_distributivity >= 0.05


def test_product_rule_rejects_shifted_product():
    shifted = BinaryOpSampler(fn=lambda u, v: u * v + 0.1, domain=(0.0, 1.0))
    report = product_rule_residual(shifted)
    assert not report.passes()
    assert max(report.left_distributivity, report.right_distributivity) >= 0.05


@pytest.mark.parametrize(
    "residuals", [(0.0, float("nan"), 0.0), (0.0, 0.0, float("nan"))]
)
def test_product_rule_nan_residual_fails(residuals):
    assert not ProductRuleReport(*residuals, 1.0, 0.0).passes()


@pytest.mark.parametrize(
    "fn, distributive, broken",
    [
        (lambda u, v: u * u * v, "left_distributivity", "right_distributivity"),
        (lambda u, v: u * v * v, "right_distributivity", "left_distributivity"),
    ],
)
def test_distributivity_is_checked_in_its_own_slot(fn, distributive, broken):
    # u*u*v is linear in v only, u*v*v in u only, so a residual that swaps
    # or repeats a slot fails one of the two cases
    sampler = BinaryOpSampler(fn=fn, domain=(0.0, 1.0))
    report = product_rule_residual(sampler)
    assert getattr(report, distributive) <= 1e-15
    assert getattr(report, broken) >= 0.05
    assert not report.passes()


def test_product_rule_needs_a_domain_closed_under_some_sums():
    # every sum of two points of (1.0, 1.5) lies above 1.5
    sampler = BinaryOpSampler(fn=lambda u, v: u * v, domain=(1.0, 1.5))
    with pytest.raises(RegradeError, match="domain is not closed under sums"):
        product_rule_residual(sampler)


def test_catalog_rejects_unknown_name():
    with pytest.raises(RegradeError):
        catalog_op("geometric-mean")


def test_catalog_parameter_validation():
    with pytest.raises(RegradeError):
        catalog_op("cubic-mean", param=-1.0)


@pytest.mark.parametrize(
    "name, param, label",
    [
        ("add", None, "add"),
        ("cubic-mean", None, "cubic-mean(p=3)"),
        ("cubic-mean", 2.5, "cubic-mean(p=2.5)"),
        ("uv-shift", None, "uv-shift(c=1)"),
        ("uv-shift", 0.5, "uv-shift(c=0.5)"),
        ("product", None, "product"),
        ("broken-assoc", None, "broken-assoc(k=2)"),
        ("broken-assoc", 1.0, "broken-assoc(k=1)"),
    ],
)
def test_catalog_labels_and_partials(name, param, label):
    sampler = catalog_op(name, param=param)
    assert sampler.name == label
    (lo, hi), h = sampler.domain, 1e-6
    axis = np.linspace(lo, hi, 9)[1:-1]
    u, v = np.meshgrid(axis, axis, indexing="ij")
    d1, d2 = (d(u, v) for d in sampler.partials)
    assert np.max(np.abs(d1 - (sampler(u + h, v) - sampler(u - h, v)) / (2 * h))) <= 1e-6
    assert np.max(np.abs(d2 - (sampler(u, v + h) - sampler(u, v - h)) / (2 * h))) <= 1e-6


def test_catalog_names_keep_their_order():
    # argparse prints the names in this order in its usage errors
    assert CATALOG_NAMES == ("add", "cubic-mean", "uv-shift", "product", "broken-assoc")


_per_point = partial(np.vectorize, otypes=[float])

# every catalog operation at its default and, where it takes one, at another
# parameter; broken-assoc's is k=1, as k=3 already rounds like cubic-mean
_CATALOG_CASES = [
    ("add", None),
    ("cubic-mean", None),
    ("cubic-mean", 3.217),
    ("uv-shift", None),
    ("uv-shift", 0.5),
    ("product", None),
    ("broken-assoc", None),
    ("broken-assoc", 1.0),
]


@pytest.mark.parametrize("name, param", _CATALOG_CASES)
def test_array_evaluation_matches_per_point_evaluation(name, param):
    sampler = catalog_op(name, param=param)
    axis = np.linspace(*sampler.domain, 33)
    u, v = np.meshgrid(axis, axis, indexing="ij")
    pairs = [(sampler(u, v), _per_point(sampler.fn)(u, v))]
    pairs += [(sampler._apply(d, u, v), _per_point(d)(u, v)) for d in sampler.partials]
    for got, want in pairs:
        # add's constant partials come back as a full grid too
        assert got.shape == want.shape == u.shape
        assert got.dtype == want.dtype == float
        if name == "cubic-mean":
            # numpy's vectorized power is not libm's pow
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        else:
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["add", "product", "uv-shift"])
def test_array_recovery_is_bit_identical_to_per_point_recovery(name):
    sampler = catalog_op(name, grid_n=16384)
    per_point = BinaryOpSampler(
        fn=_per_point(sampler.fn),
        domain=sampler.domain,
        grid_n=sampler.grid_n,
        partials=tuple(map(_per_point, sampler.partials)),
        name=sampler.name,
    )
    got, want = recover_regrade(sampler), recover_regrade(per_point)
    assert got.xi_values.tobytes() == want.xi_values.tobytes()


@pytest.mark.filterwarnings("error")
def test_floating_point_errors_are_regrade_errors():
    sampler = BinaryOpSampler(fn=lambda u, v: u / v, domain=(0.0, 1.0), name="ratio")
    with pytest.raises(RegradeError, match="operation 'ratio' cannot be evaluated"):
        sampler(np.ones(2), np.array([1.0, 0.0]))
    with pytest.raises(RegradeError, match="invalid value"):
        sampler(np.zeros(2), np.zeros(2))
    with pytest.raises(RegradeError, match="overflow"):
        sampler(np.full(2, 1e300), np.full(2, 1e-300))
    # underflow is not an error: a tiny result is a result
    assert sampler(np.full(2, 1e-300), np.full(2, 1e300)).tolist() == [0.0, 0.0]
