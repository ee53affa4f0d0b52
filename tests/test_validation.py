"""Every function that mebagg exports rejects a numeric argument outside its
domain with a MebaggError: never a TypeError, a ValueError or a result."""

import inspect
import math

import numpy as np
import pytest

import mebagg
from mebagg import Ball, InvalidFaultBudgetError, InvalidParamsError, MebaggError

PTS = np.random.default_rng(0).normal(size=(6, 2))
Y = np.zeros(2)
BALLS = mebagg.tangent_unit_balls(2)

# the values among a bool, a fraction, NaN, +-inf and a negative that each
# kind of parameter rejects: a count is an integer >= some floor >= 0, a
# real is a number >= 0 or >= 1, and a finite real may be any finite number
COUNT = (True, 1.5, math.nan, math.inf, -math.inf, -1)
REAL = (True, math.nan, math.inf, -math.inf, -1.0)
FINITE = (math.nan, math.inf, -math.inf)

# every exported function: the positional and keyword arguments of a valid
# call, and the kind of each of its numeric parameters
TABLE = {
    "candidate_balls": ((PTS,), {"t": 1}, {"t": COUNT, "max_subsets": COUNT}),
    "coordwise_median": ((PTS,), {"t": 1}, {"t": COUNT}),
    "geometric_median": ((PTS,), {"t": 1}, {"t": COUNT, "tol": REAL, "max_iter": COUNT}),
    "mda": ((PTS,), {"t": 1}, {"t": COUNT, "max_subsets": COUNT}),
    "mean_aggregate": ((PTS,), {"t": 1}, {"t": COUNT}),
    "medoid": ((PTS,), {"t": 1}, {"t": COUNT}),
    "minmax_meb": ((PTS,), {"t": 1}, {"t": COUNT, "max_subsets": COUNT}),
    "run_rule": (("medoid", PTS), {"t": 1}, {"t": COUNT}),
    "solve_minmax": ((BALLS,), {}, {}),
    "diameter": ((PTS,), {}, {}),
    "dist_to_ball": ((Y, Ball(Y + 1.0, 1.0)), {}, {}),
    "dist_to_hull": ((Y, PTS), {}, {"max_iter": COUNT}),
    "meb": ((PTS,), {}, {}),
    "soddy_inner_bend": (([1.0, 1.0, 1.0],), {"k": 2}, {"k": COUNT}),
    "trusted_box": ((PTS,), {}, {}),
    "candidate_balls_bruteforce": ((PTS,), {"t": 1}, {"t": COUNT}),
    "circumball": ((PTS[:2],), {}, {}),
    "exhaustive_factor": ((PTS,), {"t": 1, "y": Y}, {"t": COUNT}),
    "grid_minmax": ((BALLS,), {"resolution": 10, "zooms": 2}, {"resolution": COUNT, "zooms": COUNT}),
    "meb_bruteforce": ((PTS,), {}, {}),
    "worst_designation": ((PTS,), {"t": 1, "y": Y}, {"t": COUNT}),
    "gm_convex_violation_instance": ((), {"t": 2}, {"t": COUNT}),
    "gm_impossibility_instance": ((), {"t": 5}, {"t": COUNT, "x": FINITE}),
    "lower_bound_construction": ((), {"d": 2, "t": 2}, {"d": COUNT, "t": COUNT}),
    "medoid_counterexample": ((), {"t": 4, "x": 10.0}, {"t": COUNT, "x": FINITE}),
    "random_instance": (
        (), {"n": 6, "t": 1, "d": 2},
        {"n": COUNT, "t": COUNT, "d": COUNT, "spread": REAL, "seed": COUNT, "attack_starts": COUNT},
    ),
    "tangent_unit_balls": ((), {"k": 2}, {"k": COUNT}),
    "check_bias_bound": ((Y, PTS), {"c": 2.0}, {"c": REAL, "tol": REAL}),
    "check_box": ((Y, PTS), {}, {"tol": REAL}),
    "check_c_meb": ((Y, PTS), {"c": 2.0}, {"c": REAL, "tol": REAL}),
    "check_convex": ((Y, PTS), {}, {"tol": REAL}),
    "check_relaxed_convex": ((Y, PTS), {"delta": 1.0}, {"delta": REAL, "tol": REAL}),
    "phi": ((Y, Ball(Y + 1.0, 1.0)), {}, {}),
    "relation_check": (("convex-implies-meb", PTS), {}, {"c": REAL, "delta": REAL, "tol": REAL}),
    "safe_meb_empty": ((BALLS,), {}, {"tol": REAL}),
    "safe_meb_value": ((Y, BALLS), {}, {}),
    "theoretical_bound": (
        ("minmax-meb",), {"n": 5, "t": 1, "d": 2}, {"n": COUNT, "t": COUNT, "d": COUNT}
    ),
}

EXPORTED = sorted(
    name for name, obj in vars(mebagg).items()
    if inspect.isfunction(obj) and obj.__module__.startswith("mebagg.")
)


def _numeric(fn) -> set:
    """The parameters annotated int or float, alone or in a union."""
    return {
        p.name for p in inspect.signature(fn).parameters.values()
        if {"int", "float"} & set(str(p.annotation).replace(" ", "").split("|"))
    }


@pytest.mark.parametrize("name", EXPORTED)
def test_every_numeric_parameter_is_in_the_table(name):
    assert name in TABLE, f"{name} is exported but has no row"
    args, kwargs, kinds = TABLE[name]
    assert set(kinds) == _numeric(getattr(mebagg, name))
    getattr(mebagg, name)(*args, **kwargs)  # the row's valid call succeeds


@pytest.mark.parametrize(
    "name, param, bad",
    [(name, param, bad) for name, (_, _, kinds) in TABLE.items()
     for param, values in kinds.items() for bad in values],
    ids=lambda v: v if isinstance(v, str) else repr(v),
)
def test_a_value_outside_the_domain_raises_a_mebagg_error(name, param, bad):
    args, kwargs, _ = TABLE[name]
    with pytest.raises(MebaggError):
        getattr(mebagg, name)(*args, **{**kwargs, param: bad})


@pytest.mark.parametrize("t", COUNT + (6,), ids=repr)
def test_given_balls_do_not_excuse_the_fault_budget(t):
    # with balls given, these took any t, or checked it only through n <= 2t
    balls = mebagg.candidate_balls(PTS, 1)
    with pytest.raises(InvalidFaultBudgetError):
        mebagg.worst_designation(PTS, t, Y, balls=balls)
    with pytest.raises(InvalidFaultBudgetError):
        mebagg.exhaustive_factor(PTS, t, y=Y, balls=balls)
    with pytest.raises(InvalidFaultBudgetError):
        mebagg.minmax_meb(PTS, t, balls=balls)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: mebagg.dist_to_hull(Y, PTS, max_iter=0), "max_iter must be an integer >= 1, got 0"),
     (lambda: mebagg.grid_minmax(BALLS, 10, zooms=0), "zooms must be an integer >= 1, got 0"),
     (lambda: mebagg.theoretical_bound("minmax-meb", 5, 1, d=0), "d must be an integer >= 1, got 0")],
    ids=["hull-max-iter", "grid-zooms", "bound-d"],
)
def test_a_count_of_zero_below_its_floor_is_a_bad_argument(call, message):
    # these raised NonConvergenceError, returned (None, inf) and returned 1.0
    with pytest.raises(InvalidParamsError, match=message):
        call()
