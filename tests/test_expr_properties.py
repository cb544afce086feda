"""Property tests for the symbolic core on random grammar-built trees:
exact derivatives against a central finite difference, the PT image
against conjugate parity bit for bit, render -> parse round trips, and, on
trees that share subexpressions, the DAG walk against a tree walk and a
tuple call against one call per expression; on trees that hide a failure
under a value that can be finite, a call over all points against a walk of
each point alone.

Examples are derandomized (the profile in conftest.py) so the suite is
reproducible; widen ``max_examples`` locally to search harder.
"""

import math
from unittest import mock

import numpy as np
import pytest
from conftest import assert_round_trip
from hypothesis import assume, example, given, settings, strategies as st

from pdmsusy import expr
from pdmsusy.expr import (FUNCTIONS, X, Const, Div, EvaluationError, Func,
                          Mul, Neg, Param, ParamEnv, Pow, add, differentiate,
                          div, evaluate, evaluate_many, func, mul, neg, parse,
                          pow_, sub)
from pdmsusy.model import pt_image

ENV = ParamEnv(alpha=0.7)
PROPERTY = settings(max_examples=150)


def trees(numbers):
    """Trees built through the smart constructors, as the parser and the
    pipelines build them; ``numbers`` draws the real constants."""
    leaves = st.one_of(
        st.just(X), st.just(Param("alpha")),
        numbers.map(Const),
        numbers.map(lambda v: Const(complex(0.0, v))),
        st.tuples(numbers, numbers).map(lambda p: Const(complex(*p))))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from([add, sub, mul, div]), children,
                      children).map(lambda t: t[0](t[1], t[2])),
            st.tuples(children, st.sampled_from([-1.0, 0.5, 2.0, 2.5, 3.0]))
            .map(lambda t: pow_(t[0], Const(t[1]))),
            st.tuples(children, children).map(lambda t: pow_(*t)),
            children.map(neg),
            st.tuples(st.sampled_from(FUNCTIONS), children)
            .map(lambda t: func(*t)))

    return st.recursive(leaves, extend, max_leaves=8)


SMALL = trees(st.floats(-3.0, 3.0).map(lambda v: round(v, 3)))
ANY = trees(st.floats(allow_nan=False, allow_infinity=False))


@PROPERTY
@given(SMALL, st.floats(-1.0, 1.0))
def test_derivative_matches_central_difference(tree, x):
    # 5-point central differences at h and h/2; their gap estimates the
    # truncation error of the finer one (Richardson), which also covers a
    # branch cut or a steep region inside the stencil
    h = 1e-3
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    try:
        slopes = evaluate_many(differentiate(tree),
                               np.append(x, x + h * offsets), ENV)
        coarse = evaluate_many(tree, x + h * offsets, ENV)
        fine = evaluate_many(tree, x + 0.5 * h * offsets, ENV)
    except EvaluationError:
        assume(False)
    exact = slopes[0]
    # a finite difference says nothing where f' is not smooth on the scale
    # of the stencil (next to a branch point of sqrt, say)
    assume(np.max(np.abs(slopes - exact)) <= 0.5 * max(1.0, abs(exact)))
    fd_coarse = coarse @ weights / h
    fd_fine = fine @ weights / (0.5 * h)
    scale = max(1.0, abs(exact), float(np.max(np.abs(coarse))))
    assert abs(fd_fine - exact) <= 10 * abs(fd_coarse - fd_fine) + 1e-8 * scale


@pytest.mark.parametrize("source", ["x^x", "2^x", "x^(alpha*x)"])
@pytest.mark.parametrize("x", [0.3, 1.0, 1.7])
def test_general_power_rule(source, x):
    # f^g with a non-constant exponent: d/dx f^g = f^g (g' log f + g f'/f)
    tree = parse(source)
    h = 1e-3
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    exact = evaluate_many(differentiate(tree), [x], ENV)[0]
    fd = evaluate_many(tree, x + h * offsets, ENV) @ weights / h
    assert abs(fd - exact) <= 1e-9 * max(1.0, abs(exact))


@PROPERTY
@given(SMALL, st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8))
def test_pt_image_is_conjugate_parity_bit_for_bit(tree, points):
    xs = np.array(points)
    try:
        image = evaluate_many(pt_image(tree), xs, ENV)
    except EvaluationError:
        with pytest.raises(EvaluationError):
            evaluate_many(tree, -xs, ENV)
        return
    assert image.tobytes() == np.conj(evaluate_many(tree, -xs, ENV)).tobytes()


@PROPERTY
@given(ANY)
def test_render_parse_round_trip(tree):
    assert_round_trip(tree)


def _shared(children):
    """Nodes that read one subtree more than once."""
    return st.one_of(
        children.map(lambda t: add(t, mul(t, t))),
        children.map(lambda t: div(t, sub(t, t))),
        st.tuples(children, children).map(
            lambda p: mul(add(p[0], p[1]), sub(p[1], p[0]))))


SHARED = st.recursive(SMALL, _shared, max_leaves=4)
# poles of 1/x, log, sec and tan among ordinary points
POINTS = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.pi / 2]),
                            st.floats(-3.0, 3.0)), min_size=1, max_size=6)


def _tree_walk(plan, e):
    """The value of e from a recursive walk of the tree, which evaluates a
    shared node again, and records its failures again, at every visit."""
    step = expr._STEPS[type(e)][0]
    if isinstance(e, expr.Div):
        den = _tree_walk(plan, e.right)
        expr._pole(plan, e, den)        # before the numerator is evaluated
        return step(plan, e, _tree_walk(plan, e.left), den)
    return step(plan, e, *[_tree_walk(plan, v) for v in e._args
                           if isinstance(v, expr.Expr)])


def _tree_run(plan):
    """A point-by-point walk, which raises at the first failing check."""
    plan.raising = True
    steps, outs = plan.code
    return [_tree_walk(plan, steps[k][1]) for k in outs]    # the roots


def _outcome(evaluate_at, x):
    """(value bytes, None) at x, or (None, (type, message, x)) of the error."""
    try:
        return np.complex128(evaluate_at(x)).tobytes(), None
    except EvaluationError as exc:
        return None, (type(exc), str(exc), getattr(exc, "x", None))


@PROPERTY
@given(SHARED, POINTS)
def test_dag_walk_matches_tree_walk(tree, points):
    with mock.patch.object(expr._Plan, "run", _tree_run):
        tree_walk = [_outcome(lambda x: evaluate(tree, x, ENV), x)
                     for x in points]
    dag_walk = [_outcome(lambda x: evaluate(tree, x, ENV), x) for x in points]
    assert dag_walk == tree_walk
    try:
        values = evaluate_many(tree, points, ENV)
    except EvaluationError as exc:
        first = next(error for _, error in tree_walk if error is not None)
        assert (type(exc), str(exc), exc.x) == first
    else:
        assert [values[i].tobytes() for i in range(len(points))] == [
            value for value, _ in tree_walk]


@PROPERTY
@given(st.lists(SHARED, min_size=1, max_size=3), POINTS,
       st.sampled_from([ENV, ParamEnv()]))
def test_tuple_call_matches_one_call_per_expression(trees, points, env):
    roots = (*trees, add(trees[0], trees[-1]))
    separate = []
    try:
        for root in roots:
            separate.append(evaluate_many(root, points, env).tobytes())
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as joint:
            evaluate_many(roots, points, env)
        assert ((type(joint.value), str(joint.value), getattr(joint.value, "x", None))
                == (type(exc), str(exc), getattr(exc, "x", None)))
        return
    assert [v.tobytes() for v in evaluate_many(roots, points, env)] == separate


# values that fail at some points: an overflow for x > 0.71, a pole and
# log(0) at 0, and a product that is not finite for |x| > 1e-8
OVERFLOW = func("exp", mul(Const(1000.0), X))
FAILING = st.sampled_from([OVERFLOW, div(Const(1.0), X), func("log", X),
                           mul(Const(1e300), mul(X, Const(1e16)))])


def _hiding(children):
    """Each kind of consumer that can turn a failing operand's value finite
    (exp(-inf) = 0, inf^0 = 1, x/inf = 0, 0.5^inf = 0, tanh(inf) = 1), and
    0*inf, which is not finite; built by the node classes, since the smart
    constructors fold 0*f and f^0.  Sums and products combine them."""
    return st.one_of(
        children.map(lambda t: Func("exp", Neg(t))),
        children.map(lambda t: Pow(t, Const(0.0))),
        children.map(lambda t: Pow(Const(0.5), t)),
        children.map(lambda t: Div(X, t)),
        children.map(lambda t: Mul(Const(0.0), t)),
        children.map(lambda t: Func("tanh", t)),
        st.tuples(st.sampled_from([add, sub, mul]), children, children)
        .map(lambda t: t[0](t[1], t[2])))


HIDDEN = st.recursive(st.one_of(FAILING, SMALL), _hiding, max_leaves=4)
FAILING_POINTS = st.lists(st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]),
                                    st.floats(-3.0, 3.0)),
                          min_size=1, max_size=6)


@PROPERTY
@given(HIDDEN, FAILING_POINTS)
@example(Func("exp", Neg(OVERFLOW)), [0.5, 1.0])
@example(Pow(OVERFLOW, Const(0.0)), [0.5, 1.0])
@example(Div(X, OVERFLOW), [0.5, 1.0])
@example(Mul(Const(0.0), OVERFLOW), [0.5, 1.0])
@example(Func("tanh", OVERFLOW), [0.5, 1.0])
@example(func("sec", mul(Const(1000j), X)), [0.5, 1.0])    # 1/cosh(1000)
def test_a_failure_under_a_finite_value_is_reported(tree, points):
    # the run over all points adds only some values into its sentinels;
    # the walk of each point alone checks every value
    with mock.patch.object(expr._Plan, "run", _tree_run):
        alone = [_outcome(lambda x: evaluate(tree, x, ENV), x) for x in points]
    try:
        values = evaluate_many(tree, points, ENV)
    except EvaluationError as exc:
        first = next(error for _, error in alone if error is not None)
        assert (type(exc), str(exc), exc.x) == first
    else:
        assert [values[i].tobytes() for i in range(len(points))] == [
            value for value, _ in alone]


ALPHAS = st.lists(st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5j]), st.floats(-3.0, 3.0),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                       allow_infinity=False)), min_size=1, max_size=4)


@PROPERTY
@given(SHARED, POINTS, ALPHAS)
def test_per_point_parameter_matches_one_call_per_value(tree, points, alphas):
    # alpha bound to an array, one value per point: one call over the
    # points of every alpha is the calls at each alpha alone, concatenated,
    # bit for bit, and fails as the first of them that fails
    xs = np.tile(points, len(alphas))
    env = ParamEnv(alpha=np.repeat(alphas, len(points)))
    separate = []
    try:
        for alpha in alphas:
            separate.append(evaluate_many(tree, points, ParamEnv(alpha=alpha)))
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as joint:
            evaluate_many(tree, xs, env)
        assert ((type(joint.value), str(joint.value), joint.value.x)
                == (type(exc), str(exc), exc.x))
        return
    assert evaluate_many(tree, xs, env).tobytes() == np.concatenate(
        separate).tobytes()
