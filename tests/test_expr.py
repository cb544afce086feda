"""Parser, differentiation and evaluation tests.

Derivative values are frozen from an independent finite-difference oracle
(5-point central differences), recomputed here so the oracle stays in view.
"""

import cmath
import copy
import dataclasses
import gc
import itertools
import math
import operator
import pickle
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from conftest import assert_round_trip

from pdmsusy import expr
from pdmsusy.expr import (Add, Const, EvaluationError, Expr, Func, Mul, Param,
                          ParamEnv, ParseError, PoleError, Sub,
                          UnboundParameterError, Var, add, differentiate,
                          evaluate, evaluate_many, mul, node_counts, parse)
from pdmsusy.model import MassFn, ModelSpec
from pdmsusy.susy2 import build_second_order


def fd_derivative(f, x, h=1e-5):
    """5-point central difference; the independent oracle for first
    derivatives."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def fd_second(f, x, h=1e-4):
    # h balances the O(h^2) truncation against the eps/h^2 roundoff of the
    # 3-point second difference; 1e-5 would be roundoff-dominated
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_worked_superpotential_structure():
    e = parse("exp(i*alpha*x) - sin(x)")
    assert isinstance(e, Sub)
    assert isinstance(e.left, Func) and e.left.name == "exp"
    assert isinstance(e.right, Func) and e.right.name == "sin"


def test_parse_variable_identity():
    assert parse("x") == Var()


def test_parse_sec_square_folds_to_product():
    assert parse("sec(x)^2/4") == parse("(sec(x)*sec(x))/4")


def test_parse_numbers_and_constants():
    assert parse("2.5").value == 2.5
    assert parse("1e-3").value == 1e-3
    assert parse("pi").value == math.pi
    assert parse("i").value == 1j
    assert parse("3.") == Const(3.0)
    assert parse(".5e2") == Const(50.0)
    # identifiers are Unicode words that start with a letter or "_"
    assert parse("α*x") == Mul(Param("α"), Var())
    assert parse("x²") == Param("x²")


def test_unary_minus_binds_looser_than_power():
    assert evaluate(parse("-x^2"), 3.0) == -9.0
    assert evaluate(parse("x^-2"), 2.0) == 0.25
    # right associativity
    assert evaluate(parse("2^3^2"), 0.0) == 512.0


@pytest.mark.parametrize("source", [
    "exp(i*alpha*x)-sin(x)",
    "1/4*sec(x)^2",
    "x^2+i*x",
    "-x^3 + 2*(x - 1/(1+x^2))",
    "sqrt(1+x^2)*tanh(0.5*x)",
    "a*cos(2*x) - i*b*sinh(x)/(1+x^2)",
    "2*i*x - (3.5e-2 + x)^3",
    "log(2+cos(x))^2",
])
def test_print_parse_round_trip(source):
    tree = parse(source)
    assert parse(str(tree)) == tree


def test_print_parse_round_trip_random_trees():
    from pdmsusy.expr import (add, sub, mul, div, pow_, neg, func, Const,
                              Param, Var, FUNCTIONS)
    rng = np.random.default_rng(13)

    def random_tree(depth):
        if depth == 0:
            pick = rng.integers(0, 5)
            if pick == 0:
                return Var()
            if pick == 1:
                return Param("alpha")
            if pick == 2:
                return Const(float(np.round(rng.uniform(-3, 3), 3)))
            if pick == 3:
                return Const(complex(0.0, float(np.round(rng.uniform(-3, 3), 3))))
            return Const(complex(float(np.round(rng.uniform(-2, 2), 2)),
                                 float(np.round(rng.uniform(-2, 2), 2))))
        op = rng.integers(0, 7)
        a = random_tree(depth - 1)
        b = random_tree(depth - 1)
        if op == 0:
            return add(a, b)
        if op == 1:
            return sub(a, b)
        if op == 2:
            return mul(a, b)
        if op == 3:
            return div(a, b)
        if op == 4:
            return pow_(a, Const(float(rng.integers(0, 4))))
        if op == 5:
            return neg(a)
        return func(FUNCTIONS[int(rng.integers(0, len(FUNCTIONS)))], a)

    for _ in range(300):
        assert_round_trip(random_tree(int(rng.integers(1, 5))))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse("1 + $")
    assert err.value.offset == 4
    with pytest.raises(ParseError, match="unknown function 'sech'"):
        parse("sech(x)")
    with pytest.raises(ParseError, match="expected"):
        parse("(1 + x")
    with pytest.raises(ParseError):
        parse("1 + x)")
    with pytest.raises(ParseError):
        parse("sin()")
    # tokens are read lazily, so the first error in reading order wins
    for source, offset, message in (
            ("1.2.3", 0, "malformed number '1.2.3'"),
            (".", 0, "malformed number '.'"),
            ("1e", 1, "unexpected trailing input 'e'"),
            ("1 +) $", 3, "expected an operand, found ')'"),
            ("x y", 2, "unexpected trailing input 'y'"),
            # a literal that overflows a double would render as "inf"
            ("1.5+1e999*x", 4, "number out of range '1e999'")):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert str(err.value) == f"{message} (offset {offset})"
    # "²" is a digit to str.isdigit but no decimal digit: no number, no name
    with pytest.raises(ParseError) as err:
        parse("²")
    assert err.value.offset == 0


DEEP_SOURCES = {
    "parentheses": "(" * 3000 + "x" + ")" * 3000,
    "unary_minus": "-" * 5000 + "x",
    "power_tower": "^".join(["x"] * 3000),
}


@pytest.mark.parametrize("shape", DEEP_SOURCES)
def test_deep_nesting_is_a_parse_error(shape):
    # the recursive-descent parser stops at the recursion limit, which is
    # not raised for the purpose
    limit = sys.getrecursionlimit()
    with pytest.raises(ParseError, match=r"^expression nested too deeply "
                                         r"\(offset \d+\)$") as err:
        parse(DEEP_SOURCES[shape])
    assert 0 < err.value.offset < len(DEEP_SOURCES[shape])
    assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_derivative_of_constant_is_zero():
    assert differentiate(parse("3.7")) == Const(0.0)
    assert differentiate(parse("alpha")) == Const(0.0)


def test_chain_rule_exponential():
    d = differentiate(parse("exp(i*alpha*x)"))
    env = ParamEnv(alpha=1.3)
    for x in (-0.7, 0.0, 0.4, 2.1):
        expected = 1.3j * cmath.exp(1.3j * x)
        assert abs(evaluate(d, x, env) - expected) < 1e-14


def test_second_derivative_of_sec_matches_fd_oracle():
    d2 = differentiate(parse("sec(x)"), 2)
    x = math.pi / 4
    oracle = fd_second(lambda t: 1 / math.cos(t), x).real
    value = evaluate(d2, x)
    assert abs(value - oracle) < 1e-6
    assert abs(value - 3 * math.sqrt(2)) < 1e-12   # 4.242640687...


def test_derivative_order_must_be_positive():
    with pytest.raises(Exception):
        differentiate(parse("x"), 0)


def test_linearity_of_differentiation():
    rng = np.random.default_rng(7)
    f = parse("exp(i*x)*cos(2*x)")
    g = parse("x^3/(1+x^2) + i*sinh(0.3*x)")
    a, b = 1.7 - 0.4j, -0.9 + 2.2j
    combo = Const(a) * f + Const(b) * g
    d_combo = differentiate(combo)
    d_split = Const(a) * differentiate(f) + Const(b) * differentiate(g)
    for x in rng.uniform(-2.0, 2.0, size=100):
        lhs = evaluate(d_combo, float(x))
        rhs = evaluate(d_split, float(x))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("source", [
    "sec(x)*tan(0.4*x)",
    "sqrt(1+x^2)",
    "log(2+cos(x))",
    "exp(i*x) - sin(x)",
    "tanh(x)*cosh(0.5*x)",
    "1/(1+x^2)^2",
    "x^2.5",
])
def test_symbolic_derivative_matches_fd(source):
    tree = parse(source)
    d = differentiate(tree)
    for x in (0.3, 0.9, 1.3):
        oracle = fd_derivative(lambda t: evaluate(tree, t), x)
        value = evaluate(d, x)
        assert abs(value - oracle) <= 1e-6 * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_basics():
    assert evaluate(parse("exp(i*alpha*x)"), 0.0, ParamEnv(alpha=1.0)) == 1.0
    assert abs(evaluate(parse("sec(x)"), math.pi / 4) - math.sqrt(2)) < 1e-15
    # one value per point, also for a tree without x; any iterable of points
    values = evaluate_many(parse("2+a"), np.zeros(4), ParamEnv(a=1j))
    assert values.shape == (4,) and values.dtype == complex
    assert np.all(values == 2 + 1j)
    assert evaluate_many(parse("x^2"), []).shape == (0,)
    assert evaluate_many(parse("alpha*x"), []).shape == (0,)
    squares = evaluate_many(parse("x^2"), (x for x in (1.0, 2.0, 3.0)))
    assert list(squares) == [1.0, 4.0, 9.0]
    # a negated real keeps a +0 imaginary part, so it sits on the principal
    # side of the branch cuts of sqrt, log and fractional powers
    four = parse("-4")
    assert isinstance(four, Const) and math.copysign(1.0, four.value.imag) == 1.0
    assert evaluate(parse("sqrt(-4)"), 0.0) == 2j
    assert evaluate(parse("sqrt(-x)"), 4.0) == 2j
    assert evaluate(parse("log(-1)"), 0.0) == math.pi * 1j
    root = evaluate(parse("(-8)^(1/3)"), 0.0)
    assert abs(root - (1 + math.sqrt(3) * 1j)) < 1e-15


def test_evaluate_is_deterministic():
    e = parse("exp(i*x)*sec(0.3*x) - sqrt(1+x^2)")
    a = evaluate(e, 0.7731)
    b = evaluate(e, 0.7731)
    assert a == b


def test_evaluate_pole_reports_subexpression():
    with pytest.raises(PoleError, match="sec"):
        evaluate(parse("1/4*sec(x)^2"), math.pi / 2)
    with pytest.raises(PoleError):
        evaluate(parse("1/(x-1)"), 1.0)
    # the first failing point of xs in the order given, and there the
    # first failing node of a point-by-point walk
    two_poles = parse("1/(x-1)+1/(x+1)")
    with pytest.raises(PoleError) as err:
        evaluate_many(two_poles, [-1.0, 1.0])
    assert err.value.x == -1.0 and str(err.value.subexpr) == "1/(x+1)"
    with pytest.raises(PoleError) as err:
        evaluate_many(two_poles, [1.0, -1.0])
    assert err.value.x == 1.0 and str(err.value.subexpr) == "1/(x-1)"
    # Div evaluates its denominator before its numerator
    with pytest.raises(PoleError, match=r"pole hit in '1/x/sin\(x\)' at x=0.0"):
        evaluate_many(parse("(1/x)/sin(x)"), [0.0])
    with pytest.raises(PoleError, match=r"overflow in 'exp\(1000\*x\)' at x=1.0"):
        evaluate_many(parse("exp(1000*x)"), [0.0, 1.0])
    with pytest.raises(PoleError, match=r"non-finite value in 'a\*b'"):
        evaluate_many(parse("a*b"), [0.0], ParamEnv(a=1e200, b=1e200))


def test_each_returned_array_is_the_callers_own(monkeypatch):
    # a root's array is returned as its step computed it; a constant root
    # and a second reference to a returned array are copied, so the caller
    # may write to any of them
    computed = []
    step, first = expr._STEPS[Mul]
    monkeypatch.setitem(expr._STEPS, Mul, (
        lambda *args: computed.append(step(*args)) or computed[-1], first))
    e = parse("sin(x)*x")
    xs = np.linspace(0.0, 1.0, 5)
    values = evaluate_many((e, e, expr.X, Const(2)), xs)
    assert values[0] is computed[0]
    for value in values:
        assert value.dtype == complex and value.shape == xs.shape
        assert value.flags.writeable
    for a, b in itertools.combinations(values, 2):
        assert not np.shares_memory(a, b)
    assert values[1].tobytes() == values[0].tobytes()
    assert values[2].tolist() == xs.tolist() and values[3].tolist() == [2] * 5
    single = evaluate_many(Const(2), xs)
    assert single.flags.writeable and single.tolist() == [2] * 5


def test_per_point_parameter_pole_names_its_point():
    # alpha varies per point: the pole of 1/(x-alpha) is hit only where x
    # equals that point's alpha, and log(0) only where alpha is 0; the
    # error is the one a call at the first failing point's alpha alone
    # meets first, naming that x
    e = parse("1/(x-alpha) + log(x*alpha)")
    xs = np.array([0.5, 0.25, 1.5, 0.75, 2.0])
    alphas = np.array([0.25, 1.0, 1.5, 0.5, 0.0])
    with pytest.raises(PoleError) as err:
        evaluate_many(e, xs, ParamEnv(alpha=alphas))
    with pytest.raises(PoleError) as alone:
        evaluate_many(e, [1.5], ParamEnv(alpha=1.5))
    assert err.value.x == 1.5 and str(err.value) == str(alone.value)
    assert str(err.value) == "pole hit in '1/(x-alpha)' at x=1.5"
    # the same point set with the pole's alpha moved is finite everywhere
    moved = evaluate_many(e, xs, ParamEnv(alpha=alphas + 0.125))
    assert moved.tolist() == [
        evaluate(e, x, ParamEnv(alpha=a)) for x, a in zip(xs, alphas + 0.125)]


@pytest.mark.parametrize("values, message", [
    (np.ones((2, 2)), r"parameter 'alpha' must be a number or a 1-D array, "
                      r"got shape \(2, 2\)"),
    ([1.0, 2.0], r"parameter 'alpha' has 2 values for 3 points"),
    (np.ones(4), r"parameter 'alpha' has 4 values for 3 points")])
def test_per_point_parameter_of_the_wrong_shape_raises_first(monkeypatch,
                                                             values, message):
    runs = []
    monkeypatch.setattr(expr._Plan, "run", lambda plan: runs.append(plan))
    with pytest.raises(ValueError, match=message):
        evaluate_many(parse("x*alpha"), [0.0, 1.0, 2.0],
                      ParamEnv(alpha=values, beta=2.0))
    assert runs == []


def test_per_point_parameter_arrays_are_read_only_copies():
    alphas = np.array([1.0, 2.0, 3.0])
    env = ParamEnv(alpha=alphas)
    held = env.lookup("alpha")
    alphas[0] = 7.0                     # the caller's array stays the caller's
    assert held.tolist() == [1.0, 2.0, 3.0] and not held.flags.writeable
    assert env.lookup("alpha") is held
    with pytest.raises(ValueError):
        held[0] = 5.0
    # a root that is the bare parameter comes back as a fresh, writable array
    values = evaluate_many((Param("alpha"), parse("2*alpha")), np.zeros(3), env)
    assert values[0].tolist() == [1.0, 2.0, 3.0] and values[0].flags.writeable
    assert not np.shares_memory(values[0], held)
    values[0][0] = 9.0
    assert held.tolist() == [1.0, 2.0, 3.0]
    assert values[1].tolist() == [2.0, 4.0, 6.0]


def test_unbound_parameter_is_an_error_not_zero():
    with pytest.raises(UnboundParameterError, match="alpha"):
        evaluate(parse("alpha*x"), 1.0)
    # also where no other node reads it
    with pytest.raises(UnboundParameterError, match="alpha"):
        evaluate_many((parse("x"), parse("-alpha")), [1.0, 2.0])
    # a pole met before the parameter at the first point is reported instead
    with pytest.raises(PoleError, match="at x=0.0"):
        evaluate_many(parse("1/x + alpha"), [0.0, 1.0])
    with pytest.raises(UnboundParameterError):
        evaluate_many(parse("1/x + alpha"), [1.0, 0.0])


def test_sentinel_overflow_on_finite_values_returns_the_values(monkeypatch):
    # at x = 1 every value is finite, but the sum the run keeps per point
    # of the values it watches, the denominators 1e308 and 1e308 and the
    # root 0, is not (nor at x = -1): each such point is replayed alone, no
    # check fails, and the run's values are returned, at x = 0.5 too
    runs, compiles = [], []
    run, compile_ = expr._Plan.run, expr._compile
    monkeypatch.setattr(expr._Plan, "run", lambda plan: runs.append(
        (plan.raising, plan.xs.tolist())) or run(plan))
    monkeypatch.setattr(expr, "_compile",
                        lambda roots: compiles.append(roots) or compile_(roots))
    e = parse("1e308*x/(1e308*x^2) - 1e308*x/(1e308*x^4)")
    two_x = parse("2*x")
    xs = [0.5, 1.0, -1.0]
    assert evaluate_many(e, xs).tolist() == [-6.0, 0.0, 0.0]
    assert runs == [(False, xs), (True, [1.0]), (True, [-1.0])]
    # the replays run the call's steps: one compile, not one per point
    assert compiles == [(e,)]
    runs.clear()
    compiles.clear()
    # of a tuple, each expression is compiled and runs again alone before
    # its own replays
    values = evaluate_many((e, two_x), xs)
    assert [v.tolist() for v in values] == [[-6.0, 0.0, 0.0],
                                            [1.0, 2.0, -2.0]]
    assert runs == [(False, xs), (False, xs), (True, [1.0]), (True, [-1.0]),
                    (False, xs)]
    assert compiles == [(e, two_x), (e,), (two_x,)]


# ---------------------------------------------------------------------------
# hash-consing: one object per structure, one evaluation per unique node
# ---------------------------------------------------------------------------

def test_structurally_identical_nodes_are_one_object():
    source = "exp(i*alpha*x)*sec(x)^2 - 1/(1+x^2)"
    assert parse(source) is parse(source)
    assert Sub(Const(0.0), Var()) is Sub(Const(0), Var())
    assert Func("sin", Var()) is Func(name="sin", arg=Var())
    e = parse(source)
    assert copy.deepcopy(e) is e and pickle.loads(pickle.dumps(e)) is e


def test_signed_zero_constants_stay_apart():
    # two nodes, unequal: the sign of a zero picks the side of a branch cut
    below, above = Const(complex(-1.0, -0.0)), Const(complex(-1.0, 0.0))
    assert below is not above and below != above
    assert Const(0.0) is not Const(-0.0) and Const(0.0) != Const(-0.0)
    roots = {Func("sqrt", below), Func("sqrt", above)}
    assert len(roots) == 2
    assert {evaluate(r, 0.0) for r in roots} == {-1j, 1j}
    assert evaluate(Func("log", below), 0.0).imag == -math.pi
    assert evaluate(Func("log", above), 0.0).imag == math.pi
    assert Add(Var(), Const(0.0)) is not Add(Var(), Const(-0.0))


@pytest.mark.parametrize("build, a, b, kept", [
    *((build, 1.5 - 2j, 0.25 + 1j, None)
      for build in (expr.add, expr.sub, expr.mul, expr.div, expr.pow_)),
    (expr.div, 1.0, 0.0, expr.Div),        # raises ZeroDivisionError
    (expr.pow_, 0.0, -1.0, expr.Pow),      # raises ZeroDivisionError
    (expr.mul, 1e308, 10.0, expr.Mul)])    # overflows to inf
def test_constant_folding(build, a, b, kept):
    e = build(Const(a), Const(b))
    if kept is None:
        op = {expr.add: operator.add, expr.sub: operator.sub,
              expr.mul: operator.mul, expr.div: operator.truediv,
              expr.pow_: operator.pow}[build]
        assert e is Const(op(complex(a), complex(b)))
    else:
        assert type(e) is kept and e._args == (Const(a), Const(b))


def test_finished_expressions_are_freed():
    node = Mul(Param("only_here"), Var())
    ref = weakref.ref(node)
    del node
    assert ref() is None
    # nor does the intern table keep the entries of dead nodes for long
    for k in range(20_000):
        Add(Param(f"p{k}"), Var())
    assert len(expr._NODES) < 5_000


def test_a_late_removal_keeps_a_live_node_of_its_structure():
    # a collection clears the references of dead nodes before it runs their
    # callbacks, so a dead node's entry may be replaced by a new node of its
    # structure first; the dead node's callback then leaves the entry
    name = Param("late_removal")        # its id stays in the key
    node = Mul(name, Var())
    key, = [k for k, ref in expr._NODES.items() if ref() is node]
    dead = expr._NODES[key]
    del node
    assert dead() is None and key not in expr._NODES
    live = Mul(name, Var())
    expr._forget(dead)          # the callback, run late
    assert expr._NODES[key]() is live
    assert Mul(Param("late_removal"), Var()) is live


def test_interning_holds_under_threads_that_build_and_drop():
    # threads build the same new structures at once, dropping each batch
    # before the next, so table hits, misses and the removals of dead
    # entries interleave; the batches they hold at the end are one object
    # per structure, and the table keeps no entry of a dropped node
    before = len(expr._NODES)
    barrier = threading.Barrier(6)
    held = []

    def build():
        barrier.wait()
        for _ in range(30):
            batch = [Add(Param(f"churn_{k}"), Mul(Const(k + 0.5), Var()))
                     for k in range(40)]
        held.append(batch)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(held) == len(threads)
    for same in zip(*held):
        assert all(e is same[0] for e in same)
    del same, held
    gc.collect()
    assert len(expr._NODES) <= before


def test_deep_expressions_need_no_recursion():
    deep = parse("+".join(["x"] * 5000))
    assert evaluate(deep, 0.5) == 2500
    assert evaluate(differentiate(deep), 0.5) == 5000
    assert node_counts(deep) == (9999, 5000)
    assert parse(str(deep)) is deep


def test_failure_deep_in_an_expression_is_reported():
    # the error message prints the failing node, 700 levels deep
    e = parse("(" + "+".join(["x"] * 700) + ")*1e308")
    with pytest.raises(PoleError, match="non-finite value") as info:
        evaluate(e, 1.0)
    assert info.value.x == 1.0


def test_node_counts():
    t = parse("x+1")
    shared = add(t, mul(t, t))
    assert node_counts(shared) == (11, 5)
    assert node_counts(parse("x")) == (1, 1)


def _unique_ids(*roots):
    unique, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in unique:
            unique.add(id(node))
            stack += [getattr(node, f.name) for f in dataclasses.fields(node)
                      if isinstance(getattr(node, f.name), Expr)]
    return unique


def test_dag_walk_evaluates_each_unique_node_once(monkeypatch):
    spec = ModelSpec(order=2, mass=MassFn(parse("sec(x)"), 0.05, 1.5),
                     susy_constants=(-3.0, 2.0), params=ParamEnv(alpha=1.0),
                     superpotential=parse("exp(i*alpha*x)-sin(x)"))
    vtilde = build_second_order(spec).vtilde
    d4 = differentiate(vtilde, 4)
    assert node_counts(d4) == (1_789_323, len(_unique_ids(d4)))
    visits, plans = Counter(), {}

    def counted(step):
        def count(plan, e, *operands):
            visits[id(e)] += 1
            plans.setdefault(id(plan), (weakref.ref(plan), plan.values,
                                        plan.raising))
            return step(plan, e, *operands)
        return count

    for kind, (step, first) in list(expr._STEPS.items()):
        monkeypatch.setitem(expr._STEPS, kind, (counted(step), first))
    xs = np.linspace(0.05, 1.5, 1000)
    # one root, and a tuple whose roots share most of their nodes
    for roots in (d4, (d4, vtilde, differentiate(vtilde, 2), d4)):
        visits.clear()
        plans.clear()
        gc.disable()        # what outlives the call is found without it
        try:
            values = evaluate_many(roots, xs, spec.params)
            outlived = [plan() for plan, _, _ in plans.values()]
        finally:
            gc.enable()
        assert np.all(np.isfinite(values))
        if isinstance(roots, tuple):
            assert len(values) == 4 and values[0].tobytes() == values[3].tobytes()
        assert set(visits) == _unique_ids(*(roots if isinstance(roots, tuple)
                                            else (roots,)))
        assert set(visits.values()) == {1}
        # one run, which raised nothing, whose plan is gone with the call,
        # and which dropped every array once its last reader had read it
        (_, arrays, raising), = plans.values()
        assert not raising and outlived == [None]
        assert all(value is None for value in arrays)


def test_each_call_compiles_its_roots_once(monkeypatch):
    # a plan lives for one call: each call compiles its roots once, whatever
    # ran before it, and gives the same values and the same errors in
    # either order; a failing call also compiles the root it replays
    e = parse("1/(x-a) + sin(a*x)")
    roots = (e, differentiate(e))
    xs = [0.0, 0.3, 1.0]
    compiles = []
    compile_ = expr._compile
    monkeypatch.setattr(expr, "_compile",
                        lambda roots: compiles.append(roots) or compile_(roots))

    def outcome(points, env):
        compiles.clear()
        try:
            result = [v.tobytes() for v in evaluate_many(roots, points, env)]
        except EvaluationError as exc:
            result = type(exc), str(exc), getattr(exc, "x", None)
        return result, list(compiles)

    calls = [(xs, {"a": 0.5}), (xs, {"a": 2.0}), ([0.0, 0.25], {"a": 0.25}),
             (xs, {})]
    first = [outcome(*call) for call in calls]
    assert first[2][0] == (PoleError, "pole hit in '1/(x-a)' at x=0.25", 0.25)
    assert first[3][0][:2] == (UnboundParameterError, "unbound parameter 'a'")
    assert [compiled for _, compiled in first] == [
        [roots], [roots], [roots, roots[:1]], [roots, roots[:1]]]
    assert [outcome(*call) for call in reversed(calls)] == first[::-1]
    # a tuple of other roots is compiled once per call as well
    compiles.clear()
    evaluate_many(roots[::-1], xs, {"a": 0.5})
    evaluate_many(roots[::-1], xs[:1], {"a": 1.5})
    assert compiles == [roots[::-1]] * 2


def test_compiled_plans_hold_across_threads():
    # threads that evaluate tuples of roots that share nodes, and compile
    # their plans at once, each get their own call's values
    e = parse("sin(x)/(1+x^2) + exp(-beta_t*x)")
    tuples = [(e, differentiate(e, k % 3 + 1), parse(f"x^{k}"))
              for k in range(16)]
    xs = np.linspace(-1.0, 1.0, 5)
    calls = [(roots, beta) for roots in tuples for beta in (0.5, 2.0)]
    expected = [[v.tobytes() for v in evaluate_many(roots, xs, {"beta_t": b})]
                for roots, b in calls]
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: got.append(
            [[v.tobytes() for v in evaluate_many(roots, xs, {"beta_t": b})]
             for roots, b in calls])) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [expected] * len(threads)


def test_derivative_is_kept_on_its_node(monkeypatch):
    e = parse("exp(i*alpha*x)*sec(x)^2 - 1/(1+beta_kept*x^2)")
    d2 = differentiate(e, 2)
    # a repeated call rebuilds nothing: every node already knows its
    # derivative
    monkeypatch.setattr(expr, "_d", None)
    assert differentiate(e) is differentiate(e) and differentiate(e, 2) is d2
    assert differentiate(differentiate(e)) is d2


def test_no_node_outlives_its_users():
    # the derivative kept on a node may make cycles (d exp(u) holds
    # exp(u)), which the collector frees
    def cycle(name):
        e = parse(f"exp({name}*x)/(1+x^2) + x^x")
        differentiate(e, 2)
        evaluate(e, 0.5, {name: 1.0})
        evaluate_many((e, differentiate(e)), [0.5, 0.7], {name: 1.0})
        return weakref.ref(e)

    ref = cycle("gamma")
    gc.collect()
    assert ref() is None
    for k in range(2_000):
        cycle(f"gamma_{k}")
    assert len(expr._NODES) < 5_000


def test_overflow_inside_a_finite_value_is_reported():
    # exp(1000*x) overflows and 1/inf is 0: only the overflow of the inner
    # node shows that the value is wrong
    with pytest.raises(PoleError, match=r"overflow in 'exp\(1000\*x\)' at x=1.0"):
        evaluate(parse("1/exp(1000*x)"), 1.0)


def test_interning_holds_across_threads():
    # threads that build the same new nodes at once still share one object
    # per structure; a lost update in the intern table would split them
    sources = [f"sin({k}*x)+x^{k}/(1+gamma_{k}*x)-cos(x)*{k}" for k in range(60)]
    built = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: built.append(
            [parse(s) for s in sources])) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == len(threads)
    for same in zip(*built):
        assert all(e is same[0] for e in same)
