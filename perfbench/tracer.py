"""Span tracer that wraps the public functions of the pdmsusy modules from
outside the package.

Several modules import functions by name (``from .expr import
evaluate_many``), so replacing a function in its defining module alone
would miss those calls.  ``install`` therefore replaces every binding of a
wrapped function object in every loaded ``pdmsusy`` module; ``uninstall``
puts the originals back.  Spans (name, start, end, parent span, invocation
id) are kept in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "pdmsusy"

# Functions wrapped per module; None wraps every public function (the
# module's ``__all__``).  The expr node constructors (add, mul, ...) and
# substitute_x run once per expression node, so a span there would cost more
# than the work it measures.
WRAPPED = {
    "expr": ("parse", "differentiate", "evaluate", "evaluate_many"),
    "model": None, "susy1": None, "susy2": None, "susyn": None,
    "discrete": None,
    "cli": ("main", "run", "spectrum_report", "paper_examples", "emit_curves",
            "load_config", "build_model"),
}

# (module, class, method) wrapped on the class.
METHODS = (("model", "MassFn", "validate"),)

# Spans whose returned operators build the assembly metrics.
ASSEMBLY = ("discrete.assemble_hamiltonian", "discrete.assemble_charge",
            "discrete.parity_matrix")

# The cli functions whose self time is ``cli.self_s``.
CLI_SELF = ("cli.main", "cli.run", "cli.spectrum_report", "cli.paper_examples",
            "cli.emit_curves")


def _targets():
    """(span name, owner, attribute) of each function to wrap that exists."""
    out = []
    for mod_name, names in WRAPPED.items():
        mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
        if mod is None:
            continue
        for fn in getattr(mod, "__all__", ()) if names is None else names:
            obj = vars(mod).get(fn)
            if callable(obj) and not isinstance(obj, type):
                out.append((f"{mod_name}.{fn}", mod, fn))
    for mod_name, cls_name, meth in METHODS:
        cls = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), cls_name, None)
        if cls is not None and callable(vars(cls).get(meth)):
            out.append((f"{mod_name}.{meth}", cls, meth))
    return out


class Tracer:
    """Records spans while installed; aggregates them per traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, invocation, failed]
        self.invocation = -1
        self._stack = []
        self._originals = {}     # (owner, attr) -> original object
        self.present = set()     # span names whose function exists
        self.vtilde_sizes = []   # (tree, unique, object nodes) per potential
        self.observed = defaultdict(list)   # span name -> [(n, nbytes)]

    def install(self) -> None:
        wrappers = {}            # id(original) -> (original, wrapper)
        for span, owner, attr in _targets():
            original = vars(owner)[attr]
            self.present.add(span)
            if id(original) not in wrappers:
                wrappers[id(original)] = (original, self._wrap(span, original))
            self._replace(owner, attr, wrappers[id(original)][1])
        # every other binding of the same function object in the package
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == PACKAGE
                                   or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(mod, attr, hit[1])

    def _replace(self, owner, attr, wrapper) -> None:
        self._originals.setdefault((owner, attr), vars(owner)[attr])
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for (owner, attr), original in self._originals.items():
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        tracer = self
        observe = _observer(name)
        clock = time.perf_counter
        # evaluate_many accepts any iterable; a list keeps it countable
        listify = name == "expr.evaluate_many"

        def wrapper(*args, **kwargs):
            if listify and len(args) >= 2 and not hasattr(args[1], "__len__"):
                args = (args[0], list(args[1])) + args[2:]
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.invocation, False]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """Calls, total time, self time and errors per span name, summed
        over all recorded spans."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, inv, failed in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "errors": 0})
        for idx, (name, t0, t1, parent, inv, failed) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += (t1 - t0) - child_time[idx]
            # total time counts only outermost spans of the same name
            if parent < 0 or self.spans[parent][0] != name:
                s["total_s"] += t1 - t0
            s["errors"] += failed
        return stats

    def binding_gaps(self, must_fire, must_not_fire) -> list:
        """Names of predicted spans that did not fire, or fired when
        predicted not to; spans whose function no longer exists are
        skipped."""
        fired = defaultdict(int)
        for record in self.spans:
            fired[record[0]] += 1
        gaps = [f"{name} recorded no calls" for name in must_fire
                if name in self.present and fired[name] == 0]
        gaps += [f"{name} recorded {fired[name]} calls, predicted 0"
                 for name in must_not_fire if fired[name] != 0]
        return gaps


def _observer(name: str):
    """Extra counters taken at a span boundary from arguments and results."""
    if name == "expr.evaluate_many":
        def points(tracer, args, result):
            tracer.observed[name].append((len(args[1]), 0))
        return points
    if name in ASSEMBLY:
        def operator(tracer, args, result):
            tracer.observed[name].append((_rows(result), _nbytes(result)))
        return operator
    if name == "discrete.dense_eigenvalues":
        def matrix(tracer, args, result):
            tracer.observed[name].append((int(np.shape(args[0])[0]), 0))
        return matrix
    if name in ("susy1.build_first_order", "susy2.build_second_order"):
        def potential(tracer, args, result):
            vtilde = getattr(result, "vtilde", None)
            if vtilde is not None:
                tracer.vtilde_sizes.append(expression_size(vtilde))
        return potential
    return None


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        return [obj]
    fields = vars(obj) if hasattr(obj, "__dict__") else {}
    return [v for v in fields.values() if isinstance(v, np.ndarray)]


def _nbytes(obj) -> int:
    return int(sum(a.nbytes for a in _arrays(obj)))


def _rows(obj) -> int:
    n = getattr(obj, "n", None)
    if isinstance(n, int):
        return n
    arrays = _arrays(obj)
    return int(arrays[0].shape[0]) if arrays else 0


def _children(node):
    """(child nodes, scalar fields) of an expression node."""
    if dataclasses.is_dataclass(node):
        values = [getattr(node, f.name) for f in dataclasses.fields(node)]
    else:
        values = list(getattr(node, "__dict__", {}).values())
    node_type = type(node).__mro__[-2]     # the common expression base
    kids = [v for v in values if isinstance(v, node_type)]
    return kids, tuple(v for v in values if not isinstance(v, node_type))


def expression_size(root) -> tuple:
    """(tree nodes, structurally unique nodes, distinct node objects) of an
    expression.  The tree count is the work of a plain tree walk, the unique
    count the work of an evaluation that computes each distinct
    subexpression once; hash-consing brings the object count down to the
    unique count."""
    canon = {}        # id(node) -> canonical id of its structure
    interned = {}     # structure key -> canonical id
    tree = {}         # id(node) -> tree size
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in canon:
            continue
        kids, scalars = _children(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in canon)
            continue
        key = (type(node).__name__, scalars,
               tuple(canon[id(k)] for k in kids))
        canon[id(node)] = interned.setdefault(key, len(interned))
        tree[id(node)] = 1 + sum(tree[id(k)] for k in kids)
    return tree[id(root)], len(interned), len(canon)
