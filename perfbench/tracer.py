"""Spans and counters around fqinv's public functions, installed from
outside the package.

A Tracer replaces each traced function by a wrapper and rebinds every
module-level or class-level name that pointed at the original, so calls
made through `from .algebra import tensor_act` style imports are seen
too.  Each call records a span (name, start, end, parent index) in
memory; `summary` folds the spans into per-name calls, total and self
time, and the size attributes some wrappers add.

Field operations are far too frequent for spans; `count_field_ops`
swaps FieldSpec.add/mul/neg/inv for counting versions instead, in a
separate pass.
"""

import math
import sys
import time
from collections import defaultdict


def _poly_mul_attrs(args, result):
    a, b = args[0], args[1]
    nb = len(b.terms) if hasattr(b, "terms") else 1
    return {"pairs": len(a.terms) * nb, "terms_out": len(result.terms)}


_KINDS = {}


def _subst_kind(rows):
    """The kind of a substitution, cached per matrix: tensor_act
    substitutes the same rows into every part of an element."""
    rows = tuple(tuple(r) for r in rows)
    kind = _KINDS.get(rows)
    if kind is None:
        kind = _KINDS[rows] = _classify_rows(rows)
    return kind


def _classify_rows(rows):
    """transvection: identity plus one off-diagonal entry; monomial: one
    nonzero per row and column; dense: anything else."""
    n = len(rows)
    nonzero = [[j for j, c in enumerate(r) if c] for r in rows]
    off = [(i, j) for i in range(n) for j in nonzero[i] if i != j]
    diag_one = all(rows[i][i] == 1 for i in range(n))
    if len(off) == 1 and diag_one:
        return "transvection"
    cols = sorted(j for nz in nonzero for j in nz)
    if all(len(nz) == 1 for nz in nonzero) and cols == list(range(n)):
        return "monomial"
    return "dense"


def _subst_name(args, kwargs):
    rows = kwargs["rows"] if "rows" in kwargs else args[1]
    return "algebra.substitute_linear." + _subst_kind(rows)


def _subst_attrs(args, result):
    return {"terms_in": len(args[0].terms), "terms_out": len(result.terms)}


def _o_poly_name(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "product")
    return f"dickson.o_poly.{method}"


def _fixed_dim_attrs(args, result):
    # size of monomial_basis(field, n, d): sum over (poly degree k,
    # exterior length r) blocks with 2k + r = d
    group, d = args[0], args[1]
    n = group.n if hasattr(group, "n") else list(group)[0].n
    size = sum(math.comb(k + n - 1, n - 1) * math.comb(n, d - 2 * k)
               for k in range(d // 2 + 1) if d - 2 * k <= n)
    return {"basis": size}


def _bfs_attrs(args, result):
    return {"visited": result}


# (module, attribute path, span name or namer, attribute function)
TRACED = [
    ("field", "make_field", "field.make_field", None),
    ("algebra", "Polynomial.__mul__", "algebra.Polynomial.__mul__", _poly_mul_attrs),
    ("algebra", "Polynomial.substitute_linear", _subst_name, _subst_attrs),
    ("algebra", "exact_divide", "algebra.exact_divide", None),
    ("algebra", "tensor_act", "algebra.tensor_act", None),
    ("algebra", "from_json", "algebra.from_json", None),
    ("algebra", "to_json", "algebra.to_json", None),
    ("milnor", "milnor_q", "milnor.milnor_q", None),
    ("milnor", "milnor_composite", "milnor.milnor_composite", None),
    ("dickson", "dickson_e", "dickson.dickson_e", None),
    ("dickson", "dickson_c", "dickson.dickson_c", None),
    ("dickson", "f_poly", "dickson.f_poly", None),
    ("dickson", "delta_poly", "dickson.delta_poly", None),
    ("dickson", "o_poly", _o_poly_name, None),
    ("dickson", "theorem_basis", "dickson.theorem_basis", None),
    ("groups", "gens_standard", "groups.gens_standard", None),
    ("groups", "gens_case", "groups.gens_case", None),
    ("groups", "is_invariant", "groups.is_invariant", None),
    ("groups", "group_order_bfs", "groups.group_order_bfs", _bfs_attrs),
    ("fixedpoint", "fixed_dim", "fixedpoint.fixed_dim", _fixed_dim_attrs),
    ("fixedpoint", "case_elements", "fixedpoint.case_elements", None),
    ("fixedpoint", "wilkerson_check", "fixedpoint.wilkerson_check", None),
    ("fixedpoint", "wilkerson_phi", "fixedpoint.wilkerson_phi", None),
    ("fixedpoint", "verify_module", "fixedpoint.verify_module", None),
    ("cli", "main", "cli.main", None),
]


def _rebind(old, new):
    """Point every fqinv module or class name bound to `old` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if modname != "fqinv" and not modname.startswith("fqinv."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is old:
                        setattr(value, cattr, new)


class Tracer:
    """In-memory span recorder; install() wraps TRACED in place."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, outermost]
        self.attrs = defaultdict(int)
        self._stack = []
        self._depth = defaultdict(int)

    def _wrap(self, fn, name, attrs_fn):
        spans, stack, depth, attrs = self.spans, self._stack, self._depth, self.attrs
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            # naming and size attributes are timed inside the span, so the
            # tracer's own work is not charged to the caller's self time
            start = clock()
            span_name = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = depth[span_name] == 0
            depth[span_name] += 1
            try:
                result = fn(*args, **kwargs)
                if attrs_fn is not None and result is not NotImplemented:
                    for key, value in attrs_fn(args, result).items():
                        attrs[f"{span_name}.{key}"] += value
            finally:
                end = clock()
                depth[span_name] -= 1
                stack.pop()
                spans[idx] = (span_name, start, end, parent, outer)
            return result

        return wrapper

    def install(self):
        import fqinv  # noqa: F401  (loads every submodule)

        for modname, path, name, attrs_fn in TRACED:
            owner = sys.modules[f"fqinv.{modname}"]
            *outer, leaf = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            _rebind(original, self._wrap(original, name, attrs_fn))

    def summary(self):
        """Per span name: calls, total_s (outermost spans only, so
        recursion is not double counted), self_s (duration minus the
        time of direct children); plus root_s, the time under any span."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        root_s = 0.0
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, outer = span
            stats = out[name]
            stats["calls"] += 1
            if outer:
                stats["total_s"] += end - start
            stats["self_s"] += end - start - child_time[idx]
            if parent < 0:
                root_s += end - start
        return {"spans": dict(out), "attrs": dict(self.attrs), "root_s": root_s}

    def dump_spans(self, path):
        """Write the raw spans as JSON lines: name, start, end, parent."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span[:4]) + "\n")


def count_field_ops():
    """Replace FieldSpec.add/mul/neg/inv by counting versions; returns the
    live counter dict."""
    from fqinv.field import FieldSpec

    counts = {}
    for op in ("add", "mul", "neg", "inv"):
        counts[op] = 0
        original = getattr(FieldSpec, op)

        def counted(self, *args, _op=op, _fn=original):
            counts[_op] += 1
            return _fn(self, *args)

        setattr(FieldSpec, op, counted)
    return counts
