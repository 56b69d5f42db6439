"""Command line interface.

Subcommands compute Dickson and determinant-type invariants, apply group
generators to serialized elements, and run the degreewise module
verification for the built-in case labels.  Output is compact JSON by
default; --pretty switches to a human readable rendering.  Exit status
is 0 on success (and on a verification that matches everywhere), 1 when
a verification or cross-check mismatches, 2 on usage errors.
"""

import argparse
import json
import sys

from .algebra import TensorElement, from_json, pretty, pretty_polynomial, to_json
from .dickson import dickson_c, dickson_e, mui_bracket, mui_q, o_poly
from .errors import CaseFieldMismatch, FqinvError, IndexOutOfRange, SerializationError
from .field import make_field
from .fixedpoint import _KINDS, case_group, fixed_dim, parse_case, verify_module
from .groups import act, group_order_bfs


def _parse_indices(text):
    """Comma separated ints -> tuple; empty or missing -> ()."""
    if text is None:
        return ()
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise FqinvError(f"bad index list {text!r}: {exc}") from None


def _field_from_args(args):
    modulus = None
    if args.modulus is not None:
        modulus = list(_parse_indices(args.modulus))
    return make_field(args.p, args.e, modulus)


def _emit(args, text):
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def _emit_element(args, u, var="x"):
    _emit(args, pretty(u, var) if args.pretty else to_json(u))


def _emit_polynomial(args, poly):
    if args.pretty:
        _emit(args, pretty_polynomial(poly))
    else:
        _emit(args, to_json(TensorElement.from_polynomial(poly)))


def _cmd_dickson(args):
    field = _field_from_args(args)
    if args.index is None:
        poly = dickson_e(field, args.n)
    else:
        poly = dickson_c(field, args.n, args.index)
    _emit_polynomial(args, poly)
    return 0


def _cmd_mui(args):
    field = _field_from_args(args)
    indices = _parse_indices(args.I)
    if args.det_form:
        if args.r is None:
            args.parser.error("--det-form needs --r")
        u = mui_bracket(field, args.r, indices, args.n)
    else:
        u = mui_q(field, indices, args.n)
    _emit_element(args, u)
    return 0


def _cmd_opoly(args):
    field = _field_from_args(args)
    _emit_polynomial(args, o_poly(field, args.n, args.i))
    return 0


def _render_report(rep):
    lines = [f"case {rep.case}", "degree  computed  predicted"]
    for r in rep.rows:
        mark = "ok" if r.match else "MISMATCH"
        lines.append(f"{r.degree:6d}  {r.computed:8d}  {r.predicted:9d}  {mark}")
    lines.append("invariance:")
    for name, flag in rep.invariance:
        lines.append(f"  {name}  {'ok' if flag else 'NOT INVARIANT'}")
    w = rep.wilkerson
    prod = "*".join(str(h) for h in w.half_degrees)
    mark = "ok" if w.product_matches else "MISMATCH"
    lines.append(f"degree product: {prod} = {w.degree_product}, "
                 f"group order {w.group_order}, {mark}")
    if w.phi is not None:
        lines.append("vanishing witness: " + ("ok" if w.phi.ok else "FAILED"))
    lines.append("result: " + ("PASS" if rep.ok else "FAIL"))
    return "\n".join(lines)


def _cmd_verify(args):
    case = parse_case(args.case)
    rep = verify_module(case, args.max_degree)
    _emit(args, _render_report(rep) if args.pretty else _dumps(rep.to_json_dict()))
    return 0 if rep.ok else 1


def _cmd_fixed_dim(args):
    case = parse_case(args.case)
    dim = fixed_dim(case_group(case), args.degree)
    if args.pretty:
        _emit(args, f"case {case.label} degree {args.degree}: dim {dim}")
    else:
        _emit(args, _dumps({"case": case.label, "d": args.degree, "dim": dim}))
    return 0


def _cmd_order(args):
    case = parse_case(args.case)
    group = case_group(case)
    if args.bfs:
        found = group_order_bfs(group, cap=args.cap)
        match = found == group.order
        if args.pretty:
            mark = "ok" if match else f"MISMATCH (formula {group.order})"
            _emit(args, f"case {case.label}: order {found} (bfs), {mark}")
        else:
            _emit(args, _dumps({"case": case.label, "order": found,
                                "method": "bfs",
                                "formula_order": group.order,
                                "match": match}))
        return 0 if match else 1
    if args.pretty:
        _emit(args, f"case {case.label}: order {group.order} (formula)")
    else:
        _emit(args, _dumps({"case": case.label, "order": group.order,
                            "method": "formula"}))
    return 0


def _cmd_act(args):
    case = parse_case(args.case)
    group = case_group(case)
    with open(args.input, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SerializationError(f"{args.input} is not UTF-8: {exc}") from exc
    u = from_json(text)
    if u.field != case.field:
        raise CaseFieldMismatch(
            f"input element lives over F_{u.field.q}, "
            f"case {case.label} needs F_{case.field.q}")
    if u.n != case.n:
        raise CaseFieldMismatch(
            f"input element has {u.n} variables, case {case.label} has {case.n}")
    k = args.generator
    if not 0 <= k < len(group.generators):
        raise IndexOutOfRange(
            f"generator index {k} out of range, case {case.label} has "
            f"{len(group.generators)} generators")
    # named cases print in t, family cases in x
    var = "x" if _KINDS[case.kind].q is None else "t"
    _emit_element(args, act(group.generators[k], u), var)
    return 0


def _add_field_options(sp):
    sp.add_argument("--p", type=int, required=True,
                    help="field characteristic, an odd prime")
    sp.add_argument("--e", type=int, default=1,
                    help="extension degree (default 1)")
    sp.add_argument("--modulus", default=None,
                    help="monic irreducible modulus as comma separated "
                         "coefficients, constant term first (needed for e > 1)")


def _add_output_options(sp):
    sp.add_argument("--pretty", action="store_true",
                    help="human readable output instead of JSON")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write output to FILE instead of stdout")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fqinv",
        description="Exact invariants of finite matrix groups acting on a "
                     "polynomial tensor exterior algebra over an odd finite "
                     "field.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    d = sub.add_parser(
        "dickson",
        help="top Dickson invariant e_n, or coefficient c_{n,i} with --index")
    _add_field_options(d)
    d.add_argument("--n", type=int, required=True, help="number of variables")
    d.add_argument("--index", type=int, default=None,
                   help="coefficient index i in 0..n (omit for e_n)")
    _add_output_options(d)
    d.set_defaults(handler=_cmd_dickson, parser=d)

    m = sub.add_parser(
        "mui",
        help="derivation image Q_I(dx_1...dx_n), or the determinant "
             "form with --det-form")
    _add_field_options(m)
    m.add_argument("--n", type=int, required=True, help="number of variables")
    m.add_argument("--I", default=None,
                   help="comma separated derivation indices, e.g. 0,2 "
                        "(empty for the exterior top class)")
    m.add_argument("--det-form", action="store_true",
                   help="compute the determinant form [r: i_1,...] instead; "
                        "--I then lists the column exponents")
    m.add_argument("--r", type=int, default=None,
                   help="number of exterior rows in the determinant form")
    _add_output_options(m)
    m.set_defaults(handler=_cmd_mui, parser=m)

    o = sub.add_parser(
        "opoly", help="orbit product of x_i over the span of x_2..x_n")
    _add_field_options(o)
    o.add_argument("--n", type=int, required=True, help="number of variables")
    o.add_argument("--i", type=int, required=True, help="variable index, 1-based")
    _add_output_options(o)
    o.set_defaults(handler=_cmd_opoly, parser=o)

    v = sub.add_parser(
        "verify",
        help="compare fixed-space dimensions with the predicted module "
             "series for a case label")
    families = [f"{kind}(n,q)" for kind, row in _KINDS.items() if row.q is None]
    named = [kind for kind, row in _KINDS.items() if row.q is not None]
    v.add_argument("--case", required=True,
                   help=f"{', '.join(families)} with prime q, or "
                        f"{', '.join(named)}")
    v.add_argument("--max-degree", type=int, default=None,
                   help="verify total degrees 0..D (default: case schedule)")
    _add_output_options(v)
    v.set_defaults(handler=_cmd_verify, parser=v)

    f = sub.add_parser(
        "fixed-dim", help="dimension of the invariant subspace in one degree")
    f.add_argument("--case", required=True, help="case label, as for verify")
    f.add_argument("--degree", type=int, required=True, help="total degree")
    _add_output_options(f)
    f.set_defaults(handler=_cmd_fixed_dim, parser=f)

    r = sub.add_parser("order", help="group order of a case presentation")
    r.add_argument("--case", required=True, help="case label, as for verify")
    r.add_argument("--bfs", action="store_true",
                   help="enumerate the generated group and cross-check "
                        "the closed-form order")
    r.add_argument("--cap", type=int, default=10 ** 6,
                   help="element cap for --bfs (default 1000000)")
    _add_output_options(r)
    r.set_defaults(handler=_cmd_order, parser=r)

    a = sub.add_parser(
        "act", help="apply one group generator to a serialized element")
    a.add_argument("--case", required=True, help="case label, as for verify")
    a.add_argument("--input", required=True, metavar="FILE",
                   help="JSON file holding the element")
    a.add_argument("--generator", type=int, required=True,
                   help="0-based index into the case's generator list")
    _add_output_options(a)
    a.set_defaults(handler=_cmd_act, parser=a)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    except (FqinvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
