"""The four workloads: seeded job lists plus an independent expectation
for every job.

A workload function takes a random.Random built from the run's seed and
the fqinv module, builds whatever inputs the jobs need, and returns the
run's jobs.  The runner shuffles their order before every pass with the
same generator; the job lists themselves are the same for every seed, so
that every run does the same work.  Each expectation is checked against the job's output
text and returns None when it holds, else a reason.
"""

import json
from dataclasses import dataclass
from typing import Callable

# the conftest moduli: (p, e, modulus) for F9, F25, F27, F125
F9 = (3, 2, [1, 0, 1])
F25 = (5, 2, [3, 0, 1])
F27 = (3, 3, [2, 2, 0, 1])
F125 = (5, 3, [1, 1, 0, 1])


@dataclass
class Job:
    id: str
    spec: dict
    expect: Callable[[str], "str | None"]
    # a probe reports a known defect: it runs once per run, outside the
    # measured passes, and has no recorded digest
    probe: bool = False


def gl_order(n, q):
    total = 1
    for i in range(n):
        total *= q ** n - q ** i
    return total


def sl_order(n, q):
    return gl_order(n, q) // (q - 1)


def _cli(argv, expect):
    return Job("cli: " + " ".join(argv), {"kind": "cli", "argv": argv}, expect)


def _cli_json(text):
    data = json.loads(text)
    if data["rc"] != 0:
        return None, f"exit code {data['rc']}"
    return json.loads(data["stdout"]), None


def _expect_pass(text):
    report, err = _cli_json(text)
    if err:
        return err
    bad = [r["d"] for r in report["rows"] if not r["match"]]
    if not report["ok"] or bad:
        return f"verification failed, mismatched degrees {bad}"
    return None


def _expect_key(key, want):
    def check(text):
        data, err = _cli_json(text)
        if err:
            return err
        return None if data[key] == want else f"{key} {data[key]}, expected {want}"
    return check


def _expect_value(want):
    def check(text):
        got = json.loads(text)
        return None if got == want else f"got {got}, expected {want}"
    return check


def _expect_series(want):
    def check(text):
        got = json.loads(text)
        bad = [d for d, (a, b) in enumerate(zip(got, want)) if a != b]
        if len(got) != len(want) or bad:
            return (f"fixed dimensions miss the predicted series at "
                    f"{len(bad)} of {len(want)} degrees, first {bad[:5]}")
        return None
    return check


def _expect_all_true(text):
    bad = [name for name, ok in json.loads(text).items() if not ok]
    return f"identities failed: {bad}" if bad else None


def _expect_degrees(want):
    def check(text):
        got = sorted(json.loads(text))
        return None if got == sorted(want) else f"degrees {got}, expected {sorted(want)}"
    return check


def _description(fq, kind, field, n):
    """Predicted free-module shape; Case is built directly because case
    labels only take prime q."""
    from fqinv.fixedpoint import Case

    return fq.module_description(Case(f"{kind}({n},{field.q})", kind, field, n))


def _predicted(fq, kind, field, n, d_max):
    desc = _description(fq, kind, field, n)
    return [fq.hilbert_coeff(desc, d) for d in range(d_max + 1)]


def series(rng, fq):
    """Solver-bound: degreewise fixed dimensions and numpy BFS closure."""
    e7 = fq.module_description("e7_4")
    return [
        _cli(["verify", "--case", "e6_4", "--max-degree", "20"], _expect_pass),
        _cli(["verify", "--case", "e7_4", "--max-degree", "20"], _expect_pass),
        _cli(["verify", "--case", "e8_p5_3", "--max-degree", "30"], _expect_pass),
        _cli(["fixed-dim", "--case", "e7_4", "--degree", "36"],
             _expect_key("dim", fq.hilbert_coeff(e7, 36))),
        _cli(["order", "--case", "e7_4", "--bfs"],
             _expect_key("order", 2 * 27 * sl_order(3, 3))),
        _cli(["order", "--case", "e8_p5_3", "--bfs"],
             _expect_key("order", sl_order(3, 5))),
    ]


def orbit(rng, fq):
    """Multiply-bound: g0(4,5) builds o_poly(F5, 4, 1) by the 125-factor
    product twice, in case_elements and in wilkerson_phi."""
    return [_cli(["verify", "--case", "g0(4,5)"], _expect_pass)]


_TOP = "dx1dx2dx3dx4dx5"


def _class_name(I):
    return f"x5*O(x1)*Q[{','.join(map(str, I))}]({_TOP})" if I else f"x5*O(x1)*{_TOP}"


def invariance_inputs(fq, subsets):
    """e8_5a elements built through the public API: O(x1)^2 and the
    classes x5*O(x1)*Q_I(dx1..dx5), with O(x1) from the dickson_sum route."""
    F3 = fq.make_field(3)
    orb = fq.o_poly(F3, 5, 1, method="dickson_sum")
    x5 = fq.Polynomial.variable(F3, 5, 5)
    out = {"O(x1)^2": fq.TensorElement.from_polynomial(orb * orb)}
    for I in subsets:
        out[_class_name(I)] = (x5 * orb) * fq.milnor_composite(I, fq.top_form(F3, 5))
    return out


# One class of each size |I| = 0, 1, 2, the same for every seed.  Classes
# of one size differ in cost (the size-2 ones take 4-8 s; those with Q_0
# take longest), so a seeded choice would make wall_s depend on the seed.
INVARIANCE_CLASSES = [(), (0,), (1, 2)]


def invariance(rng, fq):
    """Substitution-bound: is_invariant under e8_5a's 8 generators."""
    return [Job(f"invariant: e8_5a {name}",
                {"kind": "invariant", "case": "e8_5a", "element": fq.to_json(el)},
                _expect_value(True))
            for name, el in invariance_inputs(fq, INVARIANCE_CLASSES).items()]


def extfield(rng, fq):
    """The same layers over F9, F25, F27 and F125."""
    fields = {9: F9, 25: F25, 27: F27}

    def lib(kind, label, expect, probe=False, **spec):
        return Job(f"{kind}: {label}", {"kind": kind, **spec}, expect, probe)

    jobs = [lib("bfs", f"{g}(2,{q})", _expect_value(order(2, q)),
                field=fields[q], group=g, n=2)
            for g, q, order in (("gl", 9, gl_order), ("sl", 25, sl_order),
                                ("sl", 27, sl_order))]
    for q in (25, 27):
        want = _description(fq, "gl", fq.make_field(*fields[q]), 3).basis_degrees
        jobs.append(lib("theorem_basis", f"gl(3,{q})", _expect_degrees(want),
                        field=fields[q], group="gl", n=3))
    jobs.append(lib("identities", "F9 F25 F27 F125", _expect_all_true,
                    fields=[F9, F25, F27, F125]))
    F9f = fq.make_field(*F9)
    jobs.append(lib("series", "gl(3,9) degrees 0..30",
                    _expect_series(_predicted(fq, "gl", F9f, 3, 30)),
                    field=F9, group="gl", n=3, d_max=30))
    # fails while tensor_act reduces extension-field raws mod p; see
    # perfbench/WORKLOADS.md
    jobs.append(lib("series", "sl(2,9) degrees 0..40",
                    _expect_series(_predicted(fq, "sl", F9f, 2, 40)), probe=True,
                    field=F9, group="sl", n=2, d_max=40))
    return jobs


WORKLOADS = {
    "series": series,
    "orbit": orbit,
    "invariance": invariance,
    "extfield": extfield,
}
