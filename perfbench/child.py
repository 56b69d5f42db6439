"""Run one benchmark job in a fresh interpreter.

Reads a JSON request on stdin: {"job": {...}, "mode": m, "spans": path}.
Modes: "plain" runs the job, "setup" stops once fqinv is imported and the
inputs are parsed, "trace" records spans around fqinv's public functions,
"count" counts field operations.  Prints one JSON report line on stdout:
the monotonic time at which set-up ended, the job's output text, its own
CPU time and peak RSS, and the trace or count data when asked for (with
the time spent writing the spans to the given path).
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _field(fq, spec):
    p, e, modulus = spec
    return fq.make_field(p, e, modulus)


def _dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _run_cli(fq, job, inputs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = sys.modules["fqinv.cli"].main(list(job["argv"]))
    return _dumps({"rc": rc, "stdout": out.getvalue()})


def _run_invariant(fq, job, element):
    return _dumps(fq.is_invariant(element, fq.case_group(job["case"])))


def _run_bfs(fq, job, inputs):
    field = _field(fq, job["field"])
    return _dumps(fq.group_order_bfs(fq.gens_standard(job["group"], job["n"], field)))


def _run_theorem_basis(fq, job, inputs):
    field = _field(fq, job["field"])
    return _dumps([u.coh_degree()
                   for u in fq.theorem_basis(field, job["group"], job["n"])])


def _embed(poly, n):
    return poly.map_variables(n, {i: i for i in range(1, poly.n + 1)})


def _run_identities(fq, job, inputs):
    """delta_poly = e_n * f_poly, f_poly recursive = product, and o_poly
    dickson_sum = product, for every size the product oracle allows."""
    out = {}
    for spec in job["fields"]:
        field = _field(fq, spec)
        q = field.q
        for n in (1, 2):
            lhs = _embed(fq.dickson_e(field, n), n + 1) * fq.f_poly(field, n)
            out[f"delta=e*f q={q} n={n}"] = lhs == fq.delta_poly(field, n)
            if q ** n <= 243:
                out[f"f rec=prod q={q} n={n}"] = (
                    fq.f_poly(field, n) == fq.f_poly(field, n, "product"))
        for n in (2, 3):
            if q ** (n - 1) <= 243:
                out[f"o sum=prod q={q} n={n}"] = (
                    fq.o_poly(field, n, 1, "product")
                    == fq.o_poly(field, n, 1, "dickson_sum"))
    return _dumps(out)


def _run_series(fq, job, inputs):
    group = fq.gens_standard(job["group"], job["n"], _field(fq, job["field"]))
    return _dumps([fq.fixed_dim(group, d) for d in range(job["d_max"] + 1)])


RUNNERS = {
    "cli": _run_cli,
    "invariant": _run_invariant,
    "bfs": _run_bfs,
    "theorem_basis": _run_theorem_basis,
    "identities": _run_identities,
    "series": _run_series,
}


def main():
    request = json.loads(sys.stdin.read())
    job, mode = request["job"], request["mode"]
    sys.path.insert(0, str(SRC))
    import fqinv
    import fqinv.cli  # noqa: F401

    if Path(fqinv.__file__).resolve().parent != SRC / "fqinv":
        raise SystemExit(f"fqinv imported from {fqinv.__file__}, not {SRC}")
    tracer = counts = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode == "count":
        from tracer import count_field_ops

        counts = count_field_ops()
    inputs = fqinv.from_json(job["element"]) if "element" in job else None
    ready = time.monotonic()
    report = {"ready": ready}
    if mode != "setup":
        report["output"] = RUNNERS[job["kind"]](fqinv, job, inputs)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    report["maxrss_kb"] = usage.ru_maxrss
    if tracer is not None:
        report["trace"] = tracer.summary()
        if request.get("spans"):
            begin = time.monotonic()
            tracer.dump_spans(request["spans"])
            report["dump_s"] = time.monotonic() - begin
    if counts is not None:
        report["field_ops"] = counts
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
