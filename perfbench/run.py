"""fqinv benchmark: seeded closed-loop workloads, each job in a fresh
interpreter, every output checked.

Single-run mode (one run, result JSON as the last stdout line):

    python3 perfbench/run.py --workload series --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured in
passes over the workload's jobs until --seconds is spent.  --trace 1 runs
one plain pass, one pass with spans around fqinv's public functions and
one pass counting field operations, reports the per-layer metrics and
writes the raw spans to perfbench/results/spans-<time>-<workload>-<seed>/.

Suite mode runs every workload SUITE_RUNS times plus one traced run,
prints medians and quartiles and writes every run to a result file:

    python3 perfbench/run.py --all --out perfbench/results/a.json

Compare two suite result files:

    python3 perfbench/run.py --compare A.json B.json

Record the output digest of every job that has none yet (on the commit
whose outputs are the reference):

    python3 perfbench/run.py --record-digests
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"

SETUP_PROBES = 6       # set-up-only children per run, half before and half
                       # after the measured passes, on top of real jobs
SUITE_RUNS = 10        # untraced runs per workload in --all: enough for quartiles
RUN_DEADLINE_S = 170   # a run never outlives this, children included

sys.path.insert(0, str(HERE))
from tracer import TRACED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def load_fqinv():
    if not (SRC / "fqinv" / "__init__.py").is_file():
        raise BenchError(f"no fqinv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fqinv

    if Path(fqinv.__file__).resolve().parent != SRC / "fqinv":
        raise BenchError(f"fqinv imported from {fqinv.__file__}, not {SRC}")
    return fqinv


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- environment -------------------------------------------------------------

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas():
    import ctypes
    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
    return numpy.__version__, f"{info.get('name')} {info.get('version')}", threads


def environment():
    numpy_version, blas, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
        "blas_threads": threads,
        "commit": _git_commit(),
        "loadavg_before": os.getloadavg(),
    }


# -- one job in a fresh child ------------------------------------------------

def _digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def run_job(job, mode, deadline, digests=None, spans=None):
    """Spawn the child, feed it the job, check its output.  Returns a dict
    with wall_s (spawn to verdict), setup_s, cpu_s, rss_mb, error."""
    request = json.dumps({"job": job.spec, "mode": mode, "spans": spans})
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD)], input=request,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"id": job.id, "wall_s": time.monotonic() - start,
                "error": "timed out", "timed_out": True}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"id": job.id, "wall_s": time.monotonic() - start,
                "error": f"child exit {proc.returncode}: {tail[0]}"}
    report = json.loads(lines[-1])
    error = None
    if mode != "setup":
        output = report.pop("output")
        digest = report["digest"] = hashlib.sha256(output.encode()).hexdigest()
        error = job.expect(output)
        if error is None and digests is not None and not job.probe:
            want = digests.get(job.id)
            if want is None:
                error = "no recorded output digest"
            elif digest != want:
                error = f"output digest {digest[:12]} differs from recorded {want[:12]}"
    # writing the raw spans out is the tracer's work, not the job's
    wall = time.monotonic() - start - report.pop("dump_s", 0.0)
    return {"id": job.id, "wall_s": wall, "setup_s": report.pop("ready") - start,
            "rss_mb": report.pop("maxrss_kb") / 1024.0, "error": error, **report}


def run_pass(jobs, mode, deadline, digests, spans_dir=None):
    results = []
    for i, job in enumerate(jobs):
        spans = str(spans_dir / f"{i:02d}.jsonl") if spans_dir else None
        res = run_job(job, mode, deadline, digests, spans)
        results.append(res)
        if res.get("timed_out"):
            break
    return results


def _pass_totals(results):
    return {
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r.get("cpu_s", 0.0) for r in results),
        "peak_rss_mb": max(r.get("rss_mb", 0.0) for r in results),
    }


# -- per-layer metrics from the traced and counting passes --------------------

def _span_names():
    names = []
    for _, _, name, _ in TRACED:
        if name == "algebra.Polynomial.substitute_linear" or callable(name):
            continue
        names.append(name)
    names += [f"algebra.substitute_linear.{k}" for k in ("transvection", "monomial", "dense")]
    names += [f"dickson.o_poly.{m}" for m in ("product", "dickson_sum")]
    return names


_ATTRS = ["fixedpoint.fixed_dim.basis", "groups.group_order_bfs.visited",
          "algebra.Polynomial.__mul__.pairs", "algebra.Polynomial.__mul__.terms_out"]
_ATTRS += [f"algebra.substitute_linear.{k}.{a}"
           for k in ("transvection", "monomial", "dense") for a in ("terms_in", "terms_out")]


def layer_metrics(plain, traced, counted):
    """Every per-layer metric, zero where the workload never enters the
    layer.  A span's share is its total time over the traced wall time."""
    spans, attrs, root_s = {}, {}, 0.0
    for res in traced:
        tr = res.get("trace")
        if not tr:
            continue
        root_s += tr["root_s"]
        for name, stats in tr["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += stats[key]
        for key, value in tr["attrs"].items():
            attrs[key] = attrs.get(key, 0) + value
    traced_wall = sum(r["wall_s"] for r in traced)
    plain_wall = sum(r["wall_s"] for r in plain)
    metrics = {}
    for name in _span_names():
        stats = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in stats.items():
            metrics[f"{name}.{key}"] = value
        metrics[f"{name}.share"] = stats["total_s"] / traced_wall
    for key in _ATTRS:
        metrics[key] = attrs.get(key, 0)
    for op in ("add", "mul", "neg", "inv"):
        metrics[f"field.{op}.calls"] = sum(r.get("field_ops", {}).get(op, 0) for r in counted)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics["trace.coverage_frac"] = root_s / traced_wall
    return metrics


# -- one run ------------------------------------------------------------------

def _spans_dir(name, seed):
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = RESULTS / f"spans-{stamp}-{name}-{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_workload(name, seed, seconds, trace):
    fq = load_fqinv()
    begin = time.monotonic()
    deadline = begin + RUN_DEADLINE_S
    rng = random.Random(seed)
    all_jobs = WORKLOADS[name](rng, fq)
    jobs = [j for j in all_jobs if not j.probe]
    probes = [j for j in all_jobs if j.probe]
    digests = _digests()
    env = environment()

    def setup_probes(first):
        return [run_job(jobs[i % len(jobs)], "setup", deadline)
                for i in range(first, first + SETUP_PROBES // 2)]

    setup_samples = setup_probes(0)
    passes, results = [], []
    t0 = time.monotonic()
    if trace:
        order = rng.sample(jobs, len(jobs))
        plain = run_pass(order, "plain", deadline, digests)
        traced = run_pass(order, "trace", deadline, digests, _spans_dir(name, seed))
        counted = run_pass(order, "count", deadline, digests)
        results = plain + traced + counted
        passes.append(plain)
        layers = layer_metrics(plain, traced, counted)
    else:
        while True:
            done = run_pass(rng.sample(jobs, len(jobs)), "plain", deadline, digests)
            results += done
            passes.append(done)
            typical = statistics.median(_pass_totals(p)["wall_s"] for p in passes)
            if (any(r.get("timed_out") for r in done)
                    or time.monotonic() - t0 + typical > seconds):
                break
    setup_samples += setup_probes(SETUP_PROBES // 2)
    probe_results = [run_job(p, "plain", deadline) for p in probes]
    env["loadavg_after"] = os.getloadavg()

    measured = [r for p in passes for r in p]
    setup = [r["setup_s"] for r in setup_samples + measured if "setup_s" in r]
    totals = [_pass_totals(p) for p in passes]
    failed = [r for r in results if r["error"]]
    result = {
        "workload": name, "seed": seed, "trace": bool(trace), "env": env,
        "passes": len(passes), "setups": len(setup),
        "attempted": len(results), "failed": len(failed),
        "errors": sorted({f"{r['id']}: {r['error']}" for r in failed}),
        "metrics": {
            "wall_s": statistics.median(t["wall_s"] for t in totals),
            "cpu_s": statistics.median(t["cpu_s"] for t in totals),
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in totals),
        },
        "probes": [{"id": p.id, "error": r["error"]} for p, r in zip(probes, probe_results)],
        "jobs": [{k: r[k] for k in ("id", "wall_s", "setup_s", "cpu_s", "rss_mb", "error")
                  if k in r} for r in results],
    }
    # failed_frac counts the known-defect probes too
    probe_failed = sum(1 for r in probe_results if r["error"])
    result["failed_frac"] = ((len(failed) + probe_failed)
                             / (len(results) + len(probe_results)))
    if trace:
        result["layers"] = layers
    return result


# -- printing -----------------------------------------------------------------

def _fmt(value):
    if isinstance(value, (list, tuple)):     # load averages
        return "/".join(f"{x:.2f}" for x in value)
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_run(result, bench):
    print("env " + " ".join(f"{k}={_fmt(v)}" for k, v in result["env"].items()))
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {int(result['trace'])}: {result['passes']} pass(es), "
          f"{result['attempted']} jobs, {result['failed']} failed")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for key, value in result["metrics"].items():
        over = f"{result['setups']} set-ups" if key == "setup_s" else f"{result['passes']} pass(es)"
        print(f"  {key:<14} {_fmt(value):>12} {units.get(key, '')}  (median over {over})")
    print(f"  {'failed_frac':<14} {_fmt(result['failed_frac']):>12} 1"
          f"  (failed jobs and probes / attempted)")
    for err in result["errors"]:
        print(f"  FAILED {err}")
    for probe in result["probes"]:
        verdict = f"FAIL: {probe['error']}" if probe["error"] else "ok"
        print(f"  known-defect probe {probe['id']}: {verdict}")
    if result["trace"]:
        for key, value in result["layers"].items():
            if value and not key.endswith(".share"):
                print(f"  {key:<52} {_fmt(value)}")
        shares = [(k[:-6], v) for k, v in result["layers"].items() if k.endswith(".share")]
        top = sorted(shares, key=lambda kv: -kv[1])[:8]
        print("  shares of traced wall time: "
              + ", ".join(f"{k} {v:.1%}" for k, v in top if v))


def result_line(result, bench):
    ok = result["failed"] == 0
    if result["trace"]:
        chosen = bench["per_layer"]
        values = result["layers"]
    else:
        chosen = bench["end_to_end"]
        values = result["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    return json.dumps({"correct": ok, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# -- suite, compare, record ---------------------------------------------------

def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def suite(seconds, out, bench):
    data = {"workloads": {}}
    for name in WORKLOADS:
        entry = {"runs": []}
        for seed in range(1, SUITE_RUNS + 1):
            res = run_workload(name, seed, seconds, 0)
            print_run(res, bench)
            entry["runs"].append(res)
        entry["trace"] = run_workload(name, 1, seconds, 1)
        print_run(entry["trace"], bench)
        data["workloads"][name] = entry
    write_result(data, out)
    print_summary(data, bench)


def write_result(data, out):
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {out}")


def print_summary(data, bench):
    print(f"{'workload':<11} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10}  n")
    for name, entry in data["workloads"].items():
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in entry["runs"]]
            q1, med, q3 = _quartiles(values)
            print(f"{name:<11} {m['name']:<12} {med:>10.4f} {q1:>10.4f} {q3:>10.4f}"
                  f"  {len(values)} {m['unit']}")
        fracs = [r["failed_frac"] for r in entry["runs"]]
        print(f"{name:<11} {'failed_frac':<12} {statistics.median(fracs):>10.4f}"
              f"{'':>22}  {len(fracs)} 1")


def compare(path_a, path_b, bench):
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    print(f"{'workload':<11} {'metric':<12} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B/A':>7}  verdict")
    for name in [w for w in a if w in b]:
        for m in bench["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in a[name]["runs"]]
            vb = [r["metrics"][m["name"]] for r in b[name]["runs"]]
            qa, qb = _quartiles(va), _quartiles(vb)
            ratio = qb[1] / qa[1]
            print(f"{name:<11} {m['name']:<12} "
                  f"{qa[1]:>10.4f} [{qa[0]:.4f}, {qa[2]:.4f}] "
                  f"{qb[1]:>10.4f} [{qb[0]:.4f}, {qb[2]:.4f}] {ratio:>7.3f}  "
                  f"{verdict(va, vb, qa, qb, m)}")


def verdict(va, vb, qa, qb, metric):
    """unresolved when either side's quartile spread exceeds the bound,
    unless every run of one side beats every run of the other."""
    sign = 1 if metric["better"] == "lower" else -1
    a, b = [sign * v for v in va], [sign * v for v in vb]   # lower is better
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    if spread > metric["bound"]:
        if max(b) < min(a):
            return "better"
        if min(b) > max(a):
            return "worse"
        return "unresolved"
    change = sign * (qb[1] - qa[1]) / qa[1]
    if change > metric["bound"]:
        return "worse"
    if change < -metric["bound"]:
        return "better"
    return "unchanged"


def record_digests():
    """Record the output digest of every job that has none yet; recorded
    digests are kept, those of jobs no workload runs any more dropped."""
    fq = load_fqinv()
    rng = random.Random(0)
    jobs = []
    for build in WORKLOADS.values():
        jobs += [j for j in build(rng, fq) if not j.probe]
    known = _digests()
    deadline = time.monotonic() + 3600
    digests = {}
    for job in jobs:
        if job.id in known:
            digests[job.id] = known[job.id]
            continue
        res = run_job(job, "plain", deadline)
        if res["error"]:
            raise BenchError(f"{job.id}: {res['error']}; not recording")
        digests[job.id] = res["digest"]
        print(f"{res['wall_s']:7.2f}s {job.id}")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file of --all (default: perfbench/results/)")
    parser.add_argument("--all", action="store_true",
                        help=f"run every workload {SUITE_RUNS} times plus a traced run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        bench = load_benchmark()
        seconds = args.seconds or bench["run_seconds"]
        if args.compare:
            compare(*args.compare, bench)
        elif args.record_digests:
            record_digests()
        elif args.all:
            out = args.out or RESULTS / f"bench-{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}.json"
            suite(seconds, out, bench)
        elif args.workload:
            result = run_workload(args.workload, args.seed, seconds, args.trace)
            print_run(result, bench)
            print(result_line(result, bench))
        else:
            parser.error("give --workload, --all, --compare or --record-digests")
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
