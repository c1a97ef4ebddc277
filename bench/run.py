#!/usr/bin/env python3
"""Benchmark of momentsos: closed-loop, single-client workloads.

    python3 bench/run.py --workload {manifest,ladder,small,all} --seed N \\
        --seconds S --trace {0,1} [--tiny]

One client runs the workload's problems one after another, in passes over
the same list, until --seconds have gone by; the pass in progress finishes.
Every answer is checked (see workloads.py). The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of
one extra traced pass with --trace 1. Everything above it is a readable
report with each metric's unit and sample count. --workload all runs each
workload in its own child process, one after another. --tiny runs a few
quick problems per workload, for the self-check.

Run from the root of a momentsos source tree; the package is imported from
its src/ directory.
"""

import os

# Pinned before numpy is imported: the single-threaded baseline. Two BLAS
# threads on a shared two-core machine made small solves several times slower.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 5


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _check_tree() -> None:
    missing = [str(p.relative_to(ROOT)) for p in
               (SRC / "momentsos" / "__init__.py", ROOT / "problems" / "expected.json")
               if not p.is_file()]
    if missing:
        sys.exit(f"error: {', '.join(missing)} not found under {ROOT}; "
                 "run the benchmark from a momentsos source tree")


def _import_package():
    sys.path.insert(0, str(SRC))
    import momentsos

    if Path(momentsos.__file__).resolve().parent != SRC / "momentsos":
        sys.exit(f"error: imported momentsos from {momentsos.__file__}, not {SRC}")


# -- set-up ----------------------------------------------------------------------


def setup(workload: str, seed: int, tiny: bool) -> list:
    """What a user pays before the first solve: the imports and the inputs.
    Parsing a problem file is part of each solve, in the CLI."""
    _import_package()
    import momentsos.cli  # noqa: F401  (imports everything the CLI needs)

    return workloads.build(workload, seed, ROOT, tiny)


def measure_setup(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


# -- running operations -------------------------------------------------------------


def run_op(op, tmpdir: Path):
    """One hierarchy run through the CLI, the real user path. `main` is
    looked up at call time, so a traced pass sees its wrapper."""
    import momentsos.cli

    out = tmpdir / f"{op.name}.report.json"
    argv = ["solve", str(op.path), "--variant", op.variant, "--out", str(out)]
    if op.k_min is not None:
        argv += ["--kmin", str(op.k_min), "--kmax", str(op.k_max)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = momentsos.cli.main(argv)
        dt = time.perf_counter() - t0
    if code not in (0, 2, 3):
        raise RuntimeError(f"momentsos {' '.join(argv)} exited with {code}")
    return dt, workloads.Outcome.from_report(json.loads(out.read_text()))


def write_inputs(ops, tmpdir: Path) -> None:
    """Generated problems become problem files, as a user would have them."""
    for op in ops:
        if op.path is None:
            op.path = tmpdir / f"{op.name}.json"
            op.path.write_text(json.dumps(op.data))


def run_pass(ops, tmpdir: Path) -> dict:
    times, outcomes = [], []
    t0 = time.perf_counter()
    for op in ops:
        t_op = time.perf_counter()
        try:
            dt, out = run_op(op, tmpdir)
        except Exception:  # a crash fails the operation; the run goes on
            dt, out = time.perf_counter() - t_op, traceback.format_exc(limit=-3)
        times.append(dt)
        outcomes.append(out)
    return {"wall": time.perf_counter() - t0, "times": times, "outcomes": outcomes}


def warm_up(tmpdir: Path) -> None:
    """Solve one trivial problem, untimed, so that first-call costs do not
    land on whichever problem runs first."""
    op = workloads.Op("warm_up", "plain", 1, 1,
                      data=workloads.pop(1, [{"c": 1.0, "e": [1]}], ineq=workloads.ball(1)))
    write_inputs([op], tmpdir)
    run_op(op, tmpdir)


def run_passes(ops, seconds: float, tmpdir: Path) -> list:
    """Closed loop: passes until --seconds have gone by, the last one finished."""
    warm_up(tmpdir)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, tmpdir))
    return passes


# -- gate and counts -------------------------------------------------------------------


def gate(ops, passes, seed: int) -> list:
    """Verdict for every operation of every pass, references computed here,
    outside the timed passes."""
    refs = {}  # one reference per distinct problem
    for op in ops:
        if op.expect["kind"] == "minimum" and id(op.data) not in refs:
            refs[id(op.data)] = workloads.reference_minimum(op, seed)
    verdicts = []
    for p in passes:
        for op, out in zip(ops, p["outcomes"]):
            if isinstance(out, str):
                verdicts.append(workloads.Verdict(False, False, "raised: " + out.strip()))
            else:
                verdicts.append(workloads.check(op, out, refs.get(id(op.data))))
    return verdicts


def pass_counts(ops, outcomes) -> dict:
    """Exact counts of one pass, read from the answers and from the compiled
    SDPs of every attempted order (compiled again here, untimed)."""
    from momentsos.relaxations import (
        denominator_relaxation,
        homogenized_relaxation,
        moment_relaxation,
        problem_from_json,
    )

    compilers = {"plain": moment_relaxation, "homogenized": homogenized_relaxation,
                 "denominator": denominator_relaxation}
    c = dict.fromkeys(("orders", "iterations", "fallback_accepts", "not_optimal",
                       "certify_calls", "certified_orders", "certified_ops",
                       "eq_rows", "nfree", "psd_entries", "psd_side_max"), 0)
    for op, out in zip(ops, outcomes):
        if isinstance(out, str):
            continue
        problem = problem_from_json(op.data or json.loads(op.path.read_text()))
        c["certified_ops"] += out.certified
        for rec in out.orders:
            c["orders"] += 1
            c["iterations"] += rec["iterations"]
            optimal = rec["status"] == "optimal"
            c["not_optimal"] += not optimal
            c["fallback_accepts"] += optimal and rec["message"].startswith("reduced accuracy")
            c["certify_calls"] += optimal
            c["certified_orders"] += rec["certified"]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sdp = compilers[op.variant](problem, rec["k"]).sdp
            c["eq_rows"] += sdp.num_eq
            c["nfree"] += sdp.nfree
            c["psd_entries"] += sum(len(b.coef) for b in sdp.psd_blocks)
            c["psd_side_max"] = max([c["psd_side_max"]] + [b.side for b in sdp.psd_blocks])
    return c


# -- metrics -----------------------------------------------------------------------------


def end_to_end(passes, verdicts, setup_times, peak_rss_mb) -> dict:
    certified = sum(out.certified for p in passes for out in p["outcomes"]
                    if not isinstance(out, str))
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s", len(passes)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "certified_share": (certified / len(verdicts), "ratio", len(verdicts)),
    }


def problem_times(ops, passes) -> dict:
    """Per-problem figures, printed but not in the JSON. On this kind of
    shared machine their spread over ten seeds came near or above 0.25, the
    largest bound a metric may have: the median of the five manifest problems
    is one 0.1 s problem, and the slowest ladder problem is one 10-17 s solve."""
    times = [t for p in passes for t in p["times"]]
    slowest = (statistics.median(max(p["times"]) for p in passes), "s", len(passes))
    figures = {
        "problem_s.p50": (statistics.median(times), "s", len(times)),
        "problem_s.geomean": (statistics.geometric_mean(times), "s", len(times)),
        "problem_s.max": slowest,
    }
    if len(ops) >= 100:  # ten samples beyond p90 in every pass
        figures["problem_s.p90"] = (statistics.quantiles(times, n=10)[-1], "s", len(times))
    for i, op in enumerate(ops):
        if op.name in ("ex36", "ex48"):
            ts = [p["times"][i] for p in passes]
            figures[f"{op.name}.s"] = (statistics.median(ts), "s", len(ts))
    return figures


def per_layer(tr, counts, traced_wall, untraced_wall) -> dict:
    """Per-layer metrics of one traced pass: (value, unit, samples, span read)."""
    def span_s(span):
        return (tr.total[span], "s", tr.calls[span], span)

    def self_s(span):
        return (tr.own[span], "s", tr.calls[span], span)

    def calls(span):
        return (tr.calls[span], "count", 1, span)

    def count(value):
        return (value, "count", 1, None)

    iterations = counts["iterations"]
    return {
        "cli.main_s": span_s("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "hierarchy.solve_hierarchy_s": span_s("hierarchy.solve_hierarchy"),
        "hierarchy.self_s": self_s("hierarchy.solve_hierarchy"),
        "hierarchy.orders_attempted": count(counts["orders"]),
        "hierarchy.orders_per_certified": (
            counts["orders"] / max(1, counts["certified_ops"]), "ratio", counts["orders"], None),
        "relaxations.compile_s": span_s("relaxations.compile"),
        "relaxations.compile_calls": calls("relaxations.compile"),
        "relaxations.sos_certificate_s": span_s("relaxations.sos_certificate"),
        "relaxations.problem_from_json_s": span_s("relaxations.problem_from_json"),
        "relaxations.eq_rows_sum": count(counts["eq_rows"]),
        "relaxations.nfree_sum": count(counts["nfree"]),
        "relaxations.psd_entries_sum": count(counts["psd_entries"]),
        "relaxations.psd_side_max": count(counts["psd_side_max"]),
        "polynomials.mul_calls": calls("polynomials.mul"),
        "polynomials.evaluate_calls": calls("polynomials.evaluate"),
        "polynomials.evaluate_s": span_s("polynomials.evaluate"),
        "moments.moment_matrix_s": span_s("moments.moment_matrix"),
        "moments.tms_from_atoms_s": span_s("moments.tms_from_atoms"),
        "sdp.solve_s": span_s("sdp.solve"),
        "sdp.self_s": self_s("sdp.solve"),
        "sdp.iterations": count(iterations),
        "sdp.s_per_iteration": (
            tr.total["sdp.solve"] / max(1, iterations), "s", iterations, "sdp.solve"),
        "sdp.fallback_accepts": count(counts["fallback_accepts"]),
        "sdp.not_optimal": count(counts["not_optimal"]),
        "sdp.scaled_rows_s": span_s("sdp.scaled_rows"),
        "sdp.materialize_s": span_s("sdp.materialize"),
        "sdp.adjoint_s": span_s("sdp.adjoint"),
        "sdp.lapack.cho_factor_s": span_s("sdp.lapack.cho_factor"),
        "sdp.lapack.cho_solve_s": span_s("sdp.lapack.cho_solve"),
        "sdp.lapack.qr_s": span_s("sdp.lapack.qr"),
        "sdp.lapack.eigvalsh_s": span_s("sdp.lapack.eigvalsh"),
        "sdp.lapack.eigvalsh_calls": calls("sdp.lapack.eigvalsh"),
        "sdp.lapack.svd_s": span_s("sdp.lapack.svd"),
        "sdp.lapack.cholesky_s": span_s("sdp.lapack.cholesky"),
        "sdp.lapack.solve_triangular_s": span_s("sdp.lapack.solve_triangular"),
        "certificates.certify_s": span_s("certificates.certify"),
        "certificates.flat_truncation_s": span_s("certificates.flat_truncation"),
        "certificates.extract_atoms_s": span_s("certificates.extract_atoms"),
        "certificates.verify_atoms_s": span_s("certificates.verify_atoms"),
        "certificates.certified_per_call": (
            counts["certified_orders"] / max(1, counts["certify_calls"]), "ratio",
            counts["certify_calls"], None),
        "trace.overhead_s": (traced_wall - untraced_wall, "s", 1, None),
    }


# -- report --------------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def print_report(args, ops, passes, verdicts, metrics, absent, extra) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(ops)} problems x {len(passes)} passes")
    print("environment " + json.dumps(environment()))
    print(f"{'operation':<28} {'median_s':>10}  status        verdict")
    for i, op in enumerate(ops):
        first = passes[0]["outcomes"][i]
        status = "raised" if isinstance(first, str) else first.status
        bad = [v for v in verdicts[i::len(ops)] if not v.ok]
        print(f"{op.name:<28} {statistics.median(p['times'][i] for p in passes):>10.4f}  "
              f"{status:<12}  {f'FAILED {len(bad)}x: ' + bad[0].reason if bad else 'ok'}")
    print(f"{'metric':<36} {'value':>14}  {'unit':<6} samples")
    for name, (value, unit, n, *_) in list(metrics.items()) + list(extra.items()):
        note = "  (absent)" if name in absent else ""
        print(f"{name:<36} {value:>14.6g}  {unit:<6} {n}{note}")
    failed = sum(not v.ok for v in verdicts)
    print(f"operations: {len(verdicts)} attempted, {failed} failed, "
          f"{sum(v.wrong for v in verdicts)} wrong answers")


def run_all(args) -> int:
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    args = _parse_args(argv)
    _check_tree()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup(args.workload, args.seed, args.tiny)
        return 0

    setup_times = [] if args.trace else measure_setup(args)
    ops = setup(args.workload, args.seed, args.tiny)
    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_parent))
    try:
        write_inputs(ops, tmpdir)
        # a traced run needs one untraced pass, for the tracing overhead
        passes = run_passes(ops, 0 if args.trace else args.seconds, tmpdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            import tracing

            with tracing.Tracer() as tr:
                traced = run_pass(ops, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_parent.rmdir()

    counts = pass_counts(ops, passes[0]["outcomes"])
    if args.trace:
        untraced_wall = statistics.median(p["wall"] for p in passes)
        metrics = per_layer(tr, counts, traced["wall"], untraced_wall)
        absent = {name for name, m in metrics.items() if m[3] in tr.absent}
        passes.append(traced)
        extra = {}
    verdicts = gate(ops, passes, args.seed)
    if not args.trace:
        metrics = end_to_end(passes, verdicts, setup_times, peak_rss_mb)
        absent = set()
        extra = {f"count.{k}": (v, "count", 1) for k, v in counts.items()}
        extra.update(problem_times(ops, passes))
    print_report(args, ops, passes, verdicts, metrics, absent, extra)
    print(json.dumps({
        "correct": not any(v.wrong for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(not v.ok for v in verdicts),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
