#!/usr/bin/env python3
"""Fast self-check of the benchmark (under a minute).

    python3 bench/selfcheck.py

* runs every workload at its tiny size, untraced and traced, and checks that
  the last line names exactly the metrics of BENCHMARK.json with their units;
* checks that a traced pass accounts for the whole solver time and that the
  tracer puts back every name it wrapped, and reports a vanished name as
  absent;
* checks that the gate fails an answer once its reference is perturbed;
* checks that the benchmark refuses to run without the package sources.

Exits non-zero on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(msg: str):
    sys.exit(f"selfcheck FAILED: {msg}")


def run_tiny(workload: str, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(workload: str, trace: int) -> dict:
    result = run_tiny(workload, trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and 0 <= result["failed"] <= result["attempted"]):
        fail(f"{workload}: attempted/failed {result['attempted']}/{result['failed']}")
    if result["correct"] is not True:
        fail(f"{workload}: a wrong answer at tiny size")
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[(n, got[n], want[n]) for n in want if n in got and got[n] != want[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{workload}: {name} = {m['value']!r}")
    if trace:
        check_solver_accounting(workload, result["metrics"])
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
          f"{result['failed']}/{result['attempted']} failed")
    return result


def check_solver_accounting(workload: str, metrics: dict) -> None:
    """Wrapped solver children plus sdp.self_s make up sdp.solve_s."""
    children = ["sdp.scaled_rows_s", "sdp.materialize_s", "sdp.adjoint_s"] + [
        n for n in metrics if n.startswith("sdp.lapack.") and n.endswith("_s")]
    parts = metrics["sdp.self_s"]["value"] + sum(metrics[n]["value"] for n in children)
    total = metrics["sdp.solve_s"]["value"]
    if abs(parts - total) > 1e-9 * max(1.0, total):
        fail(f"{workload}: solver parts sum to {parts}, sdp.solve_s is {total}")


def check_tracer() -> None:
    import momentsos.sdp
    import tracing

    before = {(m, p): _lookup(m, p) for m, p, _ in tracing.SPANS}
    sla = momentsos.sdp.sla
    spans = tracing.SPANS
    tracing.SPANS = spans + (("momentsos.sdp", "PsdBlock.no_such_method", "sdp.gone"),)
    try:
        with tracing.Tracer() as tr:
            if momentsos.sdp.sla is sla:
                fail("the solver's LAPACK module was not replaced")
            absent = tr.absent
    finally:
        tracing.SPANS = spans
    if absent != {"sdp.gone"}:
        fail(f"absent spans {sorted(absent)}, expected only sdp.gone")
    if momentsos.sdp.sla is not sla:
        fail("the solver's LAPACK module was not put back")
    for (m, p), original in before.items():
        if _lookup(m, p) is not original:
            fail(f"{m}.{p} was not put back")
    print("ok  tracer restores every name and reports a vanished one as absent")


def _lookup(module: str, path: str):
    import tracing

    owner, attr = tracing.resolve(module, path)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def check_gate() -> None:
    import run
    import workloads

    tmp = ROOT / ".bench_tmp" / "selfcheck"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        manifest = run.setup("manifest", 7, True)
        small = run.setup("small", 7, True)
        run.write_inputs(small, tmp)
        outs = {op.name: run.run_op(op, tmp)[1] for op in manifest + small}
    finally:
        shutil.rmtree(tmp.parent, ignore_errors=True)

    # ex35 is certified at the seed; a change that breaks it fails here first
    op = next(o for o in manifest if o.name == "ex35")
    if not workloads.check(op, outs[op.name]).ok:
        fail("ex35 fails its own manifest entry")
    op.expect = {**op.expect, "value": op.expect["value"] + 0.5}
    v = workloads.check(op, outs[op.name])
    if v.ok or not v.wrong:
        fail("a perturbed manifest value passed the gate")

    op = small[0]
    ref = workloads.reference_minimum(op, 7)
    if not workloads.check(op, outs[op.name], ref).ok:
        fail(f"{op.name} fails against its sampled minimum {ref}")
    v = workloads.check(op, outs[op.name], ref - 1.0)
    if v.ok or not v.wrong:
        fail("a value above a perturbed sampled minimum passed the gate")

    op = small[-1]
    op.expect = {**op.expect, "status": "dual_infeasible"}
    v = workloads.check(op, outs[op.name])
    if v.ok or not v.wrong:
        fail("a perturbed expected status passed the gate")
    print("ok  the gate fails perturbed references (value, sampled minimum, status)")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = SPEC["command"] + ["--workload", "small", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  refuses to run without the package sources")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    for workload in ("manifest", "ladder", "small"):
        for trace in (0, 1):
            check_emitted(workload, trace)
    check_tracer()
    check_gate()
    check_refuses_without_sources()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
