"""Command-line front end over JSON problem files.

Subcommands:

* solve: run the hierarchy for a variant over orders kmin..kmax, print a
  per-order table, and optionally write a JSON report (--out) and per-order
  SDP dumps (--dump-sdp).
* certify-flat: same sweep, but the printed output details the flat
  truncation ranks and extraction outcome at each solved order.
* check-kkt: evaluate LICQ / KKT / strict complementarity / SOSC at a given
  point of a polynomial optimization problem.
* dump: compile one relaxation and write its SDP in the sparse text format.

Exit codes: 0 when the run converged (or the analysis completed), 2 when the
hierarchy finished without certification, 3 when no relaxation could be
solved, 1 on any input error.  An output path that cannot be written
(--out, --dump-sdp) is an input error found before any relaxation is
solved.  A standard output that its reader closes early, as in
`momentsos dump problem.json | head -2`, drops the rest of the output
without an error message, and the exit code stays the one above.  Reports
are deterministic for fixed inputs and flags except for the timestamp
field.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import logging
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .certificates import check_optimality
from .hierarchy import _order_range, solve_hierarchy
from .relaxations import (
    GmpProblem,
    PopProblem,
    Variant,
    compile_relaxation,
    problem_from_json,
    variant_minimum_order,
)
from .sdp import write_sparse_sdp

__all__ = ["main"]

_EXIT_BY_STATUS = {"converged": 0, "unresolved": 2, "failed": 3}


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; we need 1."""

    def error(self, message):
        raise _InputError(f"{message}\n{self.format_usage()}")


@functools.cache  # parsing leaves the parser unchanged, so a process builds it once
def _build_parser() -> _Parser:
    parser = _Parser(prog="momentsos", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("problem", help="path to a JSON problem file")
        p.add_argument(
            "--variant",
            choices=[v.value for v in Variant],
            default="plain",
            help="relaxation variant (default: plain)",
        )
        p.add_argument("--kmin", type=int, default=None, help="first relaxation order")
        p.add_argument("--kmax", type=int, default=None, help="last relaxation order")
        p.add_argument("--tol", type=float, default=1e-8, help="SDP solver tolerance")
        p.add_argument(
            "--rank-tol", type=float, default=1e-6, help="rank decision tolerance"
        )
        p.add_argument(
            "--feas-tol", type=float, default=1e-4, help="atom verification tolerance"
        )
        p.add_argument(
            "--tau-tol",
            type=float,
            default=1e-6,
            help="threshold below which a homogenizing coordinate counts as infinity",
        )
        p.add_argument("--seed", type=int, default=0, help="extraction mixing seed")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--verbose", action="store_true", help="log iterations to stderr")

    ps = sub.add_parser("solve", help="run the hierarchy and report the result")
    add_common(ps)
    ps.add_argument(
        "--dump-sdp",
        default=None,
        metavar="PATH",
        help="also write each compiled SDP; '{k}' in PATH is replaced by the order",
    )

    pc = sub.add_parser("certify-flat", help="run the hierarchy, detail certification")
    add_common(pc)

    pk = sub.add_parser("check-kkt", help="local optimality conditions at a point")
    pk.add_argument("problem", help="path to a JSON problem file (POP)")
    pk.add_argument(
        "--point", required=True, help="comma-separated coordinates of the point"
    )
    pk.add_argument(
        "--act-tol", type=float, default=1e-6, help="active-constraint tolerance"
    )
    pk.add_argument(
        "--tol", type=float, default=1e-6, help="rank/residual/eigenvalue tolerance"
    )
    pk.add_argument("--out", default=None, help="write the JSON report here")

    pd = sub.add_parser("dump", help="write one compiled SDP in sparse text form")
    pd.add_argument("problem", help="path to a JSON problem file")
    pd.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default="plain",
    )
    pd.add_argument(
        "--kmin", type=int, default=None, help="order to compile (default: minimum)"
    )
    pd.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _load_problem(path: str):
    p = Path(path)
    if not p.is_file():
        raise _InputError(f"problem file not found: {path}")
    try:
        with open(p) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    try:
        return problem_from_json(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise _InputError(f"{path}: {exc}")


def _check_tols(args) -> None:
    for name in ("tol", "rank_tol", "feas_tol", "tau_tol", "act_tol"):
        val = getattr(args, name, None)
        if val is not None and not (math.isfinite(val) and val > 0):
            flag = "--" + name.replace("_", "-")
            raise _InputError(f"{flag} must be a positive finite number")


def _report_header(command: str, args) -> dict:
    return {
        "tool": "momentsos",
        "version": __version__,
        "command": command,
        "input": args.problem,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _open_output(path: str, mode: str = "w"):
    """path opened for writing; an unwritable path is an input error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror or exc}")


@contextlib.contextmanager
def _stdout_may_close():
    """Output to a standard output that its reader has closed is dropped:
    the BrokenPipeError is caught here, and the descriptor is pointed at
    os.devnull so that the interpreter's last flush at exit stays quiet."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)


def _check_writable(path: str) -> None:
    """An input error unless path, with its symbolic links followed, names
    a writable file that is not a directory, or a new file in a writable
    directory.  The check opens and creates nothing."""
    target = os.path.realpath(path)
    folder = os.path.dirname(target)
    if os.path.isdir(target):
        code = errno.EISDIR
    elif os.path.exists(target):
        code = 0 if os.access(target, os.W_OK) else errno.EACCES
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    else:
        code = 0 if os.access(folder, os.W_OK) else errno.EACCES
    if code:
        raise _InputError(f"cannot write {path}: {os.strerror(code)}")


def _json_value(value):
    """value with every non-finite float, which strict JSON cannot hold
    (the residuals of an order with inconsistent equalities are
    infinite), replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return value


def _write_report(report: dict, out: Optional[str]) -> None:
    if out:
        with _open_output(out) as fh:
            json.dump(_json_value(report), fh, indent=2, allow_nan=False)
            fh.write("\n")


def _fmt(x: Optional[float]) -> str:
    return "-" if x is None else f"{x:+.9f}"


def _print_atoms(atoms: list, label: str) -> None:
    if not atoms:
        return
    print(label)
    for a in atoms:
        pt = ", ".join(f"{v:.7f}" for v in a["point"])
        print(f"  {a['weight']:.7f} @ [{pt}]")


def _dump_path(template: str, k: int, single: bool) -> str:
    if "{k}" in template:
        return template.format(k=k)
    if single:
        return template
    p = Path(template)
    return str(p.with_name(f"{p.stem}-k{k}{p.suffix}"))


def _dump_paths(args, orders: range) -> list:
    """Every path that --dump-sdp may write for a sweep over orders: one
    per order, and the template itself when the sweep may end at its
    first order."""
    template = getattr(args, "dump_sdp", None)
    if not template:
        return []
    paths = [_dump_path(template, orders[0], True)]
    return list(dict.fromkeys(paths + [_dump_path(template, k, False) for k in orders]))


def _run_hierarchy(args, command: str) -> int:
    _check_tols(args)
    if args.seed < 0:
        raise _InputError("--seed must be non-negative")
    problem = _load_problem(args.problem)
    try:
        orders = _order_range(problem, args.variant, args.kmin, args.kmax)
    except ValueError as exc:
        raise _InputError(str(exc))
    for path in [args.out] + _dump_paths(args, orders):
        if path:
            _check_writable(path)
    try:
        result = solve_hierarchy(
            problem,
            args.variant,
            args.kmin,
            args.kmax,
            tol=args.tol,
            rank_tol=args.rank_tol,
            feas_tol=args.feas_tol,
            tau_tol=args.tau_tol,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _InputError(str(exc))

    if getattr(args, "dump_sdp", None):
        for rec in result.records:
            path = _dump_path(args.dump_sdp, rec.order, len(result.records) == 1)
            with _open_output(path) as fh:
                write_sparse_sdp(rec.sdp, fh)

    kind = "gmp" if isinstance(problem, GmpProblem) else "pop"
    report = _report_header(command, args)
    report.update(
        {
            "variant": args.variant,
            "problem_kind": kind,
            "nvars": problem.nvars,
            "k_min": result.records[0].order if result.records else args.kmin,
            "k_max": result.records[-1].order if result.records else args.kmax,
            "tolerances": {
                "solver": args.tol,
                "rank": args.rank_tol,
                "feas": args.feas_tol,
                "tau": args.tau_tol,
            },
            "status": result.status,
            "value": result.value,
            "order": result.order,
            "theta": None if result.theta is None else result.theta.tolist(),
            "warnings": list(result.warnings),
            "orders": [
                {
                    "k": rec.order,
                    "status": rec.status,
                    "moment_value": rec.moment_value,
                    "sos_value": rec.sos_value,
                    "iterations": rec.iterations,
                    "residuals": rec.residuals,
                    "message": rec.message,
                    "certified": rec.certified,
                    "certificate": rec.certificate.as_json()
                    if rec.certificate is not None
                    else None,
                }
                for rec in result.records
            ],
            "atoms": result.measure.to_json() if result.measure is not None else None,
            "atoms_at_infinity": result.atoms_at_infinity.to_json()
            if result.atoms_at_infinity is not None
            else None,
        }
    )
    _write_report(report, args.out)
    with _stdout_may_close():
        _print_sweep(args, command, problem, kind, result)
    return _EXIT_BY_STATUS[result.status]


def _print_sweep(args, command: str, problem, kind: str, result) -> None:
    print(f"problem: {args.problem} ({kind}, {problem.nvars} variables)")
    print(f"variant: {args.variant}")
    for warning in result.warnings:
        print(f"warning: {warning}")
    print(f"{'k':>3}  {'status':<18} {'moment value':>16} {'sos value':>16}  certified")
    for rec in result.records:
        print(
            f"{rec.order:>3}  {rec.status:<18} {_fmt(rec.moment_value):>16} "
            f"{_fmt(rec.sos_value):>16}  {'yes' if rec.certified else 'no'}"
        )
    if command == "certify-flat":
        for rec in result.records:
            cert = rec.certificate
            if cert is None:
                print(f"order {rec.order}: not solved ({rec.message or rec.status})")
                continue
            print(f"order {rec.order}: {cert.reason}")
            if cert.flat is not None:
                for t, lo, hi in cert.flat.ranks:
                    print(f"  t={t}: rank(low)={lo} rank(full)={hi}")
            if cert.moment_error is not None:
                print(f"  moment reconstruction error {cert.moment_error:.2e}")
    if result.status == "converged":
        print(f"converged at order {result.order}: value {result.value:.9f}")
        if result.theta is not None:
            formatted = ", ".join(f"{float(t):.9g}" for t in result.theta)
            print(f"pairing multipliers: [{formatted}]")
        if result.measure is not None:
            _print_atoms(result.measure.to_json(), "atoms (weight @ point):")
        if result.atoms_at_infinity is not None and result.atoms_at_infinity.num_atoms:
            _print_atoms(
                result.atoms_at_infinity.to_json(),
                "directions at infinity (weight @ point):",
            )
    elif result.status == "unresolved":
        print(
            f"no order certified; value {_fmt(result.value)} "
            f"at the highest solved order {result.order}"
        )
    else:
        print("no relaxation order could be solved")


def _run_check_kkt(args) -> int:
    _check_tols(args)
    problem = _load_problem(args.problem)
    if not isinstance(problem, PopProblem):
        raise _InputError(
            "check-kkt expects a polynomial optimization problem "
            "(a file without a 'gmp' block)"
        )
    try:
        point = [float(v) for v in args.point.replace(",", " ").split()]
    except ValueError:
        raise _InputError(f"cannot parse --point {args.point!r}")
    if not all(math.isfinite(v) for v in point):
        raise _InputError(f"--point {args.point!r} has a coordinate that is not finite")
    if len(point) != problem.nvars:
        raise _InputError(
            f"--point has {len(point)} coordinates, problem has {problem.nvars}"
        )
    rep = check_optimality(problem, point, act_tol=args.act_tol, tol=args.tol)

    report = _report_header("check-kkt", args)
    report.update(
        {
            "tolerances": {"act": args.act_tol, "tol": args.tol},
            "report": rep.as_json(),
        }
    )
    _write_report(report, args.out)
    eig = rep.reduced_hessian_min_eig
    extra = "vacuous" if eig is None else f"min eigenvalue {eig:.6f}"
    with _stdout_may_close():
        print(f"problem: {args.problem} (pop, {problem.nvars} variables)")
        print("point: [" + ", ".join(f"{v:.9g}" for v in rep.point) + "]")
        print(f"objective: {rep.objective:.9f}")
        print(f"feasible: {rep.feasible}")
        print(f"active inequalities: {list(rep.active_inequalities)}")
        print(f"licq: {rep.licq}")
        print(f"kkt residual: {rep.kkt_residual:.3e} (stationary: {rep.stationary})")
        print(f"strict complementarity: {rep.strict_complementarity}")
        print(f"sosc: {rep.sosc} ({extra})")
    return 0


def _run_dump(args) -> int:
    problem = _load_problem(args.problem)
    try:
        k = args.kmin
        if k is None:
            k = variant_minimum_order(problem, args.variant)
        comp = compile_relaxation(problem, args.variant, k)
    except ValueError as exc:
        raise _InputError(str(exc))
    if args.out:
        with _open_output(args.out) as fh:
            write_sparse_sdp(comp.sdp, fh)
    with _stdout_may_close():
        if args.out:
            print(f"wrote order-{k} {args.variant} SDP to {args.out}")
        else:
            write_sparse_sdp(comp.sdp, sys.stdout)
    return 0


@contextlib.contextmanager
def _debug_log_to_stderr():
    """Send the package's DEBUG records (the solver's iterations) to stderr."""
    logger = logging.getLogger("momentsos")
    handler = logging.StreamHandler(sys.stderr)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("solve", "certify-flat"):
            with _debug_log_to_stderr() if args.verbose else contextlib.nullcontext():
                return _run_hierarchy(args, args.command)
        if args.command == "check-kkt":
            return _run_check_kkt(args)
        return _run_dump(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
