"""Per-layer spans recorded from outside the package.

A traced pass replaces public names of momentsos with timing wrappers, at the
place their caller looks them up, and puts every name back afterwards. The
LAPACK calls of the solver are timed through a forwarding stand-in for the
`sla` module object that `momentsos.sdp` uses. A name that no longer exists
is recorded as absent and its span reads zero.

Each wrapped call is a span. A span's self time is its duration minus the
durations of the wrapped calls made directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute path, span). Several names may feed one span.
SPANS = (
    ("momentsos.cli", "main", "cli.main"),
    ("momentsos.cli", "problem_from_json", "relaxations.problem_from_json"),
    ("momentsos.cli", "solve_hierarchy", "hierarchy.solve_hierarchy"),
    ("momentsos.hierarchy", "solve_hierarchy", "hierarchy.solve_hierarchy"),
    ("momentsos.hierarchy", "moment_relaxation", "relaxations.compile"),
    ("momentsos.hierarchy", "homogenized_relaxation", "relaxations.compile"),
    ("momentsos.hierarchy", "denominator_relaxation", "relaxations.compile"),
    ("momentsos.hierarchy", "solve_sdp", "sdp.solve"),
    ("momentsos.hierarchy", "certify_relaxation", "certificates.certify"),
    ("momentsos.relaxations", "CompiledRelaxation.sos_certificate",
     "relaxations.sos_certificate"),
    ("momentsos.sdp", "PsdBlock.scaled_rows", "sdp.scaled_rows"),
    ("momentsos.sdp", "PsdBlock.materialize", "sdp.materialize"),
    ("momentsos.sdp", "PsdBlock.adjoint", "sdp.adjoint"),
    ("momentsos.certificates", "flat_truncation", "certificates.flat_truncation"),
    ("momentsos.certificates", "extract_atoms", "certificates.extract_atoms"),
    ("momentsos.certificates", "verify_atoms", "certificates.verify_atoms"),
    ("momentsos.certificates", "moment_matrix", "moments.moment_matrix"),
    ("momentsos.certificates", "tms_from_atoms", "moments.tms_from_atoms"),
    ("momentsos.polynomials", "Polynomial.__mul__", "polynomials.mul"),
    ("momentsos.polynomials", "Polynomial.__rmul__", "polynomials.mul"),
    ("momentsos.polynomials", "Polynomial.evaluate", "polynomials.evaluate"),
)

# scipy.linalg functions the solver calls through `momentsos.sdp.sla`.
LAPACK = ("cho_factor", "cho_solve", "qr", "eigvalsh", "svd", "cholesky",
          "solve_triangular")


_INHERITED = object()


class _Forward:
    """Stands in for a module: timed attributes first, the rest forwarded."""

    def __init__(self, real):
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


def resolve(modname: str, path: str):
    """(owner, attribute name) of a dotted path inside a module."""
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Context manager that installs the wrappers and accumulates spans."""

    def __init__(self):
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.calls = defaultdict(int)
        self._installed = set()
        self._stack = []
        self._saved = []

    def _timed(self, fn, span):
        stack, total, own, calls = self._stack, self.total, self.own, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                total[span] += dt
                own[span] += dt - frame[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _swap(self, owner, attr, new):
        # a class attribute may be inherited; then restoring means deleting
        original = (owner.__dict__.get(attr, _INHERITED) if isinstance(owner, type)
                    else getattr(owner, attr))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        for modname, path, span in SPANS:
            try:
                owner, attr = resolve(modname, path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            self._swap(owner, attr, self._timed(fn, span))
            self._installed.add(span)
        sdp = importlib.import_module("momentsos.sdp")
        real = getattr(sdp, "sla", None)
        if real is not None:
            stand_in = _Forward(real)
            for name in LAPACK:
                if hasattr(real, name):
                    span = f"sdp.lapack.{name}"
                    setattr(stand_in, name, self._timed(getattr(real, name), span))
                    self._installed.add(span)
            self._swap(sdp, "sla", stand_in)

    @property
    def absent(self) -> set:
        """Spans none of whose names exist in the package any more."""
        spans = {span for _, _, span in SPANS} | {f"sdp.lapack.{n}" for n in LAPACK}
        return spans - self._installed

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        return False
