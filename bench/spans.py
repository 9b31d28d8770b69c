"""In-memory span tracer that times calls into qldp's layers from outside.

Nothing in ``src/`` knows about it: :meth:`Tracer.install` replaces each
traced function at every name where the package looks it up.  Modules bind
names with ``from .linalg import validate_density``, so the tracer patches
every module attribute that *is* the original function, not only the one in
the defining module.  The numpy entry points (``np.linalg.eigh``,
``eigvalsh``, ``norm`` with ``ord=2``) and ``qldp.optimal.linprog`` are
patched as attributes.

A span is (name, start, end, parent, operation id).  A call into a span name
that is already open (``validate_density`` calling ``validate_hermitian``)
is counted but opens no second span, so every span time is inclusive and
never counted twice.  Spans stay in compact arrays until :meth:`summary` or
:meth:`write` reads them at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Span name -> (module, attribute) pairs whose function objects it covers.
LAYER_FUNCTIONS = {
    "linalg.validate": [("linalg", "validate_hermitian"), ("linalg", "validate_density")],
    "linalg.json": [("linalg", "matrix_to_json"), ("linalg", "matrix_from_json")],
    "frames.build": [("frames", "build_eitff")],
    "frames.verify": [("frames", "verify_eitff")],
    "mechanisms.construct": [
        ("mechanisms", "isoclinic_mechanism"),
        ("mechanisms", "sigma_star"),
        ("mechanisms", "tilde_family"),
        ("mechanisms", "induced_mechanism"),
        ("mechanisms", "binary_mechanism"),
        ("mechanisms", "subset_mechanism"),
    ],
    "mechanisms.level": [("mechanisms", "qldp_level"), ("mechanisms", "ldp_level")],
    "mechanisms.audit": [("mechanisms", "audit_qldp"), ("mechanisms", "audit_ldp")],
    "mechanisms.load": [("mechanisms", "mechanism_from_json")],
    "metrics.chernoff": [("metrics", "chernoff_information"), ("metrics", "classical_chernoff")],
    "metrics.relent": [("metrics", "relative_entropy"), ("metrics", "classical_relative_entropy")],
    "metrics.fdiv": [("metrics", "petz_f_divergence"), ("metrics", "classical_f_divergence")],
    "metrics.petz": [("metrics", "petz_metric"), ("metrics", "induced_metric")],
    "metrics.holevo": [("metrics", "holevo_information")],
    "exponents.numeric": [("exponents", "sym_exponent"), ("exponents", "asym_exponent")],
    "exponents.closed_form": [("exponents", "closed_form_exponents")],
    "optimal.lp": [("optimal", "kairouz_lp")],
    "suites.sandwich": [("suites", "sandwich_suite")],
    "suites.dpi": [("suites", "dpi_suite")],
    "suites.measurement": [("suites", "measurement_suite")],
    "suites.eta_mixing": [("suites", "eta_mixing_suite")],
    "suites.scalar": [("suites", "scalar_suite")],
    "suites.expansion": [("suites", "expansion_suite")],
    "sampling.draw": [
        ("sampling", "random_density"),
        ("sampling", "random_hermitian"),
        ("sampling", "random_traceless_hermitian"),
        ("sampling", "random_unitary"),
        ("sampling", "random_povm"),
        ("sampling", "random_mean_zero_directions"),
    ],
    "cli.main": [("cli", "main")],
}

# Spans opened by the numpy and scipy wrappers rather than LAYER_FUNCTIONS.
EIG, NORM2, SOLVER = "linalg.eig", "linalg.norm2", "optimal.solver"
SPAN_NAMES = tuple(LAYER_FUNCTIONS) + (EIG, NORM2, SOLVER)


class Tracer:
    """Span recorder; one instance per traced run, never shared between runs."""

    def __init__(self):
        self._name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[int] = []
        self._open = Counter()
        self.calls = Counter()
        self.op_id = 0
        self.counters = Counter()
        self._eig_seen: set = set()
        self._restore: list = []

    # Recording.

    def begin_op(self, op_id: int) -> None:
        """Start a new operation: later spans carry its id; eig repeats are per operation."""
        self.op_id = op_id
        self._eig_seen = set()

    def call(self, name: str, fn, *args, **kwargs):
        self.calls[name] += 1
        if self._open[name]:
            return fn(*args, **kwargs)
        index = len(self._name)
        self._name.append(self._name_ids[name])
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op_id)
        self._end.append(0.0)
        self._stack.append(index)
        self._open[name] += 1
        self._start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[index] = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()

    def counting(self, counter: str, fn):
        """Wrap ``fn`` so each call adds one to ``counters[counter]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Patching.

    def install(self, qldp) -> None:
        """Patch every binding of the traced functions; :meth:`uninstall` undoes it."""
        modules = [m for name, m in sys.modules.items() if name == "qldp" or name.startswith("qldp.")]
        for span, sites in LAYER_FUNCTIONS.items():
            for module_name, attr in sites:
                original = getattr(getattr(qldp, module_name), attr)
                wrapper = self._span_wrapper(span, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        self._patch(np.linalg, "eigh", self._eig_wrapper(np.linalg.eigh))
        self._patch(np.linalg, "eigvalsh", self._eig_wrapper(np.linalg.eigvalsh))
        self._patch(np.linalg, "norm", self._norm_wrapper(np.linalg.norm))
        self._patch(qldp.optimal, "linprog", self._solver_wrapper(qldp.optimal.linprog))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []

    def _patch(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _span_wrapper(self, span, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(span, fn, *args, **kwargs)

        return wrapper

    def _eig_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            arr = np.asarray(a)
            if arr.ndim >= 2:
                d = arr.shape[-1]
                self.counters["eig_d3"] += int(np.prod(arr.shape[:-2], dtype=np.int64)) * d**3
                key = (arr.shape, arr.dtype.str, hash(np.ascontiguousarray(arr).tobytes()))
                if key in self._eig_seen:
                    self.counters["eig_repeats"] += 1
                self._eig_seen.add(key)
            return self.call(EIG, fn, a, *args, **kwargs)

        return wrapper

    def _norm_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(x, ord=None, *args, **kwargs):
            if ord == 2:
                return self.call(NORM2, fn, x, ord, *args, **kwargs)
            return fn(x, ord, *args, **kwargs)

        return wrapper

    def _solver_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = self.call(SOLVER, fn, *args, **kwargs)
            self.counters["solver_iters"] += int(getattr(res, "nit", 0))
            return res

        return wrapper

    # Reading.

    def _arrays(self):
        # Copies: a live numpy view would stop the arrays from growing.
        name = np.array(self._name, dtype=np.int32)
        start = np.array(self._start, dtype=np.float64)
        end = np.array(self._end, dtype=np.float64)
        parent = np.array(self._parent, dtype=np.int32)
        op = np.array(self._op, dtype=np.int32)
        return name, start, end, parent, op

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct child spans cover."""
        _, start, end, parent, _ = self._arrays()
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return duration - child

    def summary(self) -> dict:
        """Per span name: count, inclusive and self seconds."""
        name, start, end, _, _ = self._arrays()
        duration = end - start
        own = self.self_times()
        out = {}
        for span, i in self._name_ids.items():
            mine = name == i
            out[span] = {
                "spans": int(np.count_nonzero(mine)),
                "seconds": float(duration[mine].sum()),
                "self_seconds": float(own[mine].sum()),
            }
        return out

    def write(self, path) -> int:
        """Write every span as a tab-separated line; returns the number written."""
        columns = [a.tolist() for a in self._arrays()] + [self.self_times().tolist()]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\tself\n")
            for i, (name, start, end, parent, op, own) in enumerate(zip(*columns)):
                fh.write(f"{i}\t{SPAN_NAMES[name]}\t{start!r}\t{end!r}\t{parent}\t{op}\t{own!r}\n")
        return len(columns[0])
