"""Span tracer that wraps harperlab's public functions from outside.

Modules of the package import each other's functions by name
(``spectral.bisect_eigenvalues``, ``model.sturm_count``, ``cocycle.c_function``
...), so patching only the defining module would miss most calls.  The tracer
replaces every binding of a traced function in every harperlab module, plus
the class attribute for methods.

Each call becomes one span: name, start, end, parent span and the benchmark op
that caused it.  Spans live in memory (per thread) until ``save``.  Self time
is a span's duration minus the part of it that its child spans cover; child
spans from worker threads (``--threads 2``) are attributed to the span that
was open on the main thread when they started, and their overlap is merged,
so self time never double-counts.

Work counters are computed from call arguments and return values, outside
the program; nothing inside harperlab is modified.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array

import numpy as np

__all__ = ["Tracer", "TRACED"]


def _n(x):
    return int(np.size(x))


def _arg(args, kwargs, i, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[i] if len(args) > i else default


# "module.function" -> (counter keys, counter(args, kwargs, result, exc)).
# Counters are computed outside the program from arguments and return
# values; a function without counters records calls and self time only.
TRACED = {
    "_tridiag.bisect_eigenvalues": (("eigs", "rows"), lambda a, k, r, e: {
        "eigs": _n(r),
        "rows": _n(_arg(a, k, 0, "diag")),
    }),
    "_tridiag.sturm_count": (("shift_rows",), lambda a, k, r, e: {
        "shift_rows": _n(_arg(a, k, 0, "diag")) * _n(_arg(a, k, 2, "shifts")),
    }),
    "_tridiag.inverse_iteration": ((), None),
    "_tridiag.scaled_det_forward": ((), None),
    "_tridiag.scaled_det_backward": ((), None),
    "model.build_truncation": (("sites",), lambda a, k, r, e: {
        "sites": _arg(a, k, 2, "x2") - _arg(a, k, 1, "x1") + 1,
    }),
    "model.green_function": ((), None),
    "model.orbit_phases": (("sites",), lambda a, k, r, e: {
        "sites": _arg(a, k, 3, "count"),
    }),
    "model.c_function": (("points",), lambda a, k, r, e: {
        "points": _n(_arg(a, k, 2, "theta")),
    }),
    "model.abs_c_function": ((), None),
    "model.OperatorSample.alpha_fraction": ((), None),
    "cocycle.lyapunov_numeric": (("lanes", "step_lanes", "excluded_lanes"), lambda a, k, r, e: {
        "lanes": r.theta_grid,
        "step_lanes": r.n_steps * r.theta_grid,
        "excluded_lanes": int(round(r.excluded_fraction * r.theta_grid)),
    }),
    "cocycle.n_step": (("steps",), lambda a, k, r, e: {"steps": _arg(a, k, 3, "n")}),
    "cocycle.rotation_number": (("steps",), lambda a, k, r, e: {"steps": r.n_steps}),
    "cocycle.transfer": ((), None),
    "cocycle.solve_cohomological": (("modes",), lambda a, k, r, e: {
        "modes": _n(r[0]) - 1,
    }),
    "cocycle.commutant_rigidity_check": (("modes",), lambda a, k, r, e: {
        "modes": r.modes_checked,
    }),
    "spectral.truncated_spectrum": ((), None),
    "spectral.duality_check": (("eigs", "boundary_filtered"), lambda a, k, r, e: {
        # both sides: one eigenvalue per row per phase
        "eigs": 2 * r[1].size * len(r[1].phases),
        "boundary_filtered": sum(r[1].boundary_filtered),
    }),
    "spectral.decay_fit": ((), None),
    "spectral.badness_scan": (("recurrence_sites",), lambda a, k, r, e: {
        # energies x lanes x sites of the two-sided recurrence; a refine
        # adds 63 single-lane golden-section evaluations per energy
        "recurrence_sites": len(r.E_grid)
        * (r.angles + (63 if _arg(a, k, 7, "refine", False) else 0))
        * (2 * r.N - 1),
    }),
    "spectral.perturbation_experiment": ((), None),
    "spectral.regularity_test": (("windows", "windows_skipped"),
                                 lambda a, k, r, e: _regularity_windows(a, k, r)),
    "spectral.delta_exponent": ((), None),
    "contfrac.forge": (("digit_bits", "truncated"), lambda a, k, r, e: {
        "digit_bits": sum(d.bit_length() for d in r.digits(r.depth)),
        "truncated": int(r.truncated),
    }),
    "contfrac.floor_exp": ((), None),
    "contfrac.expand": ((), None),
    "contfrac.beta_exponent": ((), None),
    "contfrac.dc_membership": ((), None),
    "contfrac.dc_alpha_membership": ((), None),
    "contfrac.ContinuedFraction.fraction": (("q_bits",), lambda a, k, r, e: {
        "q_bits": r.denominator.bit_length(),
    }),
    "contfrac.ContinuedFraction.from_json": (("bytes",), lambda a, k, r, e: {
        "bytes": len(_arg(a, k, 1, "text")),
    }),
    "cli.run": (("failed",), lambda a, k, r, e: {"failed": int(e is not None)}),
    "cli.resolve_frequency_spec": ((), None),
}

# counters that are recorded even when the call raised
_COUNT_ON_ERROR = {"cli.run"}


def _regularity_windows(a, k, r):
    """Windows tried by regularity_test: all of them unless one qualified."""
    kk = _arg(a, k, 4, "k")
    y = _arg(a, k, 2, "y")
    d = -(-kk // 9)
    first = y + d - kk + 1
    tried = (r.window[0] - first + 1) if r.regular else (kk - 2 * d)
    return {"windows": tried, "windows_skipped": len(r.skipped)}


def _union_length(intervals):
    """Total length covered by possibly overlapping (start, end) intervals."""
    if not intervals:
        return 0.0
    if len(intervals) > 1:
        intervals.sort()
    total = 0.0
    cur_s, cur_e = intervals[0]
    for s, e in intervals[1:]:
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    return total + (cur_e - cur_s)


class _ThreadState:
    """Per-thread open-span stack, span records and aggregates."""

    def __init__(self, thread_id):
        self.thread_id = thread_id
        self.stack = []  # frames: [span_id, name_id, start, child_intervals]
        self.ids = array("q")
        self.names = array("i")
        self.parents = array("q")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.calls = {}
        self.self_s = {}
        self.counts = {}


class Tracer:
    """Install with ``install()``; read with ``aggregates()``; ``save()`` spans."""

    def __init__(self, package):
        self.package = package
        self.names = list(TRACED)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self._ids = itertools.count()
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._main = self._state()
        self._restore = []
        self.op_id = -1
        self.root_time = 0.0  # main-thread top-level span time

    # -- state ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._states_lock:
                self._states.append(st)
        return st

    # -- wrapping ------------------------------------------------------

    def _wrap(self, full, fn, counter):
        tracer = self
        name_id = self._name_id[full]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            elif st is not tracer._main and tracer._main.stack:
                parent = tracer._main.stack[-1]  # worker thread of an open span
            else:
                parent = None
            frame = [next(tracer._ids), name_id, 0.0, []]
            stack.append(frame)
            exc = None
            frame[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                result = None
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - _union_length(frame[3])
                st.calls[name_id] = st.calls.get(name_id, 0) + 1
                st.self_s[name_id] = st.self_s.get(name_id, 0.0) + own
                if parent is not None:
                    parent[3].append((start, end))
                elif st is tracer._main:
                    tracer.root_time += dur
                st.ids.append(frame[0])
                st.names.append(name_id)
                st.parents.append(parent[0] if parent is not None else -1)
                st.ops.append(tracer.op_id)
                st.starts.append(start)
                st.ends.append(end)
                if counter is not None and (exc is None or full in _COUNT_ON_ERROR):
                    for key, val in counter(args, kwargs, result, exc).items():
                        ck = (name_id, key)
                        st.counts[ck] = st.counts.get(ck, 0) + int(val)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", full)
        return traced

    def install(self):
        """Replace every binding of each traced function in the package."""
        import importlib

        pkg = self.package
        modules = [pkg] + [
            importlib.import_module(f"{pkg.__name__}.{m}")
            for m in ("_tridiag", "model", "cocycle", "spectral", "contfrac", "cli")
        ]
        for full, (_, counter) in TRACED.items():
            mod_name, qual = full.split(".", 1)
            home = importlib.import_module(f"{pkg.__name__}.{mod_name}")
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(full, raw.__func__, counter))
                else:
                    wrapped = self._wrap(full, raw, counter)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            fn = getattr(home, qual)
            wrapped = self._wrap(full, fn, counter)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._restore.append((mod, attr, val))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    # -- results -------------------------------------------------------

    def aggregates(self):
        """{name: {"calls": n, "self_s": s, <counter>: n}} summed over threads."""
        out = {n: {"calls": 0, "self_s": 0.0} for n in self.names}
        for st in self._states:
            for nid, c in st.calls.items():
                out[self.names[nid]]["calls"] += c
            for nid, s in st.self_s.items():
                out[self.names[nid]]["self_s"] += s
            for (nid, key), c in st.counts.items():
                row = out[self.names[nid]]
                row[key] = row.get(key, 0) + c
        return out

    def save(self, path):
        """Write every span (name, start, end, parent, op, thread) as .npz."""
        cols = {k: [] for k in ("id", "name", "parent", "op", "start", "end", "thread")}
        for st in self._states:
            cols["id"].append(np.frombuffer(st.ids, dtype=np.int64))
            cols["name"].append(np.frombuffer(st.names, dtype=np.int32))
            cols["parent"].append(np.frombuffer(st.parents, dtype=np.int64))
            cols["op"].append(np.frombuffer(st.ops, dtype=np.int32))
            cols["start"].append(np.frombuffer(st.starts, dtype=np.float64))
            cols["end"].append(np.frombuffer(st.ends, dtype=np.float64))
            cols["thread"].append(np.full(len(st.ids), st.thread_id % (1 << 62), dtype=np.int64))
        arrays = {k: (np.concatenate(v) if v else np.empty(0)) for k, v in cols.items()}
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), **arrays)
        return int(sum(len(st.ids) for st in self._states))
