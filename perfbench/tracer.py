"""Outside-in span tracer for the gauss_rinv package.

The tracer never edits the package.  It replaces chosen functions and
methods with timing wrappers for the duration of a traced run and puts
the originals back afterwards:

- a module-level function is rebound in every loaded ``gauss_rinv``
  module namespace that holds it (``solve_exact`` is bound in both
  ``linalg`` and ``rightinverse``, ``inner_product`` in four modules), so
  every caller reaches the wrapper;
- a method is replaced on its class (``Polynomial.__mul__``), which also
  reroutes the operator.

Every call becomes a span (name, start, end, parent span, op id), kept in
compact arrays and written as gzip-compressed JSONL when the run ends (a
battery run holds about a million spans).  Aggregates are
kept as the spans close: ``calls``; ``self_s``, the span's duration minus
the time covered by its child spans; ``total_s``, summed over outermost
spans of a name only, so a recursive or nested call is not counted twice;
and the extra counters listed in ``SPECS``.

A target that the package no longer has (a function removed or renamed)
is skipped and listed in ``skipped``; its metrics read 0.  A counter hook
that cannot read a changed result is switched off for that name and
listed in ``broken_counters``; the call itself is left alone.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


def _count_terms_out(stats, args, kwargs, result):
    stats["terms_out"] += len(result.terms)


def _count_coeffs_out(stats, args, kwargs, result):
    stats["terms_out"] += len(result.coeffs)


def _count_solve_exact(stats, args, kwargs, result):
    matrix, rhs = args[0], args[1]
    stats["rows_sum"] += len(matrix)
    stats["rows_max"] = max(stats["rows_max"], len(matrix))
    bits = max(
        _den_bits(result),
        _den_bits(rhs),
        max((_den_bits(row) for row in matrix), default=0),
    )
    stats["den_bits_max"] = max(stats["den_bits_max"], bits)


def _count_solution_bits(stats, args, kwargs, result):
    bits = _den_bits(result.solution.coeffs.values())
    stats["den_bits_max"] = max(stats["den_bits_max"], bits)


def _count_bound_met(stats, args, kwargs, result):
    stats["bound_met_share"] += bool(result.bound_satisfied)  # divided by calls at the end


def _count_bytes(stats, args, kwargs, result):
    stats["bytes"] += len(result.encode("utf-8"))


def _count_evals(stats, args, kwargs):
    """Wrap the integrand handed to integrate_box so each evaluation counts.

    Every caller in the package passes the integrand as the first
    positional argument.
    """
    fn = args[0]

    def counted(x):
        stats["evals"] += 1
        return fn(x)

    return (counted,) + args[1:], kwargs


# Traced name -> (targets, counters after the call, argument hook before it,
# counter names).  A target is "module:function" or "module:Class.method".
SPECS: dict[str, tuple[tuple[str, ...], object, object, tuple[str, ...]]] = {
    "polynomials.init": (("polynomials:Polynomial.__init__",), None, None, ()),
    "polynomials.mul": (("polynomials:Polynomial.__mul__",), _count_terms_out, None, ("terms_out",)),
    "polynomials.add": (
        (
            "polynomials:Polynomial.__add__",
            "polynomials:Polynomial.__sub__",
            "polynomials:Polynomial.__neg__",
            "polynomials:Polynomial.scale",
        ),
        None,
        None,
        (),
    ),
    "polynomials.pow": (("polynomials:Polynomial.__pow__",), None, None, ()),
    "polynomials.shift": (("polynomials:Polynomial.shift",), None, None, ()),
    "polynomials.calculus": (
        (
            "polynomials:Polynomial.partial",
            "polynomials:Polynomial.gradient",
            "polynomials:Polynomial.laplacian",
        ),
        None,
        None,
        (),
    ),
    "hermite.monomial_to_hermite": (
        ("hermite:monomial_to_hermite",), _count_coeffs_out, None, ("terms_out",),
    ),
    "hermite.to_polynomial": (("hermite:HermiteExpansion.to_polynomial",), None, None, ()),
    "hermite.norms": (
        (
            "hermite:norm_sq",
            "hermite:inner_product",
            "hermite:HermiteExpansion.inner",
            "hermite:HermiteExpansion.norm_sq",
        ),
        None,
        None,
        (),
    ),
    "linalg.solve_exact": (
        ("linalg:solve_exact",), _count_solve_exact, None, ("rows_sum", "rows_max", "den_bits_max"),
    ),
    "linalg.nullspace_exact": (("linalg:nullspace_exact",), None, None, ()),
    "adjoint.commutator": (("adjoint:commutator",), None, None, ()),
    "adjoint.formal_adjoint": (("adjoint:formal_adjoint",), None, None, ()),
    "adjoint.checks": (
        (
            "adjoint:check_commutator_pairing",
            "adjoint:check_adjoint_norm_split",
            "adjoint:check_coercivity",
            "adjoint:check_duality",
            "adjoint:check_adjointness",
        ),
        None,
        None,
        (),
    ),
    "rightinverse.solve_min_norm": (
        ("rightinverse:solve_min_norm",), _count_solution_bits, None, ("den_bits_max",),
    ),
    "rightinverse.enrich": (("rightinverse:enrich",), _count_bound_met, None, ("bound_met_share",)),
    "rightinverse.kernel_basis": (("rightinverse:kernel_basis",), None, None, ()),
    "rightinverse.operator_norm": (("rightinverse:operator_norm",), None, None, ()),
    "domains.integrate_box": (("domains:integrate_box",), None, _count_evals, ("evals",)),
    "domains.solve_bounded": (("domains:solve_bounded",), None, None, ()),
    "domains.embedding_check": (("domains:embedding_check",), None, None, ()),
    "domains.counterexample_report": (("domains:counterexample_report",), None, None, ()),
    "reporting.dump_json": (("reporting:dump_json",), _count_bytes, None, ("bytes",)),
    "cli.run_suite": (("cli:run_suite",), None, None, ()),
    "cli.main": (("cli:main",), None, None, ()),
}

# Units of the per-layer metrics; counters not listed here are counts.
UNITS = {"self_s": "s", "total_s": "s", "den_bits_max": "bits", "bytes": "bytes",
         "bound_met_share": "ratio"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, as (name, unit)."""
    out = []
    for name, (_targets, _after, _before, counters) in SPECS.items():
        fields = ("calls", "self_s", "total_s") + counters
        out.extend((f"{name}.{f}", UNITS.get(f, "count")) for f in fields)
    return out


class Tracer:
    """Wraps the functions in SPECS while installed; spans stay in memory."""

    package = "gauss_rinv"

    def __init__(self):
        self.op = -1
        self.names = list(SPECS)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self._depth = [0] * len(self.names)
        self.counters = [dict.fromkeys(SPECS[n][3], 0) for n in self.names]
        self._undo: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []
        self.broken_counters: set[str] = set()

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for nid, name in enumerate(self.names):
            targets, after, before, _ = SPECS[name]
            for target in targets:
                if not self._install_target(nid, target, modules, after, before):
                    self.skipped.append(target)

    def _install_target(self, nid, target, modules, after, before) -> bool:
        """Wrap one target; False if the package does not have it."""
        module_name, _, attr = target.partition(":")
        module = sys.modules.get(f"{self.package}.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = vars(cls).get(meth) if isinstance(cls, type) else None
            if original is None:
                return False
            self._patch(cls, meth, self._wrap(nid, original, after, before))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = self._wrap(nid, original, after, before)
        bound = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)
                    bound += 1
        return bound > 0

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, nid, fn, after, before):
        tracer = self
        stack, child = self._stack, self._child
        names_append, parents_append = self.span_name.append, self.span_parent.append
        ops_append, starts_append = self.span_op.append, self.span_start.append
        ends, ends_append = self.span_end, self.span_end.append
        depth, calls, self_s, total_s = self._depth, self.calls, self.self_s, self.total_s
        stats = self.counters[nid]
        broken: list[bool] = []

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(stats, args, kwargs)
            idx = len(ends)
            names_append(nid)
            parents_append(stack[-1] if stack else -1)
            ops_append(tracer.op)
            ends_append(0.0)
            stack.append(idx)
            child.append(0.0)
            depth[nid] += 1
            t0 = perf_counter()
            starts_append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                covered = child.pop()
                dur = t1 - t0
                if child:
                    child[-1] += dur
                calls[nid] += 1
                self_s[nid] += dur - covered
                depth[nid] -= 1
                if not depth[nid]:
                    total_s[nid] += dur
            if after is not None and not broken:
                try:
                    after(stats, args, kwargs, result)
                except Exception:  # the result no longer has the shape the counter reads
                    broken.append(True)
                    tracer.broken_counters.add(tracer.names[nid])
            return result

        return functools.update_wrapper(wrapper, fn)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer aggregates named '<module>.<function>.<metric>'."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
            out[f"{name}.total_s"] = self.total_s[nid]
            for counter, value in self.counters[nid].items():
                if name in self.broken_counters:
                    value = 0
                elif counter == "bound_met_share":
                    value = value / self.calls[nid] if self.calls[nid] else 0.0
                out[f"{name}.{counter}"] = value
        return out

    def write_jsonl(self, path: str, origin: float) -> int:
        """Write one JSON object per span, times in seconds from ``origin``."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (nid, parent, op, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end)
            ):
                fh.write(
                    f'{{"id":{i},"name":"{names[nid]}","start":{start - origin:.9f},'
                    f'"end":{end - origin:.9f},"parent":{parent},"op":{op}}}\n'
                )
        return len(self.span_end)
