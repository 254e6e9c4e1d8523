"""Per-layer tracing of one dhecke process, installed from outside the package.

`Tracer.install()` replaces the public functions and methods of each dhecke
module with timing wrappers; nothing under src/ changes.  Two kinds of
wrapper share one call stack:

- span: one record per call (name, start, end, parent span), kept in memory
  and written by `dump()` when the process ends;
- count: hot, tiny methods (scalar arithmetic, group products, group-algebra
  operations, parameter lookups, normal_form) keep an exact call count and
  summed time instead, because a record per call would cost more memory than
  the work it describes.

Every wrapped call adds its duration to its parent's child time, so each
module's self time is the summed duration of its calls minus the time of
the wrapped calls they made.  Time in code that is not wrapped (private
helpers, the standard library) counts toward the nearest wrapped caller.
A name missing from the package (say, deleted by a refactor) is skipped and
listed under "missing".
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SPAN = "span"
COUNT = "count"

# module -> (attribute, kind); "Class.method" names a method.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("main", SPAN),),
    "scalars": tuple(
        (name, COUNT)
        for name in (
            "FieldSpec.__call__", "FieldSpec.parse", "FieldSpec.inverse_of_integer",
            "Scalar.__add__", "Scalar.__sub__", "Scalar.__mul__", "Scalar.__truediv__",
            "Scalar.__neg__", "Scalar.inverse", "scalar_arith",
        )
    ),
    "groups": (
        ("symmetric_group", SPAN),
        ("enumerate_group", SPAN),
        ("GroupTable.product", COUNT),  # the first call per table is a span, see _product
        ("GroupTable.inverse", COUNT),
        ("Perm.__mul__", COUNT),
        ("Perm.inverse", COUNT),
        ("Perm.act_on_vector", COUNT),
        ("MatrixElement.__mul__", COUNT),
        ("MatrixElement.inverse", COUNT),
        ("MatrixElement.act_on_vector", COUNT),
        ("compose", COUNT),
    ),
    "group_algebra": tuple(
        (name, COUNT)
        for name in (
            "AlgebraElement.__init__", "AlgebraElement.zero", "AlgebraElement.term",
            "AlgebraElement.from_pairs", "AlgebraElement.__add__", "AlgebraElement.__sub__",
            "AlgebraElement.__neg__", "AlgebraElement.scale", "AlgebraElement.__mul__",
            "AlgebraElement.mul_left", "AlgebraElement.mul_right", "AlgebraElement.conjugate_by",
            "AlgebraElement.coefficient", "AlgebraElement.is_zero", "AlgebraElement.__eq__",
            "ga_add", "ga_scale", "ga_mul", "conjugate", "coefficient",
        )
    ),
    "linalg": tuple(
        (name, COUNT)
        for name in (
            "zero_vector", "basis_vector", "vec_add", "vec_sub", "vec_scale",
            "is_zero_vector", "rref", "rank", "nullspace", "same_subspace",
        )
    ),
    "parameters": (
        ("LambdaParam.at", COUNT),
        ("LambdaParam.coefficient", COUNT),
        ("LambdaParam.eval_vector", COUNT),
        ("LambdaParam.eval", COUNT),
        ("KappaParam.at", COUNT),
        ("KappaParam.coefficient", COUNT),
        ("KappaParam.eval", COUNT),
        ("element_to_json", COUNT),
        ("element_from_json", COUNT),
        ("algebra_element_to_json", COUNT),
        ("algebra_element_from_json", COUNT),
        ("params_from_json", SPAN),
        ("params_to_json", SPAN),
        ("random_params", SPAN),
        ("extract_alpha_beta", SPAN),
        ("act_on_kappa", SPAN),
        ("act_on_lambda", SPAN),
    ),
    "pbw": (
        ("check_pbw", SPAN),
        ("check_condition", SPAN),  # one name per condition, see _check_condition
        ("diagnose_kappa_support", SPAN),
        ("diagnose_lambda", SPAN),
        ("lemma_suite", SPAN),
    ),
    "rewrite": (
        ("RewriteSystem.check_confluence", SPAN),
        ("RewriteSystem.overlap_words", SPAN),
        ("RewriteSystem.normal_form", COUNT),
        ("RewriteSystem.is_confluent", COUNT),
        ("RewriteSystem.filtered_dimension", COUNT),
        ("parse_word_sum", SPAN),
        ("format_normal_form", SPAN),
        ("nc_mul", COUNT),
        ("nc_add", COUNT),
        ("nc_neg", COUNT),
        ("nc_sub", COUNT),
        ("from_algebra_element", COUNT),
    ),
    "classify": (
        ("MuParams.a_at", COUNT),
        ("MuParams.b_at", COUNT),
        ("MuParams.a_triple", COUNT),
        ("build_H_mu", SPAN),
        ("extract_mu", SPAN),
        ("mu_from_json", SPAN),
        ("mu_to_json", SPAN),
        ("golden_rule", SPAN),
        ("low_dim_family", SPAN),
        ("two_param_family", SPAN),
        ("invariant_kappa_params", SPAN),
        ("bump_c", SPAN),
        ("scale_params", SPAN),
    ),
    "convert": (("gamma", SPAN), ("convert", SPAN), ("verify_isomorphism", SPAN)),
}

# Results whose size is itself a per-layer count.
RESULT_SIZES = {
    "rewrite.RewriteSystem.normal_form": "rewrite.nf_terms",
    "rewrite.RewriteSystem.overlap_words": "rewrite.overlaps",
}


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.stack: list[list[float]] = []  # child time of each open wrapped call
        self.open_spans: list[int] = []
        self.spans: list[list] = []  # [id, name, start, end, parent id or -1]
        self.calls: dict[str, list] = {}  # key -> [count, summed seconds]
        self.self_s: dict[str, list[float]] = {}  # layer -> [seconds]
        self.sizes: dict[str, list[int]] = {name: [0] for name in RESULT_SIZES.values()}
        self.missing: list[str] = []
        self.tables: set[int] = set()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str, kind: str):
        stack = self.stack
        perf = time.perf_counter
        cell = self.calls.setdefault(key, [0, 0.0])
        lay = self.self_s.setdefault(layer, [0.0])
        size = self.sizes.get(RESULT_SIZES.get(key, ""))
        if kind == COUNT:

            def counted(*args, **kwargs):
                stack.append([0.0])
                t = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf() - t
                    child = stack.pop()[0]
                    if stack:
                        stack[-1][0] += dt
                    cell[0] += 1
                    cell[1] += dt
                    lay[0] += dt - child
                if size is not None:
                    size[0] += len(result)
                return result

            return counted

        spans = self.spans
        open_spans = self.open_spans
        origin = self.origin

        def spanned(*args, **kwargs):
            sid = len(spans)
            record = [sid, key, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            spans.append(record)
            open_spans.append(sid)
            stack.append([0.0])
            t = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                dt = end - t
                child = stack.pop()[0]
                if stack:
                    stack[-1][0] += dt
                open_spans.pop()
                record[2] = t - origin
                record[3] = end - origin
                cell[0] += 1
                cell[1] += dt
                lay[0] += dt - child
            if size is not None:
                size[0] += len(result)
            return result

        return spanned

    def _product(self, fn):
        """GroupTable.product: the first call on a table builds its memo."""
        first = self._wrap(fn, "groups.product_table", "groups", SPAN)
        rest = self._wrap(fn, "groups.GroupTable.product", "groups", COUNT)
        tables = self.tables

        def product(table, g, h):
            if id(table) in tables:
                return rest(table, g, h)
            tables.add(id(table))
            return first(table, g, h)

        return product

    def _check_condition(self, fn):
        per_k = {k: self._wrap(fn, f"pbw.cond{k}", "pbw", SPAN) for k in range(1, 6)}
        other = self._wrap(fn, "pbw.check_condition", "pbw", SPAN)

        def check_condition(k, *args, **kwargs):
            return per_k.get(k, other)(k, *args, **kwargs)

        return check_condition

    # -- installation ---------------------------------------------------------

    def _wrapper(self, layer: str, attr: str, kind: str, fn):
        if attr == "GroupTable.product":
            return self._product(fn)
        if attr == "check_condition":
            return self._check_condition(fn)
        return self._wrap(fn, f"{layer}.{attr}", layer, kind)

    def install(self) -> None:
        """Wrap every target of every dhecke module; import dhecke first."""
        import importlib

        modules = {name: importlib.import_module(f"dhecke.{name}") for name in TARGETS}
        namespaces = [m for name, m in sys.modules.items() if name == "dhecke" or name.startswith("dhecke.")]
        for layer, targets in TARGETS.items():
            module = modules[layer]
            for attr, kind in targets:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    raw = vars(cls).get(meth) if cls is not None else None
                    if isinstance(raw, staticmethod):
                        setattr(cls, meth, staticmethod(self._wrapper(layer, attr, kind, raw.__func__)))
                    elif callable(raw):
                        setattr(cls, meth, self._wrapper(layer, attr, kind, raw))
                    else:
                        self.missing.append(f"{layer}.{attr}")
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{layer}.{attr}")
                    continue
                # Rebind every name the package holds for it, since modules import each other's names.
                wrapped = self._wrapper(layer, attr, kind, fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, name, wrapped)

    # -- output ---------------------------------------------------------------

    def dump(self, path: Path) -> None:
        payload = {
            "calls": self.calls,
            "self_s": {layer: cell[0] for layer, cell in self.self_s.items()},
            "sizes": {name: cell[0] for name, cell in self.sizes.items()},
            "spans": self.spans,
            "missing": self.missing,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
