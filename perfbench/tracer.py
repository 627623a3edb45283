"""Per-layer tracing of spgroth from outside the program.

`Tracer.install()` wraps the public functions of each spgroth module, the
operator methods of `MultiPoly` and the Schubert peel, and rebinds every
wrapper in each spgroth namespace that holds the original (including dicts
such as `polyring.OPERATORS`).  Spans are aggregated in memory per
(function, parent function); nothing is written while the program runs.

Layers are the modules `coxeter`, `polyring`, `grothendieck`, `stable` and
`cli`.  Each wrapped function belongs to one group, and the per-layer
metrics are sums over groups plus a few counters that depend on which spans
are open when a call starts (for instance, a beta divided difference that
starts inside a family span is one step of a family descent).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("coxeter", "polyring", "grothendieck", "stable", "cli")

# function name -> group, per module; public functions not named here fall
# into "<layer>.other" (coxeter has a single group)
GROUPS = {
    "polyring": {
        "MultiPoly.__mul__": "polyring.mul",
        "MultiPoly.__rmul__": "polyring.mul",
        "MultiPoly.__add__": "polyring.add",
        "MultiPoly.__radd__": "polyring.add",
        "MultiPoly.__sub__": "polyring.add",
        "MultiPoly.__eq__": "polyring.eq",
        "MultiPoly.canonical_text": "polyring.serialize",
        "MultiPoly.to_json_obj": "polyring.serialize",
        "divided_diff": "polyring.divided_diff",
        "beta_divided_diff": "polyring.beta_divided_diff",
        "isobaric": "polyring.isobaric",
        "truncate": "polyring.truncate",
    },
    "grothendieck": {
        "grothendieck": "grothendieck.grothendieck",
        "sp_grothendieck": "grothendieck.sp_grothendieck",
        "schubert": "grothendieck.schubert",
        "expand_in_grothendieck_basis": "grothendieck.peel",
        "expand_in_grothendieck_basis_censored": "grothendieck.peel",
        "verify_lenart_transition": "grothendieck.transition",
        "verify_sp_transition": "grothendieck.transition",
        "sp_transition_recurrence": "grothendieck.transition",
    },
    "stable": {
        "set_valued_tableaux": "stable.tableau",
        "shifted_set_valued_tableaux": "stable.tableau",
        "stable_groth_partition": "stable.shape_series",
        "gp_partition": "stable.shape_series",
        "expand_in_G_basis": "stable.basis_expand",
        "expand_in_GP_basis": "stable.basis_expand",
        "stable_groth_perm": "stable.stable_groth_perm",
        "gp_sp": "stable.gp_sp",
        "verify_f_grass": "stable.verify",
        "verify_stable_sp_transition": "stable.verify",
    },
    "cli": {"main": "cli"},
}

METHODS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__eq__",
           "canonical_text", "to_json_obj")

FAMILY = ("grothendieck.grothendieck", "grothendieck.sp_grothendieck")


def _group(layer: str, name: str) -> str:
    if layer == "coxeter":
        return "coxeter"
    return GROUPS.get(layer, {}).get(name, f"{layer}.other")


class _Fn:
    """Aggregate for one wrapped function."""

    __slots__ = ("name", "group", "is_family", "counts_input", "calls", "yields",
                 "terms_out", "terms_in", "reuse", "self_s")

    def __init__(self, name: str, group: str):
        self.name = name
        self.group = group
        self.is_family = group in FAMILY
        self.counts_input = group in ("polyring.truncate", "polyring.serialize")
        self.calls = self.yields = self.terms_out = self.terms_in = self.reuse = 0
        self.self_s = 0.0


class Tracer:
    """Spans and counters of one traced process; see the module docstring."""

    def __init__(self):
        # frame: [fn, start, child_seconds, kernel_ops_at_start]
        self.stack: list[list] = [[None, 0.0, 0.0, 0]]
        self.spans: dict[tuple[str, str], list[float]] = {}  # (fn, parent) -> [n, total, self]
        self.fns: dict[str, _Fn] = {}
        self.open = {"family": 0, "peel": 0, "basis_expand": 0}
        self.kernel_ops = 0
        self.peak_terms = 0
        self.descent_steps = 0
        self.peel_pivots = 0
        self.peel_divided_diffs = 0
        self.basis_pivots = 0
        self.out_bytes = 0

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, fn: _Fn) -> None:
        group, open_ = fn.group, self.open
        if group.startswith("polyring.") and group != "polyring.other":
            self.kernel_ops += 1
        if group == "polyring.beta_divided_diff" and open_["family"]:
            self.descent_steps += 1
        elif group == "polyring.divided_diff" and open_["peel"] and not open_["family"]:
            self.peel_divided_diffs += 1
        elif group == "grothendieck.schubert" and open_["peel"]:
            self.peel_pivots += 1
        elif group == "stable.shape_series" and open_["basis_expand"]:
            self.basis_pivots += 1
        if fn.is_family:
            open_["family"] += 1
        elif group == "grothendieck.peel":
            open_["peel"] += 1
        elif group == "stable.basis_expand":
            open_["basis_expand"] += 1
        self.stack.append([fn, time.perf_counter(), 0.0, self.kernel_ops])

    def _exit(self) -> None:
        end = time.perf_counter()
        fn, start, child, kernel_at_start = self.stack.pop()
        parent = self.stack[-1]
        duration = end - start
        parent[2] += duration
        key = (fn.name, parent[0].name if parent[0] else "")
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        fn.self_s += duration - child
        if fn.is_family:
            self.open["family"] -= 1
            if self.kernel_ops == kernel_at_start:
                fn.reuse += 1
        elif fn.group == "grothendieck.peel":
            self.open["peel"] -= 1
        elif fn.group == "stable.basis_expand":
            self.open["basis_expand"] -= 1

    def _note_result(self, fn: _Fn, result) -> None:
        terms = getattr(result, "terms", None)
        if type(terms) is dict:
            n = len(terms)
            fn.terms_out += n
            if n > self.peak_terms:
                self.peak_terms = n

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, fn: _Fn, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            fn.calls += 1
            if fn.counts_input:
                fn.terms_in += len(args[0].terms)
            tracer._enter(fn)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._note_result(fn, result)
            return result

        return traced

    def _wrap_generator(self, fn: _Fn, original):
        """Each resumption of the generator is a span, so time spent between
        items stays with the consumer."""
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            fn.calls += 1
            gen = original(*args, **kwargs)
            while True:
                tracer._enter(fn)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit()
                fn.yields += 1
                yield item

        return traced

    def _wrap(self, name: str, group: str, original):
        fn = self.fns[name] = _Fn(name, group)
        if inspect.isgeneratorfunction(original):
            return self._wrap_generator(fn, original)
        return self._wrap_function(fn, original)

    def install(self) -> None:
        """Wrap and rebind.  The modules must already be imported; they are
        looked up in sys.modules because the package attribute
        `spgroth.grothendieck` is the function, not the module."""
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "spgroth" or n.startswith("spgroth."))]
        for layer in LAYERS:
            module = sys.modules[f"spgroth.{layer}"]
            for attr, original in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(original)
                        or original.__module__ != module.__name__):
                    continue
                if layer == "cli" and attr != "main":
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, _group(layer, attr), original)
                _rebind(namespaces, original, wrapper)
        poly = sys.modules["spgroth.polyring"].MultiPoly
        for attr in METHODS:
            original = poly.__dict__.get(attr)
            if inspect.isfunction(original):
                name = f"MultiPoly.{attr}"
                setattr(poly, attr, self._wrap(f"polyring.{name}", _group("polyring", name),
                                               original))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        fields = ("calls", "self_s", "yields", "terms_out", "terms_in", "reuse")
        groups: dict[str, dict[str, float]] = {}
        for fn in self.fns.values():
            total = groups.setdefault(fn.group, dict.fromkeys(fields, 0))
            for field in fields:
                total[field] += getattr(fn, field)
        empty = dict.fromkeys(fields, 0)

        def grp(name):
            return groups.get(name, empty)

        m: dict[str, float] = {}
        for name in ("polyring.mul", "polyring.divided_diff", "polyring.beta_divided_diff",
                     "polyring.isobaric", "polyring.truncate", "polyring.add", "polyring.eq",
                     "grothendieck.sp_grothendieck", "grothendieck.grothendieck",
                     "grothendieck.peel", "grothendieck.transition",
                     "stable.basis_expand", "stable.stable_groth_perm", "stable.gp_sp",
                     "stable.verify", "coxeter"):
            m[f"{name}.calls"] = grp(name)["calls"]
            m[f"{name}.self_s"] = grp(name)["self_s"]
        m["polyring.mul.terms_out"] = grp("polyring.mul")["terms_out"]
        trunc = grp("polyring.truncate")
        m["polyring.truncate.kept_ratio"] = (trunc["terms_out"] / trunc["terms_in"]
                                             if trunc["terms_in"] else 0.0)
        m["polyring.peak_terms"] = self.peak_terms
        m["polyring.serialize.self_s"] = grp("polyring.serialize")["self_s"]
        m["polyring.serialize.terms"] = grp("polyring.serialize")["terms_in"]
        m["grothendieck.family.descent_steps"] = self.descent_steps
        family_calls = sum(grp(name)["calls"] for name in FAMILY)
        m["grothendieck.family.reuse_ratio"] = (sum(grp(name)["reuse"] for name in FAMILY)
                                                / family_calls if family_calls else 0.0)
        m["grothendieck.peel.pivots"] = self.peel_pivots
        m["grothendieck.peel.divided_diff_calls"] = self.peel_divided_diffs
        m["stable.tableaux"] = grp("stable.tableau")["yields"]
        m["stable.tableau.self_s"] = grp("stable.tableau")["self_s"]
        m["stable.basis_expand.pivots"] = self.basis_pivots
        m["cli.self_s"] = grp("cli")["self_s"]
        m["cli.out_bytes"] = self.out_bytes
        return m

    def span_table(self) -> list[dict]:
        """The aggregated spans, largest self time first."""
        rows = [{"fn": name, "parent": parent, "calls": n, "total_s": total, "self_s": self_s}
                for (name, parent), (n, total, self_s) in self.spans.items()]
        rows.sort(key=lambda r: -r["self_s"])
        return rows


def _rebind(namespaces, original, wrapper) -> None:
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
