"""Layer tracing from outside the package: wrap public entry points, time calls.

Every wrapped call pushes a frame on one stack, so a call's self time is its
duration minus the time spent in wrapped calls beneath it, whichever layer
those belong to.  Coarse calls (checks, builders, certificates, law sweeps,
`hom`) also leave a span -- id, name, parent id, start, end -- kept in memory
and written out when the benchmark ends.  Per-morphism calls (`compose`,
`morph`) only update per-name counters, so memory stays bounded however many
morphisms a workload composes.

`Tracer.install` patches module attributes and class methods in place and
returns a function that restores them; nothing under the package's source
tree is edited.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Any, Callable

# (module, function names, counter name) for coarse module-level functions.
# The counter name's prefix before the first dot is the layer.
COARSE_FUNCTIONS = (
    ("engine", ("check_p_witness", "check_fp_witness", "check_degree_witness"),
     "engine.check"),
    ("core", ("check_category_laws", "check_functor_laws"), "core.laws"),
    ("core", ("check_frank_at",), "core.frank"),
    ("constructions", ("fp_to_p_construct", "r_fp_witness", "tree_fp_witness",
                       "product_witness", "product_ramsey_numbers",
                       "word_witness", "hj_witness", "fouche_witness",
                       "p_pigeonhole_witness"), "constructions.build"),
    ("certificates", ("hom_fingerprint",), "certificates.fingerprint"),
    ("certificates", ("p_certificate", "fp_certificate", "dump_certificate"),
     "certificates.build"),
    ("certificates", ("parse_certificate", "replay_verify"),
     "certificates.replay"),
    ("cli", ("main",), "cli.main"),
)

# builders whose returned trace carries the stages the recursion produced;
# word_witness recurses on itself, so only its outermost call is counted
_STAGE_BUILDERS = ("fp_to_p_construct", "product_witness", "word_witness")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []       # [start, child time, span id]
        self.spans: list[tuple] = []      # (id, name, parent id, start, end)
        self.counters: dict[str, list] = {}   # name -> [calls, total, self]
        self.sizes: dict[str, float] = {}     # summed result sizes
        self._next_id = 0

    def add(self, key: str, amount: float) -> None:
        self.sizes[key] = self.sizes.get(key, 0) + amount

    def calls(self, name: str) -> int:
        return self.counters.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.counters.get(name, [0, 0.0, 0.0])[2]

    def wrap(self, fn: Callable, name: str, *, coarse: bool,
             on_result: Callable[[Any, int], None] | None = None,
             on_error: Callable[[BaseException], None] | None = None
             ) -> Callable:
        stack, spans, counters = self.stack, self.spans, self.counters
        counters.setdefault(name, [0, 0.0, 0.0])
        depth = [0]

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            if coarse:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            depth[0] += 1
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = perf_counter()
                depth[0] -= 1
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                entry = counters[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if coarse:
                    spans.append((span_id, name, parent, frame[0], end))
            if on_result is not None:
                on_result(out, depth[0])
            return out

        return wrapper

    def install(self, lib) -> Callable[[], None]:
        """Patch the package's entry points; returns the undo function."""
        self._refusal = lib.engine.BudgetExceeded
        undo: list[tuple[Any, str, Any]] = []

        def replace(owner, attr: str, new) -> None:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        # classes: every category's hom and compose, every functor's morph
        for base, methods in ((lib.core.Category, ("hom", "compose")),
                              (lib.core.Functor, ("morph",))):
            for cls in _subclasses(base):
                for meth in methods:
                    if meth in cls.__dict__:
                        replace(cls, meth, self._method(cls.__dict__[meth],
                                                        meth))

        # module functions: replace every binding of the same object in
        # every package module, so internal calls are caught too
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == lib.name
                                         or key.startswith(lib.name + "."))]
        for mod_name, names, counter in COARSE_FUNCTIONS:
            source = getattr(lib, mod_name)
            for fn_name in names:
                original = getattr(source, fn_name)
                wrapped = self.wrap(original, counter, coarse=True,
                                    on_result=self._result_hook(fn_name),
                                    on_error=self._error_hook(counter))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            replace(mod, attr, wrapped)

        def restore() -> None:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
        return restore

    def _method(self, fn: Callable, meth: str) -> Callable:
        if meth == "hom":
            def sized(out, _depth):
                self.add("hom_arrows", len(out))
                if not out:
                    self.add("hom_empty", 1)
            return self.wrap(fn, "categories.hom", coarse=True,
                             on_result=sized)
        return self.wrap(fn, f"categories.{meth}", coarse=False)

    def _result_hook(self, fn_name: str):
        if fn_name in ("check_p_witness", "check_fp_witness",
                       "check_degree_witness"):
            def check(res, _depth):
                self.add("colorings", res.checked)
                self.add("cells", res.cells)
                self.add("checks", res.arrows)
            return check
        if fn_name in ("check_category_laws", "check_functor_laws"):
            return lambda rep, _depth: self.add("laws_checked", rep.checked)
        if fn_name == "dump_certificate":
            return lambda text, _depth: self.add("cert_bytes", len(text))
        if fn_name in _STAGE_BUILDERS:
            def stages(out, depth):
                if fn_name != "word_witness" or depth == 0:
                    self.add("stages", len(out[1].stages))
            return stages
        return None

    def _error_hook(self, counter: str):
        if counter != "engine.check":
            return None

        def refusal(exc):
            if isinstance(exc, self._refusal):
                self.add("refusals", 1)
        return refusal

    def write(self, path, meta: dict) -> None:
        """Spans and counters of this trace, as one JSON document."""
        doc = {"meta": meta,
               "span_fields": ["id", "name", "parent", "start_s", "end_s"],
               "spans": self.spans,
               "counters": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                            for k, v in sorted(self.counters.items())},
               "sizes": self.sizes}
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _subclasses(base: type) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls in out:
            continue
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out
