"""Spans around the calls into each layer of chernforms, from outside it.

``Tracer.install`` replaces each traced function with a wrapper at every
place a chernforms module looks it up (``cli.chern_forms``,
``schur.chern_forms``, ...); ``uninstall`` puts the originals back.  Spans
stay in memory until the run ends.  A span's self time is its duration minus
the time its child spans cover.

``Form.wedge`` is deliberately absent: it runs ~10^5 times per op, and a
wrapper there would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable

from chernforms import forms

#: (module, attribute) of every traced function; "Form.from_literal" is a
#: classmethod of forms.Form
TRACED = (
    ("cli", "run"),
    ("curvature", "random_tensor"),
    ("curvature", "factor_from_tensor"),
    ("curvature", "bott_chern_curvature"),
    ("chern", "chern_forms"),
    ("chern", "chern_product"),
    ("chern", "top_coefficient"),
    ("schur", "verify_schur_nonnegativity"),
    ("schur", "bounds_chain_check"),
    ("schur", "schur_polynomial"),
    ("schur", "evaluate_on_forms"),
    ("schur", "chain_step_polynomials"),
    ("forms", "nonnegative_sampled"),
    ("forms", "Form.from_literal"),
    ("models", "verify_number_bounds"),
    ("models", "chern_number"),
    ("models", "euler_characteristic"),
    ("models", "rr_polynomial"),
    ("models", "todd_class"),
    ("models", "todd_polynomials"),
    ("models", "kodaira_leading"),
)

LAYERS = ("cli", "curvature", "chern", "schur", "forms", "models")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def _chern_terms(args, result) -> dict:
    return {"chern.terms": sum(len(f.terms) for f in result.forms)}


def _form_terms(args, result) -> dict:
    return {"schur.form_terms": len(args[0].terms)}


#: counts read from arguments or return values at a span boundary
COUNTERS: dict[str, Callable] = {
    "chern.chern_forms": _chern_terms,
    "forms.nonnegative_sampled": _form_terms,
}


class Tracer:
    def __init__(self):
        self.spans: list = []          # (op, name, start, end, parent index)
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1
        self._patches: list = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self._op += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self._op, name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "chernforms" or key.startswith("chernforms.")]
        for module_name, attr in TRACED:
            name = span_name(module_name, attr)
            if attr == "Form.from_literal":
                original = forms.Form.__dict__["from_literal"]
                wrapped = classmethod(self._wrap(name, original.__func__))
                self._patches.append((forms.Form, "from_literal", original))
                setattr(forms.Form, "from_literal", wrapped)
                continue
            original = getattr(sys.modules[f"chernforms.{module_name}"], attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def per_function(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, calls) over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {span_name(m, a): (0.0, 0) for m, a in TRACED}
        for index, (_, name, start, end, _) in enumerate(self.spans):
            self_s, calls = out[name]
            out[name] = (self_s + (end - start) - child[index], calls + 1)
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, _, start, end, parent in self.spans if parent < 0)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
