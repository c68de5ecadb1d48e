"""Span tracing of one ``fracdecomp solve`` from outside the package.

Run as a script, it imports ``fracdecomp.cli``, wraps the public functions of
the layers listed in ``TARGETS`` and runs the ``solve`` command in-process:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.npz COUNTERS.json \
        solve -p p7 -m mldm -n 4 -a 0.75 -o OUT

A wrapper is installed in every package module that bound the function at
import (``from .fracterm import series_add`` gives decomp, evaluation and
problems their own bindings), but never inside ``symx``, so symx's internal
recursion opens no spans. Spans stay in memory with parent links and are
written out when the command ends; ``layer_metrics`` turns them into self
times (duration minus child spans) and call counts.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Dict, List

import numpy as np

ROOT = "cli.main"

# (layer, attribute) of each traced function; a dotted attribute is a method.
TARGETS = (
    ("symx", "poly_mul"), ("symx", "poly_add"), ("symx", "expr_of_poly"),
    ("symx", "is_zero_expr"), ("symx", "diff"), ("symx", "poly_substitute"),
    ("symx", "evaluate"), ("symx", "poly_of"),
    ("fracterm", "series_mul"), ("fracterm", "series_add"),
    ("fracterm", "series_scale"), ("fracterm", "spatial_apply"),
    ("fracterm", "series_substitute"), ("fracterm", "frac_integral"),
    ("fracterm", "caputo"),
    ("decomp", "boundary_correct"), ("decomp", "adomian_polys"),
    ("decomp", "mldm_solve"), ("decomp", "ladm_solve"),
    ("decomp", "LinearOpSpec.apply"), ("decomp", "NonlinearOpSpec.apply"),
    ("evaluation", "residual"), ("evaluation", "evaluate_series_grid"),
    ("evaluation", "grid_error"), ("evaluation", "convergence_report"),
    ("problems", "builtin"), ("problems", "validate_consistency"),
)

# span names for the two methods, matching the metric names
METHOD_NAMES = {"LinearOpSpec.apply": "linear_apply",
                "NonlinearOpSpec.apply": "nonlinear_apply"}

PACKAGE_MODULES = ("cli", "problems", "decomp", "fracterm", "evaluation",
                   "acceptance", "grammar")


class Recorder:
    """Spans of one process: name index, start, end and parent index."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_idx: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = []
        self.terms_out = 0
        self.traces: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        clock = time.perf_counter
        stack, starts, ends, parents, idxs = (self._stack, self.start, self.end,
                                              self.parent, self.name_idx)

        def traced(*args, **kwargs):
            i = len(starts)
            idxs.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_terms(self, series) -> None:
        self.terms_out += len(series.terms)

    def save(self, spans_path: str, counters_path: str) -> None:
        np.savez(spans_path, name_idx=np.asarray(self.name_idx, dtype=np.int32),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent, dtype=np.int32))
        with open(counters_path, "w") as fh:
            json.dump({"names": self.names, "terms_out": self.terms_out,
                       "sizes": solve_sizes(self.traces)}, fh)


def install(rec: Recorder) -> None:
    """Wrap every TARGETS function at each module that holds a binding of it."""
    mods = [importlib.import_module(f"fracdecomp.{m}") for m in PACKAGE_MODULES]
    for layer, attr in TARGETS:
        home = importlib.import_module(f"fracdecomp.{layer}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            name = f"{layer}.{METHOD_NAMES[attr]}"
            setattr(cls, meth, rec.wrap(name, getattr(cls, meth)))
            continue
        orig = getattr(home, attr)
        if layer == "fracterm":
            on_result = rec.count_terms
        elif attr in ("mldm_solve", "ladm_solve"):
            on_result = rec.traces.append
        else:
            on_result = None
        wrapped = rec.wrap(f"{layer}.{attr}", orig, on_result)
        bound = 0
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{layer}.{attr} is bound in no traced module")


def solve_sizes(traces) -> Dict[str, float]:
    """Size counters from the SolveTraces the run returned.

    Final-sum sizes and the largest decomposition polynomial are maxima over
    the run's solves; iterations and truncations are totals.
    """
    from fracdecomp.symx import poly_of

    def monomials(series) -> int:
        return sum(len(poly_of(t.coeff)) for t in series.terms)

    out = {"final_terms": 0, "final_monomials": 0, "final_max_mu": 0.0,
           "poly_max_monomials": 0, "iterations_done": 0, "truncated": 0}
    for tr in traces:
        final = tr.approximation
        out["final_terms"] = max(out["final_terms"], len(final.terms))
        out["final_monomials"] = max(out["final_monomials"], monomials(final))
        if final.terms:
            out["final_max_mu"] = max(out["final_max_mu"], final.terms[-1].mu)
        for rec in tr.records:
            if rec.poly is not None:
                out["poly_max_monomials"] = max(out["poly_max_monomials"],
                                                monomials(rec.poly))
        out["iterations_done"] += tr.records[-1].n
        out["truncated"] += int(tr.truncated)
    return out


def layer_metrics(spans_path: str, names: List[str]) -> Dict[str, Dict[str, float]]:
    """Self seconds (duration minus child spans) and call count per span name."""
    with np.load(spans_path) as z:
        idx, start, end, parent = z["name_idx"], z["start"], z["end"], z["parent"]
    dur = end - start
    child = np.zeros(len(dur))
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_s = dur - child
    out = {}
    for nid, name in enumerate(names):
        sel = idx == nid
        out[name] = {"self_s": float(self_s[sel].sum()), "calls": int(sel.sum()),
                     "span_s": float(dur[sel].sum())}
    return out


def main(argv: List[str]) -> int:
    spans_path, counters_path, cli_args = argv[0], argv[1], argv[2:]
    import fracdecomp.cli as cli

    rec = Recorder()
    install(rec)
    root = rec.wrap(ROOT, cli.main.main)
    code = 0
    try:
        root(args=cli_args, prog_name="fracdecomp", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.save(spans_path, counters_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
