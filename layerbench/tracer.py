"""Span tracer for the layered benchmark.

The tracer wraps public functions of the polardesign modules from outside the
package: every reference to a wrapped function held by a ``polardesign``
module is replaced by a wrapper that records one span per call (name, start,
end, parent span, job id).  Spans stay in memory until the run ends.  Self
time is a span's duration minus the durations of its child spans.

Kernels and counting are leaf layers: a call made from inside the same leaf
layer (the pure ``extend_level`` calling ``rref``, ``polar_count`` calling
``gaussian_binomial``) passes through unrecorded, so those layers report the
calls made into them.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module attribute, layer, leaf layer?)
SPANS = {
    "kernels.extend_level": ("extend_level", "kernels", True),
    "kernels.rref": ("rref", "kernels", True),
    "kernels.products": ("products", "kernels", True),
    "geometry.enumerate": ("_final_level", "geometry", False),
    "geometry.subspaces_within": ("subspaces_within", "geometry", False),
    "counting.gaussian_binomial": ("gaussian_binomial", "counting", True),
    "counting.polar_count": ("polar_count", "counting", True),
    "counting.polar_count_expr": ("polar_count_expr", "counting", True),
    "counting.polar_count_through": ("polar_count_through", "counting", True),
    "counting.polar_count_through_expr": ("polar_count_through_expr", "counting", True),
    "counting.fixed_intersection_count": ("fixed_intersection_count", "counting", True),
    "counting.lambda_ratio": ("lambda_ratio", "counting", True),
    "incidence.row_sum": ("constant_row_sum_check", "incidence", False),
    "incidence.verify_design": ("verify_design", "incidence", False),
    "incidence.design_to_json": ("design_to_json", "incidence", False),
    "incidence.design_from_json": ("design_from_json", "incidence", False),
    "search.cover_matrix": ("cover_matrix", "search", False),
    "search.find_design": ("find_design", "search", False),
    "decode.build": ("build_decoding_system", "decode", False),
    "decode.local": ("verify_local_decodability", "decode", False),
    "klp.feasibility_report": ("feasibility_report", "klp", False),
    "klp.klp_budget": ("klp_budget", "klp", False),
    "cli.main": ("main", "cli", False),
}


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "polardesign" or name.startswith("polardesign."))
    ]


def _replace_everywhere(target, replacement) -> int:
    """Point every polardesign module attribute bound to ``target`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is target:
                setattr(module, attr, replacement)
                changed += 1
    return changed


class Tracer:
    """In-memory span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.span_names: list[str] = []
        self.span_layers: list[str] = []
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.stack: list[int] = []
        self.job = 0
        self.job_ids = ["setup"]
        self.counters: Counter = Counter()
        self.subspace_objects = [0]
        self.levels: dict[tuple, list[int]] = {}
        self.cache_queries: list[int] = []
        self.last_rows_out = 0
        self.walk = ["full"]

    # -- recording -------------------------------------------------------

    def start_job(self, op_id: str) -> None:
        self.job_ids.append(op_id)
        self.job = len(self.job_ids) - 1

    def wrap(self, fn, name: str, layer: str, leaf: bool, after=None):
        nid = len(self.span_names)
        self.span_names.append(name)
        self.span_layers.append(layer)
        names, starts, ends, parents, jobs, stack = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
            self.jobs,
            self.stack,
        )
        span_layers = self.span_layers

        def traced(*args, **kwargs):
            if leaf and stack and span_layers[names[stack[-1]]] == layer:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function; call after ``import polardesign``."""
        from polardesign import _backend, geometry

        after = {
            "kernels.extend_level": self._after_extend_level,
            "incidence.row_sum": self._count_attr("incidence.row_sum.checked", "checked"),
            "incidence.design_to_json": self._after_to_json,
            "incidence.design_from_json": self._after_from_json,
            "search.cover_matrix": self._after_cover_matrix,
            "search.find_design": self._after_find_design,
            "decode.local": self._count_attr("decode.local.tspaces_checked", "checked"),
        }
        # which walk an extension belongs to: a full level walk from the zero
        # space (a level-cache query), or the extensions of a fixed subspace;
        # this runs inside the geometry.enumerate span
        final_level, walk, stack = geometry._final_level, self.walk, self.stack

        def marked_final_level(space, k, budget, start=None):
            outer = walk[0]
            walk[0] = "full" if start is None else "extensions"
            if start is None:
                self.cache_queries.append(stack[-1])
            try:
                return final_level(space, k, budget, start)
            finally:
                walk[0] = outer

        _replace_everywhere(final_level, marked_final_level)

        for name, (attr, layer, leaf) in SPANS.items():
            if layer == "kernels":
                owner = _backend.kernels
            else:
                owner = importlib.import_module(f"polardesign.{layer}")
            target = getattr(owner, attr)
            wrapper = self.wrap(target, name, layer, leaf, after.get(name))
            if not _replace_everywhere(target, wrapper):
                raise RuntimeError(f"found no binding of {layer}.{attr} to trace")

        # counted, not timed: kept level sizes and Subspace objects
        extend_once = geometry._extend_once
        levels, tracer = self.levels, self

        def observed_extend_once(space, level, j):
            kids = extend_once(space, level, j)
            key = (space.family, space.n, space.q, j + 1, walk[0])
            row = levels.setdefault(key, [0, 0, 0])
            row[0] += tracer.last_rows_out
            row[1] += len(kids)
            row[2] += 1
            return kids

        _replace_everywhere(extend_once, observed_extend_once)

        from_bytes = geometry.Subspace.from_bytes.__func__
        made = self.subspace_objects

        def counted_from_bytes(cls, data, k, d):
            made[0] += 1
            return from_bytes(cls, data, k, d)

        geometry.Subspace.from_bytes = classmethod(counted_from_bytes)

    # -- hooks that read results -----------------------------------------

    def _after_extend_level(self, args, result):
        j, d = args[2], args[3]
        self.last_rows_out = len(result) // ((j + 1) * d)
        self.counters["kernels.extend_level.rows_out"] += self.last_rows_out

    def _count_attr(self, counter: str, attr: str):
        def hook(args, result):
            self.counters[counter] += getattr(result, attr)

        return hook

    def _after_to_json(self, args, result):
        self.counters["incidence.certificate.bytes"] += len(result.encode())

    def _after_from_json(self, args, result):
        self.counters["incidence.certificate.bytes"] += len(args[0].encode())

    def _after_cover_matrix(self, args, result):
        self.counters["search.cover_matrix.nonzeros"] += sum(map(len, result.column_rows))

    def _after_find_design(self, args, result):
        nodes = getattr(result, "nodes", None)
        if nodes is None:  # a found design carries its nodes in provenance
            nodes = result.provenance["nodes"]
            self.counters["search.found_nodes"] += nodes
            self.counters["search.found_blocks"] += len(result.blocks)
        self.counters["search.nodes"] += nodes

    # -- derived metrics -------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        calls, total, self_time = Counter(), Counter(), Counter()
        layer_calls, layer_total, layer_self = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.span_names[self.names[i]]
            layer = self.span_layers[self.names[i]]
            calls[name] += 1
            total[name] += dur[i]
            self_time[name] += dur[i] - child[i]
            layer_self[layer] += dur[i] - child[i]
            parent = self.parents[i]
            if parent < 0 or self.span_layers[self.names[parent]] != layer:
                layer_calls[layer] += 1
                layer_total[layer] += dur[i]

        # find_design minus its cover_matrix and verify_design children
        solve = total["search.find_design"]
        ext_parents = set()
        for i in range(n):
            name = self.span_names[self.names[i]]
            parent = self.parents[i]
            if name == "kernels.extend_level":
                ext_parents.add(parent)
            elif (
                name in ("search.cover_matrix", "incidence.verify_design")
                and parent >= 0
                and self.span_names[self.names[parent]] == "search.find_design"
            ):
                solve -= dur[i]
        hits = sum(1 for i in self.cache_queries if i not in ext_parents)

        produced = sum(row[0] for row in self.levels.values())
        kept = sum(row[1] for row in self.levels.values())
        c = self.counters
        return {
            "kernels.extend_level.calls": calls["kernels.extend_level"],
            "kernels.extend_level.s": total["kernels.extend_level"],
            "kernels.extend_level.rows_out": c["kernels.extend_level.rows_out"],
            "kernels.rref.calls": calls["kernels.rref"],
            "kernels.rref.s": total["kernels.rref"],
            "kernels.products.calls": calls["kernels.products"],
            "kernels.products.s": total["kernels.products"],
            "geometry.enumerate.calls": calls["geometry.enumerate"],
            "geometry.enumerate.self_s": self_time["geometry.enumerate"],
            "geometry.levels.kept": kept,
            "geometry.levels.produced_per_kept": _ratio(produced, kept),
            "geometry.level_cache.hit_ratio": _ratio(hits, len(self.cache_queries)),
            "geometry.subspaces_within.s": total["geometry.subspaces_within"],
            "geometry.subspace_objects": self.subspace_objects[0],
            "incidence.row_sum.s": total["incidence.row_sum"],
            "incidence.row_sum.checked": c["incidence.row_sum.checked"],
            "incidence.verify_design.s": total["incidence.verify_design"],
            "incidence.certificate.s": total["incidence.design_to_json"]
            + total["incidence.design_from_json"],
            "incidence.certificate.bytes": c["incidence.certificate.bytes"],
            "search.cover_matrix.s": total["search.cover_matrix"],
            "search.cover_matrix.nonzeros": c["search.cover_matrix.nonzeros"],
            "search.solve.s": solve,
            "search.nodes": c["search.nodes"],
            "search.nodes_per_s": _ratio(c["search.nodes"], solve),
            "search.useful_node_ratio": _ratio(c["search.found_blocks"], c["search.found_nodes"]),
            "counting.calls": layer_calls["counting"],
            "counting.s": layer_total["counting"],
            "decode.build.calls": calls["decode.build"],
            "decode.build.s": total["decode.build"],
            "decode.local.s": total["decode.local"],
            "decode.local.tspaces_checked": c["decode.local.tspaces_checked"],
            "klp.reports": calls["klp.feasibility_report"],
            "klp.self_s": layer_self["klp"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_time["cli.main"],
        }

    def level_table(self) -> list[dict]:
        """Produced vs kept subspaces per (space, level, walk), first-seen order."""
        return [
            {
                "space": f"{family}_{n} q={q}",
                "level": level,
                "walk": walk,
                "extend_calls": row[2],
                "produced": row[0],
                "kept": row[1],
                "produced_per_kept": _ratio(row[0], row[1]),
            }
            for (family, n, q, level, walk), row in self.levels.items()
        ]

    def extend_calls_by_job(self) -> dict[str, int]:
        nid = self.span_names.index("kernels.extend_level")
        per_job = Counter(self.jobs[i] for i in range(len(self.names)) if self.names[i] == nid)
        return {self.job_ids[job]: count for job, count in sorted(per_job.items())}

    def write_spans(self, path) -> None:
        """A JSON header naming span names and jobs, then one line per span:
        name id, start and end in ns from the first span, parent span, job."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.span_names, "jobs": self.job_ids}) + "\n")
            for i in range(len(self.names)):
                start = round((self.starts[i] - origin) * 1e9)
                end = round((self.ends[i] - origin) * 1e9)
                handle.write(f"{self.names[i]}\t{start}\t{end}\t{self.parents[i]}\t{self.jobs[i]}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
