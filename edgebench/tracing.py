"""Spans around calls into each edgemon layer, for the traced run only.

The tracer rebinds module attributes (for example
`edgemon.cli.parse_instance_text`) to wrappers that record a span: layer,
start, end, parent span and operation id.  Spans stay in memory and are
written out once, at the end.  A layer's self time is its span time minus
the time its child spans cover.  A hook whose attribute is missing is
reported instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter_ns

# (module, attribute, layer); an attribute may name a class member.
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("edgemon.cli", "parse_instance_text", "textio"),
    ("edgemon.core", "Graph.from_edges", "core.build"),
    ("edgemon.core", "Instance.make", "core.build"),
    *(
        (f"edgemon.{mod}", "monitor_table", "core.monitor_table")
        for mod in ("oracle", "planar", "blocks", "complete", "intervals")
    ),
    *(
        (f"edgemon.{mod}", "is_monitoring_set", "core.check")
        for mod in (
            "cli", "blocks", "complete", "intervals", "planar", "cographs",
            "reductions",
        )
    ),
    ("edgemon.cli", "exact_gamma_m", "oracle"),
    ("edgemon.planar", "minimum_weight_cover", "oracle"),
    ("edgemon.reductions", "minimum_weight_cover", "oracle"),
    ("edgemon.cli", "solve_complete_cbounded", "complete"),
    ("edgemon.blocks", "solve_complete_cbounded", "complete"),
    ("edgemon.cli", "solve_block", "blocks"),
    ("edgemon.blocks", "block_cut_tree", "blocks"),
    ("edgemon.cli", "solve_interval", "intervals"),
    ("edgemon.intervals", "nice_path_decomposition", "intervals"),
    ("edgemon.cli", "cotree_build", "cographs"),
    ("edgemon.cli", "solve_cograph", "cographs"),
    ("edgemon.cli", "ptas_planar", "planar"),
    ("edgemon.planar", "solve_band", "planar"),
    ("edgemon.cli", "split_partition", "reductions"),
    ("edgemon.cli", "split_gamma_m", "reductions"),
)

# Layer -> metric holding its self time in seconds.
LAYER_SECONDS = {
    "textio": "textio.parse_s",
    "core.build": "core.build_s",
    "core.monitor_table": "core.monitor_table_s",
    "core.check": "core.check_s",
    "oracle": "oracle.cover_s",
    "complete": "complete.solve_s",
    "blocks": "blocks.solve_s",
    "intervals": "intervals.solve_s",
    "cographs": "cographs.solve_s",
    "planar": "planar.approx_s",
    "reductions": "reductions.split_s",
    "cli": "cli.self_s",
}
LAYER_CALLS = {
    "core.monitor_table": "core.monitor_table_calls",
    "core.check": "core.check_calls",
    "oracle": "oracle.cover_calls",
    "complete": "complete.solve_calls",
}


def _cotree_depth(tree) -> int:
    depth, stack = 0, [(tree, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        stack.extend((child, d + 1) for child in node.children)
    return depth


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _probe(tracer: "Tracer", attribute: str, args, kwargs, result) -> None:
    """Counters read from a hooked call's arguments and result."""
    if attribute == "parse_instance_text":
        tracer.add("textio.bytes", len(args[0]))
        if result is not None:
            tracer.add("textio.edges", result.instance.graph.m)
    elif attribute == "exact_gamma_m":
        tracer.peak("oracle.candidates_max", args[0].graph.n)
    elif attribute == "minimum_weight_cover":
        allowed = _arg(args, kwargs, 2, "allowed")
        size = len(args[0]) if allowed is None else len(frozenset(allowed))
        tracer.peak("oracle.candidates_max", size)
    elif attribute == "block_cut_tree" and result is not None:
        tracer.add("blocks.blocks", len(result.blocks))
    elif attribute == "nice_path_decomposition" and result is not None:
        tracer.add("intervals.steps", result.length)
        tracer.peak("intervals.bag_width_max", max(map(len, result.bags), default=0))
    elif attribute == "solve_cograph":
        tree = _arg(args, kwargs, 1, "tree")
        if tree is not None:
            tracer.peak("cographs.cotree_depth", _cotree_depth(tree))
    elif attribute == "solve_band":
        tracer.add("planar.bands", 1)
        tracer.peak("planar.region_max", len(_arg(args, kwargs, 2, "region")))


class PassStats:
    """Self time, calls and counters of one traced pass."""

    def __init__(self):
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.peaks: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.passes: list[PassStats] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, layer, start ns, child ns]
        self._op_id = ""
        self._saved: list[tuple[object, str, object]] = []

    # -- counters -------------------------------------------------------
    def add(self, name: str, value: int) -> None:
        self.passes[-1].counts[name] += value

    def peak(self, name: str, value: int) -> None:
        peaks = self.passes[-1].peaks
        peaks[name] = max(peaks.get(name, 0), value)

    # -- spans ----------------------------------------------------------
    def open(self, layer: str) -> None:
        self._stack.append([len(self.spans), layer, perf_counter_ns(), 0])
        self.spans.append(None)  # reserved; filled in by close()

    def close(self) -> None:
        end = perf_counter_ns()
        span_id, layer, start, child_ns = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - start
        if parent is not None:
            parent[3] += duration
        stats = self.passes[-1]
        stats.self_ns[layer] += duration - child_ns
        stats.calls[layer] += 1
        self.spans[span_id] = (
            len(self.passes) - 1, self._op_id, span_id,
            parent[0] if parent is not None else None, layer, start, end,
        )

    def begin_op(self, op_id: str) -> None:
        self._op_id = op_id
        self.open("cli")

    def end_op(self) -> None:
        self.close()

    # -- hooks ----------------------------------------------------------
    def _wrap(self, fn, attribute: str, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            result = None
            tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                if layer == "oracle" and type(exc).__name__ == "BudgetExceeded":
                    tracer.add("oracle.refusals", 1)
                raise
            finally:
                tracer.close()
                try:
                    _probe(tracer, attribute, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.note_missing(f"probe {attribute}")

        return traced

    def note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def install(self) -> None:
        """Begin a traced pass and rebind every hook that resolves."""
        self.passes.append(PassStats())
        for module_name, attribute, layer in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = (
                    owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name)
                )
            except (ImportError, AttributeError, KeyError):
                self.note_missing(f"{module_name}.{attribute}")
                continue
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(original.__func__, attribute, layer))
            else:
                wrapped = self._wrap(original, attribute, layer)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def write(self, path: str) -> None:
        """Write every span as one JSON line, at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            for pass_no, op_id, span_id, parent, layer, start, end in self.spans:
                fh.write(json.dumps({
                    "pass": pass_no, "op": op_id, "span": span_id,
                    "parent": parent, "layer": layer,
                    "start_ns": start, "end_ns": end,
                }) + "\n")
