"""Outside-in span tracer for the goodpairs layers.

Nothing in src/ knows about it.  `Tracer.install` replaces every public
function of the layer modules under each name a module looks it up by
(the engines use `from .digraph import reach_mask`, so the wrapper is
patched into every importing module, not only into digraph), plus
`Digraph.without_arcs` and `Composition.flatten` on their classes and the
`decide` command's callback.  Each call records a span (function, parent
span, start, end) in memory; generator functions get a proxy that times
only the work inside `next()` and counts what it yields.  `uninstall`
puts the originals back.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "cli",
    "textio",
    "dispatch",
    "composition",
    "digraph",
    "semicomplete",
    "witnesses",
    "forcing",
    "composition_engine",
    "transitive_engine",
    "branchings",
    "verdicts",
    "oracle",
)

# Public functions left unwrapped: they run once per bit or per arc deep
# inside every other layer, or only build fixed shapes, so a span would
# cost more than the call and tell nothing.
_UNWRAPPED = {
    "digraph.bits",
    "digraph.mask_of",
    "branchings.path_arcs",
    "composition.singleton",
    "composition.independent",
    "composition.complete_quotient",
    "composition.directed_cycle",
    "composition.transitive_tournament",
    "composition.ring_tournament",
    "textio.default_names",
}

_METHODS = (
    ("digraph", "Digraph", "without_arcs"),
    ("composition", "Composition", "flatten"),
)

RECOGNITION = (
    "composition.is_semicomplete",
    "composition.is_quasi_transitive",
    "composition.is_transitive",
)
ARC_SCAN = ("digraph.reach_mask", "digraph.coreach_mask")

# Span record fields: function id, parent span index (-1 at the top),
# start ns, end ns, 1 if a span of the same function encloses it.
FID, PARENT, START, END, NESTED = range(5)


class _TracedIter:
    """Generator proxy: one span per next(), parented at the caller."""

    __slots__ = ("_it", "_fid", "_tracer")

    def __init__(self, it, fid, tracer):
        self._it = it
        self._fid = fid
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        rec = tr._open(self._fid)
        try:
            value = next(self._it)
        finally:
            tr._close(rec)
        tr.yielded[self._fid] += 1
        return value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.stack: list[int] = [-1]
        self.active: list[int] = []
        self.calls: list[int] = []  # generator functions: proxies created
        self.yielded: list[int] = []
        self.events: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._last_greedy = None

    # -- span bookkeeping -------------------------------------------------

    def _fid(self, name: str) -> int:
        self.names.append(name)
        self.active.append(0)
        self.calls.append(0)
        self.yielded.append(0)
        return len(self.names) - 1

    def _open(self, fid: int) -> list[int]:
        self.active[fid] += 1
        rec = [fid, self.stack[-1], 0, 0, int(self.active[fid] > 1)]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list[int]) -> None:
        rec[END] = time.perf_counter_ns()
        self.stack.pop()
        self.active[rec[FID]] -= 1

    # -- wrapping ---------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        """Counts taken from arguments and results, not from timing."""
        if name == "forcing.force_trace":
            status, steps = result
            self.events["forcing.blocked"] += status == "blocked"
            self.events["forcing.steps"] += len(steps)
        elif name == "semicomplete.try_construct_pair":
            self._last_greedy = result
        elif name == "branchings.verify_good_pair":
            if result and self._last_greedy is not None and args[3] is self._last_greedy:
                self.events["semicomplete.greedy_verified"] += 1
                self._last_greedy = None

    def _wrap(self, name: str, fn):
        fid = self._fid(name)
        observed = name in (
            "forcing.force_trace",
            "semicomplete.try_construct_pair",
            "branchings.verify_good_pair",
        )
        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                self.calls[fid] += 1
                return _TracedIter(fn(*args, **kwargs), fid, self)

            return traced_gen

        def traced(*args, **kwargs):
            rec = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observed:
                self._observe(name, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {
            layer: importlib.import_module(f"goodpairs.{layer}") for layer in LAYERS
        }
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in _UNWRAPPED
                ):
                    wrappers[id(fn)] = self._wrap(name, fn)
        # every goodpairs module that imported a wrapped function by name
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "goodpairs" and not mod_name.startswith("goodpairs."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None and inspect.isfunction(value):
                    self._patch(mod, attr, wrapped)
        for layer, cls_name, method in _METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, method, self._wrap(f"{layer}.{method}", getattr(cls, method)))
        command = modules["cli"].main.commands["decide"]
        self._patch(command, "callback", self._wrap("cli.decide", command.callback))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, yielded, inclusive ms, self ms."""
        k = len(self.names)
        count = [0] * k
        incl = [0] * k
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        own = [0] * k
        for i, rec in enumerate(self.spans):
            fid = rec[FID]
            d = rec[END] - rec[START]
            count[fid] += 1
            if not rec[NESTED]:
                incl[fid] += d
            own[fid] += d - child[i]
        out = {}
        for fid, name in enumerate(self.names):
            gen_calls = self.calls[fid]
            out[name] = {
                "calls": gen_calls if gen_calls else count[fid],
                "yielded": self.yielded[fid],
                "ms": incl[fid] / 1e6,
                "self_ms": own[fid] / 1e6,
            }
        return out

    def arc_scan(self) -> tuple[int, float]:
        """reach/coreach spans directly under decide_semicomplete."""
        scan = {self.names.index(n) for n in ARC_SCAN}
        parent_fid = self.names.index("semicomplete.decide_semicomplete")
        calls, ns = 0, 0
        for rec in self.spans:
            if (
                rec[FID] in scan
                and rec[PARENT] >= 0
                and self.spans[rec[PARENT]][FID] == parent_fid
            ):
                calls += 1
                ns += rec[END] - rec[START]
        return calls, ns / 1e6

    def write(self, path) -> None:
        """Spans as tab-separated text: index, function, parent, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tfunction\tparent\tstart_ns\tend_ns\n")
            for i, rec in enumerate(self.spans):
                fh.write(
                    f"{i}\t{self.names[rec[FID]]}\t{rec[PARENT]}\t{rec[START]}\t{rec[END]}\n"
                )


def layer_metrics(tracer: Tracer, decisions: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    s = tracer.summary()
    ev = tracer.events

    def ms(name):
        return s[name]["ms"]

    def calls(name):
        return s[name]["calls"]

    def self_ms(layer):
        return sum(v["self_ms"] for k, v in s.items() if k.startswith(layer + "."))

    scan_calls, scan_ms = tracer.arc_scan()
    greedy = calls("semicomplete.try_construct_pair")
    forced = calls("forcing.force_trace")
    return {
        "trace.decisions": decisions,
        "dispatch.decide.ms": ms("dispatch.decide"),
        "cli.self.ms": s["cli.decide"]["self_ms"],
        "textio.parse_document.ms": ms("textio.parse_document"),
        "composition.recognition.ms": sum(ms(n) for n in RECOGNITION),
        "composition.recognition.calls": sum(calls(n) for n in RECOGNITION),
        "composition.qt_decompose.ms": ms("composition.qt_decompose"),
        "composition.finest_refinement.ms": ms("composition.finest_refinement"),
        "composition.flatten.calls": calls("composition.flatten"),
        "digraph.without_arcs.calls": calls("digraph.without_arcs"),
        "digraph.without_arcs.ms": ms("digraph.without_arcs"),
        "digraph.is_k_arc_strong.ms": ms("digraph.is_k_arc_strong"),
        "digraph.unit_flow.calls": calls("digraph.unit_flow"),
        "semicomplete.arc_scan.calls": scan_calls,
        "semicomplete.arc_scan.ms": scan_ms,
        "semicomplete.match_small_exception.ms": ms("semicomplete.match_small_exception"),
        "semicomplete.construct_good_pair.ms": ms("semicomplete.construct_good_pair"),
        "semicomplete.try_construct_pair.calls": greedy,
        "semicomplete.greedy_hit_ratio": (
            ev["semicomplete.greedy_verified"] / greedy if greedy else 0.0
        ),
        "witnesses.iter_type_a.calls": calls("witnesses.iter_type_a"),
        "witnesses.iter_type_a.ms": ms("witnesses.iter_type_a"),
        "witnesses.iter_type_a.yielded": s["witnesses.iter_type_a"]["yielded"],
        "witnesses.iter_type_b.ms": ms("witnesses.iter_type_b"),
        "witnesses.arc_condition.calls": calls("witnesses.arc_condition"),
        "witnesses.validate_witness.ms": ms("witnesses.validate_witness"),
        "forcing.force_trace.calls": forced,
        "forcing.force_trace.ms": ms("forcing.force_trace"),
        "forcing.blocked_ratio": ev["forcing.blocked"] / forced if forced else 0.0,
        "forcing.steps": ev["forcing.steps"],
        "composition_engine.match_known_family.ms": ms("composition_engine.match_known_family"),
        "composition_engine.two_arc_strong_pair.ms": ms("composition_engine.two_arc_strong_pair"),
        "composition_engine.construct_composition_pair.ms": ms(
            "composition_engine.construct_composition_pair"
        ),
        "composition_engine.self.ms": self_ms("composition_engine"),
        "transitive_engine.decide_transitive_composition.ms": ms(
            "transitive_engine.decide_transitive_composition"
        ),
        "transitive_engine.construct_transitive_pair.ms": ms(
            "transitive_engine.construct_transitive_pair"
        ),
        "transitive_engine.translate_verdict.ms": ms("transitive_engine.translate_verdict"),
        "branchings.verify_good_pair.calls": calls("branchings.verify_good_pair"),
        "branchings.verify_good_pair.ms": ms("branchings.verify_good_pair"),
        "verdicts.validate_verdict.ms": ms("verdicts.validate_verdict"),
        "verdicts.verdict_to_dict.ms": ms("verdicts.verdict_to_dict"),
        "oracle.fallback_calls": calls("oracle.oracle_good_pair"),
        "oracle.fallback.ms": ms("oracle.oracle_good_pair"),
    }
