"""Layer tracing of treelocal, installed from outside the package.

Every module of ``treelocal`` is a layer.  ``Tracer.install`` replaces each
public function of a layer, and each public method of its classes, by a
wrapper, in every namespace of the package that holds it (``from .tree
import neighbor`` copies the function into the importing module, so the
defining module alone is not enough).  ``Tracer.uninstall`` puts every
original back.  Nothing under ``src/`` is edited.

A timed wrapper records a span: calls, inclusive seconds ``s`` (outermost
activation only, so recursion is not counted twice) and ``self_s``, the
span's duration minus the time its timed child spans cover.  Time spent in
code that is not wrapped, or in counted functions, is charged to the
nearest timed span that encloses it; the round itself is the root span,
layer ``bench``, so the layers' self times add up to the traced round time.

A counted wrapper only increments a call count.  It is used for the
functions in ``COUNTED`` and for generator functions, whose work happens
after the call returns.  Properties and dunder methods are not wrapped.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable, Optional

LAYERS = ("tree", "permgroups", "autom", "localaction", "medianqm",
          "ratmat", "chains", "analysis", "serialize", "cli")

# Public functions that run more than 100k times in a round of some
# workload, counted rather than timed so that tracing stays cheap; their
# time goes to the nearest timed caller.  Seed-state counts per round:
# neighbor 4.6M (survey), colors_matchable 9.0M, homogenize_word and
# cyclic_reduction 602k (branch-h2), EventuallyPeriodic.term 2.2M
# (branch-2t), geodesic 695k, Segment.vertices 667k, distance 317k.
# LineSpec.vertex (451k), LineSpec.index_of (242k) and is_aligned (212k)
# run that often too but stay timed, so that tree keeps a self time of its
# own: each call costs several microseconds, so the wrapper adds little.
COUNTED = frozenset({
    "tree.neighbor",
    "tree.distance",
    "tree.geodesic",
    "tree.Segment.vertices",
    "tree.EventuallyPeriodic.term",
    "localaction.colors_matchable",
    "medianqm.homogenize_word",
    "medianqm.cyclic_reduction",
})

# Evidence items of theorem1_branch, keyed by the first library call each
# item makes from the treelocal.analysis namespace.  An item's time runs
# from that call until the next item starts or theorem1_branch returns.
EVIDENCE_MARKERS = {
    "segment_orbit_census": "segment_census",
    "build_line": "line",
    "translation_t": "translation",
    "rotation_r": "rotation",
    "edge_transitivity_check": "edge_transitivity",
    "transport_into_line": "even_transports",
    "eval_qm": "qm_vanishing",
    "boundary_escape_witness": "boundary_escape",
    "e2_obstruction": "obstruction",
    "find_nonvanishing_qm": "nonvanishing_qm",
    "homogenize_limit": "limit_agreement",
    "independence_search": "independence",
}
EVIDENCE_KEYS = tuple(dict.fromkeys(EVIDENCE_MARKERS.values()))


class Stat:
    """Totals of one wrapped function."""

    __slots__ = ("name", "layer", "calls", "s", "self_s", "active", "extra")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.extra: dict = {}

    def bump(self, key: str, by=1) -> None:
        self.extra[key] = self.extra.get(key, 0) + by


def _ball_size(d: int, R: int) -> int:
    return 1 + d * ((d - 1) ** R - 1) // (d - 2)


class Tracer:
    """Spans and counts for one traced round; see the module docstring."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stats: dict[str, Stat] = {}
        self.root = Stat("bench.round", "bench")
        # a frame is [stat, seconds covered by timed children]
        self.stack: list[list] = [[self.root, 0.0]]
        self.evidence = {k: 0.0 for k in EVIDENCE_KEYS}
        self._ev_key: Optional[str] = None
        self._ev_t0 = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = 0.0
        self._probes = {
            "autom.certify_membership": self._probe_certify,
            "ratmat.pivot_positions": self._probe_pivots,
            "chains.restriction_correspondence_check": self._probe_restriction,
            "tree.is_aligned": self._probe_aligned,
            "analysis.theorem1_branch": self._probe_branch,
        }
        self._seen_pairs: set = set()
        self._contexts: dict[int, object] = {}

    # --- wrappers ---

    def _stat(self, name: str, layer: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat(name, layer)
        return st

    def _timed(self, st: Stat, fn: Callable, probe) -> Callable:
        stack = self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [st, 0.0]
            stack.append(frame)
            st.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.active -= 1
                st.calls += 1
                st.self_s += dt - frame[1]
                if not st.active:
                    st.s += dt
                stack[-1][1] += dt
            if probe is not None:
                probe(st, args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def _counted(st: Stat, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_pairs(self, st: Stat, fn: Callable) -> Callable:
        """Counts colors_matchable(ctx, a, b) calls and the distinct
        (context, a, b) arguments among them."""
        add = self._seen_pairs.add
        # each context stays alive to the end of the round, so the ids of
        # two contexts cannot coincide
        keep = self._contexts.setdefault

        def wrapper(ctx, a, b):
            st.calls += 1
            key = id(ctx)
            keep(key, ctx)
            add((key, a, b))
            return fn(ctx, a, b)

        return wrapper

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        st = self._stat(name, layer)
        if name == "localaction.colors_matchable":
            return self._count_pairs(st, fn)
        if name in COUNTED or inspect.isgeneratorfunction(fn):
            return self._counted(st, fn)
        return self._timed(st, fn, self._probes.get(name))

    def _mark(self, key: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self._switch_evidence(key)
            return fn(*args, **kwargs)

        return wrapper

    def _switch_evidence(self, key: Optional[str]) -> None:
        now = self.clock()
        if self._ev_key is not None:
            self.evidence[self._ev_key] += now - self._ev_t0
        self._ev_key = key
        self._ev_t0 = now

    # --- probes: extra counts read from arguments and results ---

    def _probe_certify(self, st, args, kwargs, result):
        g = args[0] if args else kwargs["g"]
        st.bump("vertices", _ball_size(g.d, result.radius))

    def _probe_pivots(self, st, args, kwargs, result):
        if self.stack[-1][0].name == "medianqm.independence_search":
            rows = args[0] if args else kwargs["rows"]
            st.bump("search_calls")
            st.bump("search_accepted", int(len(result) == len(rows)))

    def _probe_aligned(self, st, args, kwargs, result):
        parent = self.stack[-1][0]
        if parent.name == "chains.restriction_correspondence_check":
            parent.bump("aligned_calls")

    def _probe_restriction(self, st, args, kwargs, result):
        st.bump("tuples_checked", result["tuples_checked"])

    def _probe_branch(self, st, args, kwargs, result):
        self._switch_evidence(None)

    # --- installation ---

    def install(self) -> None:
        """Wrap the public functions and methods of every layer."""
        import treelocal

        modules = [importlib.import_module(f"treelocal.{m}") for m in LAYERS]
        wrapped: dict[int, tuple[Callable, Callable]] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for ns in [treelocal, *modules]:
            for attr, obj in list(vars(ns).items()):
                original, wrapper = wrapped.get(id(obj), (None, None))
                if original is obj:
                    self._patch(ns, attr, wrapper)
        analysis = importlib.import_module("treelocal.analysis")
        for attr, key in EVIDENCE_MARKERS.items():
            self._patch(analysis, attr, self._mark(key, getattr(analysis, attr)))

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(name, layer, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(name, layer, obj))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- the round ---

    def start(self) -> None:
        self._t0 = self.clock()

    def stop(self) -> None:
        elapsed = self.clock() - self._t0
        self._switch_evidence(None)
        self.root.calls = 1
        self.root.s = elapsed
        self.root.self_s = elapsed - self.stack[0][1]
        if len(self.stack) != 1:
            raise RuntimeError("unbalanced spans at the end of the round")

    # --- results ---

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in ("bench",) + LAYERS}
        out["bench"] = self.root.self_s
        for st in self.stats.values():
            out[st.layer] += st.self_s
        return out

    def spans(self) -> dict[str, dict]:
        """Raw totals of every wrapped function that ran."""
        return {name: {"calls": st.calls, "s": st.s, "self_s": st.self_s,
                       **st.extra}
                for name, st in sorted(self.stats.items()) if st.calls}

    def metrics(self) -> dict[str, float]:
        """The named per-layer metrics of the round (see README.md)."""
        def get(name: str) -> Stat:
            return self.stats.get(name) or Stat(name, name.split(".")[0])

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        layer = self.layer_self_s()
        certify = get("autom.certify_membership")
        local = get("autom.Automorphism.local")
        matchable = get("localaction.colors_matchable")
        pivots = get("ratmat.pivot_positions")
        restriction = get("chains.restriction_correspondence_check")
        aligned_in_restriction = restriction.extra.get("aligned_calls", 0)
        distinct = len(self._seen_pairs)
        m = {
            "tree.neighbor.calls": get("tree.neighbor").calls,
            "tree.LineSpec.vertex.calls": get("tree.LineSpec.vertex").calls,
            "tree.LineSpec.index_of.calls": get("tree.LineSpec.index_of").calls,
            "tree.geodesic.calls": get("tree.geodesic").calls,
            "tree.is_aligned.calls": get("tree.is_aligned").calls,
            "tree.is_aligned.self_s": get("tree.is_aligned").self_s,
            "autom.certify_membership.calls": certify.calls,
            "autom.certify_membership.s": certify.s,
            "autom.certify_membership.vertices": certify.extra.get("vertices", 0),
            "autom.Automorphism.local.calls": local.calls,
            "autom.local_per_vertex": ratio(local.calls, certify.extra.get("vertices", 0)),
            "localaction.colors_matchable.calls": matchable.calls,
            "localaction.colors_matchable.distinct": distinct,
            "localaction.colors_matchable.repeat_ratio":
                ratio(matchable.calls - distinct, matchable.calls),
            "localaction.segment_orbit_census.s": get("localaction.segment_orbit_census").s,
            "localaction.transport_into_line.s": get("localaction.transport_into_line").s,
            "medianqm.homogenize_word.calls": get("medianqm.homogenize_word").calls,
            "medianqm.find_nonvanishing_qm.s": get("medianqm.find_nonvanishing_qm").s,
            "medianqm.independence_search.s": get("medianqm.independence_search").s,
            "medianqm.independence_search.accept_ratio":
                ratio(pivots.extra.get("search_accepted", 0), pivots.extra.get("search_calls", 0)),
            "ratmat.pivot_positions.calls": pivots.calls,
            "ratmat.pivot_positions.self_s": pivots.self_s,
            "chains.restriction_correspondence_check.s": restriction.s,
            "chains.restriction.useful_ratio":
                ratio(restriction.extra.get("tuples_checked", 0), aligned_in_restriction),
            "chains.exactness_check.s": get("chains.exactness_check").s,
            "permgroups.find_mapping.calls": get("permgroups.find_mapping").calls,
            "permgroups.find_mapping.self_s": get("permgroups.find_mapping").self_s,
            "permgroups.generate.calls": get("permgroups.generate").calls,
            "cli.main.calls": get("cli.main").calls,
        }
        for key in EVIDENCE_KEYS:
            m[f"analysis.evidence.{key}.s"] = self.evidence[key]
        for name in LAYERS:
            m[f"{name}.self_s"] = layer[name]
        return m
