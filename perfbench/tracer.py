"""In-memory spans at the module boundaries of `magmas`, without editing it.

`Tracer.install` wraps the public functions of each module. It replaces
the module attribute and every other `magmas.*` module binding of the same
function object (names brought in by `from .x import f`), the methods on
`Hierarchy`, and each suite's check in the `SUITES` registry.
`Tracer.uninstall` puts every original back.

A kept span records its name, the kept span that caused it, the operation
it belongs to, its busy time and its self time: busy time minus the time
its direct children were busy. Generators count only the time spent
inside them, never the consumer's time between items. Hot calls (`HOT`)
are not kept one by one; they are aggregated per parent span as a count
plus busy and self time.
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from time import perf_counter

LAYERS = ("preorder", "topology", "shifting", "symbolic", "hierarchy", "verify")

# (span name, module, attribute); "Class.method" names a method.
TARGETS = (
    ("preorder.enumerate_preorders", "preorder", "enumerate_preorders"),
    ("preorder.build", "preorder", "build"),
    ("topology.enumerate_opens", "topology", "enumerate_opens"),
    ("topology.minimal_opens", "topology", "minimal_opens"),
    ("topology.is_lower_open", "topology", "is_lower_open"),
    ("topology.downset_masks", "topology", "downset_masks"),
    ("shifting.shift_leq", "shifting", "shift_leq"),
    ("shifting.pr_plus", "shifting", "pr_plus"),
    ("shifting.check_connection", "shifting", "check_connection"),
    ("shifting.shifted_is_total", "shifting", "shifted_is_total"),
    ("shifting.shifted_opens_match", "shifting", "shifted_opens_match"),
    ("shifting.preorder_of_opens", "shifting", "preorder_of_opens"),
    ("symbolic.gen_member", "symbolic", "gen_member"),
    ("symbolic.gen_subset", "symbolic", "gen_subset"),
    ("symbolic.members_up_to", "symbolic", "members_up_to"),
    ("symbolic.validate_model", "symbolic", "validate_model"),
    ("hierarchy.build", "hierarchy", "Hierarchy.build"),
    ("hierarchy.membership", "hierarchy", "Hierarchy.membership"),
    ("hierarchy.member_level", "hierarchy", "Hierarchy.member_level"),
    ("hierarchy.union_report", "hierarchy", "Hierarchy.union_report"),
    ("hierarchy.classify", "hierarchy", "Hierarchy.classify"),
    ("hierarchy.power_element", "hierarchy", "Hierarchy.power_element"),
    ("verify.run_suite", "verify", "run_suite"),
    ("verify.render_report", "verify", "render_report"),
    ("verify.report_to_json", "verify", "report_to_json"),
)
GENERATORS = {"preorder.enumerate_preorders", "topology.downset_masks"}
HOT = {"topology.is_lower_open", "shifting.shift_leq", "symbolic.gen_member",
       "hierarchy.member_level"}
# Hot calls that never reach another target: all their time is self time,
# so their wrapper can skip the bookkeeping for nested calls.
LEAVES = {"topology.is_lower_open", "shifting.shift_leq"}
SUITE_PREFIX = "verify.suite."


class Tracer:
    """Spans and counters for one traced phase of a benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per kept span
        self.span_name = array("i")
        self.span_parent = array("i")   # -1: called by the benchmark itself
        self.span_op = array("i")
        self.span_busy = array("d")
        self.span_self = array("d")
        self.span_nested = array("b")   # 1: inside a span of the same name
        # hot calls: (parent span, name id) -> [calls, busy, self]
        self.agg: dict[tuple[int, int], list] = {}
        self.counters: dict[str, float] = {}
        self.enumerated: dict[int, int] = {}  # carrier size -> models yielded
        self.op = -1
        self._active: list[int] = []
        # frame: [children's busy time, nearest kept span, {hot id: [calls, busy, self]}]
        self._stack: list[list] = [[0.0, -1, {}]]
        self._patches: list[tuple[object, str, object]] = []
        self._suites: dict | None = None
        self._mg = None
        self._atoms_walked: dict = {}

    # --- recording --------------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return i

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, nid: int) -> list:
        """Start a kept span; returns its frame."""
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][1])
        self.span_op.append(self.op)
        self.span_busy.append(0.0)
        self.span_self.append(0.0)
        self.span_nested.append(1 if self._active[nid] else 0)
        return [0.0, len(self.span_name) - 1, {}]

    def _enter(self, nid: int, frame: list) -> None:
        self._stack.append(frame)
        self._active[nid] += 1

    def _leave(self, nid: int, dt: float) -> None:
        self._stack.pop()
        self._active[nid] -= 1
        self._stack[-1][0] += dt

    def _close(self, frame: list, busy: float) -> None:
        for hid, row in frame[2].items():
            self._add(frame[1], hid, *row)
        self.span_busy[frame[1]] = busy
        self.span_self[frame[1]] = busy - frame[0]

    def _add(self, parent: int, nid: int, calls: int, busy: float,
             self_t: float) -> None:
        row = self.agg.get((parent, nid))
        if row is None:
            row = self.agg[(parent, nid)] = [0, 0.0, 0.0]
        row[0] += calls
        row[1] += busy
        row[2] += self_t

    def flush(self) -> None:
        """Move hot calls made directly by the benchmark into `agg`."""
        root = self._stack[0]
        for hid, row in root[2].items():
            self._add(-1, hid, *row)
        root[2] = {}

    # --- wrappers ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        """fn, recorded under `name` (a layer-qualified name) when called."""
        nid = self.name_id(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        stack = self._stack
        tracer = self

        if name in LEAVES:
            def traced_leaf(*args, _pc=perf_counter, **kwargs):
                t0 = _pc()
                result = fn(*args, **kwargs)
                dt = _pc() - t0
                top = stack[-1]
                top[0] += dt
                row = top[2].get(nid)
                if row is None:
                    top[2][nid] = [1, dt, dt]
                else:
                    row[0] += 1
                    row[1] += dt
                    row[2] += dt
                return result
            return traced_leaf

        if name in HOT:
            depth = [0]  # > 0 while a call of this name is running

            def traced_hot(*args, _pc=perf_counter, **kwargs):
                # No frame: calls made inside add their busy time to the
                # caller's frame, which is read back and replaced by ours.
                top = stack[-1]
                before_children = top[0]
                depth[0] += 1
                t0 = _pc()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _pc() - t0
                    depth[0] -= 1
                    inner = top[0] - before_children
                    top[0] = before_children + dt
                    row = top[2].get(nid)
                    if row is None:
                        row = top[2][nid] = [0, 0.0, 0.0]
                    row[0] += 1
                    if not depth[0]:
                        row[1] += dt
                    row[2] += dt - inner
            return traced_hot

        if name in GENERATORS:
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                frame = tracer._open(nid)
                busy = 0.0
                items = 0
                try:
                    while True:
                        tracer._enter(nid, frame)
                        t0 = perf_counter()
                        try:
                            x = next(it)
                        except StopIteration:
                            return
                        finally:
                            dt = perf_counter() - t0
                            busy += dt
                            tracer._leave(nid, dt)
                        items += 1
                        yield x
                finally:
                    tracer._close(frame, busy)
                    if after is not None:
                        after(tracer, args, None, items)
            return traced_gen

        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            frame = tracer._open(nid)
            tracer._enter(nid, frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._leave(nid, dt)
                tracer._close(frame, dt)
            if after is not None:
                after(tracer, args, pre, result)
            return result
        return traced

    # --- install / uninstall -------------------------------------------------------

    def install(self, mg) -> None:
        """Wrap every target in the imported `magmas` package `mg`."""
        if self._mg is not None:
            raise RuntimeError("tracer already installed")
        self._mg = mg
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == mg.__name__ or n.startswith(mg.__name__ + ".")]
        for name, mod, attr in TARGETS:
            owner = getattr(mg, mod)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, vars(cls)[meth], self.wrap(name, vars(cls)[meth]))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapped)
        self._suites = dict(mg.SUITES)
        for sid, suite in self._suites.items():
            check = self.wrap(SUITE_PREFIX + sid, suite.check)
            mg.SUITES[sid] = dataclasses.replace(suite, check=check)

    def _patch(self, obj, attr: str, orig, new) -> None:
        self._patches.append((obj, attr, orig))
        setattr(obj, attr, new)

    def uninstall(self) -> None:
        """Put back every original; safe to call more than once."""
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()
        if self._suites is not None:
            self._mg.SUITES.clear()
            self._mg.SUITES.update(self._suites)
            self._suites = None
        self._mg = None
        self.flush()

    # --- summaries ----------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, busy (outermost calls only), self]."""
        out: dict[str, list] = {}
        for i in range(len(self.span_name)):
            row = out.setdefault(self.names[self.span_name[i]], [0, 0.0, 0.0])
            row[0] += 1
            if not self.span_nested[i]:
                row[1] += self.span_busy[i]
            row[2] += self.span_self[i]
        for (_, nid), (calls, busy, self_t) in self.agg.items():
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += calls
            row[1] += busy
            row[2] += self_t
        return out

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_t) in self.totals().items():
            out[name.split(".", 1)[0]] += self_t
        return out


def _count_models(tr: Tracer, args, pre, items: int) -> None:
    n = args[0]
    tr.enumerated[n] = items
    tr.count("preorder.models_yielded", items)
    tr.count("preorder.patterns", 2 ** (n * (n - 1)))


def _count_downsets(tr: Tracer, args, pre, items: int) -> None:
    tr.count("topology.downsets_yielded", items)
    tr.count("topology.downset_candidates", 2 ** args[1] - 1)


def _count_members(tr: Tracer, args, pre, result) -> None:
    g, depth = args[0], args[1]
    key = (g.model.name, depth)
    walked = tr._atoms_walked.get(key)
    if walked is None:
        walked = tr._atoms_walked[key] = sum(1 for _ in g.model.atoms_up_to(depth))
    tr.count("symbolic.members_returned", len(result))
    tr.count("symbolic.atoms_walked", walked)


def _count_levels(tr: Tracer, args, before: int, levels) -> None:
    new = levels[before:]
    tr.count("hierarchy.levels_built", len(new))
    tr.count("hierarchy.level_elements", sum(len(lv) for lv in new))


def _count_models_checked(tr: Tracer, args, pre, report) -> None:
    tr.count("verify.models_checked", sum(r.models_checked for r in report.results))


_BEFORE = {"hierarchy.build": lambda args: args[0].built_depth}
_AFTER = {
    "preorder.enumerate_preorders": _count_models,
    "topology.downset_masks": _count_downsets,
    "symbolic.members_up_to": _count_members,
    "hierarchy.build": _count_levels,
    "verify.run_suite": _count_models_checked,
}
