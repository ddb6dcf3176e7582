"""Fixed-point effect propagation and deterministic summaries.

:class:`FlowAnalysis` owns the :class:`~repro.lint.flow.callgraph.CallGraph`
plus two transitive closures over it:

* **ambient** — effects visible *from the outside* of each function:
  its own direct effects plus everything its callees leak, minus any
  kind the function (or an enclosing declaration scope) *declares* via
  a ``# megsim: ambient(...)`` pragma or a blanket subtree
  (:data:`~repro.lint.config.AMBIENT_PATHS`,
  :data:`~repro.lint.config.STORE_PATHS`).  A declaration *absorbs* the
  declared kinds at the declaring function, so sanctioned ambient access
  does not propagate upward.
* **raw** — the same closure with no absorption, used by MEG011 to
  prove that every declaration still matches a real effect (a stale
  declaration is itself a finding).

Both closures are computed by a monotone worklist iteration, so call
cycles converge.  Each propagated item is ``(kind, detail, origin)``
where *origin* is the function with the direct effect; witness chains
(:meth:`FlowAnalysis.witness`) re-derive the shortest call path from a
root to the origin, which is what MEG010 findings and
``megsim lint --effects`` print.

Summaries are deterministic and JSON-stable: all collections are
sorted, and the golden tests pin :meth:`FlowAnalysis.digest`, which
strips line numbers so unrelated edits do not churn the goldens.
"""

from __future__ import annotations

from collections import deque

from repro.lint.config import AMBIENT_PATHS, STORE_PATHS
from repro.lint.flow.callgraph import CallGraph, FunctionInfo
from repro.lint.flow.effects import EFFECT_KINDS
from repro.lint.project import Project

#: ``(kind, detail, origin_qualname)`` — one propagated ambient item.
Item = tuple[str, str, str]


class FlowAnalysis:
    """Interprocedural effect summaries for one linted project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = CallGraph(project)
        self.declared: dict[str, frozenset[str]] = {
            qualname: self._declared_kinds(fn)
            for qualname, fn in self.graph.functions.items()
        }
        self.ambient: dict[str, frozenset[Item]] = self._closure(absorb=True)
        self.raw: dict[str, frozenset[Item]] = self._closure(absorb=False)

    # -- declarations --------------------------------------------------

    def _declared_kinds(self, fn: FunctionInfo) -> frozenset[str]:
        kinds = {kind for kind in fn.pragma_kinds if kind in EFFECT_KINDS}
        if _under(fn.relpath, AMBIENT_PATHS):
            kinds.update(EFFECT_KINDS)
        if _under(fn.relpath, STORE_PATHS):
            kinds.add("filesystem")
        return frozenset(kinds)

    # -- propagation ---------------------------------------------------

    def _closure(self, absorb: bool) -> dict[str, frozenset[Item]]:
        functions = self.graph.functions
        summaries: dict[str, set[Item]] = {}
        callers: dict[str, set[str]] = {}
        for qualname, fn in functions.items():
            items = {
                (effect.kind, effect.detail, qualname)
                for effect in fn.effects
            }
            if absorb:
                items = {
                    item
                    for item in items
                    if item[0] not in self.declared[qualname]
                }
            summaries[qualname] = items
            for callee in fn.callees:
                if callee in functions:
                    callers.setdefault(callee, set()).add(qualname)
        work = deque(sorted(functions))
        queued = set(work)
        while work:
            qualname = work.popleft()
            queued.discard(qualname)
            outgoing = summaries[qualname]
            for caller in callers.get(qualname, ()):
                add = outgoing
                if absorb:
                    add = {
                        item
                        for item in outgoing
                        if item[0] not in self.declared[caller]
                    }
                if not add <= summaries[caller]:
                    summaries[caller] |= add
                    if caller not in queued:
                        work.append(caller)
                        queued.add(caller)
        return {q: frozenset(items) for q, items in summaries.items()}

    # -- queries -------------------------------------------------------

    def function(self, qualname: str) -> FunctionInfo | None:
        return self.graph.functions.get(qualname)

    def resolve_spec(self, spec: str) -> str | None:
        """Qualname for a ``module:qualname`` (or dotted) CLI spec."""
        dotted = spec.replace(":", ".")
        if dotted in self.graph.functions:
            return dotted
        canonical = self.graph.canonicalize(dotted)
        if canonical in self.graph.functions:
            return canonical
        return None

    def cone(self, root: str) -> list[str]:
        """Sorted qualnames reachable from ``root`` (root included)."""
        functions = self.graph.functions
        seen = {root}
        work = deque([root])
        while work:
            current = work.popleft()
            for callee in functions[current].callees:
                if callee in functions and callee not in seen:
                    seen.add(callee)
                    work.append(callee)
        return sorted(seen)

    def witness(self, root: str, item: Item) -> list[str]:
        """Shortest call chain from ``root`` to the item's origin.

        Intermediate hops that declare the item's kind are skipped —
        the effect could not have propagated through them.  Returns a
        list of qualnames, ``[root, ..., origin]``.
        """
        kind, _, origin = item
        if root == origin:
            return [root]
        functions = self.graph.functions
        seen = {root}
        work = deque([[root]])
        while work:
            path = work.popleft()
            for callee in sorted(functions[path[-1]].callees):
                if callee not in functions or callee in seen:
                    continue
                if callee == origin:
                    return path + [callee]
                if kind in self.declared[callee]:
                    continue
                seen.add(callee)
                work.append(path + [callee])
        return [root, origin]

    def render_chain(self, chain: list[str]) -> str:
        """Human spelling of a witness chain: ``a -> b -> c``."""
        return " -> ".join(
            self.graph.functions[q].display for q in chain
        )

    # -- summaries -----------------------------------------------------

    def summary(self, qualname: str) -> dict:
        """The full JSON-stable effect summary of one function."""
        fn = self.graph.functions[qualname]
        direct = sorted(fn.effects)
        ambient = sorted(self.ambient[qualname])
        absorbed = sorted(self.raw[qualname] - self.ambient[qualname])
        return {
            "function": fn.display,
            "path": fn.relpath,
            "line": fn.lineno,
            "declared": sorted(self.declared[qualname]),
            "direct": [
                {"kind": e.kind, "detail": e.detail, "site": e.site()}
                for e in direct
            ],
            "ambient": [
                {
                    "kind": kind,
                    "detail": detail,
                    "origin": self.graph.functions[origin].display,
                    "via": self.render_chain(
                        self.witness(qualname, (kind, detail, origin))
                    ),
                }
                for kind, detail, origin in ambient
            ],
            "absorbed": [
                {
                    "kind": kind,
                    "detail": detail,
                    "origin": self.graph.functions[origin].display,
                }
                for kind, detail, origin in absorbed
            ],
        }

    def digest(self, qualname: str) -> dict:
        """Line-number-free reduction of :meth:`summary` for goldens.

        Collapses each closure to sorted unique ``kind:detail`` pairs
        so that moving a line (or adding an unrelated call site) does
        not churn the pinned output.
        """
        fn = self.graph.functions[qualname]
        return {
            "function": fn.display,
            "declared": sorted(self.declared[qualname]),
            "direct": sorted(
                {f"{e.kind}:{e.detail}" for e in fn.effects}
            ),
            "ambient": sorted(
                {f"{k}:{d}" for k, d, _ in self.ambient[qualname]}
            ),
            "absorbed": sorted(
                {
                    f"{k}:{d}"
                    for k, d, _ in self.raw[qualname]
                    - self.ambient[qualname]
                }
            ),
        }


def get_flow(project: Project) -> FlowAnalysis:
    """The (cached) flow analysis for a project — built at most once."""
    flow = getattr(project, "_flow_analysis", None)
    if flow is None:
        flow = FlowAnalysis(project)
        project._flow_analysis = flow
    return flow


def _under(relpath: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        relpath == prefix or relpath.startswith(prefix + "/")
        for prefix in prefixes
    )
