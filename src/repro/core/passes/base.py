"""Pass infrastructure: independent, ordered, individually-testable
rewrites over expression DAGs.

Each :class:`Pass` is one rule family (folding, pushdown, transpose
absorption, ...) expressed as a bottom-up local rewrite.  The
:class:`Pipeline` runs its passes in order and iterates the whole
sequence to fixpoint, detected with the shared
:func:`~repro.core.passes.signatures.dag_signature` — so a pass firing
late in the sequence re-enables every earlier pass on the next sweep,
with each family testable on its own.
"""

from __future__ import annotations

from ..expr import Node
from .signatures import dag_signature

#: Bound on whole-pipeline sweeps; real DAGs stabilize in two or three.
MAX_SWEEPS = 10


class PassContext:
    """Shared state threaded through a pipeline run.

    ``applied`` collects human-readable rule names in firing order.
    ``tracer`` (optional, defaults to a shared disabled one) lets the
    pipeline attribute optimizer wall-clock per pass.  No pass consults
    a cost model — every priced choice is the planner's.
    """

    def __init__(self, tracer=None) -> None:
        from repro.obs.tracer import NULL_TRACER
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.applied: list[str] = []

    def record(self, rule: str) -> None:
        self.applied.append(rule)


class Pass:
    """One rewrite family.  Subclasses implement either ``rewrite``
    (a local bottom-up rule; the traversal is provided) or ``run``
    (a whole-DAG transformation, e.g. CSE)."""

    name = "pass"

    def run(self, root: Node, ctx: PassContext) -> Node:
        return bottom_up(root, lambda node: self.rewrite(node, ctx))

    def rewrite(self, node: Node, ctx: PassContext) -> Node:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<pass {self.name}>"


def bottom_up(root: Node, rule) -> Node:
    """Apply ``rule`` to every node, children first, preserving sharing.

    ``rule(node)`` returns a replacement (or the node itself).  When a
    rule fires, the replacement's children are visited and the rule
    re-applied until the node is stable, so a rewrite that exposes more
    opportunities below itself (subscript pushdown does) converges in
    one traversal.  Results are memoized by the *original* node's
    identity, so shared subtrees stay shared.
    """
    # Keyed on id() with the key node pinned in the value: a transient
    # node created by an earlier rule firing must not be collected and
    # have its address reused by a fresh node, or lookups would return
    # a stale result for the wrong node.
    memo: dict[int, tuple[Node, Node]] = {}

    def visit(node: Node) -> Node:
        hit = memo.get(id(node))
        if hit is not None and hit[0] is node:
            return hit[1]
        out = _locally_stable(node, rule, visit)
        memo[id(node)] = (node, out)
        return out

    return visit(root)


def _locally_stable(node: Node, rule, visit) -> Node:
    for _ in range(64):  # cycle guard; rules strictly shrink in practice
        children = tuple(visit(c) for c in node.children)
        if children != node.children:
            node = node.with_children(children)
        replacement = rule(node)
        if replacement is node:
            return node
        node = replacement
    raise RuntimeError(f"rewrite rule did not converge at {node!r}")


class Pipeline:
    """An ordered list of passes iterated to fixpoint."""

    def __init__(self, passes: list[Pass]) -> None:
        self.passes = list(passes)

    def run(self, root: Node, ctx: PassContext) -> Node:
        node = root
        with ctx.tracer.span("pipeline", cat="optimizer"):
            for sweep in range(MAX_SWEEPS):
                before = dag_signature(node)
                for p in self.passes:
                    n_before = len(ctx.applied)
                    with ctx.tracer.span(f"pass:{p.name}",
                                         cat="optimizer", sweep=sweep):
                        node = p.run(node, ctx)
                    if ctx.tracer.enabled:
                        span = ctx.tracer.last_span()
                        if span is not None:
                            span.args["fired"] = \
                                len(ctx.applied) - n_before
                if dag_signature(node) == before:
                    break
        return node
