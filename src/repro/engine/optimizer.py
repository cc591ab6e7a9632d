"""A small algebraic plan optimizer (paper §5 future work).

Queries over MOs compose the fundamental operators; like relational
engines, a multidimensional engine benefits from rewriting the operator
tree before evaluation.  This module defines a tiny logical plan
language over one base MO —

* :class:`Base` — the input MO;
* :class:`SelectNode` — σ with a predicate;
* :class:`ProjectNode` — π onto dimensions;
* :class:`RenameNode` — ρ of the fact type and/or dimension names;
* :class:`UnionNode` / :class:`DifferenceNode` — ∪ and \\;
* :class:`JoinNode` — the identity join ⋈;
* :class:`AggregateNode` — α with a function, grouping, and result
  spec —

so every fundamental operator of §4.1 can appear in a plan (which is
what makes the static plan typechecker in :mod:`repro.analyze.plan`
total over the algebra), plus an :func:`optimize` pass applying the
classical, *provably equivalence-preserving* rewrites in this algebra:

1. **project fusion**: π[A](π[B](X)) → π[A](X) (projection keeps facts,
   so only the outermost dimension list matters);
2. **select-past-project**: π[A](σ[p](X)) ↔ σ[p](π[A](X)); the
   optimizer normalizes to *select first* when p's dimensions are kept
   by A — σ shrinks the fact set, so later π copies less — and must
   keep σ inside when p touches projected-away dimensions (in this
   algebra that order is *required* for meaning, not just speed).

σ chains are never fused: σ[p ∧ q] lets one characterizing value
witness both p and q in each dimension, while σ[p](σ[q](X)) picks a
witness per node, so a fact reaching two dice values of one dimension
through different base values survives the chain but not the
conjunction.

Equivalence of optimized and naive plans is property-tested in
``tests/engine/test_optimizer.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.algebra import (
    aggregate,
    difference,
    identity_join,
    project,
    rename,
    select,
    union,
)
from repro.algebra.functions import AggregationFunction
from repro.algebra.join import JoinPredicate
from repro.algebra.predicates import Predicate
from repro.core.helpers import ResultSpec
from repro.core.mo import MultidimensionalObject
from repro.obs import metrics, trace

__all__ = ["Base", "SelectNode", "ProjectNode", "RenameNode", "UnionNode",
           "DifferenceNode", "JoinNode", "AggregateNode", "Plan",
           "evaluate", "optimize", "explain", "AnalyzedNode",
           "AnalyzedPlan", "explain_analyze", "node_label", "children_of"]

_REWRITES = metrics.counter("optimizer.rewrite_passes")


@dataclass(frozen=True)
class Base:
    """The plan leaf: the input MO."""

    mo: MultidimensionalObject


@dataclass(frozen=True)
class SelectNode:
    """σ[predicate] over a child plan."""

    child: "Plan"
    predicate: Predicate


@dataclass(frozen=True)
class ProjectNode:
    """π[dimensions] over a child plan."""

    child: "Plan"
    dimensions: Tuple[str, ...]


@dataclass(frozen=True)
class RenameNode:
    """ρ over a child plan: a new fact type and/or dimension renames.

    ``dimension_map`` is a tuple of ``(old_name, new_name)`` pairs —
    tuples, not a dict, so the node stays hashable like every other
    plan node."""

    child: "Plan"
    new_fact_type: Optional[str] = None
    dimension_map: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class UnionNode:
    """∪ of two child plans over common schemas."""

    left: "Plan"
    right: "Plan"


@dataclass(frozen=True)
class DifferenceNode:
    """\\ of two child plans over common schemas."""

    left: "Plan"
    right: "Plan"


@dataclass(frozen=True)
class JoinNode:
    """⋈[predicate] of two child plans with disjoint dimension names."""

    left: "Plan"
    right: "Plan"
    predicate: JoinPredicate = JoinPredicate.TRUE


@dataclass(frozen=True)
class AggregateNode:
    """α[result, function, grouping] over a child plan.

    ``grouping`` is a tuple of ``(dimension_name, category_name)``
    pairs (hashable; omitted dimensions group by ⊤, as in the
    operator).  ``strict_types`` mirrors the operator's default: the
    paper's "prevent" mode raising on aggregation-type violations."""

    child: "Plan"
    function: AggregationFunction
    grouping: Tuple[Tuple[str, str], ...]
    result: ResultSpec
    strict_types: bool = True


Plan = Union[Base, SelectNode, ProjectNode, RenameNode, UnionNode,
             DifferenceNode, JoinNode, AggregateNode]


def evaluate(plan: Plan) -> MultidimensionalObject:
    """Evaluate a plan bottom-up with the algebra's operators.

    Each node is one ``optimizer.node`` trace span holding the node and
    its output fact count."""
    with trace.span("optimizer.node") as span:
        if isinstance(plan, Base):
            mo = plan.mo
        elif isinstance(plan, SelectNode):
            mo = select(evaluate(plan.child), plan.predicate)
        elif isinstance(plan, ProjectNode):
            mo = project(evaluate(plan.child), list(plan.dimensions))
        elif isinstance(plan, RenameNode):
            mo = rename(evaluate(plan.child), plan.new_fact_type,
                        dict(plan.dimension_map))
        elif isinstance(plan, UnionNode):
            mo = union(evaluate(plan.left), evaluate(plan.right))
        elif isinstance(plan, DifferenceNode):
            mo = difference(evaluate(plan.left), evaluate(plan.right))
        elif isinstance(plan, JoinNode):
            mo = identity_join(evaluate(plan.left), evaluate(plan.right),
                               plan.predicate)
        elif isinstance(plan, AggregateNode):
            mo = aggregate(evaluate(plan.child), plan.function,
                           dict(plan.grouping), plan.result,
                           strict_types=plan.strict_types)
        else:
            raise TypeError(f"unknown plan node {plan!r}")
        if span:
            span.set(node=plan, facts_out=len(mo.facts))
    return mo


def optimize(plan: Plan) -> Plan:
    """Apply the rewrites until a fixpoint.

    The result is semantically equivalent to the input: project fusion
    is an identity of the algebra, and select-past-project is applied
    only when the predicate's dimensions survive the projection.
    """
    current = plan
    while True:
        rewritten = _rewrite(current)
        if rewritten == current:
            return current
        _REWRITES.inc()
        current = rewritten


def _rewrite(plan: Plan) -> Plan:
    if isinstance(plan, Base):
        return plan
    if isinstance(plan, SelectNode):
        child = _rewrite(plan.child)
        # push select below project when its dimensions survive
        if isinstance(child, ProjectNode) and \
                set(plan.predicate.dims) <= set(child.dimensions):
            return ProjectNode(
                child=SelectNode(child=child.child,
                                 predicate=plan.predicate),
                dimensions=child.dimensions,
            )
        return SelectNode(child=child, predicate=plan.predicate)
    if isinstance(plan, ProjectNode):
        child = _rewrite(plan.child)
        # project fusion: inner projection is redundant if it keeps a
        # superset of the outer one (projection never drops facts)
        if isinstance(child, ProjectNode) and \
                set(plan.dimensions) <= set(child.dimensions):
            return ProjectNode(child=child.child,
                               dimensions=plan.dimensions)
        return ProjectNode(child=child, dimensions=plan.dimensions)
    # the remaining operators take no rewrites yet: recurse only, so
    # the σ/π rules still fire in their subtrees
    if isinstance(plan, RenameNode):
        return RenameNode(child=_rewrite(plan.child),
                          new_fact_type=plan.new_fact_type,
                          dimension_map=plan.dimension_map)
    if isinstance(plan, UnionNode):
        return UnionNode(left=_rewrite(plan.left),
                         right=_rewrite(plan.right))
    if isinstance(plan, DifferenceNode):
        return DifferenceNode(left=_rewrite(plan.left),
                              right=_rewrite(plan.right))
    if isinstance(plan, JoinNode):
        return JoinNode(left=_rewrite(plan.left),
                        right=_rewrite(plan.right),
                        predicate=plan.predicate)
    if isinstance(plan, AggregateNode):
        return AggregateNode(child=_rewrite(plan.child),
                             function=plan.function,
                             grouping=plan.grouping,
                             result=plan.result,
                             strict_types=plan.strict_types)
    raise TypeError(f"unknown plan node {plan!r}")


def node_label(plan: Plan) -> str:
    """The one-line operator label of a plan node (shared by
    :func:`explain`, :func:`explain_analyze`, and the static analyzer's
    diagnostic locations)."""
    if isinstance(plan, Base):
        return f"Base({plan.mo.schema.fact_type})"
    if isinstance(plan, SelectNode):
        return f"σ[{plan.predicate.description}]"
    if isinstance(plan, ProjectNode):
        return f"π[{', '.join(plan.dimensions)}]"
    if isinstance(plan, RenameNode):
        renames = [f"{old}→{new}" for old, new in plan.dimension_map]
        if plan.new_fact_type is not None:
            renames.insert(0, plan.new_fact_type)
        return f"ρ[{', '.join(renames)}]"
    if isinstance(plan, UnionNode):
        return "∪"
    if isinstance(plan, DifferenceNode):
        return "\\"
    if isinstance(plan, JoinNode):
        return f"⋈[{plan.predicate.value}]"
    if isinstance(plan, AggregateNode):
        groups = ", ".join(f"{dim}@{cat}" for dim, cat in plan.grouping)
        return f"α[{plan.function.name}; {groups}]"
    raise TypeError(f"unknown plan node {plan!r}")


def children_of(plan: Plan) -> Tuple[Plan, ...]:
    """The child plans of a node (empty for :class:`Base`) — the
    traversal hook shared with :mod:`repro.analyze.plan`."""
    if isinstance(plan, Base):
        return ()
    if isinstance(plan, (UnionNode, DifferenceNode, JoinNode)):
        return (plan.left, plan.right)
    return (plan.child,)


def explain(plan: Plan, indent: int = 0) -> str:
    """A one-line-per-node rendering of the plan tree."""
    pad = "  " * indent
    parts = [f"{pad}{node_label(plan)}"]
    parts.extend(explain(child, indent + 1)
                 for child in children_of(plan))
    return "\n".join(parts)


@dataclass(frozen=True)
class AnalyzedNode:
    """One evaluated plan node with its measurements.

    ``elapsed_seconds`` is *inclusive* wall time (this node plus its
    subtree, as in PostgreSQL's actual-time column); ``facts_in`` is
    the child's output fact count (its own output for :class:`Base`),
    ``facts_out`` this node's.
    """

    label: str
    elapsed_seconds: float
    facts_in: int
    facts_out: int
    children: Tuple["AnalyzedNode", ...] = ()

    @property
    def self_seconds(self) -> float:
        """This node's own time (inclusive minus children)."""
        return max(
            0.0,
            self.elapsed_seconds
            - sum(c.elapsed_seconds for c in self.children),
        )

    def render(self, indent: int = 0) -> str:
        """This subtree, one annotated line per node."""
        pad = "  " * indent
        line = (f"{pad}{self.label}  facts {self.facts_in} -> "
                f"{self.facts_out}  {self.elapsed_seconds * 1e3:.3f}ms")
        parts = [line]
        parts.extend(c.render(indent + 1) for c in self.children)
        return "\n".join(parts)


@dataclass(frozen=True)
class AnalyzedPlan:
    """An evaluated plan: the result MO plus the annotated node tree
    (the plan-level EXPLAIN ANALYZE)."""

    root: AnalyzedNode
    mo: MultidimensionalObject

    @property
    def total_seconds(self) -> float:
        """Total evaluation wall time (the root's inclusive time)."""
        return self.root.elapsed_seconds

    def render(self) -> str:
        """The annotated tree as text."""
        return self.root.render()


def explain_analyze(plan: Plan) -> AnalyzedPlan:
    """Evaluate ``plan`` bottom-up, annotating every node with elapsed
    wall time and in/out fact counts — the plan-level counterpart of
    :meth:`repro.engine.query.Query.explain`.

    The evaluation is :func:`evaluate` itself, under a trace collector:
    the tree is built from its ``optimizer.node`` spans, and the
    returned :class:`AnalyzedPlan` carries the result MO, so analyzing
    costs one evaluation, not two.
    """
    with trace.collect() as records:
        mo = evaluate(plan)
    children: Dict[int, List[int]] = {}
    for index, record in enumerate(records):
        if record.name == "optimizer.node":
            children[index] = []
            if record.parent_index is not None:
                children[record.parent_index].append(index)

    def build(index: int) -> AnalyzedNode:
        attributes = records[index].attributes
        kids = tuple(build(child) for child in children[index])
        facts_out = attributes["facts_out"]
        return AnalyzedNode(
            label=node_label(attributes["node"]),
            elapsed_seconds=records[index].elapsed_seconds,
            facts_in=sum(k.facts_out for k in kids) if kids else facts_out,
            facts_out=facts_out,
            children=kids)

    return AnalyzedPlan(root=build(0), mo=mo)
