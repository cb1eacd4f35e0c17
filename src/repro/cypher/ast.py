"""Abstract syntax tree for the supported Cypher subset."""

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .span import Span

#: Source-span field shared by AST nodes: excluded from equality/repr so
#: structurally identical nodes from different positions still compare equal.
def _span_field():
    return field(default=None, compare=False, repr=False)


def _render_property_map(entries):
    if not entries:
        return ""
    return " {%s}" % ", ".join(
        "%s: %s" % (key, literal) for key, literal in entries
    )


class Direction(enum.Enum):
    """Edge direction relative to the textual left-hand node."""

    OUTGOING = "outgoing"  # (a)-[e]->(b)
    INCOMING = "incoming"  # (a)<-[e]-(b)
    UNDIRECTED = "undirected"  # (a)-[e]-(b)


# Expressions -----------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: object  # None | bool | int | float | str | list
    span: Optional[Span] = _span_field()

    def __str__(self):
        return _render_literal(self.value)


def _render_literal(value):
    if isinstance(value, str):
        return "'%s'" % value.replace("\\", "\\\\").replace("'", "\\'")
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, list):
        return "[%s]" % ", ".join(_render_literal(item) for item in value)
    return str(value)


@dataclass(frozen=True)
class Parameter:
    """A ``$name`` placeholder resolved at execution time."""

    name: str
    span: Optional[Span] = _span_field()

    def __str__(self):
        return "$%s" % self.name


@dataclass(frozen=True)
class VariableRef:
    """A bare pattern variable in an expression position."""

    name: str
    span: Optional[Span] = _span_field()

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class PropertyAccess:
    variable: str
    key: str
    span: Optional[Span] = _span_field()

    def __str__(self):
        return "%s.%s" % (self.variable, self.key)


@dataclass(frozen=True)
class LabelRef:
    """The type label of a pattern variable (synthesized, not user syntax).

    Label predicates from ``(p:Person)`` are normalized into comparisons
    ``label(p) = 'Person'`` so that the whole WHERE machinery — CNF,
    push-down, evaluation — treats them uniformly (paper §2.5).
    """

    variable: str
    span: Optional[Span] = _span_field()

    def __str__(self):
        return "label(%s)" % self.variable


@dataclass(frozen=True)
class FunctionCall:
    """An aggregate call in RETURN: count/sum/min/max/avg/collect.

    ``argument`` is ``None`` for ``count(*)``.
    """

    name: str
    argument: object = None
    span: Optional[Span] = _span_field()

    def __str__(self):
        return "%s(%s)" % (self.name, self.argument if self.argument else "*")


@dataclass(frozen=True)
class Comparison:
    """A binary predicate: =, <>, <, <=, >, >=, IN, string operators."""

    operator: str
    left: object
    right: object
    span: Optional[Span] = _span_field()

    def __str__(self):
        if self.operator in ("IS NULL", "IS NOT NULL"):
            return "%s %s" % (self.left, self.operator)
        return "%s %s %s" % (self.left, self.operator, self.right)


@dataclass(frozen=True)
class And:
    left: object
    right: object

    def __str__(self):
        return "(%s AND %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Or:
    left: object
    right: object

    def __str__(self):
        return "(%s OR %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Xor:
    left: object
    right: object

    def __str__(self):
        return "(%s XOR %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Not:
    operand: object

    def __str__(self):
        return "NOT (%s)" % (self.operand,)


# Patterns -------------------------------------------------------------------


@dataclass
class NodePattern:
    """``(variable:LabelA|LabelB {key: literal, ...})``."""

    variable: Optional[str] = None
    labels: List[str] = field(default_factory=list)
    properties: List[Tuple[str, object]] = field(default_factory=list)
    span: Optional[Span] = _span_field()

    def __str__(self):
        label = ":" + "|".join(self.labels) if self.labels else ""
        props = _render_property_map(self.properties)
        return "(%s%s%s)" % (self.variable or "", label, props)


@dataclass
class RelationshipPattern:
    """``-[variable:typeA|typeB *lower..upper {..}]->`` and variants.

    ``lower``/``upper`` are ``None`` for fixed-length (single-hop) edges;
    a variable-length edge always has an explicit lower bound and an upper
    bound (``upper`` may be ``None`` meaning "no declared upper bound").
    """

    variable: Optional[str] = None
    types: List[str] = field(default_factory=list)
    direction: Direction = Direction.OUTGOING
    lower: Optional[int] = None
    upper: Optional[int] = None
    properties: List[Tuple[str, object]] = field(default_factory=list)
    span: Optional[Span] = _span_field()

    @property
    def is_variable_length(self):
        return self.lower is not None

    def __str__(self):
        rel_type = ":" + "|".join(self.types) if self.types else ""
        span = ""
        if self.is_variable_length:
            span = "*%d..%s" % (
                self.lower,
                self.upper if self.upper is not None else "",
            )
        props = _render_property_map(self.properties)
        body = "[%s%s%s%s]" % (self.variable or "", rel_type, span, props)
        if self.direction is Direction.OUTGOING:
            return "-%s->" % body
        if self.direction is Direction.INCOMING:
            return "<-%s-" % body
        return "-%s-" % body


@dataclass
class PathPattern:
    """Alternating nodes and relationships: node (rel node)*."""

    nodes: List[NodePattern] = field(default_factory=list)
    relationships: List[RelationshipPattern] = field(default_factory=list)

    def __str__(self):
        parts = [str(self.nodes[0])]
        for rel, node in zip(self.relationships, self.nodes[1:]):
            parts.append(str(rel))
            parts.append(str(node))
        return "".join(parts)


# Clauses ----------------------------------------------------------------------


@dataclass
class ReturnItem:
    expression: object
    alias: Optional[str] = None
    span: Optional[Span] = _span_field()

    def __str__(self):
        if self.alias:
            return "%s AS %s" % (self.expression, self.alias)
        return str(self.expression)


@dataclass
class OrderItem:
    expression: object
    descending: bool = False


@dataclass
class ReturnClause:
    star: bool = False
    items: List[ReturnItem] = field(default_factory=list)
    distinct: bool = False
    order_by: List[OrderItem] = field(default_factory=list)
    skip: Optional[int] = None
    limit: Optional[int] = None

    @property
    def has_aggregates(self):
        return any(isinstance(item.expression, FunctionCall) for item in self.items)

    def order_expressions(self):
        """ORDER BY expressions that reference MATCH variables.

        A bare name matching a RETURN alias (``RETURN n.v AS v ORDER BY
        v``) names that output column instead, so it is left out.
        """
        aliases = {item.alias for item in self.items if item.alias}
        return [
            order.expression
            for order in self.order_by
            if not (
                isinstance(order.expression, VariableRef)
                and order.expression.name in aliases
            )
        ]


@dataclass
class Query:
    patterns: List[PathPattern] = field(default_factory=list)
    where: Optional[object] = None
    returns: Optional[ReturnClause] = None
