"""Cypher front end: lexer, parser, predicate normalization, query graph."""

from .ast import (
    And,
    Comparison,
    Direction,
    LabelRef,
    Literal,
    NodePattern,
    Not,
    Or,
    PathPattern,
    PropertyAccess,
    Query,
    RelationshipPattern,
    ReturnClause,
    ReturnItem,
    VariableRef,
    Xor,
)
from .errors import (
    CypherError,
    CypherSemanticError,
    CypherSyntaxError,
    PredicateTooLargeError,
)
from .parameters import bind_parameters, find_parameters
from .parser import parse
from .pretty import render_query
from .predicates import (
    CNF,
    Atom,
    Clause,
    evaluate_cnf,
    evaluate_clause,
    evaluate_comparison,
    label_predicate,
    to_cnf,
)
from .query_graph import DEFAULT_UPPER_BOUND, QueryEdge, QueryHandler, QueryVertex
from .span import Span, span_at

__all__ = [
    "And",
    "Atom",
    "CNF",
    "Clause",
    "Comparison",
    "CypherError",
    "CypherSemanticError",
    "CypherSyntaxError",
    "PredicateTooLargeError",
    "DEFAULT_UPPER_BOUND",
    "Direction",
    "LabelRef",
    "Literal",
    "NodePattern",
    "Not",
    "Or",
    "PathPattern",
    "PropertyAccess",
    "Query",
    "QueryEdge",
    "QueryHandler",
    "QueryVertex",
    "RelationshipPattern",
    "ReturnClause",
    "ReturnItem",
    "Span",
    "VariableRef",
    "Xor",
    "evaluate_cnf",
    "evaluate_clause",
    "evaluate_comparison",
    "label_predicate",
    "bind_parameters",
    "find_parameters",
    "parse",
    "render_query",
    "span_at",
    "to_cnf",
]
