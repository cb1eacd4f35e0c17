"""Recursive-descent parser for the supported Cypher subset.

Covers everything the paper's six evaluation queries need — multiple MATCH
path patterns, label alternation (``Comment|Post``), variable-length paths
(``*0..10``), inline property maps, WHERE with boolean connectives and
comparisons, RETURN with ``*``/items — plus small openCypher conveniences
(DISTINCT, LIMIT, IN, IS [NOT] NULL, undirected edges).
"""

from .ast import (
    And,
    Comparison,
    Direction,
    FunctionCall,
    Literal,
    OrderItem,
    Parameter,
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
from .errors import CypherSyntaxError
from .lexer import tokenize

_COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">="}
_AGGREGATES = {"count", "sum", "min", "max", "avg", "collect"}

#: Deepest expression nesting a query may have.  Two depths are held to
#: it: the parser's nesting of parentheses, NOTs and list brackets, and
#: the height of the WHERE clause's AND/OR/XOR/NOT tree (a flat chain of
#: 100 ORs is 100 high).  Deeper input is a syntax error, raised before
#: the parser's own descent or any later recursive walk (CNF conversion,
#: linting, evaluation) can exhaust the Python stack.
MAX_EXPRESSION_DEPTH = 64


def parse(query_text):
    """Parse ``query_text`` into a :class:`~repro.cypher.ast.Query`."""
    return _Parser(tokenize(query_text)).parse_query()


class _Parser:
    def __init__(self, tokens):
        self._tokens = tokens
        self._index = 0
        self._nesting = 0  # open parentheses / NOTs / list brackets

    # Token helpers ----------------------------------------------------------

    @property
    def _current(self):
        return self._tokens[self._index]

    def _advance(self):
        token = self._current
        if token.kind != "eof":
            self._index += 1
        return token

    def _check(self, kind, text=None):
        token = self._current
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def _accept(self, kind, text=None):
        if self._check(kind, text):
            return self._advance()
        return None

    def _enter(self):
        """Open one nesting level; raises past :data:`MAX_EXPRESSION_DEPTH`."""
        self._nesting += 1
        if self._nesting > MAX_EXPRESSION_DEPTH:
            raise CypherSyntaxError(
                "expression nested deeper than %d levels"
                % MAX_EXPRESSION_DEPTH,
                self._current.position,
            )

    def _expect(self, kind, text=None):
        token = self._accept(kind, text)
        if token is None:
            raise CypherSyntaxError(
                "expected %s, found %r" % (text or kind, self._current.text or "end of query"),
                self._current.position,
            )
        return token

    # Grammar -------------------------------------------------------------------

    def parse_query(self):
        self._expect("keyword", "MATCH")
        patterns = [self._parse_path_pattern()]
        while self._accept("symbol", ","):
            patterns.append(self._parse_path_pattern())
        where = None
        where_token = self._accept("keyword", "WHERE")
        if where_token is not None:
            where = self._parse_expression()
            if _boolean_depth(where) > MAX_EXPRESSION_DEPTH:
                raise CypherSyntaxError(
                    "WHERE expression nested deeper than %d levels"
                    % MAX_EXPRESSION_DEPTH,
                    where_token.position,
                )
        returns = None
        if self._accept("keyword", "RETURN"):
            returns = self._parse_return()
        self._expect("eof")
        return Query(patterns=patterns, where=where, returns=returns)

    # Patterns ---------------------------------------------------------------------

    def _parse_path_pattern(self):
        path = PathPattern()
        path.nodes.append(self._parse_node())
        while self._check("symbol", "-") or self._check("symbol", "<"):
            path.relationships.append(self._parse_relationship())
            path.nodes.append(self._parse_node())
        return path

    def _parse_node(self):
        open_token = self._expect("symbol", "(")
        node = NodePattern()
        node.span = open_token.span
        if self._check("ident"):
            node.span = self._current.span
            node.variable = self._advance().text
        if self._accept("symbol", ":"):
            node.labels = self._parse_label_alternation()
        if self._check("symbol", "{"):
            node.properties = self._parse_property_map()
        self._expect("symbol", ")")
        return node

    def _parse_label_alternation(self):
        labels = [self._expect("ident").text]
        while self._accept("symbol", "|"):
            labels.append(self._expect("ident").text)
        return labels

    def _parse_relationship(self):
        start_span = self._current.span
        incoming = False
        if self._accept("symbol", "<"):
            incoming = True
        self._expect("symbol", "-")
        rel = RelationshipPattern()
        rel.span = start_span
        if self._accept("symbol", "["):
            if self._check("ident"):
                rel.span = self._current.span
                rel.variable = self._advance().text
            if self._accept("symbol", ":"):
                rel.types = self._parse_label_alternation()
            if self._accept("symbol", "*"):
                rel.lower, rel.upper = self._parse_length_range()
            if self._check("symbol", "{"):
                rel.properties = self._parse_property_map()
            self._expect("symbol", "]")
        if incoming:
            self._expect("symbol", "-")
            rel.direction = Direction.INCOMING
        else:
            self._expect("symbol", "-")
            if self._accept("symbol", ">"):
                rel.direction = Direction.OUTGOING
            else:
                rel.direction = Direction.UNDIRECTED
        return rel

    def _parse_length_range(self):
        """``*``, ``*n``, ``*l..u``, ``*..u``, ``*l..`` after the star."""
        lower = 1
        upper = None
        if self._check("int"):
            lower = self._advance().value
            upper = lower  # '*n' is exactly n hops unless '..' follows
        if self._accept("symbol", ".."):
            upper = self._advance().value if self._check("int") else None
        if upper is not None and upper < lower:
            raise CypherSyntaxError(
                "path upper bound %d below lower bound %d" % (upper, lower),
                self._current.position,
            )
        return lower, upper

    def _parse_property_map(self):
        self._expect("symbol", "{")
        entries = []
        if not self._check("symbol", "}"):
            while True:
                key = self._expect("ident").text
                self._expect("symbol", ":")
                entries.append((key, self._parse_literal()))
                if not self._accept("symbol", ","):
                    break
        self._expect("symbol", "}")
        return entries

    # Expressions -------------------------------------------------------------------

    def _parse_expression(self):
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_xor()
        while self._accept("keyword", "OR"):
            left = Or(left, self._parse_xor())
        return left

    def _parse_xor(self):
        left = self._parse_and()
        while self._accept("keyword", "XOR"):
            left = Xor(left, self._parse_and())
        return left

    def _parse_and(self):
        left = self._parse_not()
        while self._accept("keyword", "AND"):
            left = And(left, self._parse_not())
        return left

    def _parse_not(self):
        if self._accept("keyword", "NOT"):
            self._enter()
            operand = self._parse_not()
            self._nesting -= 1
            return Not(operand)
        return self._parse_comparison()

    def _parse_comparison(self):
        left = self._parse_primary()
        token = self._current
        span = token.span
        if token.kind == "symbol" and token.text in _COMPARISON_OPS:
            operator = self._advance().text
            return Comparison(operator, left, self._parse_primary(), span=span)
        if self._accept("keyword", "IN"):
            if self._check("param"):
                return Comparison(
                    "IN", left, Parameter(self._advance().text), span=span
                )
            return Comparison("IN", left, self._parse_list_literal(), span=span)
        if self._accept("keyword", "STARTS"):
            self._expect("keyword", "WITH")
            return Comparison("STARTS WITH", left, self._parse_primary(), span=span)
        if self._accept("keyword", "ENDS"):
            self._expect("keyword", "WITH")
            return Comparison("ENDS WITH", left, self._parse_primary(), span=span)
        if self._accept("keyword", "CONTAINS"):
            return Comparison("CONTAINS", left, self._parse_primary(), span=span)
        if self._accept("keyword", "IS"):
            if self._accept("keyword", "NOT"):
                self._expect("keyword", "NULL")
                return Comparison("IS NOT NULL", left, Literal(None), span=span)
            self._expect("keyword", "NULL")
            return Comparison("IS NULL", left, Literal(None), span=span)
        return left

    def _parse_primary(self):
        if self._accept("symbol", "("):
            self._enter()
            inner = self._parse_expression()
            self._expect("symbol", ")")
            self._nesting -= 1
            return inner
        if self._check("ident"):
            span = self._current.span
            name = self._advance().text
            if self._check("symbol", "(") and name.lower() in _AGGREGATES:
                return self._parse_function_call(name.lower(), span)
            if self._accept("symbol", "."):
                key = self._expect("ident").text
                return PropertyAccess(name, key, span=span)
            return VariableRef(name, span=span)
        if self._check("param"):
            span = self._current.span
            return Parameter(self._advance().text, span=span)
        return self._parse_literal()

    def _parse_function_call(self, name, span=None):
        self._expect("symbol", "(")
        if self._accept("symbol", "*"):
            if name != "count":
                raise CypherSyntaxError(
                    "only count(*) may take a star argument", self._current.position
                )
            self._expect("symbol", ")")
            return FunctionCall(name, None, span=span)
        argument = self._parse_primary()
        self._expect("symbol", ")")
        return FunctionCall(name, argument, span=span)

    def _parse_literal(self):
        if self._check("param"):
            span = self._current.span
            return Parameter(self._advance().text, span=span)
        span = self._current.span
        if self._accept("symbol", "-"):
            token = self._current
            if token.kind not in ("int", "float"):
                raise CypherSyntaxError("expected number after '-'", token.position)
            self._advance()
            return Literal(-token.value, span=span)
        token = self._current
        if token.kind in ("int", "float", "string"):
            self._advance()
            return Literal(token.value, span=span)
        if self._accept("keyword", "TRUE"):
            return Literal(True, span=span)
        if self._accept("keyword", "FALSE"):
            return Literal(False, span=span)
        if self._accept("keyword", "NULL"):
            return Literal(None, span=span)
        if self._check("symbol", "["):
            return self._parse_list_literal()
        raise CypherSyntaxError(
            "expected literal, found %r" % (token.text or "end of query"),
            token.position,
        )

    def _parse_list_literal(self):
        span = self._current.span
        self._expect("symbol", "[")
        self._enter()
        values = []
        if not self._check("symbol", "]"):
            while True:
                literal = self._parse_literal()
                if isinstance(literal, Parameter):
                    raise CypherSyntaxError(
                        "parameters inside list literals are not supported; "
                        "pass the whole list as one parameter ($%s)"
                        % literal.name,
                        self._current.position,
                    )
                values.append(literal.value)
                if not self._accept("symbol", ","):
                    break
        self._expect("symbol", "]")
        self._nesting -= 1
        return Literal(values, span=span)

    # RETURN --------------------------------------------------------------------------

    def _parse_return(self):
        clause = ReturnClause()
        if self._accept("keyword", "DISTINCT"):
            clause.distinct = True
        if self._accept("symbol", "*"):
            clause.star = True
        else:
            while True:
                item_span = self._current.span
                expression = self._parse_primary()
                alias = None
                if self._accept("keyword", "AS"):
                    alias = self._expect("ident").text
                clause.items.append(ReturnItem(expression, alias, span=item_span))
                if not self._accept("symbol", ","):
                    break
        if self._accept("keyword", "ORDER"):
            self._expect("keyword", "BY")
            while True:
                expression = self._parse_primary()
                descending = False
                if self._accept("keyword", "DESC"):
                    descending = True
                else:
                    self._accept("keyword", "ASC")
                clause.order_by.append(OrderItem(expression, descending))
                if not self._accept("symbol", ","):
                    break
        if self._accept("keyword", "SKIP"):
            clause.skip = self._expect("int").value
        if self._accept("keyword", "LIMIT"):
            clause.limit = self._expect("int").value
        return clause


def _boolean_depth(expression):
    """Depth of the AND/OR/XOR/NOT tree above ``expression``'s leaves.

    Iterative, so a left-deep chain of thousands of ORs is measured
    without recursing once per operand.
    """
    deepest = 0
    stack = [(expression, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, (And, Or, Xor)):
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
        elif isinstance(node, Not):
            stack.append((node.operand, depth + 1))
        elif depth > deepest:
            deepest = depth
    return deepest
