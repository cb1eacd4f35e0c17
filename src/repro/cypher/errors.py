"""Cypher front-end errors."""


class CypherError(Exception):
    """Base class for query language errors."""


class CypherSyntaxError(CypherError):
    """The query text does not conform to the supported Cypher subset."""

    def __init__(self, message, position=None, span=None):
        if span is not None:
            message = "%s (%s)" % (message, span)
            if position is None:
                position = span.offset
        elif position is not None:
            message = "%s (at offset %d)" % (message, position)
        super().__init__(message)
        self.position = position
        self.span = span


class PredicateTooLargeError(CypherSyntaxError):
    """A WHERE clause whose conjunctive normal form exceeds the size cap.

    A syntax error like an over-deep expression: the text is refused
    before any clause list past the cap is built (HTTP 400, ``repro
    lint`` exit 2).
    """


class CypherSemanticError(CypherError):
    """The query parses but is not well-formed (e.g. unbound variable).

    ``variable`` names the offending query variable and ``span`` its
    position in the query text, when known; both are folded into the
    message so plain ``str(exc)`` already points at the problem.
    """

    def __init__(self, message, variable=None, span=None):
        details = []
        if variable is not None:
            details.append("variable %r" % variable)
        if span is not None:
            details.append(str(span))
        if details:
            message = "%s [%s]" % (message, ", ".join(details))
        super().__init__(message)
        self.variable = variable
        self.span = span
