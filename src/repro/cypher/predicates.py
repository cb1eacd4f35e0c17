"""Predicate normalization (CNF) and three-valued evaluation.

The WHERE expression, inline property maps and label predicates are all
normalized into **conjunctive normal form**: a conjunction of clauses, each
clause a disjunction of (possibly negated) comparisons.  CNF makes
predicate push-down trivial — a clause whose variables are all bound by one
query element can be evaluated at the leaf operator (paper §2.5/§3.1);
everything else waits for :class:`SelectEmbeddings`.

Evaluation follows Cypher's ternary logic: comparisons involving NULL or
incomparable types yield *unknown*; a clause is satisfied only if some atom
is definitely true, and unknown never satisfies a filter.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.epgm.property_value import IncomparableError, PropertyValue

from .ast import (
    And,
    Comparison,
    LabelRef,
    Literal,
    Not,
    Or,
    PropertyAccess,
    VariableRef,
    Xor,
)
from .errors import CypherSemanticError, PredicateTooLargeError

_NEGATED_OPERATOR = {
    "=": "<>",
    "<>": "=",
    "<": ">=",
    ">=": "<",
    ">": "<=",
    "<=": ">",
    "IS NULL": "IS NOT NULL",
    "IS NOT NULL": "IS NULL",
}


@dataclass(frozen=True)
class Atom:
    """One (possibly negated) comparison inside a clause."""

    comparison: Comparison
    negated: bool = False

    def variables(self):
        return _expression_variables(self.comparison.left) | _expression_variables(
            self.comparison.right
        )

    def property_keys(self):
        """Mapping variable -> set of property keys this atom reads."""
        keys = {}
        for side in (self.comparison.left, self.comparison.right):
            if isinstance(side, PropertyAccess):
                keys.setdefault(side.variable, set()).add(side.key)
        return keys

    def negate(self):
        operator = self.comparison.operator
        if operator in _NEGATED_OPERATOR:
            return Atom(
                Comparison(
                    _NEGATED_OPERATOR[operator],
                    self.comparison.left,
                    self.comparison.right,
                )
            )
        return Atom(self.comparison, negated=not self.negated)

    def __str__(self):
        text = str(self.comparison)
        return "NOT %s" % text if self.negated else text


@dataclass(frozen=True)
class Clause:
    """A disjunction of atoms."""

    atoms: Tuple[Atom, ...]

    def variables(self):
        result = set()
        for atom in self.atoms:
            result |= atom.variables()
        return result

    def property_keys(self):
        keys = {}
        for atom in self.atoms:
            for variable, atom_keys in atom.property_keys().items():
                keys.setdefault(variable, set()).update(atom_keys)
        return keys

    def __str__(self):
        return "(" + " OR ".join(str(atom) for atom in self.atoms) + ")"


class CNF:
    """A conjunction of clauses."""

    def __init__(self, clauses=()):
        self.clauses = list(clauses)

    @classmethod
    def true(cls):
        return cls([])

    @classmethod
    def single(cls, comparison):
        return cls([Clause((Atom(comparison),))])

    def and_(self, other):
        return CNF(self.clauses + other.clauses)

    @property
    def is_trivial(self):
        return not self.clauses

    def variables(self):
        result = set()
        for clause in self.clauses:
            result |= clause.variables()
        return result

    def property_keys(self):
        keys = {}
        for clause in self.clauses:
            for variable, clause_keys in clause.property_keys().items():
                keys.setdefault(variable, set()).update(clause_keys)
        return keys

    def split(self, available_variables):
        """Clauses evaluable with ``available_variables`` vs. the rest."""
        available = set(available_variables)
        now, later = [], []
        for clause in self.clauses:
            (now if clause.variables() <= available else later).append(clause)
        return CNF(now), CNF(later)

    def __len__(self):
        return len(self.clauses)

    def __str__(self):
        if not self.clauses:
            return "TRUE"
        return " AND ".join(str(clause) for clause in self.clauses)


# Normalization ------------------------------------------------------------------


#: Most clauses a WHERE clause may normalize to.  Distribution multiplies
#: clause lists (an OR of n two-term ANDs has 2**n clauses, and each XOR
#: both copies and negates its operands), so a short query can ask for
#: an astronomically large CNF.  Six XOR'd comparisons give 2,619
#: clauses; seven would give 335,877.
MAX_CNF_CLAUSES = 4096


def to_cnf(expression):
    """Convert a WHERE expression tree to CNF.

    Raises :class:`~repro.cypher.errors.PredicateTooLargeError` before
    building any clause list longer than :data:`MAX_CNF_CLAUSES`.
    """
    if expression is None:
        return CNF.true()
    return CNF(_clauses(expression, False, {}))


def _clauses(node, negate, memo):
    """The CNF clauses of ``node`` (negated when ``negate``).

    XOR is eliminated (``a XOR b == (a OR b) AND (NOT a OR NOT b)``),
    negation is pushed down to atoms by De Morgan, and OR distributes over
    AND.  Results are memoized per ``(node, negate)``: XOR needs each
    operand under both polarities, and recomputing them would double the
    work at every XOR of a chain.
    """
    key = (id(node), negate)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(node, Xor):
        left_pos = _clauses(node.left, False, memo)
        right_pos = _clauses(node.right, False, memo)
        left_neg = _clauses(node.left, True, memo)
        right_neg = _clauses(node.right, True, memo)
        if negate:
            # NOT (a XOR b) == (NOT a AND NOT b) OR (a AND b)
            clauses = _product(left_neg + right_neg, left_pos + right_pos)
        else:
            clauses = _conjoin(
                _product(left_pos, right_pos), _product(left_neg, right_neg)
            )
    elif isinstance(node, Not):
        clauses = _clauses(node.operand, not negate, memo)
    elif isinstance(node, (And, Or)):
        left = _clauses(node.left, negate, memo)
        right = _clauses(node.right, negate, memo)
        # under negation De Morgan swaps the connective
        if isinstance(node, And) != negate:
            clauses = _conjoin(left, right)
        else:
            clauses = _product(left, right)
    elif isinstance(node, Comparison):
        atom = Atom(node)
        clauses = [Clause((atom.negate() if negate else atom,))]
    elif isinstance(node, VariableRef):
        raise CypherSemanticError(
            "bare variable %r cannot be used as a boolean predicate" % node.name
        )
    elif isinstance(node, Literal):
        if not isinstance(node.value, bool):
            raise CypherSemanticError(
                "literal %r is not a boolean predicate" % node.value
            )
        # TRUE is an empty conjunction; FALSE an unsatisfiable comparison
        if node.value != negate:
            clauses = []
        else:
            clauses = [Clause((Atom(Comparison("<>", Literal(0), Literal(0))),))]
    else:
        raise CypherSemanticError("unsupported predicate node %r" % (node,))
    memo[key] = clauses
    return clauses


def _check_size(count):
    if count > MAX_CNF_CLAUSES:
        raise PredicateTooLargeError(
            "WHERE expression normalizes to %d clauses, more than the "
            "%d allowed" % (count, MAX_CNF_CLAUSES)
        )


def _conjoin(left, right):
    """``left AND right`` as clauses."""
    _check_size(len(left) + len(right))
    return left + right


def _product(left, right):
    """``left OR right`` as clauses: OR distributed over both conjunctions."""
    if not left or not right:
        return []  # OR with TRUE is TRUE
    _check_size(len(left) * len(right))
    return [
        Clause(tuple(l.atoms) + tuple(r.atoms))
        for l in left
        for r in right
    ]


# Evaluation -----------------------------------------------------------------------


def _expression_variables(side):
    if isinstance(side, (PropertyAccess, LabelRef)):
        return {side.variable}
    if isinstance(side, VariableRef):
        return {side.name}
    return set()


def _resolve(side, bindings):
    """Evaluate one comparison side against a bindings object.

    ``bindings`` must provide ``property_value(variable, key)``,
    ``label(variable)`` and ``element_id(variable)``.
    """
    if isinstance(side, Literal):
        return PropertyValue(side.value)
    if isinstance(side, PropertyAccess):
        return bindings.property_value(side.variable, side.key)
    if isinstance(side, LabelRef):
        return PropertyValue(bindings.label(side.variable))
    if isinstance(side, VariableRef):
        return bindings.element_id(side.name)
    # deferred $parameters: read the current value from the shared binding
    # on every evaluation, so one compiled plan serves many executions
    current = getattr(side, "current", None)
    if current is not None:
        return PropertyValue(current())
    raise CypherSemanticError("unsupported expression %r" % (side,))


def evaluate_comparison(comparison, bindings):
    """Ternary evaluation: True, False, or None for unknown."""
    left = _resolve(comparison.left, bindings)
    operator = comparison.operator
    if operator == "IS NULL":
        return _is_null(left)
    if operator == "IS NOT NULL":
        return not _is_null(left)
    right = _resolve(comparison.right, bindings)
    if operator == "IN":
        return _evaluate_in(left, right)
    if operator in ("STARTS WITH", "ENDS WITH", "CONTAINS"):
        return _evaluate_string_operator(operator, left, right)
    if _is_null(left) or _is_null(right):
        return None
    if operator == "=":
        return left == right
    if operator == "<>":
        return left != right
    try:
        result = left.compare(right)
    except IncomparableError:
        return None
    except AttributeError:
        # VariableRef sides resolve to GradoopIds, which only support =/<>
        return None
    if operator == "<":
        return result < 0
    if operator == "<=":
        return result <= 0
    if operator == ">":
        return result > 0
    if operator == ">=":
        return result >= 0
    raise CypherSemanticError("unknown operator %r" % operator)


def _is_null(value):
    return isinstance(value, PropertyValue) and value.is_null


def _evaluate_string_operator(operator, left, right):
    """Cypher string predicates: unknown unless both sides are strings."""
    if not (
        isinstance(left, PropertyValue)
        and isinstance(right, PropertyValue)
        and left.is_string
        and right.is_string
    ):
        return None
    haystack, needle = left.raw(), right.raw()
    if operator == "STARTS WITH":
        return haystack.startswith(needle)
    if operator == "ENDS WITH":
        return haystack.endswith(needle)
    return needle in haystack


def _evaluate_in(left, right):
    if _is_null(left):
        return None
    values = right.raw() if isinstance(right, PropertyValue) else right
    if not isinstance(values, list):
        return None
    return any(left == PropertyValue(item) for item in values)


def evaluate_atom(atom, bindings):
    result = evaluate_comparison(atom.comparison, bindings)
    if result is None:
        return None
    return (not result) if atom.negated else result


def evaluate_clause(clause, bindings):
    """True iff some atom is definitely true (unknown never satisfies)."""
    unknown = False
    for atom in clause.atoms:
        result = evaluate_atom(atom, bindings)
        if result is True:
            return True
        if result is None:
            unknown = True
    return None if unknown else False


def evaluate_cnf(cnf, bindings):
    """Strict filter semantics: every clause must be definitely true."""
    for clause in cnf.clauses:
        if evaluate_clause(clause, bindings) is not True:
            return False
    return True


# Compilation ----------------------------------------------------------------------
#
# The interpreted evaluator above re-dispatches on the AST node types and
# re-wraps literal values on every record.  ``compile_cnf`` specializes a
# CNF once per operator build into nested closures — literals become bound
# PropertyValue constants, comparison sides become direct accessor calls —
# while keeping the exact ternary semantics (the closures delegate to the
# same operator helpers).  ``$parameter`` slots stay late-bound: their
# resolver reads ``side.current()`` per evaluation, so one compiled plan
# still serves many bindings.


def _compile_side(side):
    """``bindings -> value`` resolver for one comparison side."""
    if isinstance(side, Literal):
        constant = PropertyValue(side.value)
        return lambda bindings: constant
    if isinstance(side, PropertyAccess):
        variable, key = side.variable, side.key
        return lambda bindings: bindings.property_value(variable, key)
    if isinstance(side, LabelRef):
        variable = side.variable
        return lambda bindings: PropertyValue(bindings.label(variable))
    if isinstance(side, VariableRef):
        name = side.name
        return lambda bindings: bindings.element_id(name)
    current = getattr(side, "current", None)
    if current is not None:
        return lambda bindings: PropertyValue(current())
    raise CypherSemanticError("unsupported expression %r" % (side,))


def _compile_label_equality(comparison):
    """Specialized ``label(v) =/<> 'literal'`` check, or None.

    The single most common pushed-down atom; comparing the raw label
    string skips two PropertyValue wrappers per record.  A missing label
    (``None``) stays *unknown*, matching ``PropertyValue(None).is_null``.
    """
    sides = (comparison.left, comparison.right)
    label_side = next((s for s in sides if isinstance(s, LabelRef)), None)
    literal_side = next(
        (s for s in sides
         if isinstance(s, Literal) and isinstance(s.value, str)),
        None,
    )
    if label_side is None or literal_side is None:
        return None
    variable, expected = label_side.variable, literal_side.value
    if comparison.operator == "=":

        def evaluate(bindings):
            label = bindings.label(variable)
            return None if label is None else label == expected

    elif comparison.operator == "<>":

        def evaluate(bindings):
            label = bindings.label(variable)
            return None if label is None else label != expected

    else:
        return None
    return evaluate


def _compile_comparison(comparison):
    """``bindings -> True | False | None`` mirroring evaluate_comparison."""
    specialized = _compile_label_equality(comparison)
    if specialized is not None:
        return specialized
    left = _compile_side(comparison.left)
    operator = comparison.operator
    if operator == "IS NULL":
        return lambda bindings: _is_null(left(bindings))
    if operator == "IS NOT NULL":
        return lambda bindings: not _is_null(left(bindings))
    right = _compile_side(comparison.right)
    if operator == "IN":
        return lambda bindings: _evaluate_in(left(bindings), right(bindings))
    if operator in ("STARTS WITH", "ENDS WITH", "CONTAINS"):
        return lambda bindings: _evaluate_string_operator(
            operator, left(bindings), right(bindings)
        )
    if operator == "=":

        def evaluate(bindings):
            left_value, right_value = left(bindings), right(bindings)
            if _is_null(left_value) or _is_null(right_value):
                return None
            return left_value == right_value

        return evaluate
    if operator == "<>":

        def evaluate(bindings):
            left_value, right_value = left(bindings), right(bindings)
            if _is_null(left_value) or _is_null(right_value):
                return None
            return left_value != right_value

        return evaluate
    if operator not in ("<", "<=", ">", ">="):
        raise CypherSemanticError("unknown operator %r" % operator)
    below = operator in ("<", "<=")
    includes_equal = operator in ("<=", ">=")

    def evaluate(bindings):
        left_value, right_value = left(bindings), right(bindings)
        if _is_null(left_value) or _is_null(right_value):
            return None
        try:
            result = left_value.compare(right_value)
        except IncomparableError:
            return None
        except AttributeError:
            # VariableRef sides resolve to GradoopIds, which only support =/<>
            return None
        if below:
            return result <= 0 if includes_equal else result < 0
        return result >= 0 if includes_equal else result > 0

    return evaluate


def _compile_atom(atom):
    evaluate = _compile_comparison(atom.comparison)
    if not atom.negated:
        return evaluate

    def negated(bindings):
        result = evaluate(bindings)
        if result is None:
            return None
        return not result

    return negated


def _compile_clause(clause):
    atoms = tuple(_compile_atom(atom) for atom in clause.atoms)
    if len(atoms) == 1:
        only = atoms[0]
        return lambda bindings: only(bindings) is True

    def satisfied(bindings):
        for atom in atoms:
            if atom(bindings) is True:
                return True
        return False

    return satisfied


def compile_cnf(cnf):
    """``bindings -> bool`` closure with :func:`evaluate_cnf` semantics.

    Built once per operator, not per record; always agrees with
    ``evaluate_cnf(cnf, bindings)``.
    """
    clauses = tuple(_compile_clause(clause) for clause in cnf.clauses)
    if not clauses:
        return lambda bindings: True
    if len(clauses) == 1:
        return clauses[0]

    def keep(bindings):
        for clause in clauses:
            if not clause(bindings):
                return False
        return True

    return keep


def cnf_signature(cnf):
    """A variable-name-independent fingerprint of a single-variable CNF.

    Two query elements with equal signatures (plus equal labels/projection
    keys) select identical element sets, so their leaf scans can be shared
    — the "recurring subqueries" optimization the paper names as ongoing
    work (§5).  Only meaningful for CNFs over one variable.
    """

    def side(expression):
        if isinstance(expression, Literal):
            return ("lit", repr(expression.value))
        if isinstance(expression, PropertyAccess):
            return ("prop", expression.key)
        if isinstance(expression, LabelRef):
            return ("label",)
        if isinstance(expression, VariableRef):
            return ("var",)
        if hasattr(expression, "binding"):  # ParameterSlot: same name, same
            return ("param", expression.name)  # shared binding, same values
        return ("other", repr(expression))

    clauses = []
    for clause in cnf.clauses:
        atoms = tuple(
            sorted(
                (
                    atom.comparison.operator,
                    side(atom.comparison.left),
                    side(atom.comparison.right),
                    atom.negated,
                )
                for atom in clause.atoms
            )
        )
        clauses.append(atoms)
    return tuple(sorted(clauses))


def label_predicate(variable, labels):
    """CNF clause for a label alternation ``(v:A|B)``."""
    atoms = tuple(
        Atom(Comparison("=", LabelRef(variable), Literal(label))) for label in labels
    )
    return CNF([Clause(atoms)])


def property_map_predicate(variable, entries):
    """CNF for an inline property map ``{key: literal, ...}``."""
    clauses = [
        Clause((Atom(Comparison("=", PropertyAccess(variable, key), literal)),))
        for key, literal in entries
    ]
    return CNF(clauses)
