"""The diagnostic registry and Diagnostic rendering."""

import pytest

from repro.analysis import (
    BLOCKING_CODES,
    CODES,
    Diagnostic,
    QueryLintError,
    Severity,
    sort_diagnostics,
)
from repro.cypher.errors import CypherSemanticError
from repro.cypher.span import Span


class TestRegistry:
    def test_at_least_eight_codes(self):
        assert len(CODES) >= 8

    def test_code_prefix_matches_severity(self):
        # E = static errors, W = static warnings; sanitizer/flow (S),
        # concurrency (C) and shippability (P) codes carry either
        # severity — structural corruption / lock misuse is an error,
        # estimate drift or an unprovable operator only a warning.
        for code, (severity, _slug, _summary) in CODES.items():
            if code.startswith("E"):
                assert severity is Severity.ERROR, code
            elif code.startswith("W"):
                assert severity is Severity.WARNING, code
            else:
                assert code.startswith(("S", "C", "P")), code
                assert severity in (Severity.ERROR, Severity.WARNING), code

    def test_concurrency_codes_registered(self):
        # the C3xx range the lock-discipline linter emits
        for code in ("C301", "C302", "C303", "C304"):
            assert CODES[code][0] is Severity.ERROR, code
        assert CODES["C305"][0] is Severity.WARNING

    def test_sanitizer_codes_registered(self):
        # the full S2xx range the sanitizer/differential/audit layer emits
        for code in ("S201", "S202", "S203", "S204", "S205", "S206",
                     "S207", "S208", "S209", "S210"):
            assert CODES[code][0] is Severity.ERROR, code
        assert CODES["S211"][0] is Severity.WARNING

    def test_slugs_are_unique_kebab_case(self):
        slugs = [slug for _sev, slug, _sum in CODES.values()]
        assert len(slugs) == len(set(slugs))
        for slug in slugs:
            assert slug == slug.lower()
            assert " " not in slug

    def test_blocking_codes_are_registered_errors(self):
        for code in BLOCKING_CODES:
            assert CODES[code][0] is Severity.ERROR

    def test_unsatisfiability_is_not_blocking(self):
        # provably-empty queries are legal Cypher; the runner must run them
        assert "E201" not in BLOCKING_CODES
        assert "E202" not in BLOCKING_CODES


class TestDiagnostic:
    def test_of_derives_severity(self):
        assert Diagnostic.of("E101", "x").severity is Severity.ERROR
        assert Diagnostic.of("W401", "x").severity is Severity.WARNING

    def test_of_rejects_unknown_code(self):
        with pytest.raises(KeyError):
            Diagnostic.of("E999", "x")

    def test_format_contains_code_slug_and_location(self):
        diagnostic = Diagnostic.of(
            "E101", "no such variable", variable="a",
            span=Span(offset=6, line=1, column=7),
        )
        text = diagnostic.format()
        assert "error[E101]" in text
        assert "unbound-variable" in text
        assert "line 1, column 7" in text

    def test_format_with_query_text_adds_caret(self):
        diagnostic = Diagnostic.of(
            "E101", "x", span=Span(offset=6, line=1, column=7)
        )
        rendered = diagnostic.format("MATCH (a) RETURN a")
        assert "^" in rendered

    def test_sort_errors_before_warnings_then_by_offset(self):
        warning = Diagnostic.of("W401", "w", span=Span(0, 1, 1))
        late = Diagnostic.of("E101", "late", span=Span(9, 1, 10))
        early = Diagnostic.of("E201", "early", span=Span(2, 1, 3))
        assert sort_diagnostics([warning, late, early]) == [early, late, warning]


class TestQueryLintError:
    def test_is_a_semantic_error(self):
        error = QueryLintError([Diagnostic.of("E101", "x")])
        assert isinstance(error, CypherSemanticError)

    def test_message_lists_every_diagnostic(self):
        error = QueryLintError(
            [Diagnostic.of("E101", "first"), Diagnostic.of("W404", "second")]
        )
        assert "first" in str(error)
        assert "second" in str(error)
        assert "1 error(s)" in str(error)

    def test_carries_structured_diagnostics(self):
        diagnostics = [Diagnostic.of("E103", "x", variable="a")]
        assert QueryLintError(diagnostics).diagnostics == diagnostics
