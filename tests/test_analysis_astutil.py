"""Isolated coverage for the shared AST helpers in
:mod:`repro.analysis.astutil`."""

import ast
import textwrap

from repro.analysis.astutil import (call_arg_string, contains_raise,
                                    dotted, names_imported_from)


def _expr(code: str) -> ast.AST:
    return ast.parse(code, mode="eval").body


class TestDotted:
    def test_plain_name(self):
        assert dotted(_expr("a")) == "a"

    def test_attribute_chain(self):
        assert dotted(_expr("a.b.c")) == "a.b.c"

    def test_subscript_breaks_the_chain(self):
        assert dotted(_expr("a[0].c")) is None

    def test_call_is_not_a_name(self):
        assert dotted(_expr("f()")) is None


class TestCallArgString:
    def test_first_string_literal(self):
        assert call_arg_string(_expr('f("site", 1)')) == "site"

    def test_positional_index(self):
        assert call_arg_string(_expr('f(1, "two")'), 1) == "two"

    def test_non_literal_returns_none(self):
        assert call_arg_string(_expr("f(name)")) is None

    def test_missing_argument_returns_none(self):
        assert call_arg_string(_expr("f()")) is None

    def test_non_string_literal_returns_none(self):
        assert call_arg_string(_expr("f(1)")) is None


class TestNamesImportedFrom:
    def test_plain_and_aliased_imports(self):
        tree = ast.parse(textwrap.dedent("""\
            from random import random, seed as reseed
            from os import urandom
            """))
        assert names_imported_from(tree, "random") == {
            "random": "random", "reseed": "seed"}
        assert names_imported_from(tree, "os") == {"urandom": "urandom"}
        assert names_imported_from(tree, "time") == {}

    def test_nested_imports_are_seen(self):
        tree = ast.parse(textwrap.dedent("""\
            def late():
                from random import choice
                return choice
            """))
        assert names_imported_from(tree, "random") == {
            "choice": "choice"}


class TestContainsRaise:
    def test_raise_anywhere_under_the_node(self):
        tree = ast.parse(textwrap.dedent("""\
            def f():
                if True:
                    raise ValueError("boom")
            """))
        assert contains_raise(tree.body[0])

    def test_no_raise(self):
        tree = ast.parse("def f():\n    return 1\n")
        assert not contains_raise(tree.body[0])
