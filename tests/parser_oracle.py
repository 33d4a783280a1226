"""A differential referee for the lexer: the data and query parsers as they
were before ``rdf._Lexer`` became the one cursor for both grammars, and a
loop that runs both versions over seeded-random mutations of known texts.

The copies build everything from the live modules (terms, triples, query
nodes, the built-in prefixes, the unsupported keywords, ``ParseError``), so
a change to any of those changes both sides alike; only the lexing and the
grammar walk are frozen here.  Each text must give the same triples or
query, the same ParseError message, line and column, or the same error
text.  No pytest or Hypothesis import, so the check also runs as a script:

    PYTHONPATH=src python tests/parser_oracle.py
"""

from __future__ import annotations

import ast
import random
import re
import runpy
import sys
from pathlib import Path

from homectx import rdf, sparql
from homectx.cli import fixture_path
from homectx.rdf import (
    BUILTIN_PREFIXES,
    PN_LOCAL_RE,
    Iri,
    Literal,
    ParseError,
    Term,
    Triple,
    TriplePattern,
    Variable,
    _ESCAPES,
)
from homectx.sparql import _UNSUPPORTED, FilterExpr, OrderKey, Query

HERE = Path(__file__).resolve().parent

# --- the data grammar, copied from rdf -----------------------------------------

_PNAME_RE = re.compile(r"([A-Za-z][A-Za-z0-9_-]*)?(:(%s)?)?" % PN_LOCAL_RE.pattern)
_STRING_RUN_RE = re.compile(r'[^"\\\n]*')  # a string literal up to its next " \ or newline
_WS_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")  # whitespace and # comments


class _Lexer:
    """Shared character scanner for the data and query grammars.

    Only the offset is tracked; line and column are worked out when an
    error is raised.  ``iris`` and ``literals`` hold the terms read so far,
    so that each distinct term is built and validated once per parse.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.iris: dict[tuple[str, str], Iri] = {}
        self.literals: dict[tuple[str, Iri], Literal] = {}

    def error(self, message: str, pos: int | None = None) -> ParseError:
        """A ParseError at ``pos`` (default: the current offset)."""
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        return ParseError(message, line, pos - self.text.rfind("\n", 0, pos))

    def skip_ws(self):
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            raise self.error(f"expected {literal!r}")

    def read_pname(self) -> tuple[str, str | None]:
        """Read ``prefix:local`` (local may be absent, for @prefix lines)."""
        m = _PNAME_RE.match(self.text, self.pos)
        self.pos = m.end()
        if m.group(2) is None:
            raise self.error("expected prefixed name")
        return m.group(1) or "", m.group(3)

    def read_string(self) -> str:
        self.expect('"')
        out = []
        while True:
            end = _STRING_RUN_RE.match(self.text, self.pos).end()
            out.append(self.text[self.pos:end])
            self.pos = end
            c = self.peek()
            if not c or c == "\n":
                raise self.error("unterminated string literal")
            self.pos += 1
            if c == '"':
                return "".join(out)
            esc = self.peek()  # c is a backslash
            if esc not in _ESCAPES:
                raise self.error(f"unknown escape \\{esc}")
            self.pos += 1
            out.append(_ESCAPES[esc])

    def read_iriref(self) -> str:
        self.expect("<")
        end = self.text.find(">", self.pos)
        if end == -1:
            raise self.error("unterminated IRI reference")
        iri = self.text[self.pos:end]
        self.pos = end + 1
        return iri


def _resolve(lexer: _Lexer, prefixes: dict, prefix: str, local: str | None) -> Iri:
    if local is None:
        raise lexer.error("prefixed name is missing its local part")
    ns = prefixes.get(prefix)
    if ns is None:
        raise lexer.error(f"undeclared prefix {prefix + ':'!r}")
    iri = lexer.iris.get((ns, local))
    if iri is None:
        iri = lexer.iris[ns, local] = Iri(ns, local)
    return iri


def _parse_term(lexer: _Lexer, prefixes: dict, allow_literal: bool) -> Term:
    lexer.skip_ws()
    start = lexer.pos
    if lexer.peek() == '"':
        if not allow_literal:
            raise lexer.error("literal not allowed here")
        lex = lexer.read_string()
        lexer.expect("^^")
        prefix, local = lexer.read_pname()
        dt = _resolve(lexer, prefixes, prefix, local)
        literal = lexer.literals.get((lex, dt))
        if literal is None:
            try:
                literal = lexer.literals[lex, dt] = Literal(lex, dt)
            except ValueError as exc:
                raise lexer.error(str(exc), start) from None
        return literal
    prefix, local = lexer.read_pname()
    return _resolve(lexer, prefixes, prefix, local)


def parse_data(text: str) -> list[Triple]:
    """Parse a Turtle-subset document into triples, in document order."""
    lexer = _Lexer(text)
    prefixes = dict(BUILTIN_PREFIXES)
    triples: list[Triple] = []
    while not lexer.at_end():
        if lexer.take("@prefix"):
            lexer.skip_ws()
            prefix, local = lexer.read_pname()
            if local is not None:
                raise lexer.error("prefix declaration must end with ':'")
            lexer.skip_ws()
            prefixes[prefix] = lexer.read_iriref()
            lexer.skip_ws()
            lexer.expect(".")
            continue
        s = _parse_term(lexer, prefixes, allow_literal=False)
        p = _parse_term(lexer, prefixes, allow_literal=False)
        o = _parse_term(lexer, prefixes, allow_literal=True)
        lexer.skip_ws()
        lexer.expect(".")
        triples.append(Triple(s, p, o))
    return triples


# --- the query grammar, copied from sparql -------------------------------------

_VAR_RE = re.compile(r"\?([A-Za-z_][A-Za-z0-9_]*)")
_WORD_RE = re.compile(r"[A-Za-z]+")


_VAR_RE = re.compile(r"\?([A-Za-z_][A-Za-z0-9_]*)")
_WORD_RE = re.compile(r"[A-Za-z]+")


class _QueryLexer(_Lexer):
    def peek_word(self) -> str:
        self.skip_ws()
        m = _WORD_RE.match(self.text, self.pos)
        return m.group(0) if m else ""

    def take_keyword(self, word: str) -> bool:
        self.skip_ws()
        if self.peek_word().upper() == word:
            self.pos += len(word)
            return True
        return False

    def read_variable(self) -> Variable:
        self.skip_ws()
        m = _VAR_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected variable")
        self.pos = m.end()
        return Variable(m.group(1))


def _reject_unsupported(lexer: _QueryLexer):
    word = lexer.peek_word()
    if word.upper() in _UNSUPPORTED:
        raise lexer.error(f"unsupported feature {word.upper()}")


def _parse_pattern_term(lexer: _QueryLexer, allow_literal: bool):
    lexer.skip_ws()
    if lexer.peek() == "?":
        return lexer.read_variable()
    return _parse_term(lexer, BUILTIN_PREFIXES, allow_literal)


def parse_query(text: str) -> Query:
    """Parse query text into an AST, preserving pattern order."""
    lexer = _QueryLexer(text)
    if not lexer.take_keyword("SELECT"):
        _reject_unsupported(lexer)
        raise lexer.error("expected SELECT")
    distinct = lexer.take_keyword("DISTINCT")
    projection = []
    while True:
        lexer.skip_ws()
        if lexer.peek() != "?":
            break
        projection.append(lexer.read_variable())
    if not lexer.take_keyword("WHERE"):
        raise lexer.error("expected WHERE")
    lexer.skip_ws()
    lexer.expect("{")

    patterns: list[TriplePattern] = []
    filters: list[FilterExpr] = []
    while True:
        lexer.skip_ws()
        if lexer.peek() == "}":
            lexer.expect("}")
            break
        if not lexer.peek():
            raise lexer.error("unterminated WHERE block")
        _reject_unsupported(lexer)
        if lexer.peek_word().upper() == "FILTER":
            lexer.take_keyword("FILTER")
            lexer.skip_ws()
            lexer.expect("(")
            if not lexer.take_keyword("DATATYPE"):
                raise lexer.error("only datatype(...) filters are supported")
            lexer.skip_ws()
            lexer.expect("(")
            var = lexer.read_variable()
            lexer.skip_ws()
            lexer.expect(")")
            lexer.skip_ws()
            lexer.expect("=")
            lexer.skip_ws()
            prefix, local = lexer.read_pname()
            dt = _resolve(lexer, BUILTIN_PREFIXES, prefix, local)
            lexer.skip_ws()
            lexer.expect(")")
            lexer.skip_ws()
            lexer.take(".")  # trailing dot after a filter is optional
            filters.append(FilterExpr(var, dt))
            continue
        s = _parse_pattern_term(lexer, allow_literal=False)
        p = _parse_pattern_term(lexer, allow_literal=False)
        o = _parse_pattern_term(lexer, allow_literal=True)
        lexer.skip_ws()
        lexer.expect(".")
        patterns.append(TriplePattern(s, p, o))

    order_keys: list[OrderKey] = []
    if lexer.take_keyword("ORDER"):
        if not lexer.take_keyword("BY"):
            raise lexer.error("expected BY after ORDER")
        while True:
            lexer.skip_ws()
            if lexer.take_keyword("DESC"):
                descending = True
            elif lexer.take_keyword("ASC"):
                descending = False
            elif lexer.peek() == "?":
                order_keys.append(OrderKey(lexer.read_variable(), False))
                continue
            else:
                break
            lexer.skip_ws()
            lexer.expect("(")
            var = lexer.read_variable()
            lexer.skip_ws()
            lexer.expect(")")
            order_keys.append(OrderKey(var, descending))
        if not order_keys:
            raise lexer.error("ORDER BY needs at least one key")
    if not lexer.at_end():
        _reject_unsupported(lexer)
        raise lexer.error("unexpected trailing input")

    query = Query(distinct, projection, patterns, filters, order_keys)
    query.validate()
    return query


# --- the mutation loop -----------------------------------------------------------

# What a mutation inserts: each grammar character and keyword, whitespace,
# pieces of terms and literals, and digits from outside ASCII.
PIECES = (*' \t\r\n.:?"\\^<>@#{}()=_-aZ07', "^^", "@prefix", "xsd:", ":a", "?v", '"1"',
          "\\n", "\\q", "<http://x#>", "# c\n", "SELECT", "select", "DISTINCT", "WHERE",
          "FILTER", "datatype", "ORDER", "BY", "ASC", "desc", "OPTIONAL", "PREFIX", "base",
          "limit", "xsd:double", "xsd:time", "xsd:date", "xsd:boolean",
          "xsd:positiveInteger", "xsd:string", "true", "1e3", "12:00:00", "2007-04-11",
          "１", "١", "²")
SEED, SIZE = 2026, 20000


def seed_texts() -> list[str]:
    """The fixture, a small generated home, the empty text (so that
    mutations also build random token strings), and every string literal
    holding a ``:`` in the parser tests: the paper's query, the texts whose
    errors they pin and, harmlessly, a few of their messages too."""
    home = runpy.run_path(str(HERE.parent / "bench" / "gen.py"))["generate_home"]
    texts = [fixture_path().read_text(encoding="utf-8"), home(3, 7, 2).text, ""]
    for name in ("test_rdf.py", "test_sparql.py"):
        tree = ast.parse((HERE / name).read_text(encoding="utf-8"))
        texts += [node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and ":" in str(node.value)]
    return list(dict.fromkeys(texts))


def mutate(rng: random.Random, text: str) -> str:
    """One to three edits: insert a piece, delete a span or copy a span."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + rng.randint(1, 4):]
        else:
            j = rng.randint(0, len(text))
            text = text[:i] + text[j:j + rng.randint(1, 12)] + text[i:]
    return text


def outcome(parse, text: str):
    """The parse's result, or its error as comparable values."""
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", exc.message, exc.line, exc.column)
    except ValueError as exc:  # QueryError, and anything a parser should not raise
        return (type(exc).__name__, str(exc))


def disagreements(seed: int = SEED, size: int = SIZE, limit: int = 5) -> list:
    """(text, parser, live outcome, oracle outcome) for the first ``limit``
    texts on which a live parser and its copy here differ: the seed texts,
    then ``size`` mutations of them, each run through both grammars."""
    rng = random.Random(seed)
    texts = seed_texts()
    found = []
    for k in range(len(texts) + size):
        text = texts[k] if k < len(texts) else mutate(rng, rng.choice(texts))
        for live, oracle in ((rdf.parse_data, parse_data),
                             (sparql.parse_query, parse_query)):
            got, want = outcome(live, text), outcome(oracle, text)
            if got != want:
                found.append((text, live.__name__, got, want))
                if len(found) == limit:
                    return found
    return found


if __name__ == "__main__":
    found = disagreements()
    for case in found:
        print(*case, sep="\n  ", file=sys.stderr)
    print(f"{'FAIL' if found else 'ok'}: seed {SEED}, {SIZE} mutated texts, "
          f"{len(found)} disagreements, Python {sys.version.split()[0]}")
    sys.exit(1 if found else 0)
