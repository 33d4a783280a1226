"""Parser and evaluator for a small SPARQL subset.

Supported: SELECT [DISTINCT], conjunctive basic graph patterns with
variables in any position, ``filter(datatype(?v)=xsd:T)``, and
ORDER BY ASC/DESC.  Anything beyond the subset fails loudly by feature
name.  Evaluation is an index-backed nested-loop join in a greedy
selectivity-first order (RDF-3X's, with the store's index sizes as its
statistics), planned once per query; results do not depend on the written
pattern order, and are pinned to a brute-force oracle in the tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .rdf import (
    BUILTIN_PREFIXES,
    Iri,
    Literal,
    Term,
    TriplePattern,
    TripleStore,
    Variable,
    _Lexer,
    _resolve,
    term_key,
    xsd,
)

_UNSUPPORTED = (
    "OPTIONAL", "UNION", "MINUS", "GRAPH", "BIND", "VALUES", "LIMIT",
    "OFFSET", "GROUP", "HAVING", "CONSTRUCT", "ASK", "DESCRIBE", "SERVICE",
)

_NUMERIC_DATATYPES = (xsd("double"), xsd("positiveInteger"))


class QueryError(ValueError):
    """Semantic error in an otherwise well-formed query."""


@dataclass(frozen=True)
class FilterExpr:
    """datatype(?variable) = datatype-IRI"""

    variable: Variable
    datatype: Iri


@dataclass(frozen=True)
class OrderKey:
    variable: Variable
    descending: bool


@dataclass
class Query:
    distinct: bool
    projection: list  # of Variable, in written order
    patterns: list    # of TriplePattern, in written order
    filters: list = field(default_factory=list)
    order_keys: list = field(default_factory=list)

    def validate(self):
        if not self.projection:
            raise QueryError("projection must not be empty")
        bound = set()
        for p in self.patterns:
            bound |= {v.name for v in p.variables()}
        for v in self.projection:
            if v.name not in bound:
                raise QueryError(f"variable ?{v.name} projected but never bound")
        for f in self.filters:
            if f.variable.name not in bound:
                raise QueryError(f"variable ?{f.variable.name} filtered but never bound")
        for k in self.order_keys:
            if k.variable.name not in bound:
                raise QueryError(f"variable ?{k.variable.name} ordered but never bound")


@dataclass
class ResultTable:
    header: list   # of Variable
    rows: list     # of tuples of Term, one per projected variable


# --- parsing -----------------------------------------------------------------

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
    from .rdf import _parse_term
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
        start = lexer.pos
        s = _parse_pattern_term(lexer, allow_literal=False)
        p = _parse_pattern_term(lexer, allow_literal=False)
        o = _parse_pattern_term(lexer, allow_literal=True)
        lexer.skip_ws()
        lexer.expect(".")
        try:
            patterns.append(TriplePattern(s, p, o))
        except ValueError as exc:
            raise lexer.error(str(exc), start) from None

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


# --- evaluation --------------------------------------------------------------

def substitute(pattern: TriplePattern, binding: dict) -> Optional[TriplePattern]:
    """Plug bound variables into the pattern; None when a literal lands in a
    subject or predicate slot (such a binding can match nothing)."""
    def sub(t):
        if isinstance(t, Variable):
            return binding.get(t.name, t)
        return t
    s, p, o = sub(pattern.subject), sub(pattern.predicate), sub(pattern.object)
    if isinstance(s, Literal) or isinstance(p, Literal):
        return None
    return TriplePattern(s, p, o)


def _plan(store: TripleStore, patterns: list) -> list:
    """Join order, picked greedily: a pattern sharing a variable with those
    already picked (any pattern qualifies first), then the fewest slots not
    constant or bound, then the fewest index candidates, then written order."""
    todo = [([t.name for t in (p.subject, p.predicate, p.object) if isinstance(t, Variable)],
             store.candidate_count(p), p) for p in patterns]
    order, bound = [], set()

    def rank(item):
        names, size, _ = item
        return (bool(order) and bound.isdisjoint(names),
                sum(name not in bound for name in names), size)

    while todo:
        best = min(todo, key=rank)
        todo.remove(best)
        order.append(best[2])
        bound.update(best[0])
    return order


def _solutions(store: TripleStore, patterns: list) -> list[dict]:
    """Nested-loop join in planned order; one binding per solution."""
    bindings = [{}]
    for pattern in _plan(store, patterns):
        next_bindings = []
        for binding in bindings:
            concrete = substitute(pattern, binding)
            if concrete is None:
                continue
            for triple in store.match(concrete):
                extended = dict(binding)
                for pos, val in ((concrete.subject, triple.subject),
                                 (concrete.predicate, triple.predicate),
                                 (concrete.object, triple.object)):
                    if isinstance(pos, Variable):
                        # a variable repeated within one pattern must bind
                        # the same term in every position
                        if extended.setdefault(pos.name, val) != val:
                            break
                else:
                    next_bindings.append(extended)
        bindings = next_bindings
    return bindings


def _passes(binding: dict, filters: list) -> bool:
    for f in filters:
        term = binding.get(f.variable.name)
        if not (isinstance(term, Literal) and term.datatype == f.datatype):
            return False
    return True


def project_solutions(store: TripleStore, query: Query, extra=()) -> list[tuple]:
    """Projected rows before DISTINCT and sorting, each followed by the terms
    of the ``extra`` variables (the oracle tests pass none)."""
    variables = [v.name for v in query.projection] + [v.name for v in extra]
    return [
        tuple(binding[name] for name in variables)
        for binding in _solutions(store, query.patterns)
        if _passes(binding, query.filters)
    ]


def _order_value(term):
    """Sort key of the canonical term order: numerics first, by value, then
    everything else by term_key."""
    if isinstance(term, Literal) and term.datatype in _NUMERIC_DATATYPES:
        return (0, float(term.lexical))
    return (1, term_key(term))


def evaluate(store: TripleStore, query: Query) -> ResultTable:
    """Evaluate the query: join, filter, project, DISTINCT, sort.

    Each row carries the terms of its ORDER BY keys, projected or not, out
    of the one join.  Ties on every key fall back to the row's own terms.
    """
    width = len(query.projection)
    rows = project_solutions(store, query, [k.variable for k in query.order_keys])
    if query.distinct:
        rows = list(dict.fromkeys(rows))  # exact (row, keys) duplicates
    rows.sort(key=lambda r: [term_key(t) for t in r[:width]])
    # stable sorts, last key first, give the lexicographic key order
    for i in reversed(range(len(query.order_keys))):
        rows.sort(key=lambda r: _order_value(r[width + i]),
                  reverse=query.order_keys[i].descending)
    rows = [r[:width] for r in rows]
    if query.distinct:
        rows = list(dict.fromkeys(rows))  # each row at its first occurrence
    return ResultTable(header=list(query.projection), rows=rows)


# --- presentation ------------------------------------------------------------

def render_term(term: Term, compact: bool = False) -> str:
    if isinstance(term, Iri):
        return term.local if compact else term.written
    return term.lexical if compact else term.written


def format_results(table: ResultTable, mode: str = "table") -> str:
    """Render a result table; "table" is fixed-width, "tsv" is machine-readable."""
    header = [f"?{v.name}" for v in table.header]
    if mode == "tsv":
        lines = ["\t".join(header)]
        lines += ["\t".join(render_term(t) for t in row) for row in table.rows]
        return "\n".join(lines) + "\n"
    cells = [header] + [[render_term(t, compact=True) for t in row]
                        for row in table.rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
