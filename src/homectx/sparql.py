"""Parser and evaluator for a small SPARQL subset.

Supported: SELECT [DISTINCT], conjunctive basic graph patterns with
variables in any position, ``filter(datatype(?v)=xsd:T)``, and
ORDER BY ASC/DESC.  Anything beyond the subset fails loudly by feature
name.  Evaluation is an index-backed nested-loop join in a greedy
selectivity-first order (RDF-3X's, with the store's index sizes as its
statistics), planned once per query; results do not depend on the written
pattern order, and are pinned to a brute-force oracle in the tests.  The
join, filter, projection, DISTINCT and sort run on the store's term ids;
terms are decoded for the result rows only.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .rdf import (
    Iri,
    Literal,
    Term,
    TriplePattern,
    TripleStore,
    Value,
    Variable,
    _Lexer,
    _PNAME_RE,
    term_key,
    xsd,
)

_UNSUPPORTED = (
    "OPTIONAL", "UNION", "MINUS", "GRAPH", "BIND", "VALUES", "LIMIT",
    "OFFSET", "GROUP", "HAVING", "CONSTRUCT", "ASK", "DESCRIBE", "SERVICE",
    "PREFIX", "BASE",
)

# How ORDER BY reads a numeric literal's value: an integer exactly, as an int.
_NUMERIC = {xsd("double"): float, xsd("positiveInteger"): int}


class QueryError(ValueError):
    """Semantic error in an otherwise well-formed query."""


class FilterExpr(Value):
    """datatype(?variable) = datatype-IRI"""

    __slots__ = _fields = ("variable", "datatype")

    def __init__(self, variable: Variable, datatype: Iri):
        self._init(variable, datatype)


class OrderKey(Value):
    __slots__ = _fields = ("variable", "descending")

    def __init__(self, variable: Variable, descending: bool):
        self._init(variable, descending)


class Query(Value):
    __slots__ = _fields = ("distinct", "projection", "patterns", "filters", "order_keys")

    def __init__(self, distinct: bool, projection: list[Variable],
                 patterns: list[TriplePattern], filters: list[FilterExpr] | None = None,
                 order_keys: list[OrderKey] | None = None):
        self._init(distinct, projection, patterns, [] if filters is None else filters,
                   [] if order_keys is None else order_keys)

    def validate(self):
        if not self.projection:
            raise QueryError("projection must not be empty")
        bound = set()
        for p in self.patterns:
            bound |= {v.name for v in p.variables()}
        for what, variables in (("projected", self.projection),
                                ("filtered", [f.variable for f in self.filters]),
                                ("ordered", [k.variable for k in self.order_keys])):
            for v in variables:
                if v.name not in bound:
                    raise QueryError(f"variable ?{v.name} {what} but never bound")


class ResultTable(Value):
    __slots__ = _fields = ("header", "rows")

    def __init__(self, header: list[Variable], rows: list[tuple[Term, ...]]):
        self._init(header, rows)


# --- parsing -----------------------------------------------------------------

_VAR_RE = re.compile(r"\?([A-Za-z_][A-Za-z0-9_]*)")


def _keyword(*words: str) -> re.Pattern:
    """Any of ``words``, in any case, as a whole word: ``SELECT1`` reads as SELECT."""
    return re.compile("(?:%s)(?![A-Za-z])" % "|".join(words), re.ASCII | re.IGNORECASE)


_SELECT, _DISTINCT, _WHERE, _FILTER, _DATATYPE, _ORDER, _BY = map(
    _keyword, ("SELECT", "DISTINCT", "WHERE", "FILTER", "DATATYPE", "ORDER", "BY"))
_DIRECTION = _keyword("ASC", "DESC")
_UNSUPPORTED_RE = _keyword(*_UNSUPPORTED)


def _reject_unsupported(lexer: _Lexer):
    m = lexer.read(_UNSUPPORTED_RE)
    if m:
        raise lexer.error(f"unsupported feature {m[0].upper()}", m.start())


def _variable(lexer: _Lexer) -> Variable:
    m = lexer.read(_VAR_RE)
    if m is None:
        raise lexer.error("expected variable")
    return Variable(m[1])


def parse_query(text: str) -> Query:
    """Parse query text into an AST, preserving pattern order."""
    lexer = _Lexer(text, variables=True)
    if not lexer.read(_SELECT):
        _reject_unsupported(lexer)
        raise lexer.error("expected SELECT")
    distinct = lexer.read(_DISTINCT) is not None
    projection = []
    while lexer.peek() == "?":
        projection.append(_variable(lexer))
    if not lexer.read(_WHERE):
        raise lexer.error("expected WHERE")
    lexer.expect("{")

    patterns: list[TriplePattern] = []
    filters: list[FilterExpr] = []
    while not lexer.take("}"):
        if not lexer.peek():
            raise lexer.error("unterminated WHERE block")
        _reject_unsupported(lexer)
        if lexer.read(_FILTER):
            lexer.expect("(")
            if not lexer.read(_DATATYPE):
                raise lexer.error("only datatype(...) filters are supported")
            lexer.expect("(")
            var = _variable(lexer)
            lexer.expect(")")
            lexer.expect("=")
            dt = lexer.iri(*lexer.read(_PNAME_RE).groups())
            lexer.expect(")")
            lexer.take(".")  # trailing dot after a filter is optional
            filters.append(FilterExpr(var, dt))
        else:
            patterns.append(TriplePattern(lexer.term(allow_literal=False),
                                          lexer.term(allow_literal=False),
                                          lexer.term(allow_literal=True)))
            lexer.expect(".")

    order_keys: list[OrderKey] = []
    if lexer.read(_ORDER):
        if not lexer.read(_BY):
            raise lexer.error("expected BY after ORDER")
        while True:
            direction = lexer.read(_DIRECTION)
            if direction:
                lexer.expect("(")
                order_keys.append(OrderKey(_variable(lexer), direction[0].upper() == "DESC"))
                lexer.expect(")")
            elif lexer.peek() == "?":
                order_keys.append(OrderKey(_variable(lexer), False))
            else:
                break
        if not order_keys:
            raise lexer.error("ORDER BY needs at least one key")
    if lexer.peek():
        _reject_unsupported(lexer)
        raise lexer.error("unexpected trailing input")

    query = Query(distinct, projection, patterns, filters, order_keys)
    query.validate()
    return query


# --- evaluation --------------------------------------------------------------

def substitute(pattern: TriplePattern, binding: dict) -> TriplePattern:
    """Plug bound variables into the pattern."""
    def sub(t):
        if isinstance(t, Variable):
            return binding.get(t.name, t)
        return t
    return TriplePattern(sub(pattern.subject), sub(pattern.predicate), sub(pattern.object))


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


def _tuple_getter(positions):
    """Function from a sequence to the tuple of its items at ``positions``:
    itemgetter, except that one position gives a 1-tuple too."""
    if len(positions) == 1:
        position = positions[0]
        return lambda seq: (seq[position],)
    return itemgetter(*positions) if positions else lambda seq: ()


def _solutions(store: TripleStore, patterns: list) -> tuple[dict, list[tuple]]:
    """Nested-loop join on ids, in planned order.

    A solution is a tuple of ids with one slot per term: the patterns'
    constants first, then each variable in the order the plan binds it.
    Returns the slot of each term and the solutions.  A literal bound into
    a subject or predicate slot matches nothing, since no triple holds a
    literal's id there.
    """
    slots: dict = {}
    for pattern in patterns:
        for term in (pattern.subject, pattern.predicate, pattern.object):
            if not isinstance(term, Variable):
                slots.setdefault(term, len(slots))
    rows = [tuple(store.term_id(term) for term in slots)]
    for pattern in _plan(store, patterns):
        terms = (pattern.subject, pattern.predicate, pattern.object)
        known = tuple(term in slots for term in terms)
        positions, index = store.index_for(known)
        key = _tuple_getter([slots[terms[k]] for k in positions])
        # a known predicate or object outside the key is checked per candidate
        check_p, check_o = (slots[terms[k]] if known[k] and k not in positions else None
                            for k in (1, 2))
        new, repeats = [], []  # positions binding a variable; a repeat must match
        for k in range(3):
            if not known[k]:
                first = next((j for j in new if terms[j] == terms[k]), None)
                if first is None:
                    new.append(k)
                    slots[terms[k]] = len(slots)
                else:
                    repeats.append((k, first))
        bind = _tuple_getter(new)
        get = index.get
        next_rows = []
        for row in rows:
            for t in get(key(row), ()):
                if (check_p is not None and t[1] != row[check_p]
                        or check_o is not None and t[2] != row[check_o]):
                    continue
                if repeats and any(t[k] != t[j] for k, j in repeats):
                    continue
                next_rows.append(row + bind(t))
        rows = next_rows
    return slots, rows


def _order_value(term):
    """Sort key of the canonical term order: numerics first, by value, then
    everything else by term_key.  Python compares an int and a float exactly."""
    if isinstance(term, Literal) and term.datatype in _NUMERIC:
        return (0, _NUMERIC[term.datatype](term.lexical))
    return (1, term_key(term))


def evaluate(store: TripleStore, query: Query) -> ResultTable:
    """Evaluate the query: join, filter, project, DISTINCT, sort.

    Everything runs on ids.  The filter and the sorts read the term of each
    distinct id they meet once, and terms are decoded for the output rows.
    Each row carries the ids of its ORDER BY keys, projected or not, out of
    the one join.  Ties on every key fall back to the row's own terms.
    """
    slots, rows = _solutions(store, query.patterns)
    terms = store.terms
    for f in query.filters:
        slot = slots[f.variable]
        ids = {i for i in {r[slot] for r in rows}
               if isinstance(terms[i], Literal) and terms[i].datatype == f.datatype}
        rows = [r for r in rows if r[slot] in ids]
    columns = [*query.projection, *(k.variable for k in query.order_keys)]
    project = _tuple_getter([slots[v] for v in columns])
    rows = [project(r) for r in rows]
    width = len(query.projection)
    if query.distinct:
        rows = list(dict.fromkeys(rows))  # exact (row, keys) duplicates
    # each id's rank in the canonical term order, among the ids in the rows
    ranked = sorted(set().union(*rows), key=lambda i: term_key(terms[i]))
    rank = dict(zip(ranked, range(len(ranked)))).__getitem__
    rows.sort(key=lambda r: tuple(map(rank, r[:width])))
    # stable sorts, last key first, give the lexicographic key order
    for i in reversed(range(len(query.order_keys))):
        column = width + i
        value = {j: _order_value(terms[j]) for j in {r[column] for r in rows}}
        rows.sort(key=lambda r: value[r[column]],
                  reverse=query.order_keys[i].descending)
    rows = [r[:width] for r in rows]
    if query.distinct:
        rows = list(dict.fromkeys(rows))  # each row at its first occurrence
    decode = terms.__getitem__
    return ResultTable(header=list(query.projection),
                       rows=[tuple(map(decode, r)) for r in rows])


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
