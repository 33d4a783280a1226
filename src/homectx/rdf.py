"""RDF terms, triples, a dictionary-encoded in-memory store, and a small
Turtle dialect.

The store interns each term to an int id on insert and holds triples only
as id tuples in its indexes, as RDF-3X and Hexastore do; ``match`` decodes
ids to triples at its output, and the SPARQL join probes the indexes on ids.

The dialect is deliberately tiny: ``@prefix`` declarations, one
``subject predicate object .`` statement per dot, prefixed names, typed
literals (``"lex"^^xsd:type``) and ``#`` comments.  Two prefixes are built
in: the empty prefix for the home namespace and ``xsd:``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date as _date
from typing import Iterator, Union

HOME_NS = "http://smarthome.example/home#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

BUILTIN_PREFIXES = {"": HOME_NS, "xsd": XSD_NS}


class ParseError(ValueError):
    """Syntax or datatype error, carrying a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Iri:
    """A resource name, split into namespace and local part."""

    namespace: str
    local: str

    def __post_init__(self):
        if not self.local:
            raise ValueError("IRI local name must be non-empty")

    @property
    def written(self) -> str:
        if self.namespace == HOME_NS:
            return f":{self.local}"
        if self.namespace == XSD_NS:
            return f"xsd:{self.local}"
        return f"<{self.namespace}{self.local}>"

    def __repr__(self):
        return self.written


def home(local: str) -> Iri:
    return Iri(HOME_NS, local)


def xsd(local: str) -> Iri:
    return Iri(XSD_NS, local)


_TIME_RE = re.compile(r"^\d{2}:\d{2}:\d{2}$")


def _valid_double(lex: str) -> bool:
    try:
        v = float(lex)
    except ValueError:
        return False
    return v == v and v not in (float("inf"), float("-inf"))


def parse_date(text: str) -> _date:
    """The one date rule, for xsd:date literals and wire dates alike: the
    text must read YYYY-MM-DD, since fromisoformat alone also takes 20070411
    and week dates on 3.11."""
    date = _date.fromisoformat(text)
    if date.isoformat() != text:
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date


def _valid_date(lex: str) -> bool:
    try:
        parse_date(lex)
    except ValueError:
        return False
    return True


def _valid_time(lex: str) -> bool:
    if not _TIME_RE.match(lex):
        return False
    h, m, s = (int(p) for p in lex.split(":"))
    return h < 24 and m < 60 and s < 60


# Only these literal datatypes are accepted; anything else is a parse error.
DATATYPE_VALIDATORS = {
    xsd("double"): _valid_double,
    xsd("boolean"): lambda lex: lex in ("true", "false"),
    xsd("string"): lambda lex: True,
    xsd("date"): _valid_date,
    xsd("time"): _valid_time,
    xsd("positiveInteger"): lambda lex: lex.isdigit() and int(lex) >= 1,
}


@dataclass(frozen=True)
class Literal:
    """A typed literal value; equality is structural on (lexical, datatype)."""

    lexical: str
    datatype: Iri

    def __post_init__(self):
        validator = DATATYPE_VALIDATORS.get(self.datatype)
        if validator is None:
            raise ValueError(f"unsupported literal datatype {self.datatype.written}")
        if not validator(self.lexical):
            raise ValueError(
                f"invalid lexical form {self.lexical!r} for {self.datatype.written}"
            )

    @property
    def written(self) -> str:
        return f'"{escape_string(self.lexical)}"^^{self.datatype.written}'

    def __repr__(self):
        return self.written


Term = Union[Iri, Literal]


def term_key(term: Term):
    """Total order over terms: IRIs first, then literals by (datatype, lexical)."""
    if isinstance(term, Iri):
        return (0, term.namespace, term.local, "")
    return (1, term.datatype.namespace, term.datatype.local, term.lexical)


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __repr__(self):
        return f"?{self.name}"


@dataclass(frozen=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Term

    def __post_init__(self):
        if not isinstance(self.subject, Iri):
            raise ValueError("triple subject must be an IRI")
        if not isinstance(self.predicate, Iri):
            raise ValueError("triple predicate must be an IRI")
        if not isinstance(self.object, (Iri, Literal)):
            raise ValueError("triple object must be an IRI or literal")

    def sort_key(self):
        return (term_key(self.subject), term_key(self.predicate), term_key(self.object))


PatternTerm = Union[Iri, Literal, Variable]


@dataclass(frozen=True)
class TriplePattern:
    """A triple with variables allowed in any position (predicate included)."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def __post_init__(self):
        if not isinstance(self.subject, (Iri, Variable)):
            raise ValueError("pattern subject must be an IRI or variable")
        if not isinstance(self.predicate, (Iri, Variable)):
            raise ValueError("pattern predicate must be an IRI or variable")
        if not isinstance(self.object, (Iri, Literal, Variable)):
            raise ValueError("pattern object must be a term or variable")

    def variables(self) -> set[Variable]:
        return {p for p in (self.subject, self.predicate, self.object)
                if isinstance(p, Variable)}


_EMPTY: frozenset = frozenset()

# The positions (0 subject, 1 predicate, 2 object) whose ids key the index a
# pattern is looked up in, by which positions the pattern knows.  Every key
# holds the known subject and predicate; a known object outside the key is
# checked against each candidate.  No workload probes by the object alone,
# so such a pattern scans the whole store.
_KEY_POSITIONS = {
    (True, True, True): (0, 1), (True, True, False): (0, 1),
    (True, False, True): (0,), (True, False, False): (0,),
    (False, True, True): (1, 2), (False, True, False): (1,),
    (False, False, True): (), (False, False, False): (),
}


class TripleStore:
    """Set of triples, dictionary-encoded, with (S), (P), (S,P) and (P,O)
    lookup indexes.

    Each term is interned to an int id once, when ``insert`` first sees it:
    ``terms[i]`` is the term with id ``i`` and ``term_keys[i]`` its
    ``term_key``.  A triple is held only as its ``(s, p, o)`` id tuple.  Each
    index maps the tuple of ids at its key positions to the set of id tuples
    holding them.  ``match`` decodes ids to Triples only at its output; the
    SPARQL join probes the indexes on ids (``index_for``).

    Not thread-safe: callers serialize all access, reads included, since a
    read iterates index sets that an insert may grow.  ContextEngine holds
    one lock for every read and write.
    """

    def __init__(self, triples=None):
        self.terms: list[Term] = []
        self.term_keys: list[tuple] = []
        self._ids: dict[Term, int] = {}
        self._by_datatype: dict[Iri, set[int]] = {}
        self._spo: set[tuple[int, int, int]] = set()
        self._by_s: dict = {}
        self._by_p: dict = {}
        self._by_sp: dict = {}
        self._by_po: dict = {}
        self._indexes = {(0,): self._by_s, (1,): self._by_p, (0, 1): self._by_sp,
                         (1, 2): self._by_po, (): {(): self._spo}}
        if triples:
            for t in triples:
                self.insert(t)

    def __len__(self):
        return len(self._spo)

    def __contains__(self, t: Triple):
        ids = self._ids
        return (ids.get(t.subject), ids.get(t.predicate), ids.get(t.object)) in self._spo

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._decoded(self._spo))

    def _intern(self, term: Term) -> int:
        i = self._ids.get(term)
        if i is None:
            i = self._ids[term] = len(self.terms)
            self.terms.append(term)
            self.term_keys.append(term_key(term))
            if isinstance(term, Literal):
                self._by_datatype.setdefault(term.datatype, set()).add(i)
        return i

    def insert(self, t: Triple) -> bool:
        """Add a triple; returns True iff it was not already present."""
        spo = (self._intern(t.subject), self._intern(t.predicate), self._intern(t.object))
        if spo in self._spo:
            return False
        s, p, o = spo
        self._spo.add(spo)
        self._by_s.setdefault((s,), set()).add(spo)
        self._by_p.setdefault((p,), set()).add(spo)
        self._by_sp.setdefault((s, p), set()).add(spo)
        self._by_po.setdefault((p, o), set()).add(spo)
        return True

    def term_id(self, term: Term) -> int:
        """The term's id; -1, which no triple holds, for a term not in the store."""
        return self._ids.get(term, -1)

    def literal_ids(self, datatype: Iri):
        """Ids of the stored literals of ``datatype``."""
        return self._by_datatype.get(datatype, _EMPTY)

    def index_for(self, known) -> tuple[tuple, dict]:
        """(positions, index) for a pattern that knows the ids at the
        ``known`` positions, a (subject, predicate, object) triple of bools.
        ``index.get(key)``, for the tuple of the ids at ``positions``, is the
        one set of id tuples holding every match."""
        positions = _KEY_POSITIONS[known]
        return positions, self._indexes[positions]

    def _lookup(self, pattern: TriplePattern):
        """(ids, candidates): the ids of the pattern's constants, None for
        each variable, and the one index set that holds every match."""
        ids = [None if isinstance(t, Variable) else self.term_id(t)
               for t in (pattern.subject, pattern.predicate, pattern.object)]
        positions, index = self.index_for((ids[0] is not None, ids[1] is not None,
                                           ids[2] is not None))
        return ids, index.get(tuple([ids[k] for k in positions]), _EMPTY)

    def _decoded(self, spos) -> list[Triple]:
        """Id tuples to Triples, in canonical order."""
        keys, terms = self.term_keys, self.terms
        ordered = sorted(spos, key=lambda t: (keys[t[0]], keys[t[1]], keys[t[2]]))
        return [Triple(terms[s], terms[p], terms[o]) for s, p, o in ordered]

    def candidate_count(self, pattern: TriplePattern) -> int:
        """Size of the index set ``match`` scans: a bound on its result size."""
        return len(self._lookup(pattern)[1])

    def match(self, pattern: TriplePattern) -> list[Triple]:
        """All triples unifying with the pattern, in canonical order."""
        (_, _, o), candidates = self._lookup(pattern)
        return self._decoded(t for t in candidates if o is None or t[2] == o)


# --- Turtle-subset lexer/parser ---------------------------------------------

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def escape_string(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))


# The local part of a prefixed name; ``serialize`` writes home IRIs in that
# form, so a local name must match all of it to survive a round trip.
PN_LOCAL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_-]*")
# ``prefix:local``, both parts optional; it always matches, and group 2 is
# None when no ``:`` follows the prefix.
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


def serialize(store) -> str:
    """Canonical Turtle-subset text; parse_data(serialize(s)) == s as a set.

    ``store`` may be a TripleStore or any iterable of triples.
    """
    triples = sorted(store, key=Triple.sort_key)
    extra_ns = sorted({
        term.namespace
        for t in triples
        for term in (t.subject, t.predicate, t.object)
        if isinstance(term, Iri) and term.namespace not in (HOME_NS, XSD_NS)
    })
    labels = {HOME_NS: "", XSD_NS: "xsd"}
    lines = [f"@prefix : <{HOME_NS}> .", f"@prefix xsd: <{XSD_NS}> ."]
    for i, ns in enumerate(extra_ns, start=1):
        labels[ns] = f"ns{i}"
        lines.append(f"@prefix ns{i}: <{ns}> .")

    def written(term: Term) -> str:
        if isinstance(term, Iri):
            label = labels[term.namespace]
            return f"{label}:{term.local}"
        return f'"{escape_string(term.lexical)}"^^{written(term.datatype)}'

    for t in triples:
        lines.append(f"{written(t.subject)} {written(t.predicate)} {written(t.object)} .")
    return "\n".join(lines) + "\n"
