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

import math
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


# Lexical forms are ASCII and matched whole: ``\d`` would take other
# scripts' digits, ``$`` a trailing newline, and float() spaces and "1_0".
_TIME_RE = re.compile(r"[0-9]{2}:[0-9]{2}:[0-9]{2}")
_DOUBLE_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _valid_double(lex: str) -> bool:
    return _DOUBLE_RE.fullmatch(lex) is not None and math.isfinite(float(lex))


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
    if not _TIME_RE.fullmatch(lex):
        return False
    h, m, s = (int(p) for p in lex.split(":"))
    return h < 24 and m < 60 and s < 60


# Reasoning and ORDER BY read an integer with int(), which reads up to 640
# digits whatever the interpreter's int_max_str_digits limit.
MAX_INTEGER_DIGITS = 640
# Only these literal datatypes are accepted; anything else is a parse error.
DATATYPE_VALIDATORS = {
    xsd("double"): _valid_double,
    xsd("boolean"): lambda lex: lex in ("true", "false"),
    xsd("string"): lambda lex: True,
    xsd("date"): _valid_date,
    xsd("time"): _valid_time,
    xsd("positiveInteger"): lambda lex: (len(lex) <= MAX_INTEGER_DIGITS and lex.isascii()
                                         and lex.isdigit() and int(lex) >= 1),
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


# The positions (0 subject, 1 predicate, 2 object) whose ids key the index a
# pattern is looked up in, by which positions the pattern knows.  A subject's
# bucket is small, so a known subject is the whole key; a known predicate or
# object outside the key is checked against each candidate.  No workload
# probes by the object alone, so such a pattern scans the whole store.
_KEY_POSITIONS = {
    (True, True, True): (0,), (True, True, False): (0,),
    (True, False, True): (0,), (True, False, False): (0,),
    (False, True, True): (1, 2), (False, True, False): (1,),
    (False, False, True): (), (False, False, False): (),
}


class TripleStore:
    """Set of triples, dictionary-encoded, with (S), (P) and (P,O) lookup
    indexes.

    Each term is interned to an int id once, when ``insert`` first sees it:
    ``terms[i]`` is the term with id ``i`` and ``term_keys[i]`` its
    ``term_key``.  A triple is held only as its ``(s, p, o)`` id tuple.  Each
    index maps the tuple of ids at its key positions to a list of the id
    tuples holding them, each once.  ``match`` decodes ids to Triples only at
    its output; the SPARQL join probes the indexes on ids (``index_for``).

    Not thread-safe: callers serialize all access, reads included, since a
    read iterates index buckets that an insert may grow.  ContextEngine
    holds one lock for every read and write.
    """

    def __init__(self, triples=()):
        self.terms: list[Term] = []
        self.term_keys: list[tuple] = []
        self._ids: dict[Term, int] = {}
        self._by_datatype: dict[Iri, set[int]] = {}
        self._spo: set[tuple[int, int, int]] = set()
        self._by_s, self._by_p, self._by_po = {}, {}, {}
        self._indexes = {(0,): self._by_s, (1,): self._by_p, (1, 2): self._by_po,
                         (): {(): self._spo}}
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
        for index, key in ((self._by_s, (s,)), (self._by_p, (p,)), (self._by_po, (p, o))):
            bucket = index.get(key)
            if bucket is None:
                index[key] = [spo]
            else:
                bucket.append(spo)
        return True

    def term_id(self, term: Term) -> int:
        """The term's id; -1, which no triple holds, for a term not in the store."""
        return self._ids.get(term, -1)

    def literal_ids(self, datatype: Iri):
        """Ids of the stored literals of ``datatype``."""
        return self._by_datatype.get(datatype, ())

    def index_for(self, known) -> tuple[tuple, dict]:
        """(positions, index) for a pattern that knows the ids at the
        ``known`` positions, a (subject, predicate, object) triple of bools.
        ``index.get(key)``, for the tuple of the ids at ``positions``, is the
        one list holding every match; the caller checks the other known ids."""
        positions = _KEY_POSITIONS[known]
        return positions, self._indexes[positions]

    def _lookup(self, pattern: TriplePattern):
        """(ids, candidates): the ids of the pattern's constants, None for
        each variable, and the one index bucket that holds every match."""
        ids = [None if isinstance(t, Variable) else self.term_id(t)
               for t in (pattern.subject, pattern.predicate, pattern.object)]
        positions, index = self.index_for(tuple(i is not None for i in ids))
        return ids, index.get(tuple([ids[k] for k in positions]), ())

    def _decoded(self, spos) -> list[Triple]:
        """Id tuples to Triples, in canonical order."""
        keys, terms = self.term_keys, self.terms
        ordered = sorted(spos, key=lambda t: (keys[t[0]], keys[t[1]], keys[t[2]]))
        return [Triple(terms[s], terms[p], terms[o]) for s, p, o in ordered]

    def candidate_count(self, pattern: TriplePattern) -> int:
        """Size of the index bucket ``match`` scans: a bound on its result size."""
        return len(self._lookup(pattern)[1])

    def match(self, pattern: TriplePattern) -> list[Triple]:
        """All triples unifying with the pattern, in canonical order."""
        (_, p, o), candidates = self._lookup(pattern)
        return self._decoded(t for t in candidates if p in (None, t[1]) and o in (None, t[2]))


# --- Turtle-subset lexer/parser ---------------------------------------------

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def escape_string(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))


# The local part of a prefixed name; ``serialize`` writes home IRIs in that
# form, so a local name must match all of it to survive a round trip.
PN_LOCAL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_-]*")
# ``prefix:local``, both parts optional; it always matches.  ``prefix`` is ""
# when absent, and ``colon`` is None when no ``:`` follows the prefix.
_PNAME = r"(?P<prefix>[A-Za-z][A-Za-z0-9_-]*|)(?P<colon>:(?P<local>%s)?)?" % PN_LOCAL_RE.pattern
_PNAME_RE = re.compile(_PNAME)
# A term: ``?name`` (``var`` is "" after a bare ``?``), a string literal's
# body up to the first character it cannot hold (its closing quote, or the
# newline, end of text or unknown escape that leaves it unfinished), or else
# a prefixed name.  It always matches.
_TERM_RE = re.compile(r'\?(?P<var>[A-Za-z_][A-Za-z0-9_]*|)'
                      r'|"(?P<string>[^"\\\n]*(?:\\["\\ntr][^"\\\n]*)*)|' + _PNAME)
_ESCAPE_RE = re.compile(r'\\(["\\ntr])')
_WS_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")  # whitespace and # comments


class _Lexer:
    """The one cursor over the data and query grammars.

    Whitespace and ``#`` comments may sit between any two tokens, so every
    read skips them first, through ``peek``.  A literal ``"lex"^^datatype``
    is one token, with nothing allowed inside it.  Only the offset is
    tracked; line and column are worked out when an error is raised.
    ``iris`` and ``literals`` hold the terms read so far, so that each
    distinct term is built and validated once per parse.  ``variables``
    says whether the grammar has ``?name`` terms.
    """

    def __init__(self, text: str, variables: bool = False):
        self.text = text
        self.pos = 0
        self.variables = variables
        self.prefixes = dict(BUILTIN_PREFIXES)
        self.iris: dict[tuple[str, str], Iri] = {}
        self.literals: dict[tuple[str, Iri], Literal] = {}

    def error(self, message: str, pos: int | None = None) -> ParseError:
        """A ParseError at ``pos`` (default: the current offset)."""
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        return ParseError(message, line, pos - self.text.rfind("\n", 0, pos))

    def peek(self) -> str:
        """Move past whitespace and comments; the next character, "" at the end."""
        self.pos = pos = _WS_RE.match(self.text, self.pos).end()
        return self.text[pos:pos + 1]

    def take(self, literal: str) -> bool:
        self.peek()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            raise self.error(f"expected {literal!r}")

    def read(self, pattern: re.Pattern) -> re.Match | None:
        """The match of ``pattern`` at the next token, which it moves past;
        None if it does not match there."""
        self.peek()
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def iri(self, prefix: str, colon: str | None, local: str | None) -> Iri:
        """The IRI that the groups of a ``_PNAME`` match name; the cursor
        stands at the match's end, where any error points."""
        if colon is None:
            raise self.error("expected prefixed name")
        if local is None:
            raise self.error("prefixed name is missing its local part")
        ns = self.prefixes.get(prefix)
        if ns is None:
            raise self.error(f"undeclared prefix {prefix + ':'!r}")
        iri = self.iris.get((ns, local))
        if iri is None:
            iri = self.iris[ns, local] = Iri(ns, local)
        return iri

    def term(self, allow_literal: bool) -> PatternTerm:
        """A prefixed name, a literal if ``allow_literal``, or a variable if
        the grammar has them."""
        m = self.read(_TERM_RE)
        var, lex, prefix, colon, local = m.groups()
        if lex is None:
            if var is None:
                return self.iri(prefix, colon, local)
            if not self.variables:
                raise self.error("expected prefixed name", m.start())
            if not var:
                raise self.error("expected variable", m.start())
            return Variable(var)
        start, end = m.span()
        if not allow_literal:
            raise self.error("literal not allowed here", start)
        text = self.text
        if not text.startswith('"^^', end):
            if text.startswith("\\", end):
                raise self.error(f"unknown escape \\{text[end + 1:end + 2]}", end + 1)
            if text.startswith('"', end):
                raise self.error("expected '^^'", end + 1)
            raise self.error("unterminated string literal", end)
        m = _PNAME_RE.match(text, end + 3)  # the datatype follows ^^ directly
        self.pos = m.end()
        datatype = self.iri(*m.groups())
        if "\\" in lex:
            lex = _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], lex)
        literal = self.literals.get((lex, datatype))
        if literal is None:
            try:
                literal = self.literals[lex, datatype] = Literal(lex, datatype)
            except ValueError as exc:
                raise self.error(str(exc), start) from None
        return literal


def parse_data(text: str) -> list[Triple]:
    """Parse a Turtle-subset document into triples, in document order."""
    lexer = _Lexer(text)
    triples: list[Triple] = []
    while c := lexer.peek():
        if c == "@" and lexer.take("@prefix"):
            prefix, colon, local = lexer.read(_PNAME_RE).groups()
            if colon is None:
                raise lexer.error("expected prefixed name")
            if local is not None:
                raise lexer.error("prefix declaration must end with ':'")
            lexer.expect("<")
            end = text.find(">", lexer.pos)
            if end == -1:
                raise lexer.error("unterminated IRI reference")
            lexer.prefixes[prefix] = text[lexer.pos:end]
            lexer.pos = end + 1
        else:
            triples.append(Triple(lexer.term(allow_literal=False),
                                  lexer.term(allow_literal=False),
                                  lexer.term(allow_literal=True)))
        lexer.expect(".")
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
