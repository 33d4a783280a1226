"""The one lexer against the character-level parsers it replaced (see
parser_oracle): seeded mutations of the fixture, a generated home and the
parser tests' texts must parse alike, errors included."""

from parser_oracle import disagreements


def test_mutated_texts_parse_as_before():
    assert disagreements() == []
