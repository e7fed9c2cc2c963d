"""The parser against the one it replaced, kept here as the reference.

The reference reads each token's fields by name and descends one function
per precedence level (term, arrow, `=`, `##>`, application, atom).  Both
must give the same pre-terms, with the same positions, or the same
`ParseError` at the same place, on every input: each corpus script and
each term in it, the never-raises test's 300 mutated scripts, and
generated token streams.
"""

import random

from hypothesis import given, settings, strategies as st

from transfer_kernel.surface import (
    EXACT_MODULO, NESTED_TOO_DEEPLY, TRANSFER_MODULO, _SYMBOLS,
    _TERM_KEYWORDS, CmdAxiom, CmdDeclareRelation, CmdDeclareSurjection,
    CmdDeclareTransfer, CmdDefinition, CmdParameter, CmdTheorem, Command,
    PApp, PArrow, PEq, PInv, PLam, PPi, PRef, PResp, PSort, ParseError,
    PreTerm, Token, parse_script, parse_term, tokenize,
)

from conftest import SCRIPTS, script_text
from test_cli import mutate_script

settings.register_profile("parser", derandomize=True, database=None,
                          deadline=None, max_examples=300)
PARSER = settings.get_profile("parser")


# --- reference ------------------------------------------------------------------

class _TokenStream:
    """The parser's cursor: `pos` indexes `toks` and never passes the final
    "eof" token, so reading `toks[pos]` needs no bounds check.  The parser
    tests the current token's fields directly.  No name's text is a symbol
    (the lexer tries symbols first, and only `λ` among them is a letter),
    and "eof" has the empty text, so a symbol is recognised by its value
    alone."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def expect_sym(self, value: str) -> Token:
        t = self.toks[self.pos]
        if t.value != value:
            raise ParseError(f"expected '{value}', found '{t.value or 'end of input'}'",
                             t.line, t.col)
        self.pos += 1
        return t

    def expect_ident(self, *values: str) -> Token:
        t = self.toks[self.pos]
        if t.kind != "ident" or (values and t.value not in values):
            what = " or ".join(f"'{v}'" for v in values) if values else "identifier"
            raise ParseError(f"expected {what}, found '{t.value or 'end of input'}'",
                             t.line, t.col)
        self.pos += 1
        return t


def _names(ts: _TokenStream, stop: frozenset[str] = frozenset()) -> list[str]:
    """One or more names; a name in `stop` ends the list after the first."""
    names = [ts.expect_ident().value]
    t = ts.peek()
    while t.kind == "ident" and t.value not in stop:
        names.append(t.value)
        ts.pos += 1
        t = ts.peek()
    return names


def _parse_binder_groups(ts: _TokenStream) -> tuple[tuple[str, PreTerm | None], ...]:
    """`(x y : T) (z : U)` or the single unparenthesized group `x y [: T]`."""
    binders: list[tuple[str, PreTerm | None]] = []
    if ts.peek().value == "(":
        while ts.peek().value == "(":
            ts.pos += 1
            names = _names(ts, _TERM_KEYWORDS)
            annot = None
            if ts.peek().value == ":":
                ts.pos += 1
                annot = _parse_term(ts)
            ts.expect_sym(")")
            binders.extend((nm, annot) for nm in names)
    else:
        names = _names(ts, _TERM_KEYWORDS)
        annot = None
        if ts.peek().value == ":":
            ts.pos += 1
            annot = _parse_term(ts)
        binders.extend((nm, annot) for nm in names)
    return tuple(binders)


_SORT_NAMES = frozenset(("Prop", "Set", "Type"))
_ATOM_SYMBOLS = frozenset(("(", "@", "∀", "λ"))


def _at_atom_start(t: Token) -> bool:
    if t.kind == "ident":
        return t.value != "forall" and t.value != "fun"
    return t.value in _ATOM_SYMBOLS


def _parse_atom(ts: _TokenStream) -> PreTerm:
    toks = ts.toks
    t = toks[ts.pos]
    if t.kind == "ident":
        ts.pos += 1
        value = t.value
        if value in _SORT_NAMES:
            result = PSort(value, t.line, t.col)
        elif value == "inv":
            if not _at_atom_start(toks[ts.pos]):
                raise ParseError("'inv' expects a relation argument", t.line, t.col)
            result = PInv(_parse_atom(ts), t.line, t.col)
        else:
            result = PRef(value, t.line, t.col)
    elif t.value == "(":
        ts.pos += 1
        result = _parse_term(ts)
        ts.expect_sym(")")
    elif t.value == "@":
        ts.pos += 1
        name = ts.expect_ident()
        result = PRef(name.value, name.line, name.col)
    else:
        raise ParseError(f"unexpected token '{t.value or 'end of input'}'",
                         t.line, t.col)
    mark = toks[ts.pos]
    while mark.value == "⁻¹":
        ts.pos += 1
        result = PInv(result, mark.line, mark.col)
        mark = toks[ts.pos]
    return result


def _parse_app(ts: _TokenStream) -> PreTerm:
    term = _parse_atom(ts)
    while _at_atom_start(ts.toks[ts.pos]):
        term = PApp(term, _parse_atom(ts))
    return term


def _parse_resp(ts: _TokenStream) -> PreTerm:
    lhs = _parse_app(ts)
    mark = ts.toks[ts.pos]
    if mark.value == "##>":
        ts.pos += 1
        return PResp(lhs, _parse_resp(ts), mark.line, mark.col)
    return lhs


def _parse_eq(ts: _TokenStream) -> PreTerm:
    lhs = _parse_resp(ts)
    mark = ts.toks[ts.pos]
    if mark.value == "=":
        ts.pos += 1
        return PEq(lhs, _parse_resp(ts), mark.line, mark.col)
    return lhs


def _parse_arrow(ts: _TokenStream) -> PreTerm:
    lhs = _parse_eq(ts)
    value = ts.toks[ts.pos].value
    if value == "->" or value == "→":
        ts.pos += 1
        return PArrow(lhs, _parse_term(ts))  # binders may follow an arrow
    return lhs


def _parse_term(ts: _TokenStream) -> PreTerm:
    kw = ts.toks[ts.pos]
    value = kw.value
    if value == "∀" or value == "forall":
        ts.pos += 1
        binders = _parse_binder_groups(ts)
        ts.expect_sym(",")
        return PPi(binders, _parse_term(ts), kw.line, kw.col)
    if value == "λ" or value == "fun":
        ts.pos += 1
        binders = _parse_binder_groups(ts)
        if ts.peek().value == "=>":
            ts.pos += 1
        else:
            ts.expect_sym(",")
        return PLam(binders, _parse_term(ts), kw.line, kw.col)
    return _parse_arrow(ts)


def reference_parse_term(text: str) -> PreTerm:
    """Parse a single term; the whole input must be consumed."""
    ts = _TokenStream(tokenize(text))
    term = _parse_term(ts)
    t = ts.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected trailing input '{t.value}'", t.line, t.col)
    return term



def _parse_command(ts: _TokenStream) -> Command:
    head = ts.expect_ident()
    line = head.line
    if head.value == "Parameter":
        names = _names(ts)
        ts.expect_sym(":")
        ty = _parse_term(ts)
        ts.expect_sym(".")
        return CmdParameter(tuple(names), ty, line)
    if head.value == "Axiom":
        name = ts.expect_ident().value
        ts.expect_sym(":")
        stmt = _parse_term(ts)
        ts.expect_sym(".")
        return CmdAxiom(name, stmt, line)
    if head.value == "Definition":
        name = ts.expect_ident().value
        params: list[tuple[str, PreTerm | None]] = []
        first = t = ts.peek()
        while t.value != ":=":
            if t.value == "(":
                ts.pos += 1
                group = _names(ts)
                ts.expect_sym(":")
                annot = _parse_term(ts)
                ts.expect_sym(")")
                params.extend((nm, annot) for nm in group)
            elif t.kind == "ident":
                params.append((t.value, None))
                ts.pos += 1
            else:
                raise ParseError("expected binder or ':='", t.line, t.col)
            t = ts.peek()
        ts.expect_sym(":=")
        body = _parse_term(ts)
        ts.expect_sym(".")
        if params:
            body = PLam(tuple(params), body, first.line, first.col)
        return CmdDefinition(name, body, line)
    if head.value == "Declare":
        kind = ts.expect_ident("Surjection", "Transfer", "Relation")
        if kind.value == "Surjection":
            fn_name = ts.expect_ident().value
            ts.expect_ident("by")
            ts.expect_sym("(")
            inverse = ts.expect_ident().value
            ts.expect_sym(",")
            proof = ts.expect_ident().value
            ts.expect_sym(")")
            ts.expect_sym(".")
            return CmdDeclareSurjection(fn_name, inverse, proof, line)
        lemma = ts.expect_ident().value
        ts.expect_sym(".")
        if kind.value == "Transfer":
            return CmdDeclareTransfer(lemma, line)
        return CmdDeclareRelation(lemma, line)
    if head.value == "Theorem":
        name = ts.expect_ident().value
        ts.expect_sym(":")
        stmt = _parse_term(ts)
        ts.expect_sym(".")
        tac = ts.expect_ident("exact", "transfer")
        ts.expect_ident("modulo")
        source = ts.expect_ident().value
        ts.expect_sym(".")
        ts.expect_ident("Qed")
        ts.expect_sym(".")
        tactic = EXACT_MODULO if tac.value == "exact" else TRANSFER_MODULO
        return CmdTheorem(name, stmt, tactic, source, line)
    raise ParseError(f"unknown command '{head.value}'", head.line, head.col)


def reference_parse_script(text: str) -> tuple[Command, ...]:
    ts = _TokenStream(tokenize(text))
    commands: list[Command] = []
    while ts.peek().kind != "eof":
        start = ts.peek()
        try:
            commands.append(_parse_command(ts))
        except RecursionError:
            raise ParseError(NESTED_TOO_DEEPLY, start.line, start.col) from None
    return tuple(commands)


# --- comparison -----------------------------------------------------------------

def parsed(parser, text: str):
    """The result's `repr`, which names every pre-term class and field, or
    the error as (message, line, col)."""
    try:
        return repr(parser(text))
    except ParseError as e:
        return (e.message, e.line, e.col)


def assert_same_parse(text: str) -> None:
    assert parsed(parse_script, text) == parsed(reference_parse_script, text), \
        repr(text)


def assert_same_term(text: str) -> None:
    assert parsed(parse_term, text) == parsed(reference_parse_term, text), \
        repr(text)


def term_spans(text: str) -> list[str]:
    """The text from each token to the next `.` token (or the end)."""
    starts, offset = [], 0
    for line in text.split("\n"):
        starts.append(offset)
        offset += len(line) + 1
    toks = tokenize(text)
    where = [starts[t.line - 1] + t.col - 1 for t in toks]
    spans = []
    for i, t in enumerate(toks[:-1]):
        j = next(j for j in range(i, len(toks))
                 if toks[j].value == "." or toks[j].kind == "eof")
        spans.append(text[where[i]:where[j]])
    return spans


# --- inputs ---------------------------------------------------------------------

VOCABULARY = (*_SYMBOLS, *sorted(_TERM_KEYWORDS), "Parameter", "Axiom",
              "Definition", "Declare", "Surjection", "Transfer", "Relation",
              "Theorem", "exact", "transfer", "modulo", "Qed", "by", "A", "x",
              "f", "N.le", "_", "(* c *)")
streams = st.lists(st.tuples(st.sampled_from(VOCABULARY),
                             st.sampled_from((" ", "\n", "  "))),
                   max_size=30).map(lambda ts: "".join(a + b for a, b in ts))


# --- tests ----------------------------------------------------------------------

def test_parsers_agree_on_every_corpus_script_and_its_terms():
    for path in sorted(SCRIPTS.glob("*.tk")):
        text = script_text(path.name)
        assert_same_parse(text)
        assert isinstance(parse_script(text), tuple)
        for span in term_spans(text):
            assert_same_term(span)


def test_parsers_agree_on_mutated_corpus_scripts():
    """The never-raises test's scripts, with the same draws in the same order."""
    texts = [script_text(path.name) for path in sorted(SCRIPTS.glob("*.tk"))]
    names = sorted({tok.value for text in texts for tok in tokenize(text)
                    if tok.kind == "ident"})
    rng = random.Random(15)
    for _ in range(300):
        text = mutate_script(rng, rng.choice(texts), names)
        rng.choice([None, "v1", "v2"])  # the engine the never-raises test draws
        assert_same_parse(text)


# Well-formed and broken binder groups, mixing the parenthesized and bare
# forms, which only one of them may take.
BINDER_GROUPS = ("x", "x y", "x y : A", "(x)", "(x y : A)", "(x : A) (y)",
                 "(x : A) y", "x (y : A)", "x : A (y : A)", "(x : A) : A",
                 "(x : A", "(x : A) (", "()", "x : ∀ (y : A), A", "Prop",
                 "x Type", "(x fun)", "")


def test_parsers_agree_on_binder_groups():
    for group in BINDER_GROUPS:
        for text in (f"fun {group} => x", f"λ {group}, x", f"∀ {group}, x",
                     f"forall {group}, x"):
            assert_same_term(text)
            assert_same_parse(f"Axiom a : {text}.")


@PARSER
@given(streams)
def test_parsers_agree_on_generated_token_streams(text):
    assert_same_term(text)
    assert_same_parse(text)
    assert_same_parse(f"Axiom a : {text}.")
