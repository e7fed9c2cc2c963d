"""Vernacular syntax: lexer, parser, elaborator and pretty-printer.

The script language is a small command set (Parameter, Axiom, Definition,
Declare ..., Theorem ... Qed) over a term syntax that accepts both Unicode
and ASCII spellings: `∀`/`forall`, `→`/`->`, `λ x, e`/`fun x => e`,
`R⁻¹`/`inv R`, plus the infix sugar `a = b` (Leibniz equality) and the
right-associative relator arrow `R ##> S`.

Parsing yields name-based pre-terms; `elaborate` resolves names against an
environment and local context and fills in the implicit type arguments of
`eq`, `respectful` and `inv` with metavariables solved by first-order
unification.  Solutions must be closed types; anything else is reported as
an elaboration error rather than guessed.  `print_term` prints a term
against its environment, and the text elaborates back against it.

The hot paths (`infer`, `resolve`, `_has_meta`, `unify`, `render`, and
the CLI's command dispatch) test the exact class, `type(x) is PApp`, most
frequent first, as the kernel's traversals do, rather than with `match`.
So the pre-term and command classes and `Meta` must stay final: an
instance of a subclass would take the default branch.  The lexer takes
every token of a comment-free stretch from one `findall`, and the parser
reads token fields by index.  The elaborator skips what would change
nothing: it reduces a function type only if it is not a product or a meta
is solved, unifies an argument's type only if it differs from the domain
and the kernel's `subsumes`, the one home of sort inclusion, rejects it
(so `unify` only solves metas), and elaborates an arrow's right side
under the arrow's binder rather than shifting it there.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .kernel import (
    EQ, INV, PROP, RESPECTFUL, TYPE,
    App, Const, CtxEntry, GlobalEnv, Lam, LocalContext, Pi, Sort, Term,
    TypeCheckError, UnboundName, Var, app, arrow, infer_type, shift,
    substitute, subsumes, unshift, whnf,
)
from .terms import occurs_free, relation_domains, relation_types, spine


class SurfaceError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


class ParseError(SurfaceError):
    pass


class ElabError(SurfaceError):
    pass


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # "ident" | "sym" | "eof"
    value: str
    line: int
    col: int


_SYMBOLS = ("##>", ":=", "=>", "->", "⁻¹", "(", ")", ":", ",", ".", "=",
            "→", "∀", "λ", "@")

_TERM_KEYWORDS = {"forall", "fun", "inv", "Prop", "Set", "Type"}


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


# One match per token: the whitespace before it, then a symbol (longest
# first, and before names, since λ is alphabetic), a name, or any other
# character.  The token is optional, so a stretch's trailing space is one
# match.  `\s` is `str.isspace` and `[\w']` is a name character
# (`str.isalnum`, `_` or `'`).  `[^\W\d]` also admits numerals such as `²`
# that `str.isalpha` rejects, so `tokenize` checks where each segment of a
# non-ASCII name starts (the ASCII matches are letters and `_`).
_TOKEN = re.compile(
    r"(\s*)(?:(" + "|".join(map(re.escape, _SYMBOLS)) + r")"
    r"|([^\W\d][\w']*(?:\.(?!λ)[^\W\d][\w']*)*)|(\S))?")
_COMMENT_MARK = re.compile(r"\(\*|\*\)")


def _qualified_prefix(name: str) -> str:
    """The longest prefix of name whose `.`-segments all start a name: a
    qualified name such as N.le, but `a` from `a.²`."""
    head, *segments = name.split(".")
    for segment in segments:
        if not _is_ident_start(segment[0]):
            break
        head += "." + segment
    return head


def tokenize(text: str) -> list[Token]:
    """Tokens with 1-based positions, ending in one "eof" token.  Columns
    count code points, and only a line feed ends a line.  One `findall`
    gives every token of a stretch between comments with the space before
    it, so positions follow from lengths, and line feeds are counted once
    per space run.  A stretch is scanned again where a name is cut short."""
    toks: list[Token] = []
    append, new, scan = toks.append, tuple.__new__, _TOKEN.findall
    end = len(text)
    # `pos - base` is the column of `pos`: `base` is just before `line`.
    pos, line, base = 0, 1, -1
    while True:
        stop = text.find("(*", pos)
        if stop < 0:
            stop = end
        for space, sym, name, other in scan(text, pos, stop):
            if space:
                if "\n" in space:
                    line += space.count("\n")
                    base = pos + space.rindex("\n")
                pos += len(space)
            if sym:
                append(new(Token, ("sym", sym, line, pos - base)))
                pos += len(sym)
            elif name:
                if not name.isascii():  # an ASCII match is a name
                    if not _is_ident_start(name[0]):
                        raise ParseError(f"unknown character {name[0]!r}",
                                         line, pos - base)
                    if "." in name and (short := _qualified_prefix(name)) != name:
                        append(new(Token, ("ident", short, line, pos - base)))
                        pos += len(short)
                        break
                append(new(Token, ("ident", name, line, pos - base)))
                pos += len(name)
            elif other:
                raise ParseError(f"unknown character {other!r}", line, pos - base)
        else:  # the stretch is read up to `stop`
            if stop == end:
                append(new(Token, ("eof", "", line, pos - base)))
                return toks
            depth, pos = 1, stop + 2
            while depth:
                mark = _COMMENT_MARK.search(text, pos)
                if mark is None:
                    raise ParseError("unterminated comment", line, stop - base)
                depth += 1 if mark.group() == "(*" else -1
                pos = mark.end()
            if (lines := text.count("\n", stop, pos)):
                line += lines
                base = text.rindex("\n", stop, pos)


# ---------------------------------------------------------------------------
# Pre-terms
# ---------------------------------------------------------------------------

class PRef(NamedTuple):
    name: str
    line: int = 0
    col: int = 0


class PSort(NamedTuple):
    tag: str
    line: int = 0
    col: int = 0


class PApp(NamedTuple):
    fn: "PreTerm"
    arg: "PreTerm"


class PLam(NamedTuple):
    binders: tuple[tuple[str, "PreTerm | None"], ...]
    body: "PreTerm"
    line: int = 0
    col: int = 0


class PPi(NamedTuple):
    binders: tuple[tuple[str, "PreTerm | None"], ...]
    body: "PreTerm"
    line: int = 0
    col: int = 0


class PArrow(NamedTuple):
    lhs: "PreTerm"
    rhs: "PreTerm"


class PEq(NamedTuple):
    lhs: "PreTerm"
    rhs: "PreTerm"
    line: int = 0
    col: int = 0


class PResp(NamedTuple):
    lhs: "PreTerm"
    rhs: "PreTerm"
    line: int = 0
    col: int = 0


class PInv(NamedTuple):
    inner: "PreTerm"
    line: int = 0
    col: int = 0


PreTerm = PRef | PSort | PApp | PLam | PPi | PArrow | PEq | PResp | PInv


class _TokenStream:
    """The parser's cursor: `pos` indexes `toks` and never passes the final
    "eof" token, so reading `toks[pos]` needs no bounds check.  Below the
    command level the parser reads a token's fields by index (`t[1]` is its
    text).  No name's text is a symbol (the lexer tries symbols first, and
    only `λ` among them is a letter), and "eof" has the empty text, so a
    symbol is recognised by its text alone."""

    __slots__ = ("toks", "pos")

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def expect_sym(self, value: str) -> Token:
        t = self.toks[self.pos]
        if t[1] != value:
            raise ParseError(f"expected '{value}', found '{t[1] or 'end of input'}'",
                             t[2], t[3])
        self.pos += 1
        return t

    def expect_ident(self, *values: str) -> Token:
        t = self.toks[self.pos]
        if t[0] != "ident" or (values and t[1] not in values):
            what = " or ".join(f"'{v}'" for v in values) if values else "identifier"
            raise ParseError(f"expected {what}, found '{t[1] or 'end of input'}'",
                             t[2], t[3])
        self.pos += 1
        return t


def _names(ts: _TokenStream, stop: frozenset[str] = frozenset()) -> list[str]:
    """One or more names; a name in `stop` ends the list after the first."""
    names = [ts.expect_ident()[1]]
    t = ts.toks[ts.pos]
    while t[0] == "ident" and t[1] not in stop:
        names.append(t[1])
        ts.pos += 1
        t = ts.toks[ts.pos]
    return names


def _parse_binder_groups(ts: _TokenStream) -> tuple[tuple[str, PreTerm | None], ...]:
    """`(x y : T) (z : U)` or the single unparenthesized group `x y [: T]`."""
    binders: list[tuple[str, PreTerm | None]] = []
    toks = ts.toks
    parenthesized = toks[ts.pos][1] == "("
    while True:
        if parenthesized:
            ts.pos += 1
        names = _names(ts, _TERM_KEYWORDS)
        annot = None
        if toks[ts.pos][1] == ":":
            ts.pos += 1
            annot = _parse_term(ts)
        if parenthesized:
            ts.expect_sym(")")
        binders.extend((nm, annot) for nm in names)
        if not parenthesized or toks[ts.pos][1] != "(":
            return tuple(binders)


_SORT_NAMES = frozenset(("Prop", "Set", "Type"))
# The texts of the tokens that end an application: every symbol that cannot
# start an atom, the binder keywords, and "eof"'s empty text.
_APP_END = frozenset(_SYMBOLS) - {"(", "@", "∀", "λ"} | {"forall", "fun", ""}
_new = tuple.__new__  # builds a pre-term without its class's `__new__` frame


def _parse_atom(ts: _TokenStream) -> PreTerm:
    toks = ts.toks
    t = toks[ts.pos]
    value = t[1]
    if t[0] == "ident":
        ts.pos += 1
        if value in _SORT_NAMES:
            result = PSort(value, t[2], t[3])
        elif value == "inv":
            if toks[ts.pos][1] in _APP_END:
                raise ParseError("'inv' expects a relation argument", t[2], t[3])
            result = PInv(_parse_atom(ts), t[2], t[3])
        else:
            result = _new(PRef, (value, t[2], t[3]))
    elif value == "(":
        ts.pos += 1
        result = _parse_term(ts)
        ts.expect_sym(")")
    elif value == "@":
        ts.pos += 1
        name = ts.expect_ident()
        result = _new(PRef, (name[1], name[2], name[3]))
    else:
        raise ParseError(f"unexpected token '{value or 'end of input'}'",
                         t[2], t[3])
    mark = toks[ts.pos]
    while mark[1] == "⁻¹":
        ts.pos += 1
        result = PInv(result, mark[2], mark[3])
        mark = toks[ts.pos]
    return result


def _parse_resp(ts: _TokenStream) -> PreTerm:
    """An application, or `##>` (to the right) between applications."""
    term = _parse_atom(ts)
    toks = ts.toks
    mark = toks[ts.pos]
    while mark[1] not in _APP_END:
        term = _new(PApp, (term, _parse_atom(ts)))
        mark = toks[ts.pos]
    if mark[1] == "##>":
        ts.pos += 1
        return PResp(term, _parse_resp(ts), mark[2], mark[3])
    return term


def _parse_term(ts: _TokenStream) -> PreTerm:
    """A binder form, or an arrow over one `=` over `##>` operands."""
    toks = ts.toks
    kw = toks[ts.pos]
    value = kw[1]
    if value == "∀" or value == "forall":
        ts.pos += 1
        binders = _parse_binder_groups(ts)
        ts.expect_sym(",")
        return PPi(binders, _parse_term(ts), kw[2], kw[3])
    if value == "λ" or value == "fun":
        ts.pos += 1
        binders = _parse_binder_groups(ts)
        if toks[ts.pos][1] == "=>":
            ts.pos += 1
        else:
            ts.expect_sym(",")
        return PLam(binders, _parse_term(ts), kw[2], kw[3])
    lhs = _parse_resp(ts)
    mark = toks[ts.pos]
    if mark[1] == "=":
        ts.pos += 1
        lhs = PEq(lhs, _parse_resp(ts), mark[2], mark[3])
        mark = toks[ts.pos]
    value = mark[1]
    if value == "->" or value == "→":
        ts.pos += 1
        return _new(PArrow, (lhs, _parse_term(ts)))  # binders may follow
    return lhs


def parse_term(text: str) -> PreTerm:
    """Parse a single term; the whole input must be consumed."""
    ts = _TokenStream(tokenize(text))
    term = _parse_term(ts)
    t = ts.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected trailing input '{t.value}'", t.line, t.col)
    return term


# ---------------------------------------------------------------------------
# Script commands
# ---------------------------------------------------------------------------

class CmdParameter(NamedTuple):
    names: tuple[str, ...]
    ty: PreTerm
    line: int = 0


class CmdAxiom(NamedTuple):
    name: str
    statement: PreTerm
    line: int = 0


class CmdDefinition(NamedTuple):
    name: str
    body: PreTerm  # parameters are a `PLam` at the first one's token
    line: int = 0


class CmdDeclareSurjection(NamedTuple):
    fn_name: str
    inverse_name: str
    proof_name: str
    line: int = 0


class CmdDeclareTransfer(NamedTuple):
    lemma_name: str
    line: int = 0


class CmdDeclareRelation(NamedTuple):
    lemma_name: str
    line: int = 0


EXACT_MODULO = "exact_modulo"
TRANSFER_MODULO = "transfer_modulo"


class CmdTheorem(NamedTuple):
    name: str
    statement: PreTerm
    tactic: str  # EXACT_MODULO | TRANSFER_MODULO
    source: str
    line: int = 0


Command = (CmdParameter | CmdAxiom | CmdDefinition | CmdDeclareSurjection
           | CmdDeclareTransfer | CmdDeclareRelation | CmdTheorem)


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


NESTED_TOO_DEEPLY = "input nested too deeply"


def parse_script(text: str) -> tuple[Command, ...]:
    ts = _TokenStream(tokenize(text))
    commands: list[Command] = []
    while ts.peek().kind != "eof":
        start = ts.peek()
        try:
            commands.append(_parse_command(ts))
        except RecursionError:
            raise ParseError(NESTED_TOO_DEEPLY, start.line, start.col) from None
    return tuple(commands)


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

class Meta(NamedTuple):
    """Placeholder for an implicit type argument; never escapes elaboration."""
    id: int
    lbr = 0  # solutions are closed (see `unify`)

    def __repr__(self) -> str:
        return f"?{self.id}"


class _Elaborator:
    def __init__(self, env: GlobalEnv):
        self.env = env
        self.solutions: dict[int, Term] = {}
        self._next = 0

    def fresh(self) -> Meta:
        self._next += 1
        return Meta(self._next)

    # -- metavariable bookkeeping ------------------------------------------

    def resolve(self, t: Term) -> Term:
        """Replace solved metas, leaving unsolved ones in place.  A subterm
        in which nothing is replaced is returned as it is, not copied."""
        if not self.solutions:
            return t
        cls = type(t)
        if cls is Pi or cls is Lam:
            ty, body = t.ty, t.body
            ty2, b2 = self.resolve(ty), self.resolve(body)
            return t if ty2 is ty and b2 is body else cls(t.name, ty2, b2)
        if cls is App:
            f, a = t.fn, t.arg
            f2, a2 = self.resolve(f), self.resolve(a)
            return t if f2 is f and a2 is a else App(f2, a2)
        if cls is Meta:
            sol = self.solutions.get(t.id)
            return self.resolve(sol) if sol is not None else t
        return t

    def zonk(self, t: Term, at: PreTerm) -> Term:
        """t with its solved metas replaced; an unsolved one is an error,
        reported at `_pos_of(at)`."""
        t = self.resolve(t)
        # Only `fresh` makes a Meta, so without one there is nothing to find.
        if self._next and self._has_meta(t):
            raise ElabError("cannot infer an implicit argument or binder type",
                            *_pos_of(at))
        return t

    def _has_meta(self, t: Term) -> bool:
        cls = type(t)
        if cls is App:
            return self._has_meta(t.fn) or self._has_meta(t.arg)
        if cls is Pi or cls is Lam:
            return self._has_meta(t.ty) or self._has_meta(t.body)
        return cls is Meta

    def head_normal(self, t: Term) -> Term:
        return whnf(self.env, self.resolve(t))

    def unify(self, a: Term, b: Term, ctx: list[tuple[str, Term]],
              at: PreTerm) -> None:
        """Solve metas so that a and b, both typed in ctx, are convertible;
        an error is reported at `_pos_of(at)`."""
        a = self.head_normal(a)
        b = self.head_normal(b)
        if a == b:
            return
        cls, other_cls = type(a), type(b)
        if cls is Meta or other_cls is Meta:
            meta, other = (a, b) if cls is Meta else (b, a)
            other = self.resolve(other)
            if type(other) is Meta and other.id == meta.id:
                return
            # Solutions must be closed so they can move across binders.
            if other.lbr > 0:
                raise ElabError(
                    "cannot infer an implicit argument that depends on a bound "
                    "variable", *_pos_of(at))
            self.solutions[meta.id] = other
            return
        if cls is other_cls:
            if cls is App:
                self.unify(a.fn, b.fn, ctx, at)
                self.unify(a.arg, b.arg, ctx, at)
                return
            if cls is Pi or cls is Lam:
                self.unify(a.ty, b.ty, ctx, at)
                ctx.append((a.name, a.ty))
                self.unify(a.body, b.body, ctx, at)
                ctx.pop()
                return
        typed = LocalContext(tuple(CtxEntry(v, self.resolve(ty)) for v, ty in ctx))
        raise ElabError(f"type mismatch: {print_term(a, self.env, typed)} vs "
                        f"{print_term(b, self.env, typed)}", *_pos_of(at))

    # -- the main elaboration pass -----------------------------------------

    def infer(self, pre: PreTerm, ctx: list[tuple[str, Term]]) -> tuple[Term, Term]:
        """Elaborate a pre-term to (term, type).  ctx is innermost-last, one
        list per elaboration that binders push to and pop from; an error
        abandons it."""
        cls = type(pre)
        if cls is PRef:
            name = pre.name
            for depth, (nm, ty) in enumerate(reversed(ctx)):
                if nm == name:
                    return Var(depth), shift(ty, depth + 1)
            try:
                return Const(name), self.env.type_of(name)
            except UnboundName:
                raise ElabError(f"unknown identifier '{name}'", pre.line,
                                pre.col) from None
        if cls is PApp:
            fn, arg = pre.fn, pre.arg
            tf, ty_f = self.infer(fn, ctx)
            # A product with no solved meta in it is its own head normal form.
            if type(ty_f) is not Pi or self.solutions:
                ty_f = self.head_normal(ty_f)
                if type(ty_f) is not Pi:
                    raise ElabError("application of a non-function", *_pos_of(fn))
            ta, ty_a = self.infer(arg, ctx)
            # `ty_f` is resolved above, and `subsumes` cannot see solutions.
            if ty_a != ty_f.ty and not subsumes(self.env, self.resolve(ty_a), ty_f.ty):
                self.unify(ty_a, ty_f.ty, ctx, arg)
            return App(tf, ta), substitute(ty_f.body, ta)
        if cls is PArrow:
            # The right side is elaborated under the arrow's binder, which no
            # name resolves to (none is empty), so it needs no shift.
            tl, _ = self.infer(pre.lhs, ctx)
            ctx.append(("", tl))
            tr, sr = self.infer(pre.rhs, ctx)
            ctx.pop()
            if type(sr) is not Sort:
                sr = self.head_normal(unshift(sr) if sr.lbr else sr)
            return Pi("_", tl, tr), sr
        if cls is PPi:
            return self._binders(pre.binders, pre.body, ctx, Pi)
        if cls is PSort:
            return Sort(pre.tag), TYPE
        if cls is PEq:
            tl, ty_l = self.infer(pre.lhs, ctx)
            tr, ty_r = self.infer(pre.rhs, ctx)
            ty_l = self.resolve(ty_l)
            if not subsumes(self.env, self.resolve(ty_r), ty_l):
                self.unify(ty_l, ty_r, ctx, pre)
            return app(Const(EQ), self.resolve(ty_l), tl, tr), PROP
        if cls is PResp:
            tl, ty_l = self.infer(pre.lhs, ctx)
            tr, ty_r = self.infer(pre.rhs, ctx)
            x, y = self._relation_domains(ty_l, pre.line, pre.col)
            x2, y2 = self._relation_domains(ty_r, pre.line, pre.col)
            term = app(Const(RESPECTFUL), x, y, x2, y2, tl, tr)
            return term, arrow(arrow(x, x2), arrow(arrow(y, y2), PROP))
        if cls is PLam:
            return self._binders(pre.binders, pre.body, ctx, Lam)
        if cls is PInv:
            ti, ty_i = self.infer(pre.inner, ctx)
            x, y = self._relation_domains(ty_i, pre.line, pre.col)
            return app(Const(INV), x, y, ti), arrow(y, arrow(x, PROP))
        raise ElabError(f"cannot elaborate {pre!r}")

    def _binders(self, binders: tuple[tuple[str, PreTerm | None], ...],
                 body: PreTerm, ctx: list[tuple[str, Term]],
                 cls: type[Pi] | type[Lam]) -> tuple[Term, Term]:
        """A product or abstraction over `binders`, built innermost first;
        each annotation is elaborated under the binders before it."""
        for name, annot in binders:
            ty = self.infer(annot, ctx)[0] if annot is not None else self.fresh()
            ctx.append((name, ty))
        term, term_ty = self.infer(body, ctx)
        for _ in binders:
            name, ty = ctx.pop()
            if cls is Pi:
                term = Pi(name, ty, term)
            else:
                term, term_ty = Lam(name, ty, term), Pi(name, ty, term_ty)
        # A product's type is its body's, in head normal form; a sort is.
        if cls is Pi and type(term_ty) is not Sort:
            term_ty = self.head_normal(term_ty)
        return term, term_ty

    def _relation_domains(self, rel_ty: Term, line: int, col: int) -> tuple[Term, Term]:
        if (domains := relation_domains(self.env, self.resolve(rel_ty))) is None:
            raise ElabError("expected a binary relation", line, col)
        return domains


def _pos_of(pre: PreTerm) -> tuple[int, int]:
    """An application's head, an arrow's left side, else the form's token."""
    cls = type(pre)
    while cls is PApp or cls is PArrow:
        pre = pre.fn if cls is PApp else pre.lhs
        cls = type(pre)
    return pre.line, pre.col


def elaborate(env: GlobalEnv, pre: PreTerm, ctx: LocalContext | None = None) -> Term:
    """Resolve names and implicit arguments, producing a kernel term."""
    el = _Elaborator(env)
    named = [(e.name, e.ty) for e in (ctx.entries if ctx else ())]
    term, _ = el.infer(pre, named)
    return el.zonk(term, pre)


def parse_and_elaborate(env: GlobalEnv, text: str,
                        ctx: LocalContext | None = None) -> Term:
    return elaborate(env, parse_term(text), ctx)


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

_LVL_TERM, _LVL_ARROW, _LVL_EQ, _LVL_RESP, _LVL_APP, _LVL_ATOM = range(6)

_RESERVED_NAMES = _TERM_KEYWORDS | {"Parameter", "Axiom", "Definition", "Theorem",
                                    "Declare", "Qed", "by", "exact", "transfer",
                                    "modulo"}


class _Printer:
    """Renders kernel terms back to concrete syntax, with the `=`, `##>` and
    `⁻¹` sugar only where re-elaborating it against the environment gives
    back the same implicit arguments (so print/parse is a round trip)."""

    def __init__(self, env: GlobalEnv, ctx: LocalContext | None):
        self.env = env
        ctx = ctx if ctx is not None else LocalContext()
        self.names: list[str] = [e.name for e in ctx.entries]
        # ctxs[-1] types the term being rendered; one context per binder
        # entered, so typing a sugar candidate rebuilds nothing.
        self.ctxs: list[LocalContext] = [ctx]

    def fresh_name(self, hint: str) -> str:
        name = hint if hint and hint != "_" else "x"
        while name in self.names or name in _RESERVED_NAMES or name in self.env:
            name += "'"
        return name

    def _enter(self, name: str, ty: Term) -> None:
        self.names.append(name)
        self.ctxs.append(self.ctxs[-1].push(name, ty))

    def _leave(self) -> None:
        self.names.pop()
        self.ctxs.pop()

    def _type_of(self, t: Term) -> Term | None:
        try:
            return infer_type(self.env, self.ctxs[-1], t)
        except TypeCheckError:
            return None

    def render(self, t: Term, level: int) -> str:
        cls = type(t)
        if cls is Const:
            return t.name
        if cls is Var:
            i, names = t.index, self.names
            if i < len(names):
                return names[-1 - i]
            return f"_x{i - len(names)}"  # out-of-context index
        if cls is App:
            return self._render_app(t, level)
        if cls is Pi or cls is Lam:
            return self._render_binders(t, level)
        if cls is Sort:
            return t.tag
        if cls is Meta:  # unsolved, in an elaboration error
            return f"?{t.id}"
        raise ValueError(f"cannot print {t!r}")

    def _paren(self, s: str, level: int, required: int) -> str:
        return f"({s})" if level > required else s

    def _quantifier_preferred(self, t: Pi) -> bool:
        """Quantify (rather than use an arrow) over non-propositional domains
        in formulas, e.g. `∀ x : A, False` instead of `A → False`."""
        dom_sort = self._type_of(t.ty)
        if dom_sort is None or whnf(self.env, dom_sort) == PROP:
            return False
        self._enter("_", t.ty)
        body_sort = self._type_of(t.body)
        self._leave()
        return body_sort is not None and whnf(self.env, body_sort) == PROP

    def _render_binders(self, t: Pi | Lam, level: int) -> str:
        """A run of `∀` or `fun` binders as one group.  Each non-dependent
        product is decided once: it ends the run (or is the whole term) as
        an arrow, or it is quantified."""
        cls = type(t)
        groups: list[tuple[str, str]] = []
        while type(t) is cls:
            if cls is Pi and not occurs_free(t.body, 0) \
                    and not self._quantifier_preferred(t):
                break
            ty_str = self.render(t.ty, _LVL_TERM)
            name = self.fresh_name(t.name)
            groups.append((name, ty_str))
            self._enter(name, t.ty)
            t = t.body
        if type(t) is cls:  # the product decided on as an arrow
            lhs = self.render(t.ty, _LVL_EQ)
            self._enter("_", t.ty)
            body = f"{lhs} → {self.render(t.body, _LVL_TERM)}"
            self._leave()
        else:
            body = self.render(t, _LVL_TERM)
        for _ in groups:
            self._leave()
        if not groups:
            return self._paren(body, level, _LVL_ARROW)
        if len(groups) == 1:
            binder = f"{groups[0][0]} : {groups[0][1]}"
        else:
            binder = " ".join(f"({nm} : {ty})" for nm, ty in groups)
        if cls is Pi:
            return self._paren(f"∀ {binder}, {body}", level, _LVL_TERM)
        return self._paren(f"fun {binder} => {body}", level, _LVL_TERM)

    def _render_app(self, t: Term, level: int) -> str:
        head, args = spine(t)
        sugared = self._try_sugar(head, args)
        if sugared is not None:
            text, used, text_lvl = sugared
            if used == len(args):
                return self._paren(text, level, text_lvl)
            parts = [self._paren(text, _LVL_APP, text_lvl)]
            parts += [self.render(a, _LVL_ATOM) for a in args[used:]]
            return self._paren(" ".join(parts), level, _LVL_APP)
        parts = [self.render(head, _LVL_APP)]
        parts += [self.render(a, _LVL_ATOM) for a in args]
        return self._paren(" ".join(parts), level, _LVL_APP)

    def _try_sugar(self, head: Term,
                   args: list[Term]) -> tuple[str, int, int] | None:
        """Sugar for a prefix of the spine: (text, args consumed, level)."""
        if type(head) is not Const:
            return None
        if head.name == EQ and len(args) == 3:
            ty = self._type_of(args[1])
            if ty is not None and ty == args[0]:
                lhs = self.render(args[1], _LVL_RESP)
                rhs = self.render(args[2], _LVL_RESP)
                return f"{lhs} = {rhs}", 3, _LVL_EQ
        if head.name == RESPECTFUL and len(args) >= 6:
            if self._domains_match(args[4], args[0], args[1]) \
                    and self._domains_match(args[5], args[2], args[3]):
                lhs = self.render(args[4], _LVL_APP)
                rhs = self.render(args[5], _LVL_RESP)
                return f"{lhs} ##> {rhs}", 6, _LVL_RESP
        if head.name == INV and len(args) >= 3:
            if self._domains_match(args[2], args[0], args[1]):
                inner = self.render(args[2], _LVL_ATOM)
                return f"{inner}⁻¹", 3, _LVL_ATOM
        return None

    def _domains_match(self, rel: Term, x: Term, y: Term) -> bool:
        try:
            dx, dy = relation_types(self.env, self.ctxs[-1], rel)
        except TypeCheckError:
            return False
        return dx == x and dy == y


def print_term(t: Term, env: GlobalEnv, ctx: LocalContext | None = None) -> str:
    """Concrete syntax for t, typed in env and ctx; the printed text
    elaborates back against env (and ctx) to a term alpha-equal to t (sugar
    is only used when it survives the trip)."""
    return _Printer(env, ctx).render(t, _LVL_TERM)
