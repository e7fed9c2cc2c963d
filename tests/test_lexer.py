"""The one-pattern lexer against the character-by-character lexer it
replaced, kept here as the reference.

The reference advances one code point at a time and tries every symbol at
each position.  Both must give the same tokens, with the same positions,
or the same `ParseError` at the same place, on every input.
"""

from hypothesis import given, settings, strategies as st

from transfer_kernel.surface import ParseError, Token, _SYMBOLS, tokenize

from conftest import SCRIPTS

settings.register_profile("lexer", derandomize=True, database=None,
                          deadline=None, max_examples=400)
LEXER = settings.get_profile("lexer")


# --- reference ------------------------------------------------------------------

def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c in ("_", "'")


def reference_tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c.isspace():
            advance(1)
            continue
        if text.startswith("(*", i):
            depth, start_line, start_col = 1, line, col
            advance(2)
            while i < n and depth:
                if text.startswith("(*", i):
                    depth += 1
                    advance(2)
                elif text.startswith("*)", i):
                    depth -= 1
                    advance(2)
                else:
                    advance(1)
            if depth:
                raise ParseError("unterminated comment", start_line, start_col)
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, line, col))
                advance(len(sym))
                break
        else:
            if not _is_ident_start(c):
                raise ParseError(f"unknown character {c!r}", line, col)
            start, sl, sc = i, line, col
            while i < n:
                if _is_ident_char(text[i]):
                    advance(1)
                elif text[i] == "." and i + 1 < n and _is_ident_start(text[i + 1]) \
                        and text[i + 1] != "λ":
                    advance(1)
                else:
                    break
            toks.append(Token("ident", text[start:i], sl, sc))
    toks.append(Token("eof", "", line, col))
    return toks


def lexed(lexer, text: str):
    """Tokens as (kind, value, line, col), or the error as (message, line, col)."""
    try:
        return [(t.kind, t.value, t.line, t.col) for t in lexer(text)]
    except ParseError as e:
        return (e.message, e.line, e.col)


def assert_same_tokens(text: str) -> None:
    assert lexed(tokenize, text) == lexed(reference_tokenize, text), repr(text)


# --- inputs ---------------------------------------------------------------------

# Script pieces, numerals that `\w` accepts but `str.isalpha` rejects, the
# symbols' overlapping prefixes, every kind of line end and space, and
# comments that span lines.
PIECES = ("(* a\n b *)", "(* (*\n*)\n *)", "²", "½", "Ⅻ", "λ", "∀", "→",
          "⁻¹", "⁻", "¹", ".", "'", "_", "0", "9", "(", "*", ")", "(*", "*)",
          "##>", "#", ":=", ":", "=>", "=", "->", "-", ">", ",", "@", "N.le",
          "x", "A", " ", "\n", "\r\n", "\t", "\xa0", "\u2028", "\x00",
          "\x1c")
texts = st.lists(st.one_of(st.sampled_from(PIECES),
                           st.characters(max_codepoint=0x2FFF)),
                 max_size=40).map("".join)


# --- tests ----------------------------------------------------------------------

@LEXER
@given(texts)
def test_lexers_agree_on_generated_text(text):
    assert_same_tokens(text)


def test_lexers_agree_on_every_corpus_script():
    for path in sorted(SCRIPTS.glob("*.tk")):
        text = path.read_text(encoding="utf-8")
        assert_same_tokens(text)
        assert isinstance(lexed(tokenize, text), list)


def test_lexers_agree_on_every_code_point_class():
    """Below U+3000: c as a space between names, as a name start, as a
    name character, and where a qualified name resumes after a `.`."""
    for cp in range(0x3000):
        c = chr(cp)
        for text in (f"a{c}b", f"{c}b", f"a{c}", f"a.{c}b"):
            assert_same_tokens(text)
