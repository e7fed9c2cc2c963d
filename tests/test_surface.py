"""Surface syntax tests: parsing, elaboration, printing, round trips."""

import inspect

import pytest

from transfer_kernel.kernel import (
    EQ, PROP, RESPECTFUL, SET, TYPE,
    App, Const, Lam, LocalContext, Pi, TypeCheckError, Var, app,
    arrow, convertible, infer_type, prelude_env,
)
from transfer_kernel.surface import (
    CmdAxiom, CmdDeclareSurjection, CmdDefinition, CmdParameter, CmdTheorem,
    EXACT_MODULO, ElabError, PLam, PRef, ParseError, _Elaborator, elaborate,
    parse_and_elaborate, parse_script, parse_term, print_term, tokenize,
)
from transfer_kernel.terms import spine

from conftest import script_text


@pytest.fixture
def env():
    env = prelude_env()
    env = env.add_parameter("A", SET).add_parameter("A'", SET)
    env = env.add_parameter("nat", SET).add_parameter("N", SET)
    env = parse_add(env, "parameter", "f", "A → A'")
    env = parse_add(env, "parameter", "g", "A' → A")
    env = parse_add(env, "parameter", "N.of_nat", "nat → N")
    env = parse_add(env, "parameter", "le", "nat → nat → Prop")
    env = parse_add(env, "parameter", "N.le", "N → N → Prop")
    env = env.add_definition(
        "natN", parse_and_elaborate(env, "fun x x' => N.of_nat x = x'"))
    return env


def parse_add(env, kind, name, text):
    t = parse_and_elaborate(env, text)
    return env.add_parameter(name, t) if kind == "parameter" else env.add_axiom(name, t)


# --- term parsing -------------------------------------------------------------

def test_parse_forall(env):
    t = parse_and_elaborate(env, "∀ x : A, False")
    assert t == Pi("x", Const("A"), Const("False"))


def test_parse_ascii_forms(env):
    unicode = parse_and_elaborate(env, "∀ x : A, False")
    ascii_ = parse_and_elaborate(env, "forall x : A, False")
    assert unicode == ascii_
    assert parse_and_elaborate(env, "A -> False") == \
        parse_and_elaborate(env, "A → False")
    assert parse_and_elaborate(env, "inv natN") == \
        parse_and_elaborate(env, "natN⁻¹")


def test_parse_fun_identity(env):
    t = parse_and_elaborate(env, "fun x : Prop => x")
    assert t == Lam("x", PROP, Var(0))
    assert parse_and_elaborate(env, "λ x : Prop, x") == t


def test_respectful_is_right_associative(env):
    t = parse_and_elaborate(env, "(natN ##> natN ##> impl) le N.le")
    head, args = spine(t)
    assert args[-2:] == [Const("le"), Const("N.le")]
    chain = app(head, *args[:-2])
    chead, cargs = spine(chain)
    assert chead == Const(RESPECTFUL)
    # right operand of the outer arrow is itself a relator arrow
    inner_head, _ = spine(cargs[5])
    assert cargs[4] == Const("natN") and inner_head == Const(RESPECTFUL)


def test_application_left_associative(env):
    t = parse_and_elaborate(env, "le x y",
                            LocalContext().push("x", Const("nat"))
                                          .push("y", Const("nat")))
    assert t == App(App(Const("le"), Var(1)), Var(0))


def test_arrow_non_dependent(env):
    t = parse_and_elaborate(env, "A -> False")
    assert t == Pi("_", Const("A"), Const("False"))


def test_eq_sugar_elaborates_type_argument(env):
    ctx = LocalContext().push("x", Const("nat"))
    t = parse_and_elaborate(env, "N.of_nat x = N.of_nat x", ctx)
    head, args = spine(t)
    assert head == Const(EQ) and args[0] == Const("N")


def test_at_prefix_gives_explicit_constant(env):
    assert parse_and_elaborate(env, "@eq nat") == App(Const(EQ), Const("nat"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_term("∀ x : A, (False")
    assert (err.value.line, err.value.col) == (1, 16)
    with pytest.raises(ParseError, match="unknown character") as err:
        parse_term("a % b")
    assert (err.value.line, err.value.col) == (1, 3)


@pytest.mark.parametrize("text, message, line, col", [
    ("(* outer (* inner\n  *) still\n*)  %", "unknown character '%'", 3, 5),
    ("x\n  (* (* *)\n", "unterminated comment", 2, 3),
    ("A\r\n %", "unknown character '%'", 2, 2),
    ("a\t%", "unknown character '%'", 1, 3),
    ("a.²", "unknown character '²'", 1, 3),
    ("a.b.½", "unknown character '½'", 1, 5),
])
def test_lexer_error_positions(text, message, line, col):
    with pytest.raises(ParseError) as err:
        tokenize(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


@pytest.mark.parametrize("text, tokens", [
    ("A\r\n\r\n  B", [("ident", "A", 1, 1), ("ident", "B", 3, 3),
                     ("eof", "", 3, 4)]),
    ("\tx", [("ident", "x", 1, 2), ("eof", "", 1, 3)]),
    ("x.λ", [("ident", "x", 1, 1), ("sym", ".", 1, 2), ("sym", "λ", 1, 3),
             ("eof", "", 1, 4)]),
])
def test_token_positions(text, tokens):
    """Only a line feed ends a line; a carriage return or a tab is one
    column; a qualified name never resumes at λ."""
    assert [(t.kind, t.value, t.line, t.col) for t in tokenize(text)] == tokens


def test_unknown_identifier_is_elab_error(env):
    with pytest.raises(ElabError, match="unknown identifier"):
        parse_and_elaborate(env, "mystery x")


def test_binder_type_inference_in_definitions(env):
    t = parse_and_elaborate(env, "fun a b => N.of_nat a = b")
    assert isinstance(t, Lam)
    assert t.ty == Const("nat")
    assert isinstance(t.body, Lam) and t.body.ty == Const("N")


def test_an_arrows_binder_takes_no_name(env):
    """An arrow's right side is elaborated under the arrow's binder, which
    no name resolves to, not even `_`; an open type of that side comes back
    out of the binder, so an ill-typed arrow names the right variable."""
    env = env.add_parameter("_", SET)
    assert parse_and_elaborate(env, "_ → _") == Pi("_", Const("_"), Const("_"))
    assert parse_and_elaborate(env, "∀ _ : nat, le _ _ → le _ _") \
        == parse_and_elaborate(env, "∀ n : nat, le n n → le n n")
    with pytest.raises(ElabError, match="^1:28: type mismatch: B vs Prop$"):
        parse_and_elaborate(env, "∀ (B : Set) (b : B), impl (nat → b) (nat → b)")


def test_uninferable_binder_is_an_error(env):
    with pytest.raises(ElabError):
        parse_and_elaborate(env, "fun a => a")


@pytest.fixture
def sorted_env(env):
    """`env` with functions whose domains are sorts or sort families."""
    env = parse_add(env, "parameter", "p", "Prop → Prop")
    env = parse_add(env, "parameter", "h", "(A → Type) → Prop")
    return parse_add(env, "parameter", "F", "Set → Prop")


@pytest.mark.parametrize("text, message, kernel_term", [
    # Prop : Type is not a Prop.
    ("p Prop", "1:3: type mismatch: Type vs Prop", App(Const("p"), PROP)),
    # Type is not included in Set, though Set is in Type.
    ("nat = Prop", "1:5: type mismatch: Set vs Type",
     app(Const(EQ), SET, Const("nat"), PROP)),
    # Inclusion holds only at the top: A → Set is not an A → Type.
    ("h (fun x : A => nat)", "1:4: type mismatch: Set vs Type",
     App(Const("h"), Lam("x", Const("A"), Const("nat")))),
])
def test_the_elaborator_includes_sorts_as_the_kernel_does(sorted_env, text,
                                                          message, kernel_term):
    with pytest.raises(ElabError) as info:
        parse_and_elaborate(sorted_env, text)
    assert str(info.value) == message
    with pytest.raises(TypeCheckError):
        infer_type(sorted_env, LocalContext(), kernel_term)


@pytest.mark.parametrize("text, expected", [
    ("Prop = nat", app(Const(EQ), TYPE, PROP, Const("nat"))),
    # A solved binder type, Set, is included where Type is wanted.
    ("fun X => F X → @eq Type X X",
     Lam("X", SET, arrow(App(Const("F"), Var(0)),
                         app(Const(EQ), TYPE, Var(0), Var(0))))),
])
def test_a_sort_where_type_is_wanted_elaborates_and_is_admitted(
        sorted_env, text, expected):
    term = parse_and_elaborate(sorted_env, text)
    assert term == expected
    assert "d" in sorted_env.add_definition("d", term)
    assert "d" in sorted_env.add_definition(
        "d", term, infer_type(sorted_env, LocalContext(), term))


def test_printing_and_zonking_have_one_mode():
    """`print_term` always has an environment and `zonk` a position."""
    params = inspect.signature(print_term).parameters
    assert list(params) == ["t", "env", "ctx"]
    assert params["env"].default is inspect.Parameter.empty
    assert params["ctx"].default is None
    params = inspect.signature(_Elaborator.zonk).parameters
    assert list(params) == ["self", "t", "at"]
    assert params["at"].default is inspect.Parameter.empty


def test_meta_free_elaboration_skips_the_meta_walk(env, monkeypatch):
    walks = []
    has_meta = _Elaborator._has_meta

    def counting(self, t):
        walks.append(t)
        return has_meta(self, t)

    monkeypatch.setattr(_Elaborator, "_has_meta", counting)
    t = parse_and_elaborate(env, "∀ x : nat, le x x → fun y : N => N.le y y")
    assert walks == [] and isinstance(t, Pi)
    # An unannotated binder's type is a metavariable, so the walk runs.
    assert parse_and_elaborate(env, "fun x => le x x") \
        == parse_and_elaborate(env, "fun x : nat => le x x")
    assert walks


def test_resolution_returns_meta_free_terms_as_they_are(env):
    el = _Elaborator(env)
    pre = parse_term("∀ x : nat, le x x → fun y : N => N.le y y")
    t = elaborate(env, pre)
    assert el.resolve(t) is t
    assert el.zonk(t, pre) is t
    el.solutions[el.fresh().id] = Const("nat")  # a meta that t does not hold
    assert el.resolve(t) is t
    assert el.zonk(t, pre) is t
    assert el.head_normal(t) is t


def test_resolution_substitutes_solved_metas_only(env):
    el = _Elaborator(env)
    m1, m2, m3 = el.fresh(), el.fresh(), el.fresh()
    closed = App(Const("le"), Const("x0"))
    t = Pi("x", m1, App(App(Const("le"), Var(0)), m3))
    tail = Lam("y", m3, closed)
    el.solutions[m1.id] = m2  # solved through a chain
    el.solutions[m2.id] = Const("nat")
    got = el.resolve(App(t, tail))
    assert got == App(Pi("x", Const("nat"), App(App(Const("le"), Var(0)), m3)),
                      tail)
    assert got.arg is tail and got.fn.body.arg is m3
    assert el.resolve(m3) is m3
    # The unsolved meta is reported at the pre-term `t` came from.
    with pytest.raises(ElabError, match="^3:7: cannot infer"):
        el.zonk(t, PLam((("x", None),), PRef("x", 3, 9), 3, 7))


# --- script parsing -------------------------------------------------------------

def test_empty_input_gives_empty_script():
    assert parse_script("") == ()
    assert parse_script(" (* just a comment *) ") == ()


def test_example_script_has_seven_commands():
    cmds = parse_script(script_text("example1.tk"))
    assert len(cmds) == 7
    assert isinstance(cmds[0], CmdParameter) and cmds[0].names == ("A", "A'")
    assert isinstance(cmds[1], CmdAxiom)
    assert isinstance(cmds[5], CmdDeclareSurjection)
    assert cmds[5] == CmdDeclareSurjection("f", "g", "surjf", cmds[5].line)
    thm = cmds[6]
    assert isinstance(thm, CmdTheorem)
    assert thm.name == "emptyA'" and thm.tactic == EXACT_MODULO
    assert thm.source == "emptyA"


def test_definition_command_with_untyped_binders():
    script = parse_script("Definition natN x x' := N.of_nat x = x'.")
    (cmd,) = script
    assert isinstance(cmd, CmdDefinition)
    assert cmd.name == "natN"
    assert isinstance(cmd.body, PLam)
    assert [b[0] for b in cmd.body.binders] == ["x", "x'"]
    assert (cmd.body.line, cmd.body.col) == (1, 17)


def test_every_corpus_script_parses():
    for name in ("example1.tk", "example2.tk", "v2_letrans.tk",
                 "zn_transfer.tk", "zn_missing.tk", "iszero.tk",
                 "agreement.tk"):
        script = parse_script(script_text(name))
        assert script, name


def test_unknown_command_is_parse_error():
    with pytest.raises(ParseError, match="unknown command"):
        parse_script("Conjecture foo : False.")


def test_qualified_names_and_sentence_dots():
    script = parse_script("Parameter N.le : Prop.\nAxiom x' : N.le.")
    assert isinstance(script[0], CmdParameter)
    assert script[0].names == ("N.le",)
    assert script[1].name == "x'"


# --- printing and round trips ------------------------------------------------

ROUND_TRIP_CASES = [
    "∀ x : A, False",
    "∀ x' : A', f (g x') = x'",
    "∀ (x : nat) (y : nat) (z : nat), le x y → le y z → le x z",
    "(natN ##> natN ##> impl) le N.le",
    "(natN⁻¹ ##> natN⁻¹ ##> impl) N.le le",
    "((natN ##> impl) ##> impl) (all nat) (all N)",
    "natN⁻¹",
    "fun x : Prop => x",
    "fun (x : nat) (y : nat) => le y x",
    "impl False False",
    "le x y → (le y z → False) → False",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_print_parse_round_trip(env, text):
    ctx = LocalContext()
    for name in ("x", "y", "z"):
        ctx = ctx.push(name, Const("nat"))
    term = parse_and_elaborate(env, text, ctx)
    printed = print_term(term, env, ctx)
    again = parse_and_elaborate(env, printed, ctx)
    assert again == term, printed


def test_round_trip_freshens_shadowed_binders(env):
    shadowed = Lam("x", Const("nat"), Lam("x", Const("nat"),
                                          app(Const("le"), Var(0), Var(1))))
    printed = print_term(shadowed, env)
    assert parse_and_elaborate(env, printed) == shadowed
    # the two binder occurrences got distinct names in one merged group
    assert printed.count("fun") == 1
    assert "(x : nat)" in printed and "(x' : nat)" in printed


def test_printer_avoids_capturing_globals(env):
    # binder wants to be called "f" but that would capture the global f
    t = Lam("f", Const("A"), App(Const("g"),
                                 App(Const("f"), Var(0))))
    printed = print_term(t, env)
    assert parse_and_elaborate(env, printed) == t


def test_sugar_coherence(env):
    ctx = LocalContext().push("x", Const("nat"))
    eq_term = parse_and_elaborate(env, "N.of_nat x = N.of_nat x", ctx)
    explicit = parse_and_elaborate(env, "@eq N (N.of_nat x) (N.of_nat x)", ctx)
    assert eq_term == explicit
    impl_term = parse_and_elaborate(env, "impl False False")
    arrow_term = parse_and_elaborate(env, "False -> False")
    assert convertible(env, impl_term, arrow_term)


def test_printed_respectful_uses_infix(env):
    term = parse_and_elaborate(env, "(natN ##> natN ##> impl) le N.le")
    assert print_term(term, env) == "(natN ##> natN ##> impl) le N.le"


def test_comments_are_ignored():
    script = parse_script(
        "(* header (* nested *) still comment *)\nParameter A : Set.")
    assert len(script) == 1


def test_deep_report_keeps_one_context_per_binder(monkeypatch):
    # The machine report of an 80-binder `exact modulo` transfer.  Typing a
    # sugar candidate used to rebuild the whole context, one push per
    # enclosing binder (436,238 pushes); the digest pins the text printed
    # then.
    import hashlib

    from transfer_kernel import kernel
    from transfer_kernel.cli import RunOptions, execute_script, report
    xs = " ".join(f"x{i}" for i in range(80))
    ys = " ".join(f"y{i}" for i in range(80))
    text = (f"Parameter A A' : Set.\nAxiom emptyA : ∀ {xs} : A, False.\n"
            "Parameter f : A → A'.\nParameter g : A' → A.\n"
            "Axiom surjf : ∀ x' : A', f (g x') = x'.\n"
            "Declare Surjection f by (g, surjf).\n"
            f"Theorem t : ∀ {ys} : A', False.\n  exact modulo emptyA.\nQed.\n")
    options = RunOptions(trace=True, fmt="machine")
    state = execute_script(text, options)
    assert [r.status for r in state.results] == ["proved"]
    pushes = []
    push = kernel.LocalContext.push

    def counting_push(self, *args, **kwargs):
        pushes.append(1)
        return push(self, *args, **kwargs)

    monkeypatch.setattr(kernel.LocalContext, "push", counting_push)
    out = report(state, "machine", options)
    assert len(pushes) <= 100_000
    assert hashlib.sha1(out.encode()).hexdigest() \
        == "aa85c8a8c4d226c8609f45061cede8b5a4aa98b9"
