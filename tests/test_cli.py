"""End-to-end script execution, reporting and exit codes."""

import json
import os
import random
import re
import subprocess
import sys

import pytest

from transfer_kernel.cli import (
    EXIT_INTERNAL, EXIT_OK, EXIT_PROOF_FAILURE, EXIT_SCRIPT_ERROR,
    EXIT_UNWRITTEN, RunOptions, execute_script, exit_code, report, run_script,
)
from transfer_kernel.kernel import LocalContext, check_proof
from transfer_kernel.surface import parse_and_elaborate, tokenize

from conftest import GOLDEN, SCRIPTS, script_text


def run_text(text: str, **kwargs) -> tuple[int, object]:
    state = execute_script(text, RunOptions(**kwargs))
    return exit_code(state), state


@pytest.mark.parametrize("name", ["example1.tk", "example2.tk",
                                  "v2_letrans.tk", "zn_transfer.tk",
                                  "iszero.tk", "agreement.tk"])
def test_corpus_scripts_prove_their_theorems(name):
    code, state = run_text(script_text(name))
    assert code == EXIT_OK, (state.errors, state.results)
    assert all(r.status == "proved" for r in state.results)


def test_run_script_path_interface(tmp_path, capsys):
    code = run_script(str(SCRIPTS / "example1.tk"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "emptyA' : proved" in out


def test_missing_file_is_script_error(capsys):
    assert run_script("does_not_exist.tk") == EXIT_SCRIPT_ERROR


def test_script_that_is_not_utf8_is_script_error(tmp_path, capsys):
    from transfer_kernel.cli import main
    path = tmp_path / "latin1.tk"
    path.write_bytes(b"Parameter A : Set.\n(* caf\xe9 *)\n")
    assert main(["run", str(path)]) == EXIT_SCRIPT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: not valid UTF-8 (byte 0xe9 at "
                            "offset 25: invalid continuation byte)\n")


def test_script_with_byte_order_mark_runs(tmp_path, capsys):
    from transfer_kernel.cli import main
    path = tmp_path / "bom.tk"
    path.write_bytes(b"\xef\xbb\xbf" + (SCRIPTS / "example1.tk").read_bytes())
    assert main(["run", str(path)]) == EXIT_OK
    assert "emptyA' : proved" in capsys.readouterr().out


def test_failed_transfer_gives_exit_one():
    code, state = run_text(script_text("zn_missing.tk"))
    assert code == EXIT_PROOF_FAILURE
    (result,) = state.results
    assert result.status == "failed"
    assert result.failure.kind == "no-table-entry"
    assert "nonneg" in result.failure.message


V1_SCRIPT = """\
Parameter A A' : Set.
Parameter c : A.
Parameter b : A'.
Parameter f f2 : A → A'.
Parameter h : A → A → A'.
Parameter R1 : A → Prop.
Parameter R1' : A' → Prop.
Parameter R : A → A → Prop.
Parameter R' : A' → A' → Prop.
Parameter Q : (A → Prop) → Prop.
"""


@pytest.mark.parametrize("goal,kind,message", [
    ("R1' b", "argument-mismatch", "argument 1: b is not f c"),
    ("R' b b", "shape-mismatch", "atoms R1 c and R' b b have arities 1 and 2"),
])
def test_v1_failure_kinds_name_the_mismatch(goal, kind, message):
    code, state = run_text(V1_SCRIPT + (
        "Axiom up : ∀ x : A, R1 x → R1' (f x).\nDeclare Transfer up.\n"
        f"Axiom r : R1 c.\nTheorem t : {goal}. exact modulo r. Qed.\n"))
    assert code == EXIT_PROOF_FAILURE
    (result,) = state.results
    assert (result.failure.kind, result.failure.message) == (kind, message)


@pytest.mark.parametrize("statement,message", [
    ("∀ x : A, R1' (f x)",
     "transfer lemma must quantify over at least one variable and one "
     "hypothesis"),
    ("∀ (x : A) (y : A'), R1 x → R1' (f x)",
     "binder 2 has type A', expected A"),
    ("∀ x y : A, R1 x → R' (f x) (f y)",
     "hypothesis applies a relation to 1 arguments, expected 2"),
    ("∀ p : A → Prop, p c → False",
     "source relation may not mention the quantified variables"),
    ("∀ x y : A, R x x → R' (f x) (f y)",
     "hypothesis argument 2 is not the quantified variable x2"),
    ("∀ x : A, R1 x → R' (f x) (f x)",
     "conclusion applies a relation to 2 arguments, expected 1"),
    ("∀ p : A → Prop, Q p → p c",
     "target relation may not mention the quantified variables"),
    ("∀ x : A, R1 x → R1' b",
     "conclusion argument 1 is not the transfer function applied to x1"),
    ("∀ x y : A, R x y → R' (h x x) (h x y)",
     "transfer function may not mention the quantified variables"),
    ("∀ x y : A, R x y → R' (f x) (f2 y)",
     "conclusion argument 2 uses a different transfer function than "
     "argument 1"),
])
def test_declare_transfer_shape_errors_give_exit_two(statement, message):
    code, state = run_text(V1_SCRIPT + f"Axiom bad : {statement}.\n"
                           "Declare Transfer bad.\n")
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == [f"line 12: {message}"]


def test_elaboration_unifies_function_types_structurally():
    text = ("Parameter nat : Set.\nParameter H : (nat → nat) → Prop.\n"
            "Axiom a : H ({}).\n")
    code, state = run_text(text.format("fun x => x"))
    assert code == EXIT_OK and state.errors == []
    code, state = run_text(text.format("fun (x : Prop) => x"))
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == ["line 3: 3:14: type mismatch: Prop vs nat"]


def test_a_definitions_parameters_give_its_errors_a_column():
    # The parameters are a `fun` at the first one, so the error has a
    # column, as it has when the definition is spelled with `fun`.
    message = "cannot infer an implicit argument or binder type"
    code, state = run_text("Definition d x := x.\n")
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == [f"line 1: 1:14: {message}"]
    code, state = run_text("Definition d := fun x => x.\n")
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == [f"line 1: 1:17: {message}"]


MISMATCH_PREFIX = """\
Parameter N : Set.
Parameter nat : Set.
Parameter f : N → N.
Parameter P : nat → Prop.
Parameter B : nat → Set.
Axiom h : ∀ x : N, f x = x.
"""


@pytest.mark.parametrize("command,message", [
    ("Axiom bad : P h.", "7:15: type mismatch: ∀ x : N, f x = x vs nat"),
    ("Parameter g : ∀ n : nat, B n.\nAxiom bad : ∀ n : nat, P (g n).",
     "8:27: type mismatch: B n vs nat"),
    ("Parameter H : (∀ n : nat, B n → nat) → Prop.\n"
     "Axiom bad : H (fun (n : nat) (b : B n) => b).",
     "8:16: type mismatch: B n vs nat"),
])
def test_elaboration_type_mismatch_prints_concrete_syntax(command, message):
    code, state = run_text(MISMATCH_PREFIX + command + "\n")
    assert code == EXIT_SCRIPT_ERROR
    line = MISMATCH_PREFIX.count("\n") + command.count("\n") + 1
    assert state.errors == [f"line {line}: {message}"]
    assert "Var(" not in state.errors[0]


def test_elaboration_unifies_applications_argument_by_argument():
    text = ("Parameter nat : Set.\nParameter zero : nat.\n"
            "Parameter one : nat.\nParameter B : nat → Set.\n"
            "Parameter useB : B zero → Prop.\n"
            "Parameter mkB : ∀ n : nat, B n.\n"
            "Definition id (x : nat) := x.\n")
    code, state = run_text(text + "Axiom ok : useB (mkB (id zero)).\n")
    assert code == EXIT_OK and state.errors == []
    code, state = run_text(text + "Axiom bad : useB (mkB one).\n")
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == ["line 8: 8:19: type mismatch: one vs zero"]


def test_an_unsolved_metavariable_prints_as_its_number():
    # The binder type of `fun x => x` is metavariable ?1, never solved.
    code, state = run_text("Axiom t : (fun x => x) = Prop.\n")
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == ["line 1: 1:24: type mismatch: ?1 → ?1 vs Type"]


def test_declaring_a_dependent_relation_is_a_script_error():
    text = ("Parameter A : Set.\nParameter B : A → Set.\n"
            "Parameter R : ∀ (x : A) (y : B x), Prop.\n"
            "Parameter a : A.\nParameter b : B a.\nAxiom r : R a b.\n"
            "Declare Relation r.\n")
    code, state = run_text(text)
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == ["line 7: R is not a binary relation"]
    # the relation is printed in concrete syntax, its bound names kept
    text = ("Parameter nat : Set.\nParameter z : nat.\n"
            "Parameter P : nat → Prop.\nParameter pz : P z.\n"
            "Parameter Q : (nat → nat) → ∀ n : nat, P n → Prop.\n"
            "Axiom foo : Q (fun x : nat => x) z pz.\nDeclare Relation foo.\n")
    code, state = run_text(text)
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == [
        "line 7: Q (fun x : nat => x) is not a binary relation"]


def test_parse_error_gives_exit_two():
    code, state = run_text("Parameter A : Set")  # missing final dot
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors


def test_semantic_error_gives_exit_two():
    code, state = run_text("Theorem t : False. exact modulo ghost. Qed.")
    assert code == EXIT_SCRIPT_ERROR
    assert any("ghost" in e for e in state.errors)


def test_a_sort_the_kernel_would_reject_is_a_positioned_elaboration_error():
    code, state = run_text("Parameter p : Prop → Prop.\n"
                           "Definition d := p Prop.\n")
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == ["line 2: 2:19: type mismatch: Type vs Prop"]


def test_duplicate_declaration_gives_exit_two():
    text = script_text("example1.tk") + "\nDeclare Surjection f by (g, surjf).\n"
    code, state = run_text(text)
    assert code == EXIT_SCRIPT_ERROR
    assert any("already declared" in e for e in state.errors)


OUTCOME_PREFIX = """\
Parameter A : Set.
Parameter c : A.
Parameter P : A → Prop.
Axiom src : ∀ x : A, P x.
Definition d := c.
"""


@pytest.mark.parametrize("keep_going", [False, True])
@pytest.mark.parametrize("command,message", [
    ("Axiom bad : P ghost.", "6:15: unknown identifier 'ghost'"),
    ("Definition d := c.", "'d' is already declared"),
    ("Declare Surjection c by (c, src).",
     "surjection function c is not a function"),
    ("Theorem t : A. exact modulo src. Qed.",
     "statement of 't' is not a proposition"),
    ("Theorem t : ∀ x : A, P x. exact modulo nope. Qed.",
     "unknown source theorem 'nope'"),
    ("Theorem src : ∀ x : A, P x. exact modulo src. Qed.",
     "'src' is already declared"),
])
def test_each_script_error_family_has_one_outcome(command, message,
                                                  keep_going):
    text = (OUTCOME_PREFIX + command + "\n"
            "Theorem later : ∀ x : A, P x. exact modulo src. Qed.\n")
    code, state = run_text(text, keep_going=keep_going)
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == [f"line 6: {message}"]
    assert state.internal_errors == []
    assert [r.status for r in state.results] == (
        ["proved"] if keep_going else [])


def test_deeply_nested_input_is_a_script_error(tmp_path, capsys):
    text = "Parameter P : Prop.\nAxiom deep : " + "P -> " * 2000 + "P.\n"
    code, state = run_text(text)
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == ["2:1: input nested too deeply"]
    path = tmp_path / "deep.tk"
    path.write_text(text, encoding="utf-8")
    from transfer_kernel.cli import main
    assert main(["run", str(path)]) == EXIT_SCRIPT_ERROR
    assert "error: 2:1: input nested too deeply" in capsys.readouterr().out


# A command starts a line with its keyword; theorems span several lines.
COMMAND_START = re.compile(
    r"^(?=(?:Parameter|Axiom|Definition|Declare|Theorem)\b)", re.MULTILINE)
NAME = re.compile(r"[^\W\d][\w']*(?:\.[^\W\d][\w']*)*")


def mutate_script(rng: random.Random, text: str, names: list[str]) -> str:
    """Drop, duplicate or swap one command, or replace one name in it with
    another name from the corpus."""
    commands = COMMAND_START.split(text)
    i, j = rng.randrange(len(commands)), rng.randrange(len(commands))
    match rng.randrange(4):
        case 0:
            del commands[i]
        case 1:
            commands.insert(i, commands[i])
        case 2:
            commands[i], commands[j] = commands[j], commands[i]
        case 3:
            site = rng.choice(list(NAME.finditer(commands[i])))
            commands[i] = (commands[i][:site.start()] + rng.choice(names)
                           + commands[i][site.end():])
    return "".join(commands)


def test_execute_script_never_raises_on_mutated_corpus_scripts():
    texts = [script_text(path.name) for path in sorted(SCRIPTS.glob("*.tk"))]
    names = sorted({tok.value for text in texts for tok in tokenize(text)
                    if tok.kind == "ident"})
    rng = random.Random(15)
    codes = []
    for _ in range(300):
        text = mutate_script(rng, rng.choice(texts), names)
        options = RunOptions(engine=rng.choice([None, "v1", "v2"]),
                             keep_going=True, trace=True, fmt="machine")
        state = execute_script(text, options)
        report(state, options.fmt, options)
        codes.append(exit_code(state))
    assert set(codes) <= {EXIT_OK, EXIT_PROOF_FAILURE, EXIT_SCRIPT_ERROR,
                          EXIT_INTERNAL}
    # the mutations reach proofs and failures, not only script errors
    assert {EXIT_OK, EXIT_PROOF_FAILURE, EXIT_SCRIPT_ERROR} <= set(codes)


def test_nesting_that_parses_but_overflows_later_is_a_script_error():
    # The parser spends one frame per binder; elaboration and checking
    # spend more, so this depth parses and then overflows.
    depth = sys.getrecursionlimit() * 3 // 5
    text = ("Parameter P : Prop.\nAxiom deep : "
            + "forall x : Prop, " * depth + "P.\nAxiom after : P.\n")
    code, state = run_text(text)
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == ["line 2: input nested too deeply"]
    assert "after" not in state.env
    _, state = run_text(text, keep_going=True)
    assert state.errors == ["line 2: input nested too deeply"]
    assert "after" in state.env


def test_seconds_covers_recheck_and_admission(monkeypatch):
    import time
    from transfer_kernel.kernel import GlobalEnv
    admit = GlobalEnv.add_definition

    def slow_admit(self, *args, **kwargs):
        time.sleep(0.05)
        return admit(self, *args, **kwargs)

    monkeypatch.setattr(GlobalEnv, "add_definition", slow_admit)
    _, state = run_text(script_text("example1.tk"))
    assert state.results[0].status == "proved"
    assert state.results[0].seconds >= 0.05


def test_keep_going_continues_past_failures():
    text = script_text("zn_missing.tk") + """
Axiom extra : ∀ a b c : int, int.le a b → int.le b c → int.le a c.
Theorem le_trans_again : ∀ n m p : nonneg, nonneg.le n m → nonneg.le m p → nonneg.le n p.
  exact modulo extra.
Qed.
"""
    code, state = run_text(text, keep_going=True)
    assert code == EXIT_PROOF_FAILURE  # the first theorem still failed
    assert [r.status for r in state.results] == ["failed", "proved"]
    # without the flag, execution stops at the first failure
    code2, state2 = run_text(text)
    assert len(state2.results) == 1


def test_a_script_does_not_rescan_its_results_after_each_command(
        monkeypatch):
    """Without `--keep-going`, the script stops on the outcome of the
    command it just ran: nothing failed before it.  Reading the exit status
    of every result after every command would make a script's cost
    quadratic in its length."""
    import transfer_kernel.cli as cli
    text = OUTCOME_PREFIX + "".join(
        f"Theorem t{n} : ∀ x : A, P x. exact modulo src. Qed.\n"
        for n in range(40))
    calls = []
    original = cli.exit_code

    def counting(state):
        calls.append(state)
        return original(state)

    monkeypatch.setattr(cli, "exit_code", counting)
    state = execute_script(text)
    assert calls == []
    assert [r.status for r in state.results] == ["proved"] * 40
    assert original(state) == EXIT_OK


def chain_script(k: int, goal: str) -> str:
    """One flat line per definition, `c0 x := x` and `c_n x := g (c_{n-1}
    x)`, then `exact modulo` from `∀ x, P (c_k x)` to `∀ x, P (goal)`."""
    lines = ["Parameter A : Set.", "Parameter g : A → A.",
             "Parameter P : A → Prop.", "Definition i (x : A) := x.",
             "Definition c0 (x : A) := x."]
    lines += [f"Definition c{n} (x : A) := g (c{n - 1} x)."
              for n in range(1, k + 1)]
    lines += [f"Axiom h : ∀ x : A, P (c{k} x).",
              f"Theorem t : ∀ x : A, P ({goal}).", "  exact modulo h.", "Qed."]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("goal", ["c1500 (i x)", "c1499 (g x)"])
def test_a_chain_of_flat_definitions_is_not_nesting(goal):
    """No line nests, but the check compares terms that unfold 1,500 deep,
    more than the interpreter's default stack holds frames: `c_k (i x)`
    against `c_k x`, and `c_{k-1} (g x)` against `c_k x`, whose conversion
    is deep on any strategy."""
    code, state = run_text(chain_script(1500, goal))
    assert (code, state.errors) == (EXIT_OK, [])
    assert [r.status for r in state.results] == ["proved"]


def test_no_prefill_breaks_the_v2_derivation():
    code, state = run_text(script_text("v2_letrans.tk"), prefill=False)
    assert code == EXIT_PROOF_FAILURE
    (result,) = state.results
    assert result.failure is not None


def test_engine_override_runs_both_engines():
    for engine in ("v1", "v2"):
        code, state = run_text(script_text("agreement.tk"), engine=engine)
        assert code == EXIT_OK
        assert state.results[0].engine == engine


def test_admitted_theorems_are_reusable():
    text = script_text("example1.tk") + """
Theorem emptyA'_again : ∀ y' : A', False.
  exact modulo emptyA'.
Qed.
"""
    code, state = run_text(text)
    assert code == EXIT_OK
    assert [r.status for r in state.results] == ["proved", "proved"]
    # the second proof is the admitted constant itself (identity case)
    from transfer_kernel.kernel import Const
    assert state.results[1].proof == Const("emptyA'")


def test_human_report_lines():
    _, state = run_text(script_text("example1.tk"))
    text = report(state, "human", RunOptions(print_proofs=True))
    assert "emptyA' : proved" in text
    assert "proof: fun x' : A' =>" in text
    assert "1/1 theorems proved" in text


def test_failure_report_names_deepest_judgment():
    _, state = run_text(script_text("v2_letrans.tk"), prefill=False)
    text = report(state, "human")
    assert "failed" in text
    assert "cannot relate" in text or "no-table-entry" in text


def test_machine_report_is_deterministic_and_checkable():
    outputs = []
    for _ in range(2):
        _, state = run_text(script_text("v2_letrans.tk"), trace=True)
        outputs.append(report(state, "machine"))
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    (thm,) = doc["theorems"]
    assert thm["theorem"] == "N.le_trans"
    assert thm["status"] == "proved"
    assert thm["engine"] == "v2"
    assert thm["trace"]
    # the printed proof re-parses and re-checks against the goal
    _, state = run_text(script_text("v2_letrans.tk"), trace=True)
    env = state.env
    proof = parse_and_elaborate(env, thm["proof"])
    goal = parse_and_elaborate(
        env, "∀ x' y' z' : N, N.le x' y' → N.le y' z' → N.le x' z'")
    assert check_proof(env, LocalContext(), proof, goal)


@pytest.mark.parametrize("name,goal_text", [
    ("example2.tk",
     "∀ x' y' z' : N, N.le x' y' → N.le y' z' → N.le x' z'"),
    ("iszero.tk", "∀ x' : N, P' x' → iszero_N x' = true"),
    ("zn_transfer.tk",
     "∀ n m p : nonneg, nonneg.le n m → nonneg.le m p → nonneg.le n p"),
])
def test_machine_proofs_from_both_engines_round_trip(name, goal_text):
    _, state = run_text(script_text(name))
    doc = json.loads(report(state, "machine"))
    (thm,) = doc["theorems"]
    proof = parse_and_elaborate(state.env, thm["proof"])
    goal = parse_and_elaborate(state.env, goal_text)
    assert check_proof(state.env, LocalContext(), proof, goal)


def test_machine_report_contains_failures():
    _, state = run_text(script_text("zn_missing.tk"))
    doc = json.loads(report(state, "machine"))
    (thm,) = doc["theorems"]
    assert thm["status"] == "failed"
    assert thm["failure"]["kind"] == "no-table-entry"
    assert thm["proof"] is None


def test_internal_error_exit_code(monkeypatch):
    # simulate an engine bug: each engine emits an ill-typed proof (its real
    # proof applied to a proposition), which the admission check rejects
    import transfer_kernel.cli as cli
    from transfer_kernel.kernel import PROP, App
    v1, v2 = cli.exact_modulo, cli.transfer_modulo

    def bad_v2(*args, **kwargs):
        proof, trace = v2(*args, **kwargs)
        return App(proof, PROP), trace

    monkeypatch.setattr(cli, "exact_modulo",
                        lambda *a, **k: App(v1(*a, **k), PROP))
    monkeypatch.setattr(cli, "transfer_modulo", bad_v2)
    for engine, script in (("v1", "example1.tk"), ("v2", "v2_letrans.tk")):
        code, state = run_text(script_text(script))
        assert code == EXIT_INTERNAL, engine
        assert state.internal_errors, engine
        assert f"engine {engine} produced a rejected proof" \
            in state.internal_errors[0]
        # keep_going does not continue past an internal error: the
        # script error after it is never reached
        code, state = run_text(script_text(script) + "\nAxiom after : ghost.\n",
                               keep_going=True)
        assert code == EXIT_INTERNAL, engine
        assert len(state.internal_errors) == 1 and state.errors == [], engine
    # a script error before the rejected proof does not hide it
    code, state = run_text("Axiom before : ghost.\n" + script_text("example1.tk"),
                           keep_going=True)
    assert code == EXIT_INTERNAL
    assert len(state.errors) == 1 and len(state.internal_errors) == 1


@pytest.mark.parametrize("name", ["example2.tk", "v2_letrans.tk"])
def test_each_admitted_proof_is_checked_once(name, kernel_checks):
    code, state = run_text(script_text(name))
    assert code == EXIT_OK
    (result,) = state.results
    assert [entry for entry, proof in kernel_checks
            if proof is result.proof] == ["add_definition"]


def machine_trace(text: str) -> list[str]:
    options = RunOptions(trace=True, fmt="machine")
    state = execute_script(text, options)
    (thm,) = json.loads(report(state, "machine", options))["theorems"]
    return thm["trace"]


def test_trace_is_printed_in_the_engine_environment():
    # a later declaration of `z` must not rename the trace's binder `z`
    golden = (GOLDEN / "v2_letrans_trace.txt").read_text(
        encoding="utf-8").splitlines()
    text = script_text("v2_letrans.tk") + "Parameter z : Prop.\n"
    assert machine_trace(text) == golden


def test_trace_is_printed_only_when_a_report_reads_it(printer_calls):
    state = execute_script(script_text("v2_letrans.tk"))
    report(state, "human")
    assert printer_calls == []
    golden = (GOLDEN / "v2_letrans_trace.txt").read_text(
        encoding="utf-8").splitlines()
    assert machine_trace(script_text("v2_letrans.tk")) == golden
    assert printer_calls


def test_theorem_named_like_a_generated_encoding_name(tmp_path, capsys):
    # the on-demand encoding of N.of_nat takes the name N.of_nat_rel first
    text = script_text("v2_letrans.tk").replace("Theorem N.le_trans",
                                                "Theorem N.of_nat_rel")
    code, state = run_text(text)
    assert code == EXIT_SCRIPT_ERROR
    assert state.errors == ["line 15: 'N.of_nat_rel' is already declared"]
    path = tmp_path / "clash.tk"
    path.write_text(text, encoding="utf-8")
    from transfer_kernel.cli import main
    assert main(["run", str(path)]) == EXIT_SCRIPT_ERROR
    assert "error: line 15: 'N.of_nat_rel' is already declared" \
        in capsys.readouterr().out


def test_encoding_takes_a_fresh_name_past_a_declared_one():
    # with N.of_nat_rel taken, the encoding of N.of_nat is N.of_nat_rel1
    text = script_text("v2_letrans.tk").replace(
        "Declare Surjection", "Parameter N.of_nat_rel : Prop.\n"
                              "Declare Surjection")
    code, state = run_text(text, trace=True)
    assert code == EXIT_OK, (state.errors, state.results)
    assert [r.status for r in state.results] == ["proved"]
    assert "N.of_nat_rel1_surj" in state.env
    assert "    Table all nat ⇝[(N.of_nat_rel1 ##> impl) ##> impl] all N" \
        in state.results[0].trace_lines


REFL_SCRIPT = """\
Parameter nat N : Set.
Parameter N.of_nat : nat → N.
Parameter N.to_nat : N → nat.
Axiom of_to : ∀ x' : N, N.of_nat (N.to_nat x') = x'.
Declare Surjection N.of_nat by (N.to_nat, of_to).
Definition natN x x' := N.of_nat x = x'.
Axiom refl : ∀ x : nat, x = x.
Theorem N.refl : ∀ x : N, x = x. transfer modulo refl. Qed.
"""


def test_a_user_entry_for_all_keeps_the_rest_of_the_encoding():
    # A user entry at (all nat, all N) takes priority over the generated
    # one, and the encoding still adds its (all N, all nat) and
    # (eq nat, eq N) entries, which the transfer of `=` needs.
    code, state = run_text(REFL_SCRIPT)
    assert code == EXIT_OK, (state.errors, state.results)
    text = REFL_SCRIPT.replace("Axiom refl", (
        "Axiom all_rel : ((natN ##> impl) ##> impl) (all nat) (all N).\n"
        "Declare Relation all_rel.\nAxiom refl"))
    code, state = run_text(text)
    assert code == EXIT_OK, (state.errors, state.results)
    assert "N.of_nat_rel_tot" in state.env and "N.of_nat_rel_func" in state.env
    assert "N.of_nat_rel_surj" in state.env


@pytest.fixture
def normalize_calls(monkeypatch):
    """Count the `normalize` calls made from now on, in every package
    module that binds it."""
    from transfer_kernel import kernel
    calls = []
    original = kernel.normalize

    def normalize(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "transfer_kernel" \
                and vars(module).get("normalize") is original:
            monkeypatch.setattr(module, "normalize", normalize)
    return calls


def test_declaring_a_relation_between_huge_normal_forms(normalize_calls):
    # The normal form of `d30 x` mentions x 2^(2^30) times; the
    # declaration reads only weak head normal forms.
    lines = ["Parameter A : Set.", "Parameter f : A → A → A.",
             "Definition d0 (x : A) := f x x."]
    lines += [f"Definition d{n} (x : A) := d{n - 1} (d{n - 1} x)."
              for n in range(1, 31)]
    lines += ["Parameter R : (A → A) → (A → A) → Prop.",
              "Axiom r : R d30 d30.", "Declare Relation r.",
              "Declare Relation r."]
    code, state = run_text("\n".join(lines[:-1]))
    assert code == EXIT_OK, state.errors
    assert not normalize_calls
    code, state = run_text("\n".join(lines))
    assert state.errors == [
        "line 37: a relation entry for (d30, d30) is already declared"]
    assert not normalize_calls


def test_declaring_a_surjection_between_huge_normal_forms(normalize_calls):
    # T24 has a normal form with 2^24 occurrences of A.
    lines = ["Parameter A : Set.", "Definition T0 := A."]
    lines += [f"Definition T{n} := T{n - 1} → T{n - 1}." for n in range(1, 25)]
    lines += ["Parameter f g : T24 → T24.",
              "Axiom s : ∀ x : T24, f (g x) = x.",
              "Declare Surjection f by (g, s)."]
    code, state = run_text("\n".join(lines))
    assert code == EXIT_OK, state.errors
    assert len(state.tables.surjections) == 1
    assert not normalize_calls


def test_report_that_nests_too_deeply_is_a_script_error(monkeypatch, capsys):
    # stands in for printing a proof too deep for the recursion limit
    import transfer_kernel.cli as cli

    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "print_term", too_deep)
    code = run_script(str(SCRIPTS / "example1.tk"), RunOptions(fmt="machine"))
    assert code == EXIT_SCRIPT_ERROR
    # stdout, where the machine report goes, gets no line that is not JSON
    assert capsys.readouterr() == ("", "error: input nested too deeply\n")


def test_cli_main_entry(tmp_path, capsys):
    from transfer_kernel.cli import main
    code = main(["run", str(SCRIPTS / "example2.tk"), "--trace",
                 "--print-proofs"])
    out = capsys.readouterr().out
    assert code == 0
    assert "N.le_trans : proved" in out
    assert "product-surjection" in out


def _python_args(*args: str) -> dict:
    """Popen arguments for a fresh interpreter run from the repository
    root, importing the package from its `src/`."""
    root = SCRIPTS.parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return dict(args=[sys.executable, *args], cwd=root,
                env=dict(os.environ, PYTHONPATH=path), text=True,
                encoding="utf-8")


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(**_python_args(*args), capture_output=True,
                          timeout=60)


TRACED_REPORT = ("-m", "transfer_kernel", "run", "tests/scripts/v2_letrans.tk",
                 "--trace", "--format", "machine")


def _one_unwritten_error(stderr: str) -> None:
    lines = stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in stderr, stderr
    assert lines[0].startswith("error: cannot write the report: "), stderr


def test_a_report_that_cannot_be_written_is_exit_four(capsys):
    class Broken:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    code = run_script(str(SCRIPTS / "example1.tk"), out=Broken())
    assert code == EXIT_UNWRITTEN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write the report: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_device_is_exit_four_without_a_traceback():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(**_python_args(*TRACED_REPORT), stdout=full,
                              stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == EXIT_UNWRITTEN, proc.stderr
    _one_unwritten_error(proc.stderr)


def test_a_closed_pipe_is_exit_four_without_a_traceback():
    proc = subprocess.Popen(**_python_args(*TRACED_REPORT),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the run has written anything
    try:
        stderr = proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
    assert proc.returncode == EXIT_UNWRITTEN, stderr
    _one_unwritten_error(stderr)


def test_python_dash_m_runs_the_cli_once():
    proc = _python("-m", "transfer_kernel", "run", "tests/scripts/example1.tk")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.endswith("1/1 theorems proved\n")


def test_importing_the_package_does_not_load_argparse():
    """Only `cli.main` parses a command line, so only it imports argparse."""
    proc = _python(
        "-c", "import sys, transfer_kernel; print('argparse' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_cli_machine_format(capsys):
    from transfer_kernel.cli import main
    code = main(["run", str(SCRIPTS / "example1.tk"), "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["theorems"][0]["theorem"] == "emptyA'"


def standard_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)


# Every key and value shape a machine report has, with no theorem, a failed
# one and errors, and strings that need escaping.
EDGE_DOCS = [
    {"errors": [], "internal_errors": [], "theorems": []},
    {"errors": ["line 1: 1:5: unknown character '²'", 'a "quoted" \\ name'],
     "internal_errors": ["line 9: engine v2 produced a rejected proof"],
     "theorems": []},
    {"errors": [], "internal_errors": [], "theorems": [
        {"engine": "v2", "failure": {"kind": "no-derivation",
                                     "message": "cannot relate ∀ x, é\n\t\x00\x1f "},
         "proof": None, "status": "failed", "theorem": "t'", "trace": []},
        {"engine": "v1", "failure": None, "proof": "fun x : A => x",
         "status": "proved", "theorem": "u", "trace": ["a", "", "b ⇝[R⁻¹] c"]},
    ]},
]


@pytest.mark.parametrize("doc", EDGE_DOCS, ids=["empty", "errors", "theorems"])
def test_machine_json_is_the_standard_encoders(doc):
    from transfer_kernel.cli import _json
    assert _json(doc, "\n") == standard_json(doc)


@pytest.mark.parametrize("name", sorted(p.name for p in SCRIPTS.glob("*.tk")))
def test_machine_report_is_the_standard_encoders(name):
    """Each corpus script's machine report, traced under each engine and
    after a script error, is what `json.dumps` gives for its document."""
    text = script_text(name)
    for script, engine in ((text, None), (text, "v1"), (text, "v2"),
                           (text + "\nAxiom bad : ghost.\n", None)):
        options = RunOptions(engine=engine, keep_going=True, trace=True,
                             fmt="machine")
        out = report(execute_script(script, options), "machine", options)
        assert out == standard_json(json.loads(out))
