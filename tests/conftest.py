import random
import sys
from pathlib import Path

import pytest

from transfer_kernel import kernel, surface
from transfer_kernel.kernel import SET, GlobalEnv, prelude_env
from transfer_kernel.surface import parse_and_elaborate

SCRIPTS = Path(__file__).parent / "scripts"
GOLDEN = Path(__file__).parent / "golden"


def script_text(name: str) -> str:
    return (SCRIPTS / name).read_text(encoding="utf-8")


def declare(env: GlobalEnv, kind: str, name: str, text: str) -> GlobalEnv:
    term = parse_and_elaborate(env, text)
    if kind == "parameter":
        return env.add_parameter(name, term)
    if kind == "axiom":
        return env.add_axiom(name, term)
    raise ValueError(kind)


@pytest.fixture
def kernel_checks(monkeypatch):
    """Record every kernel check made from now on as (entry point, proof):
    `check_proof_report` (which `check_proof` calls) in every package
    module that binds it, and `GlobalEnv.add_definition`."""
    calls: list[tuple[str, object]] = []
    report = kernel.check_proof_report

    def check_proof_report(env, ctx, proof, statement):
        calls.append(("check_proof_report", proof))
        return report(env, ctx, proof, statement)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "transfer_kernel" \
                and vars(module).get("check_proof_report") is report:
            monkeypatch.setattr(module, "check_proof_report",
                                check_proof_report)
    admit = GlobalEnv.add_definition

    def add_definition(self, name, body, ty=None):
        calls.append(("add_definition", body))
        return admit(self, name, body, ty)

    monkeypatch.setattr(GlobalEnv, "add_definition", add_definition)
    return calls


@pytest.fixture
def printer_calls(monkeypatch):
    """Record the term of every `print_term` call made from now on, in
    every package module that binds it."""
    calls: list[object] = []
    original = surface.print_term

    def print_term(term, *args, **kwargs):
        calls.append(term)
        return original(term, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "transfer_kernel" \
                and vars(module).get("print_term") is original:
            monkeypatch.setattr(module, "print_term", print_term)
    return calls


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def nat_env():
    """Environment with the two representations of naturals and their order."""
    env = prelude_env()
    env = env.add_parameter("nat", SET).add_parameter("N", SET)
    env = declare(env, "parameter", "N.to_nat", "N → nat")
    env = declare(env, "parameter", "N.of_nat", "nat → N")
    env = declare(env, "parameter", "le", "nat → nat → Prop")
    env = declare(env, "parameter", "N.le", "N → N → Prop")
    env = declare(env, "axiom", "to_of", "∀ x : nat, N.to_nat (N.of_nat x) = x")
    env = declare(env, "axiom", "of_to", "∀ x' : N, N.of_nat (N.to_nat x') = x'")
    env = declare(env, "axiom", "le_down",
                  "∀ x' y' : N, N.le x' y' → le (N.to_nat x') (N.to_nat y')")
    env = declare(env, "axiom", "le_up",
                  "∀ x y : nat, le x y → N.le (N.of_nat x) (N.of_nat y)")
    env = declare(env, "axiom", "le_trans",
                  "∀ x y z : nat, le x y → le y z → le x z")
    return env


@pytest.fixture
def empty_set_env():
    """Environment for the empty-set transfer scenario."""
    env = prelude_env()
    env = env.add_parameter("A", SET).add_parameter("A'", SET)
    env = declare(env, "axiom", "emptyA", "∀ x : A, False")
    env = declare(env, "parameter", "f", "A → A'")
    env = declare(env, "parameter", "g", "A' → A")
    env = declare(env, "axiom", "surjf", "∀ x' : A', f (g x') = x'")
    return env
