"""Every output the program emits is byte-identical to the recorded one.

`output_digest.py` hashes the corpus reports under six option sets, the
never-raises test's 300 mutated scripts and 1,200 fuzz problems per engine;
see its docstring.  A change that alters an output on purpose updates its
`RECORDED` digest and says so.
"""

import pytest

import output_digest


@pytest.mark.parametrize("name, items", [
    ("corpus", output_digest.corpus_items),
    ("mutated", output_digest.mutated_items),
    ("fuzz", output_digest.fuzz_items),
], ids=["corpus", "mutated", "fuzz"])
def test_outputs_match_the_recorded_digest(name, items):
    assert output_digest.digest(items()) == output_digest.RECORDED[name]
