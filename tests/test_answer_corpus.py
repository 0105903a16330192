"""Re-solve the committed answer corpus and compare every stage exactly.

The corpus (tests/data/answer_corpus.json, written by
tests/data/make_answer_corpus.py) pins the stage-one cut, the response plan
and the re-attack cut at sizes the brute-force oracles do not reach.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"

_spec = importlib.util.spec_from_file_location(
    "make_answer_corpus", DATA / "make_answer_corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

ENTRIES = json.loads((DATA / "answer_corpus.json").read_text())


def test_corpus_covers_its_shapes():
    answers = [e["answers"] for e in ENTRIES]
    assert len(ENTRIES) == 200
    assert max(e["n"] for e in ENTRIES) == 30
    sizes = {a.get("components") for a in answers}
    assert set(range(8, 25)) <= sizes
    assert any(a.get("response", {}).get("error") for a in answers)
    assert any(a["attack"]["status"] == "infeasible" for a in answers)
    assert any(e["attackable"] for e in ENTRIES)
    assert any(0.0 in e["attack_cost"] for e in ENTRIES)
    budgets = {e["response_budget"] for e in ENTRIES}
    assert None in budgets and 0.0 in budgets and len(budgets) > 3


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_same_answers(entry):
    assert corpus.answers(entry) == entry["answers"]
