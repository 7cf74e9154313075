"""Mutated documents through the CLI, in-process.

Each case changes one node of a golden document: it deletes it, duplicates
it, or replaces it with a value of another JSON type.  The mutated document
then goes through ``torsion`` and ``gen-cert`` (complexes) or
``verify-cert`` (certificates).  Whatever the mutation, no exception may
escape ``main``, the status is one of the documented 0, 1 and 2, and a
status-1 run writes exactly one ``error:`` line to stderr.  The cases are
drawn from a fixed seed, and each command runs on a document of a few KB.

``verify-cert`` checks the recorded end on its document and reads it only
when that check fails; every certificate case must give the status, stdout
and stderr, byte for byte, of ``helpers.reference_verify_cert``, which
reads the whole certificate first, as the command did before.  So must
edits of a certificate's end that keep it a valid document.
"""
import copy
import json
import random
from pathlib import Path

import pytest

from torsionkit.cli import main

from helpers import reference_verify_cert, run_main

GOLDEN = Path(__file__).parent / "golden"

# each golden document with the commands it goes through ("{doc}" is its file)
DOCUMENTS = {
    "l72.json": (
        ["torsion", "{doc}", "--rep", "n=7;g0=1"],
        ["gen-cert", "{doc}", "--length", "4", "--seed", "1", "--out", "out.json"],
    ),
    "fp52.json": (
        ["torsion", "{doc}", "--rep", "n=5;g0=1,g1=2"],
        ["gen-cert", "{doc}", "--length", "4", "--seed", "1", "--out", "out.json"],
    ),
    "collapse12.json": (
        ["torsion", "{doc}", "--rep", "n=7;g0=1"],
        ["gen-cert", "{doc}", "--length", "3", "--seed", "4", "--out", "out.json"],
    ),
    "cert.json": (["verify-cert", "{doc}"],),
    "fpcert.json": (["verify-cert", "{doc}"],),
}
CASES = 300
SEED = 2026

# the value a retyped node takes, by the JSON type it had; none keeps the type
RETYPED = {
    int: ["7", 2.5, True, None, [], {}],
    float: [2, "2.5", None],
    bool: [1, "true", None],
    str: [7, None, [], {}],
    list: [{}, 0, "[]", None],
    dict: [[], 0, "{}", None],
    type(None): [0, "null", []],
}


def nodes(obj, path=()):
    """The path to every node below the root, in document order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from nodes(value, path + (key,))


def mutate(doc, rng: random.Random):
    """A copy of ``doc`` with one node deleted, duplicated or retyped, and
    a description of the change."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(nodes(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    how = rng.choice(["delete", "duplicate", "retype"])
    if how == "delete":
        del parent[key]
    elif how == "duplicate":
        if isinstance(parent, list):
            parent.insert(key, copy.deepcopy(value))
        else:  # a key cannot repeat: the value stands twice in a list
            parent[key] = [value, copy.deepcopy(value)]
    else:
        parent[key] = rng.choice(RETYPED[type(value)])
    return doc, f"{how} {list(path)}"


def fuzz_cases():
    rng = random.Random(SEED)
    docs = {name: json.loads((GOLDEN / name).read_text(encoding="utf-8")) for name in DOCUMENTS}
    names = sorted(docs)
    for _ in range(CASES):
        name = rng.choice(names)
        doc, change = mutate(docs[name], rng)
        yield name, doc, change


def test_mutated_documents_exit_with_a_documented_status(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    statuses = set()
    for k, (name, doc, change) in enumerate(fuzz_cases()):
        path = tmp_path / f"case{k}-{name}"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for template in DOCUMENTS[name]:
            argv = [path.name if a == "{doc}" else a for a in template]
            case = f"{name}: {change}: {' '.join(argv)}"
            try:
                status = main(argv)
            except (Exception, SystemExit) as exc:  # main returns its status, it never exits
                pytest.fail(f"{case}: {type(exc).__name__} escaped main: {exc}")
            captured = capsys.readouterr()
            err = captured.err
            if argv[0] == "verify-cert":
                assert (status, captured.out, err) == run_main(argv, reference_verify_cert), case
            assert status in (0, 1, 2), case
            if status == 1:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), f"{case}: {err!r}"
            statuses.add(status)
    assert statuses == {0, 1, 2}  # the mutations reach every documented outcome


def _entry(doc, at):
    """The term list of the end's entry at (degree key, row, column)."""
    key, row, col = at
    return doc["end"]["differentials"][key][row][col]


def _edit_coefficient(doc, at):
    _entry(doc, at)[0][0] += 1


def _reorder_terms(doc, at):
    _entry(doc, at).reverse()


def _split_term(doc, at):
    terms = _entry(doc, at)
    c, word = terms[0]
    terms[0:1] = [[c + 3, word], [-3, copy.deepcopy(word)]]


def _add_zero_term(doc, at):
    terms = _entry(doc, at)
    terms.append([0, copy.deepcopy(terms[0][1])])


def _delete_labels(doc, at):
    del doc["end"]["labels"]


# each valid edit of a recorded end, with the status it gives
END_EDITS = {
    "coefficient changed": (_edit_coefficient, 2),
    "terms reordered": (_reorder_terms, 0),
    "term split in two with its word": (_split_term, 0),
    "zero-coefficient term added": (_add_zero_term, 0),
    "labels deleted": (_delete_labels, 2),
}


def _entries_with_terms(doc, least):
    """(degree key, row, column) of every end entry with at least ``least`` terms."""
    return [
        (key, r, c)
        for key, m in sorted(doc["end"]["differentials"].items())
        for r, row in enumerate(m)
        for c, terms in enumerate(row)
        if len(terms) >= least
    ]


@pytest.mark.parametrize("name", ["cert.json", "fpcert.json"])
@pytest.mark.parametrize("edit", list(END_EDITS))
def test_valid_end_edits_match_the_whole_read(tmp_path, name, edit):
    """A recorded end spelled another way, or changed, gives the report of
    the flow that reads the whole certificate, in text and in JSON."""
    apply, expected = END_EDITS[edit]
    golden = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    for at in _entries_with_terms(golden, 2)[:3]:
        doc = copy.deepcopy(golden)
        apply(doc, at)
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["verify-cert", str(path)], ["--json", "verify-cert", str(path)]):
            got = run_main(argv)
            assert got[0] == expected, (edit, at, got)
            assert got == run_main(argv, reference_verify_cert), (edit, at)
