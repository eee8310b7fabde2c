"""End-to-end CLI behavior: output bytes, determinism, and exit codes."""
import argparse
import io
import json
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discoquery import (EncodingMatrix, MatchingFunction,
                        build_verb_matrix, by_name,
                        load_embeddings, load_kg, parse_discourse,
                        resolution_scalar)
from discoquery import matrix as matrix_mod
from discoquery.cli import build_parser, format_scalar, main

from conftest import DATA, GOLDENS, cli_env

KG = str(DATA / "philosophers.kg")
ALICE = str(DATA / "alice.kg")


def run(capsys, argv, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ask_true_false(capsys):
    code, out, err = run(capsys, ["ask", "--kg", KG,
                                  "leibniz discovered calculus ."])
    assert (code, out, err) == (0, "1\n", "")
    code, out, _ = run(capsys, ["ask", "--kg", KG, "--semiring", "boolean",
                                "descartes discovered calculus ."])
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, ["ask", "--kg", KG, "--semiring", "boolean",
                                "newton discovered calculus ."])
    assert (code, out) == (0, "true\n")


def test_ask_stdin_and_json(capsys):
    code, out, _ = run(capsys, ["ask", "--kg", KG, "-"],
                       stdin="leibniz discovered calculus .")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, ["ask", "--kg", KG, "--json",
                                "leibniz discovered calculus ."])
    assert code == 0
    assert json.loads(out) == {"scalar": 1.0}


def test_ask_embeddings(capsys):
    code, out, _ = run(capsys, ["similarity", "--kg", str(DATA / "catdog.kg"),
                                "--embeddings", str(DATA / "catdog.tsv"),
                                "cat", "dog"])
    assert (code, out) == (0, "1.02\n")


def test_rank_output(capsys):
    code, out, _ = run(capsys, ["rank", "--kg", KG,
                                "who discovered calculus ?"])
    assert code == 0
    assert out == ("leibniz\t1\nnewton\t1\ndescartes\t0\nspinoza\t0\n"
                   "calculus\t0\n")


def test_rank_json(capsys):
    code, out, _ = run(capsys, ["rank", "--kg", KG, "--json",
                                "who does spinoza influenced ?"])
    assert code == 0
    ranking = json.loads(out)["ranking"]
    assert ranking[0] == {"entity": "leibniz", "score": 1.0}
    assert all(r["score"] == 0.0 for r in ranking[1:])


def test_resolve_coreferent(capsys):
    code, out, _ = run(capsys, [
        "resolve", "--kg", KG,
        "--constraints", str(DATA / "philosophers.constraints"),
        "spinoza influenced him . he discovered calculus ."])
    assert code == 0
    assert out == "0\tleibniz\nscore\t1\n"


def test_resolve_unconstrained(capsys):
    code, out, _ = run(capsys, [
        "resolve", "--kg", KG,
        "spinoza influenced him . he discovered calculus ."])
    assert code == 0
    assert out == "0\tleibniz\n1\tleibniz\nscore\t1\n"


def test_resolve_all(capsys):
    code, out, _ = run(capsys, [
        "resolve", "--kg", KG, "--all",
        "--constraints", str(DATA / "philosophers.constraints"),
        "spinoza influenced him . he discovered calculus ."])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert "leibniz\t1" in lines
    assert sum(line.endswith("\t1") for line in lines) == 1


def test_resolve_all_json(capsys):
    code, out, _ = run(capsys, [
        "resolve", "--kg", KG, "--all", "--json",
        "spinoza influenced him . he discovered calculus ."])
    assert code == 0
    matchings = json.loads(out)["matchings"]
    assert len(matchings) == 25
    winners = {tuple(m["assignment"]) for m in matchings if m["score"] == 1.0}
    assert winners == {("leibniz", "leibniz"), ("leibniz", "newton")}


def test_resolve_duplicate_candidates(capsys, tmp_path):
    """A candidate listed twice is enumerated twice by --all, as listed."""
    cons = tmp_path / "dup.constraints"
    cons.write_text("corefer: 0 1\ncandidates: 0 newton leibniz newton\n")
    argv = ["resolve", "--kg", KG, "--constraints", str(cons),
            "spinoza influenced him . he discovered calculus ."]
    code, out, _ = run(capsys, argv + ["--all"])
    assert (code, out) == (0, "leibniz\t1\nnewton\t0\nnewton\t0\n")
    code, out, _ = run(capsys, argv)
    assert (code, out) == (0, "0\tleibniz\nscore\t1\n")


def test_emit_sparql_goldens(capsys):
    cases = [
        (["emit-sparql", "--kg", KG, "leibniz discovered calculus ."],
         "ask.rq"),
        (["emit-sparql", "--kg", KG,
          "--constraints", str(DATA / "philosophers.constraints"),
          "spinoza influenced him . he discovered calculus ."],
         "select_coref.rq"),
        (["emit-sparql", "--kg", KG, "who influenced whom ?"],
         "select_two.rq"),
    ]
    for argv, golden in cases:
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDENS / golden).read_bytes()


def test_emit_sparql_custom_prefix(capsys):
    code, out, _ = run(capsys, ["emit-sparql", "--kg", KG,
                                "--prefix", "http://ex.org/p#",
                                "leibniz discovered calculus ."])
    assert code == 0
    assert out.startswith("PREFIX : <http://ex.org/p#>\n")


def test_deterministic_across_runs(capsys):
    argv = ["resolve", "--kg", KG, "--all",
            "spinoza influenced him . he discovered calculus ."]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_lemmas_flag(capsys, tmp_path):
    lem = tmp_path / "lemmas.tsv"
    lem.write_text("discover\tdiscovered\n")
    code, out, _ = run(capsys, ["ask", "--kg", KG, "--lemmas", str(lem),
                                "leibniz discover calculus ."])
    assert (code, out) == (0, "1\n")


def test_normalize_flag(capsys):
    code, out, _ = run(capsys, ["similarity", "--kg", str(DATA / "catdog.kg"),
                                "--embeddings", str(DATA / "catdog.tsv"),
                                "--normalize", "cat", "dog"])
    assert code == 0
    assert out != "1.02\n"


def test_exit_2_on_errors(capsys, tmp_path):
    cases = [
        ["ask", "--kg", KG, "zorro discovered calculus ."],
        ["ask", "--kg", str(tmp_path / "missing.kg"), "a b c ."],
        ["rank", "--kg", KG, "who influenced whom ?"],
        ["similarity", "--kg", KG, "descartes", "zorro"],
        ["resolve", "--kg", KG, "spinoza influenced him"],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:")
        assert out == ""


def test_exit_3_on_budget(capsys, tmp_path):
    big = tmp_path / "big.kg"
    names = [f"e{i}" for i in range(8300)]
    big.write_text("\n".join(names + [f"{names[0]}\tr\t{names[1]}"]) + "\n")
    code, out, err = run(capsys, ["ask", "--kg", str(big), "e0 r e1 ."])
    assert code == 3
    assert err.startswith("error:")


def test_exit_3_past_each_budget_check(capsys, tmp_path, monkeypatch):
    """The budget caps the identity encoding (|E|^2 = 25 scalars here), the
    verb build (|R| n^2 = 50), the resolution table and the --all
    enumeration; past it each exits 3 with one error line."""
    spinoza = "spinoza influenced him . he discovered calculus ."
    for budget, want in ((24, 3), (49, 3), (50, 0)):
        monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", budget)
        for cmd, text in (("ask", "leibniz discovered calculus ."),
                          ("resolve", spinoza)):
            code, out, err = run(capsys, [cmd, "--kg", KG, text])
            assert code == want, (budget, cmd)
            if want:
                assert not out and err.startswith("error:")
                assert err.count("\n") == 1
    # With n = 2 the verbs need 8 scalars; "he influenced him ." couples
    # two classes of 5 candidates: a 25-scalar table and 25 matchings.
    emb = tmp_path / "emb.tsv"
    emb.write_text("".join(f"{e}\t0.5,0.{i}\n" for i, e in enumerate(
        ["descartes", "spinoza", "leibniz", "calculus", "newton"])))
    for budget, want in ((24, 3), (25, 0)):
        monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", budget)
        for extra in ([], ["--all"]):
            code, _, err = run(capsys, [
                "resolve", "--kg", KG, "--embeddings", str(emb), *extra,
                "he influenced him ."])
            assert code == want, (budget, extra)


def test_similarity_builds_no_verb_matrix(capsys, tmp_path, monkeypatch):
    """similarity reads two encoding columns, so a budget below the verb
    build's |R| n^2 does not stop it; ask still builds the verbs and exits
    3.  Identity: |E|^2 = 25 fits in 49, |R| n^2 = 50 does not; embeddings
    of n = 2: |R| n^2 = 8 does not fit in 7."""
    emb = tmp_path / "emb.tsv"
    emb.write_text("".join(f"{e}\t0.5,0.{i}\n" for i, e in enumerate(
        ["descartes", "spinoza", "leibniz", "calculus", "newton"])))
    for budget, extra, want in ((49, [], "1\n"),
                                (7, ["--embeddings", str(emb)], "0.27\n")):
        monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", budget)
        argv = ["--kg", KG, *extra]
        code, out, err = run(capsys, ["similarity", *argv, "spinoza",
                                      "leibniz" if extra else "spinoza"])
        assert (code, out, err) == (0, want, "")
        code, out, err = run(capsys, ["ask", *argv,
                                      "leibniz discovered calculus ."])
        assert code == 3 and not out and err.startswith("error:")


@pytest.mark.parametrize("semiring", ["boolean", "real", "fuzzy"])
def test_resolve_checks_budget_before_contracting(capsys, tmp_path,
                                                  monkeypatch, semiring):
    """"he r0 him ." over 2,000 entities, against a budget of 65,536.  For
    reals it asks for a 4M-scalar table: resolve exits 3 with one error
    line.  Boolean and fuzzy resolve it by messages, which gather n |C| =
    4,000 scalars a class: resolve exits 0, and its score is the scalar of
    the matching it prints.  Either way the traced peak of the whole command
    stays within 6x the budget's float64 bytes (about 1-2 MB of it is
    loading), where contracting a table first would allocate it (10-32
    MB)."""
    ne, budget = 2000, 1 << 16
    rng = np.random.default_rng(43)
    kg, emb = tmp_path / "kg.tsv", tmp_path / "emb.tsv"
    kg.write_text("".join(f"e{i}\tr0\te{(7 * i + 1) % ne}\n"
                          for i in range(ne)))
    emb.write_text("".join(f"e{i}\t{a:.3f},{b:.3f}\n"
                           for i, (a, b) in enumerate(rng.random((ne, 2)))))
    monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", budget)
    text = "he r0 him ."
    tracemalloc.start()
    try:
        code, out, err = run(capsys, [
            "resolve", "--kg", str(kg), "--embeddings", str(emb),
            "--semiring", semiring, "--json", text])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * budget, peak
    if semiring == "real":
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1
        return
    assert (code, err) == (0, "")
    got = json.loads(out)
    sr = by_name(semiring)
    vocab, graph = load_kg(kg)
    enc = load_embeddings(emb, vocab, sr)
    mu = MatchingFunction(tuple(vocab.entity_index[c["entity"]]
                                for c in got["classes"]))
    want = resolution_scalar(parse_discourse(text, vocab), mu, enc,
                             build_verb_matrix(enc, graph))
    assert got["score"] == format_scalar(sr, want, json_mode=True)


@pytest.mark.parametrize("n", [32, 33])
@pytest.mark.parametrize("text, held", [("he r0 him .", True),
                                        ("he r0 e0 .", False)],
                         ids=["tree", "one-class"])
@pytest.mark.parametrize("semiring", ["boolean", "real", "fuzzy"])
def test_resolve_checks_message_budget_before_gathering(
        capsys, tmp_path, monkeypatch, semiring, text, held, n):
    """Against a budget of 65,536: "he r0 him ." with its first class held
    to two candidates and its second over all 2,000 entities, and the one
    class of "he r0 e0 ." over all 2,000.  Boolean and fuzzy resolve both
    by messages, checked at n |C|: 64,000 at n = 32, which answers, and
    66,000 at n = 33, which exits 3 with one error line before any columns
    are taken.  Reals take a 4,000-scalar table, or their one class at
    |C| = 2,000, and answer at both n.  Every contraction starts from
    ``EncodingMatrix.columns``, so the calls to it are recorded; a
    traced-peak bound would not show the order here, as loading the n = 33
    fuzzy embedding alone peaks past 6x the budget's float64 bytes."""
    ne, budget = 2000, 1 << 16
    want = 3 if n == 33 and semiring != "real" else 0
    rng = np.random.default_rng(53)
    kg, emb = tmp_path / "kg.tsv", tmp_path / "emb.tsv"
    cons = tmp_path / "held.constraints"
    kg.write_text("".join(f"e{i}\tr0\te{(7 * i + 1) % ne}\n"
                          for i in range(ne)))
    emb.write_text("".join(f"e{i}\t{','.join(f'{x:.2f}' for x in row)}\n"
                           for i, row in enumerate(rng.random((ne, n)))))
    cons.write_text("candidates: 0 e0 e1\n")
    taken = []
    columns = EncodingMatrix.columns

    def recorded(self, cands):
        taken.append(cands)
        return columns(self, cands)

    monkeypatch.setattr(EncodingMatrix, "columns", recorded)
    monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", budget)
    code, out, err = run(capsys, [
        "resolve", "--kg", str(kg), "--embeddings", str(emb), "--semiring",
        semiring, *(["--constraints", str(cons)] if held else []), text])
    assert code == want, err
    if want:
        assert out == "" and taken == []
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("semiring", ["boolean", "fuzzy"])
def test_resolve_chain_over_every_entity(capsys, tmp_path, semiring):
    """The chain "he r0 him . him r1 she ." with corefer 1 2 over all 2,000
    entities, n = 16, under the default budget: a table would hold 8e9
    scalars, and messages answer it.  The printed score is the scalar of
    the printed matching, and no matching of a seeded sample beats it."""
    ne, n = 2000, 16
    rng = np.random.default_rng(47)
    kg, emb = tmp_path / "kg.tsv", tmp_path / "emb.tsv"
    cons = tmp_path / "chain.constraints"
    kg.write_text("".join(f"e{i}\n" for i in range(ne)) + "".join(
        f"e{s}\tr{v}\te{o}\n" for s, v, o in zip(
            rng.integers(ne, size=4000), rng.integers(2, size=4000),
            rng.integers(ne, size=4000))))
    values = np.where(rng.random((ne, n)) < 0.7, 0.0, rng.random((ne, n)))
    emb.write_text("".join(f"e{i}\t{','.join(f'{x:.3f}' for x in row)}\n"
                           for i, row in enumerate(values)))
    cons.write_text("corefer: 1 2\n")
    text = "he r0 him . him r1 she ."
    code, out, err = run(capsys, [
        "resolve", "--kg", str(kg), "--embeddings", str(emb), "--semiring",
        semiring, "--constraints", str(cons), "--json", text])
    assert (code, err) == (0, "")
    got = json.loads(out)
    sr = by_name(semiring)
    vocab, graph = load_kg(kg)
    enc = load_embeddings(emb, vocab, sr)
    verbs = build_verb_matrix(enc, graph)
    d = parse_discourse(text, vocab)
    a, b, c = (vocab.entity_index[x["entity"]] for x in got["classes"])
    score = resolution_scalar(d, MatchingFunction((a, b, b, c)), enc, verbs)
    assert got["score"] == format_scalar(sr, score, json_mode=True)
    for a, b, c in rng.integers(ne, size=(64, 3)).tolist():
        assert resolution_scalar(d, MatchingFunction((a, b, b, c)), enc,
                                 verbs) <= score


@pytest.mark.parametrize("semiring", ["boolean", "real", "fuzzy"])
def test_exit_2_on_empty_vocabulary(capsys, tmp_path, semiring):
    """A KG with no entities loads; each command then fails on its unknown
    token with one error line, not a traceback."""
    kg = tmp_path / "empty.kg"
    kg.write_text("# no entities\n")
    for argv in (["ask", "a r b ."], ["rank", "who r b ?"],
                 ["resolve", "he r him ."], ["emit-sparql", "he r him ."],
                 ["similarity", "a", "b"]):
        opts = [] if argv[0] == "emit-sparql" else ["--semiring", semiring]
        code, out, err = run(capsys, [argv[0], "--kg", str(kg), *opts,
                                      *argv[1:]])
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: unknown") and err.count("\n") == 1


def test_emit_sparql_needs_vocabulary_only(capsys, tmp_path):
    """A KG too large for the identity verb matrix still compiles."""
    big = tmp_path / "big.kg"
    names = [f"e{i}" for i in range(8300)]
    big.write_text("\n".join(names + [f"{names[0]}\tr\t{names[1]}"]) + "\n")
    code, out, err = run(capsys, ["emit-sparql", "--kg", str(big),
                                  "e0 r he ."])
    assert code == 0, err
    assert ":e0 :r ?v0 ." in out


def test_exit_2_on_verb_overflow(tmp_path):
    kg, emb = tmp_path / "two.kg", tmp_path / "big.tsv"
    kg.write_text("a\tr\tb\n")
    emb.write_text("a\t1e200,0\nb\t1e200,1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "discoquery.cli", "ask", "--kg", str(kg),
         "--embeddings", str(emb), "a r b ."],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and "'r'" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ask"])
    assert exc.value.code == 2


def _flag_sets():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {a.option_strings[0] for a in p._actions
                   if a.option_strings and a.dest != "help"}
            for name, p in sub.choices.items()}


_OPERANDS = {
    "ask": ["leibniz discovered calculus ."],
    "rank": ["who discovered calculus ?"],
    "resolve": ["spinoza influenced him . he discovered calculus ."],
    "emit-sparql": ["spinoza influenced him . he discovered calculus ."],
    "similarity": ["spinoza", "leibniz"],
}
# A value for each flag that takes one; where the flag is refused, unread.
_VALUES = {"--embeddings": [str(DATA / "catdog.tsv")],
           "--semiring": ["real"],
           "--lemmas": [str(DATA / "philosophers.kg")],
           "--constraints": [str(DATA / "philosophers.constraints")],
           "--prefix": ["http://ex.org/p#"]}


def test_readme_lists_each_commands_flags():
    """The README's per-command flag table is the parser's: 30 settable
    values over five commands."""
    readme = (DATA.parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \| (`--.*`) \|$", readme, re.M)
    table = {cmd: set(re.findall(r"`(--[a-z]+)`", cells))
             for cmd, cells in rows}
    assert table == _flag_sets()
    assert sum(map(len, table.values())) == 30


@pytest.mark.parametrize("command", sorted(_OPERANDS))
def test_each_flag_is_read_or_refused(capsys, tmp_path, command):
    """Each file flag a command takes is read: a missing path exits 2 with
    one error line.  Every other flag is an argparse usage error."""
    taken = _flag_sets()[command]
    missing = str(tmp_path / "missing")
    for flag in taken & {"--kg", "--embeddings", "--lemmas",
                         "--constraints"}:
        kg = [] if flag == "--kg" else ["--kg", KG]
        code, out, err = run(capsys, [command, *kg, flag, missing,
                                      *_OPERANDS[command]])
        assert (code, out) == (2, ""), flag
        assert err.startswith("error:") and err.count("\n") == 1
    for flag in {"--kg", "--embeddings", "--semiring", "--lemmas",
                 "--constraints", "--normalize", "--prefix", "--all",
                 "--json"} - taken:
        with pytest.raises(SystemExit) as exc:
            main([command, "--kg", KG, flag, *_VALUES.get(flag, []),
                  *_OPERANDS[command]])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), flag
        assert "unrecognized arguments: " + flag in err


def test_flags_a_command_does_not_read_are_refused(capsys):
    """Flags that used to be accepted and ignored are usage errors; the
    invalid prefix is refused where it is read."""
    for argv in (
            ["rank", "--kg", KG, "--all", "--constraints", "/nonexistent",
             "--prefix", "bad iri", "who discovered calculus ?"],
            ["emit-sparql", "--kg", KG, "--semiring", "fuzzy",
             "--embeddings", "/nonexistent", "--normalize", "--all",
             "who discovered calculus ?"],
            ["similarity", "--kg", KG, "--lemmas", "/nonexistent",
             "spinoza", "leibniz"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert "unrecognized arguments" in err
    code, out, err = run(capsys, ["emit-sparql", "--kg", KG, "--prefix",
                                  "bad iri", "leibniz discovered calculus ."])
    assert (code, out) == (2, "")
    assert err == "error: invalid prefix IRI 'bad iri'\n"


def test_emit_sparql_prints_sparql_under_json(capsys):
    argv = ["emit-sparql", "--kg", KG, "who influenced whom ?"]
    assert run(capsys, argv + ["--json"]) == run(capsys, argv)


def test_verbs_are_built_before_the_text_is_read(capsys, monkeypatch):
    """ask, rank and resolve build the verbs (|R| n^2 = 50 scalars here)
    before they load the lemmas and parse the text: past the budget they
    exit 3 on a missing lemma file and on text that does not parse."""
    monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", 49)
    for command in ("ask", "rank", "resolve"):
        for extra in ([], ["--lemmas", "/nonexistent"]):
            code, out, err = run(capsys, [command, "--kg", KG, *extra,
                                          "zorro"])
            assert (code, out) == (3, ""), (command, extra)
            assert err.startswith("error:") and err.count("\n") == 1


def test_stdin_not_utf8_exits_2():
    """Standard input is read as UTF-8 whatever the stream encoding: a
    stray byte is one error line, not a traceback."""
    env = {**cli_env(), "PYTHONIOENCODING": "utf-8:strict"}
    argv = [sys.executable, "-m", "discoquery.cli", "ask", "--kg", KG, "-"]
    proc = subprocess.run(argv, input=b"leibniz discovered \xff .",
                          capture_output=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: stdin is not valid UTF-8\n"
    proc = subprocess.run(argv, input=b"leibniz discovered calculus .",
                          capture_output=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"1\n", b"")


def test_exit_2_on_query_overflow(tmp_path):
    """Overflow in a query contraction, after a verb build that passes."""
    kg, emb = tmp_path / "one.kg", tmp_path / "big.tsv"
    kg.write_text("a\n")
    emb.write_text("a\t1e200,1e200\n")
    proc = subprocess.run(
        [sys.executable, "-m", "discoquery.cli", "similarity", "--kg",
         str(kg), "--embeddings", str(emb), "a", "a"],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    # One line: no numpy RuntimeWarning before the error.
    assert proc.stderr.startswith("error:") and "non-finite" in proc.stderr
    assert proc.stderr.count("\n") == 1


# Entries of 1e100: a contraction overflows to inf.
_OVERFLOW = ("a\tr\tb\n", "a\t1e100,0\nb\t1e100,1\n")
# An inf partial sum meets a zero entry: inf * 0 is nan.
_INF_ZERO = ("a\tr\tb\nb\tr\ta\nb\tr\tc\nc\tr\tc\n",
             "a\t1e200,1e150\nb\t0.001,0\nc\t1,0.001\n")


@pytest.mark.parametrize("argv, data", [
    pytest.param(["ask", "a r b ."], _OVERFLOW, id="argv0"),
    pytest.param(["resolve", "--all", "he r b ."], _OVERFLOW, id="argv1"),
    pytest.param(["rank", "who r b ?"], _OVERFLOW, id="argv2"),
    pytest.param(["resolve", "he r b ."], _OVERFLOW, id="argv3"),
    pytest.param(["ask", "a r b ."], _INF_ZERO, id="inf-zero-ask"),
    pytest.param(["rank", "who does a r ?"], _INF_ZERO, id="inf-zero-rank"),
    pytest.param(["resolve", "--all", "he r b ."], _INF_ZERO,
                 id="inf-zero-resolve-all")])
def test_exit_2_on_scalar_overflow(tmp_path, argv, data):
    """The verb entries stay finite, the query contraction overflows."""
    kg, emb = tmp_path / "two.kg", tmp_path / "big.tsv"
    kg.write_text(data[0])
    emb.write_text(data[1])
    proc = subprocess.run(
        [sys.executable, "-m", "discoquery.cli", argv[0], "--kg", str(kg),
         "--embeddings", str(emb), *argv[1:]],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    # One line: no numpy RuntimeWarning before the error.
    assert proc.stderr.startswith("error:") and "non-finite" in proc.stderr
    assert proc.stderr.count("\n") == 1


_ENTITIES = ["descartes", "spinoza", "leibniz", "newton", "calculus"]
_VERBS = ["influenced", "discovered"]
_PRONOUNS = ["he", "him", "she", "it", "they"]
_JUNK = ["that", "who", "whom", "does", ".", "?", "zorro", "-", "--x"]
_NP = st.sampled_from(_ENTITIES + _PRONOUNS) | st.builds(
    "{} that {} {}".format, st.sampled_from(_ENTITIES),
    st.sampled_from(_VERBS), st.sampled_from(_ENTITIES))
_VERB = st.sampled_from(_VERBS)
_SENTENCE = st.builds("{} {} {} .".format, _NP, _VERB, _NP)
_TEXT = st.one_of(
    st.lists(_SENTENCE, min_size=1, max_size=3).map(" ".join),
    st.builds("who {} {} ?".format, _VERB, _NP),
    st.builds("who does {} {} ?".format, _NP, _VERB),
    st.builds("who {} whom ?".format, _VERB),
    st.lists(st.sampled_from(_ENTITIES + _VERBS + _PRONOUNS + _JUNK),
             max_size=12).map(" ".join))


@pytest.fixture(scope="module")
def huge_embeddings(tmp_path_factory):
    """Philosophers embedded at 1e100: verb entries near 1e200 stay finite,
    sentence contractions overflow."""
    p = tmp_path_factory.mktemp("huge") / "huge.tsv"
    p.write_text("".join(f"{e}\t1e100,{i}e99\n"
                         for i, e in enumerate(_ENTITIES)))
    return str(p)


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["ask", "rank", "resolve", "emit-sparql",
                                "similarity"]),
       text=_TEXT,
       semiring=st.sampled_from(["boolean", "real", "fuzzy", "huge"]),
       as_json=st.booleans(), normalize=st.booleans())
def test_cli_fuzz_exit_codes(huge_embeddings, command, text, semiring,
                             as_json, normalize):
    """Any command on any text exits 0, 2 or 3 and raises nothing else;
    argparse's usage exit counts as 2.  Each command is given only the
    flags it takes: emit-sparql takes no encoding flag."""
    if command == "emit-sparql":
        opts = []
    elif semiring == "huge":
        opts = ["--semiring", "real", "--embeddings", huge_embeddings]
    else:
        opts = ["--semiring", semiring]
    if as_json:
        opts.append("--json")
    if normalize and command != "emit-sparql":
        opts.append("--normalize")
    args = (text.split() + ["x", "y"])[:2] if command == "similarity" \
        else [text]
    try:
        code = main([command, "--kg", KG, *opts, *args])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3)
