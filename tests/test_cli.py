"""End-to-end CLI behavior: output bytes, determinism, and exit codes."""
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from discoquery.cli import main

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
    argparse's usage exit counts as 2."""
    if semiring == "huge":
        opts = ["--semiring", "real", "--embeddings", huge_embeddings]
    else:
        opts = ["--semiring", semiring]
    if as_json:
        opts.append("--json")
    if normalize:
        opts.append("--normalize")
    args = (text.split() + ["x", "y"])[:2] if command == "similarity" \
        else [text]
    try:
        code = main([command, "--kg", KG, *opts, *args])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3)
