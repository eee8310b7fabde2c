"""The bulk KG and embedding loaders against the line-by-line reference.

Seeded random files mix comments, blank lines, space and CR padding,
duplicate triples and entity declarations, and most carry one injected
fault.  A second KG generator pads line edges with every kind of Python
whitespace, breaks lines at LF, CRLF or a lone CR, and draws names that
share their first 8 or 16 bytes or hold a NUL.  Both loaders must give the
same vocabulary, triples and encoding, or the same LoadError line and
message.
"""
import ast
import importlib
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import discoquery
from discoquery import (ALL_SEMIRINGS, BOOLEAN, ask, build_verb_matrix,
                        identity_encoding, load_embeddings, load_kg)
from discoquery.cli import main
from discoquery.encoding import EncodingMatrix, VerbMatrix
from discoquery import kb
from discoquery.errors import LoadError
from discoquery.kb import RESERVED, KnowledgeGraph
from discoquery.matrix import Matrix

from conftest import DATA
from line_loaders import load_embeddings_lines, load_kg_lines

ENTITIES = ["a", "b", "c", "ann lee", "é", "x1", "y"]
RELATIONS = ["r", "s", "likes", "ρ"]
KG_FAULTS = [None, "columns", "empty", "clash same line", "clash later line",
             "reserved", "not utf-8"]
EMBEDDING_FAULTS = [None, "columns", "bad float", "duplicate row",
                    "unknown row", "missing row", "row length", "negative",
                    "non-finite", "above one", "not utf-8"]


def outcome(load, *args):
    try:
        return load(*args)
    except LoadError as exc:
        return exc.line, str(exc)


def pick(rng, items):
    return items[rng.integers(len(items))]


def padded(rng, line):
    return pick(rng, ["", " ", "  "]) + line + pick(rng, ["", " ", "\r", " \r"])


def noise(rng):
    return pick(rng, ["# comment", "#\tr\tb\tc", "", "   ", "\t", " \r"])


def write(tmp_path, lines, fault_line=None):
    """Write the lines as UTF-8, with a stray byte ending the fault line."""
    data = [ln.encode() for ln in lines]
    if fault_line is not None:
        data[fault_line] += b"\xff"
    p = tmp_path / "file"
    p.write_bytes(b"".join(ln + b"\n" for ln in data))
    return p


def random_kg_lines(rng):
    lines = []
    for _ in range(rng.integers(0, 25)):
        kind = rng.random()
        if kind < 0.2:
            lines.append(noise(rng))
        elif kind < 0.35:
            lines.append(padded(rng, pick(rng, ENTITIES)))
        elif kind < 0.45 and any("\t" in ln for ln in lines):
            lines.append(pick(rng, [ln for ln in lines if "\t" in ln]))
        else:
            lines.append(padded(rng, "\t".join(
                (pick(rng, ENTITIES), pick(rng, RELATIONS),
                 pick(rng, ENTITIES)))))
    return lines


def inject_kg_fault(rng, lines, fault):
    """Insert the fault at a random line; return the line for a stray byte."""
    at = int(rng.integers(len(lines) + 1))
    e, r = pick(rng, ENTITIES), pick(rng, RELATIONS)
    if fault == "columns":
        lines.insert(at, pick(rng, [f"{e}\t{r}", f"{e}\t{r}\t{e}\t{e}"]))
    elif fault == "empty":
        lines.insert(at, f"{e}\t\t{e}")
    elif fault == "clash same line":
        lines.insert(at, pick(rng, [f"{e}\t{e}\tb", f"a\t{r}\t{r}"]))
    elif fault == "clash later line":
        lines.insert(at, pick(rng, [f"zed\t{r}\t{e}", "zed"]))
        lines.insert(int(rng.integers(at + 1, len(lines) + 1)), f"{e}\tzed\t{e}")
    elif fault == "reserved":
        word = pick(rng, sorted(RESERVED))
        lines.insert(at, pick(rng, [f"{word}\t{r}\t{e}", f"{e}\t{word}\t{e}",
                                    word]))
    elif fault == "not utf-8":
        lines.insert(at, f"{e}\t{r}\t{e}")
        return at
    return None


def kg_files(tmp_path):
    """(path, fault): seeded random files, then the test data."""
    rng = np.random.default_rng(20)
    for trial in range(400):
        lines = random_kg_lines(rng)
        fault = KG_FAULTS[trial % len(KG_FAULTS)]
        yield write(tmp_path, lines, inject_kg_fault(rng, lines, fault)), fault
    for path in sorted(DATA.glob("*.kg")):
        yield path, None


#: Line-edge padding: Python whitespace, tab included, and U+200B, which
#: is not whitespace and so stays part of the token.
EDGE_PADS = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
             "\u2028", "\u3000", "\u200b", " \t\xa0"]
#: Names sharing their first 8 or 16 bytes, multi-byte names, and NULs.
EDGE_ENTITIES = ["a", "a\x00", "abcdefgh", "abcdefghi", "abcdefgh\x00",
                 "abcdefghijklmnop", "abcdefghijklmnopq", "abcdefghijklmnoq",
                 "é", "ébcdefgh", "日本語の名前", "日本語の名前です", "x\u200b"]
EDGE_RELATIONS = ["r", "r\x00", "relation-one", "relation-onf",
                  "relation-one!", "ρέω"]


def random_edge_kg_text(rng):
    """Lines padded at their edges, broken at LF, CRLF or a lone CR, with
    no final line break one time in three; some carry a KG_FAULTS fault."""
    lines = []
    for _ in range(rng.integers(0, 16)):
        kind = rng.random()
        if kind < 0.15:
            lines.append(pick(rng, ["# comment", "#\tr\tb\tc", "", "\u3000"]))
        elif kind < 0.3:
            lines.append(pick(rng, EDGE_ENTITIES))
        else:
            lines.append("\t".join((pick(rng, EDGE_ENTITIES),
                                    pick(rng, EDGE_RELATIONS),
                                    pick(rng, EDGE_ENTITIES))))
        lines[-1] = pick(rng, EDGE_PADS) + lines[-1] + pick(rng, EDGE_PADS)
    inject_kg_fault(rng, lines, pick(rng, [None] * 5 + KG_FAULTS[1:-1]))
    breaks = [pick(rng, ["\n", "\r\n", "\r"]) for _ in lines]
    if lines and rng.random() < 1 / 3:
        breaks[-1] = ""
    return "".join(ln + br for ln, br in zip(lines, breaks))


def assert_kg_loaders_agree(p, context):
    """load_kg gives the reference's vocabulary and triples, or its
    LoadError line and message; return whether the reference failed."""
    want = outcome(load_kg_lines, p)
    got = outcome(load_kg, p)
    if isinstance(want[1], str):
        assert got == want, context
        return True
    (vocab, kg), (ref_vocab, ref_triples) = got, want
    assert vocab.entities == ref_vocab.entities
    assert vocab.relations == ref_vocab.relations
    assert vocab.entity_index == ref_vocab.entity_index
    assert vocab.relation_index == ref_vocab.relation_index
    assert kg.triples == tuple(ref_triples)
    assert kg.spo.tolist() == [[t.s, t.v, t.o] for t in ref_triples]
    return False


def test_kg_loader_matches_reference(tmp_path):
    for p, fault in kg_files(tmp_path):
        failed = assert_kg_loaders_agree(p, (fault, p))
        assert failed == (fault is not None), (fault, p)


def test_kg_loader_matches_reference_at_line_edges(tmp_path):
    """An empty file, a file of comments only, then seeded random files."""
    rng = np.random.default_rng(22)
    texts = ["", "# only a comment\n#\ta\tr\tb\r\n\t# indented"]
    texts += [random_edge_kg_text(rng) for _ in range(400)]
    p = tmp_path / "edges.kg"
    loaded = 0
    for text in texts:
        p.write_bytes(text.encode())
        loaded += not assert_kg_loaders_agree(p, text)
    assert 150 <= loaded < len(texts)


def test_strip_edge_bytes_cover_python_whitespace():
    """load_kg hands a line to str.strip only when an edge byte is in
    kb._EDGE, so the first and last UTF-8 byte of every character that
    str.strip removes must be in it."""
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(spaces) > 20
    for ch in spaces:
        b = ch.encode()
        assert kb._EDGE[b[0]] and kb._EDGE[b[-1]], hex(ord(ch))


def random_embedding_lines(rng, vocab, n, fault):
    """Rows of n components for the vocabulary's entities, shuffled, with
    the fault; return the lines and the line for a stray byte."""
    def row(name, width=n, bad=None):
        comps = [pick(rng, [repr(x), f"{x:.2e}", f" {x}", "0", "1"])
                 for x in np.round(rng.random(width), 3).tolist()]
        if bad is not None:
            comps[rng.integers(width)] = bad
        return f"{name}\t" + ",".join(comps)

    names = list(vocab.entities)
    rng.shuffle(names)
    lines = [padded(rng, row(e)) for e in names]
    for _ in range(rng.integers(0, 4)):
        lines.insert(int(rng.integers(len(lines) + 1)), noise(rng))
    rows = [i for i, ln in enumerate(lines)
            if ln.split("\t")[0].strip() in vocab.entity_index]
    at = pick(rng, rows)
    e = lines[at].split("\t")[0].strip()
    if fault == "missing row":
        del lines[at]
    elif fault in ("duplicate row", "unknown row"):
        lines.insert(int(rng.integers(len(lines) + 1)),
                     row(e if fault == "duplicate row" else "nobody"))
    elif fault is not None:
        lines[at] = padded(rng, {
            "columns": f"{e}\t1\t2",
            "bad float": row(e, bad=pick(rng, ["x", "", "1..2", "0x1"])),
            "row length": row(e, n + pick(rng, [-1, 1]) or 2),
            "negative": row(e, bad="-0.5"),
            "non-finite": row(e, bad=pick(rng, ["inf", "nan", "1e400"])),
            "above one": row(e, bad="1.5"),
            "not utf-8": row(e),
        }[fault])
    return lines, at if fault == "not utf-8" else None


def test_embedding_loader_matches_reference(tmp_path):
    rng = np.random.default_rng(21)
    kg = tmp_path / "k.kg"
    kg.write_text("".join(f"{e}\n" for e in ENTITIES), encoding="utf-8")
    vocab, _ = load_kg(kg)
    for trial in range(300):
        fault = EMBEDDING_FAULTS[trial % len(EMBEDDING_FAULTS)]
        lines, stray = random_embedding_lines(
            rng, vocab, int(rng.integers(1, 5)), fault)
        p = write(tmp_path, lines, stray)
        for sr in ALL_SEMIRINGS:
            want = outcome(load_embeddings_lines, p, vocab, sr)
            got = outcome(load_embeddings, p, vocab, sr)
            if isinstance(want, tuple):
                assert got == want, (fault, sr.name, lines)
            else:
                assert not isinstance(got, tuple), (fault, sr.name, got)
                assert got.matrix.entries.dtype == want.matrix.entries.dtype
                assert np.array_equal(got.matrix.entries,
                                      want.matrix.entries)
        # The last semiring is fuzzy, where every fault is an error.
        assert isinstance(want, tuple) == (fault is not None), (fault, lines)


def test_setup_builds_no_view():
    """Load, identity encoding, verb build and ask read only ``spo``."""
    views = {name for name, attr in vars(KnowledgeGraph).items()
             if isinstance(attr, cached_property)}
    assert {"triples", "triple_set", "by_sv", "by_vo", "by_v"} <= views
    vocab, kg = load_kg(DATA / "philosophers.kg")
    enc = identity_encoding(vocab, BOOLEAN)
    verbs = build_verb_matrix(enc, kg)
    assert ask("spinoza influenced leibniz .", enc, verbs, vocab)
    assert not views & kg.__dict__.keys()


def test_queries_build_no_verb_matrix(monkeypatch, capsys, tmp_path):
    """Set-up, identity or embedded, builds no Matrix, and ask, rank,
    resolve, resolve --all and similarity build none and never read the
    Matrix view of the encoding or of the verbs, in every semiring."""
    kg = str(DATA / "philosophers.kg")
    vocab, _ = load_kg(kg)
    emb = tmp_path / "emb.tsv"
    emb.write_text("".join(f"{e}\t0.{i},0.5\n"
                           for i, e in enumerate(vocab.entities)))
    built = []
    post_init = Matrix.__post_init__

    def counting(self):
        built.append((self.dom, self.cod))
        post_init(self)

    def forbidden(self):
        raise AssertionError(f"{type(self).__name__}.matrix read by a query")

    monkeypatch.setattr(Matrix, "__post_init__", counting)
    for cls in (EncodingMatrix, VerbMatrix):
        monkeypatch.setattr(cls, "matrix", property(forbidden))
    spinoza = "spinoza influenced him . he discovered it ."
    for sr in ("boolean", "real", "fuzzy"):
        for encode in ([], ["--embeddings", str(emb)]):
            for argv in (["ask", "spinoza influenced leibniz ."],
                         ["rank", "who discovered calculus ?"],
                         ["resolve", spinoza], ["resolve", "--all", spinoza],
                         ["similarity", "leibniz", "newton"]):
                code = main([argv[0], "--kg", kg, "--semiring", sr, *encode,
                             *argv[1:]])
                assert code == 0, (sr, encode, argv, capsys.readouterr().err)
                assert capsys.readouterr().out
    assert built == []


def test_query_modules_bind_no_generator_or_oracle():
    """The dense generators stay in matrix and the oracles in oracles: no
    module on the query path binds one."""
    from discoquery import oracles
    dense = {"spider", "cup", "cap", "wire_permutation", "tensor_all"} | {
        name for name, f in vars(oracles).items()
        if getattr(f, "__module__", None) == oracles.__name__}
    assert {"kg_effect", "discourse_effect", "dense_theorem_check"} <= dense
    for name in ("kb", "encoding", "semantics", "questions", "resolution",
                 "sparql", "cli"):
        module = importlib.import_module(f"discoquery.{name}")
        assert not dense & vars(module).keys(), name


def test_oracles_import_boundary():
    """Only the package's __init__ imports oracles, and oracles names none
    of the query path's contraction code, so an oracle check compares two
    routes: every import, name and attribute in each module's source."""
    query_path = {"contract", "contract_operands", "_noun_array",
                  "noun_vector", "sentence_effect", "verb_object",
                  "verb_subject", "verb_diagonal", "product"}
    package = Path(discoquery.__file__).parent
    for path in sorted(package.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names.add((node.module or "").rpartition(".")[2])
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(alias.name.rpartition(".")[2]
                             for alias in node.names)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if path.name == "oracles.py":
            assert not names & query_path, sorted(names & query_path)
        elif path.name != "__init__.py":
            assert "oracles" not in names, path.name


def test_verb_blocks_read_by_encoding_only():
    """Queries multiply by a verb only through the encoding's verb
    products: no module but encoding.py reads an ``operands`` attribute
    (the operand form of the encoding or of the verbs), and neither
    ``EncodingMatrix.verb`` nor ``resolution._receive`` is back."""
    package = Path(discoquery.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "encoding.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert not [node.lineno for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute)
                        and node.attr == "operands"], path.name
    assert not hasattr(EncodingMatrix, "verb")
    assert not hasattr(importlib.import_module("discoquery.resolution"),
                       "_receive")


def test_every_parameter_is_read():
    """Each parameter of each function in the package is read in its body
    (a closure counts).  Dunder protocol methods, whose signature the
    protocol fixes, are exempt.  resolve_argmax and rank_answers keep a
    vocab they do not read, because the benchmark's query stages
    (perfbench/kinds.py) pass it by position."""
    allowed = {("resolve_argmax", "vocab"), ("rank_answers", "vocab")}
    unread = set()
    package = Path(discoquery.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or (
                    fn.name.startswith("__") and fn.name.endswith("__")):
                continue
            a = fn.args
            params = [p for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)}
            unread |= {(fn.name, p.arg) for p in params
                       if p.arg not in read}
    assert unread == allowed


@pytest.mark.parametrize("text, line", [
    ("a\tr\tb\nhe\tr\tb\n", 2),
    ("a\tr\tb\n# that\n\nb\tthat\tc\n", 4),
    ("a\tr\tb\nit\n", 2),
    ("?\tr\tb\n", 1),
])
def test_reserved_token_rejected(tmp_path, text, line):
    p = tmp_path / "k.kg"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(LoadError, match="is reserved") as exc:
        load_kg(p)
    assert exc.value.line == line
