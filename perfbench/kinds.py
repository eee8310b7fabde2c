"""Set-up, query stages and answer oracles for each query kind.

A query kind is a fixed pipeline of stages; each stage is one call into a
public discoquery function and is named ``module.function`` after it, so the
traced run can time every layer from the benchmark's side.  Oracles check a
query's answer by an independent route and run outside the timed region.
"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from discoquery import (MatchingFunction, build_verb_matrix, compile_discourse,
                        compile_question, emit_sparql, eval_sentence,
                        evaluate_bgp, identity_encoding, load_embeddings,
                        load_kg, make_constraints, parse_discourse,
                        parse_question, parse_sentence, rank_answers,
                        resolution_scalar, resolve_argmax)
from discoquery.semiring import by_name

#: Matchings drawn per resolution query to test that the argmax dominates.
SAMPLED_MATCHINGS = 32
#: Subprocess timeout for one CLI call, in seconds.
CLI_TIMEOUT = 60


@dataclass
class Context:
    sr: object
    vocab: object
    kg: object
    enc: object
    verbs: object
    files: dict
    env: dict


def set_up(files: dict, semiring: str, env: dict, tracer=None):
    """Load the KG, encode it and build the verb matrix.

    Returns the context and the seconds each of the three stages took.
    """
    sr = by_name(semiring)
    encode = "encoding.load_embeddings" if "embeddings" in files \
        else "encoding.identity_encoding"
    times = {}
    if tracer:
        tracer.stage = "kb.load_kg"
    t0 = time.perf_counter_ns()
    vocab, kg = load_kg(files["kg"])
    t1 = time.perf_counter_ns()
    if tracer:
        tracer.stage = encode
    if "embeddings" in files:
        enc = load_embeddings(files["embeddings"], vocab, sr)
    else:
        enc = identity_encoding(vocab, sr)
    t2 = time.perf_counter_ns()
    if tracer:
        tracer.stage = "encoding.build_verb_matrix"
    verbs = build_verb_matrix(enc, kg)
    t3 = time.perf_counter_ns()
    for name, a, b in (("kb.load_kg", t0, t1), (encode, t1, t2),
                       ("encoding.build_verb_matrix", t2, t3)):
        times[name] = (b - a) / 1e9
        if tracer:
            tracer.span(None, name, None, a, b)
    if tracer:
        tracer.stage = "none"
    return Context(sr, vocab, kg, enc, verbs, files, env), times


# ---------------------------------------------------------------------------
# Stages: fn(ctx, query, previous stage output) -> output

def _parse_sentence(c, q, _):
    return parse_sentence(q["text"], c.vocab)


def _eval_sentence(c, q, s):
    return eval_sentence(s, c.enc, c.verbs)


def _parse_question(c, q, _):
    return parse_question(q["text"], c.vocab)


def _rank_answers(c, q, question):
    return rank_answers(question, c.enc, c.verbs, c.vocab)


def _parse_discourse(c, q, _):
    return parse_discourse(q["text"], c.vocab)


def _make_constraints(c, q, d):
    names = q.get("candidates")
    cands = None if names is None else {
        int(slot): [c.vocab.entity_index[n] for n in ents]
        for slot, ents in names.items()}
    return d, make_constraints(d.k, c.vocab, q.get("corefer", ()), cands)


def _compile(c, q, dc):
    return compile_discourse(*dc)


def _emit(c, q, compiled):
    return compiled, emit_sparql(*compiled, c.vocab)


def _evaluate(c, q, emitted):
    (bgp, form), text = emitted
    return text, evaluate_bgp(bgp, form, c.kg)


def _resolve_argmax(c, q, dc):
    return resolve_argmax(*dc, c.enc, c.verbs, c.vocab)


def cli_argv(c, q) -> list[str]:
    return [sys.executable, "-m", "discoquery.cli", q["command"],
            "--kg", str(c.files["kg"]), "--json", q["text"]]


def _cli_subprocess(c, q, _):
    proc = subprocess.run(cli_argv(c, q), env=c.env, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT)
    return proc.returncode, proc.stdout


_RESOLVE = (("semantics.parse_discourse", _parse_discourse),
            ("resolution.make_constraints", _make_constraints),
            ("resolution.resolve_argmax", _resolve_argmax))

STAGES = {
    "ask": (("semantics.parse_sentence", _parse_sentence),
            ("semantics.eval_sentence", _eval_sentence)),
    "rank": (("questions.parse_question", _parse_question),
             ("questions.rank_answers", _rank_answers)),
    "sparql": (("semantics.parse_discourse", _parse_discourse),
               ("resolution.make_constraints", _make_constraints),
               ("sparql.compile_discourse", _compile),
               ("sparql.emit_sparql", _emit),
               ("sparql.evaluate_bgp", _evaluate)),
    "resolve_free": _RESOLVE,
    "resolve_coupled": _RESOLVE,
    "cli": (("cli.subprocess", _cli_subprocess),),
}

#: The library pipeline each CLI command runs, used to check its output.
CLI_LIBRARY_STAGES = {
    "ask": STAGES["ask"],
    "rank": STAGES["rank"],
    "resolve": _RESOLVE,
    "emit-sparql": STAGES["sparql"][:4],
}


def run_stages(c, q, stages):
    out = None
    for _, fn in stages:
        out = fn(c, q, out)
    return out


def search_space(c, q) -> int:
    """Product of candidate-set sizes over the largest coupled component."""
    d, cons = _make_constraints(c, q, _parse_discourse(c, q, None))
    slot_class = {s: i for i, members in enumerate(cons.classes)
                  for s in members}
    comp = list(range(len(cons.classes)))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    for s in d.sentences:
        cls = [slot_class[slot] for slot in s.slots()]
        for other in cls[1:]:
            comp[find(other)] = find(cls[0])
    sizes: dict[int, int] = {}
    for i, cands in enumerate(cons.candidates):
        root = find(i)
        sizes[root] = sizes.get(root, 1) * len(cands)
    return max(sizes.values(), default=1)


# ---------------------------------------------------------------------------
# Oracles: check(ctx, query, answer, rng) -> None, or the reason it is wrong

def _check_ask(c, q, value):
    # Under the crisp identity encoding the scalar is the SPARQL ASK result.
    d = parse_discourse(q["text"], c.vocab)
    rows = evaluate_bgp(*compile_discourse(d), c.kg)
    if bool(value) != (rows == [(1,)]):
        return f"ask scalar {value} but SPARQL ASK gives {rows}"
    return None


def _check_rank(c, q, ranked):
    question = parse_question(q["text"], c.vocab)
    rows = evaluate_bgp(*compile_question(question), c.kg)
    nonzero = sorted(e for e, v in ranked if v)
    if nonzero != [r[0] for r in rows]:
        return f"rank gives {len(nonzero)} answers, SELECT {len(rows)}"
    if sorted(e for e, _ in ranked) != list(range(c.vocab.n_entities)):
        return "ranking is not a permutation of the entities"
    return None


def _check_sparql(c, q, answer):
    # ?v0 ra ?v1 . ?v0 rb x, joined here directly over the triple set.
    text, rows = answer
    ra, rb, x = q["text"].split()[1], q["text"].split()[5], q["text"].split()[6]
    ri, rj = c.vocab.relation_index[ra], c.vocab.relation_index[rb]
    xi = c.vocab.entity_index[x]
    has_rb_x = {t.s for t in c.kg.triples if t.v == rj and t.o == xi}
    expected = sorted({(t.s, t.o) for t in c.kg.triples
                       if t.v == ri and t.s in has_rb_x})
    if rows != expected:
        return f"{len(rows)} SPARQL rows, expected {len(expected)}"
    want = ("PREFIX : <http://example.org/kb#>\nSELECT * WHERE {\n"
            f"  ?v0 :{ra} ?v1 .\n  ?v0 :{rb} :{x} .\n}}\n")
    if text != want:
        return f"emitted {text!r}"
    return None


def _check_resolve(c, q, answer, rng):
    mu, score = answer
    d, cons = _make_constraints(c, q, _parse_discourse(c, q, None))
    for members, cands in zip(cons.classes, cons.candidates):
        if len({mu.assignment[s] for s in members}) != 1 \
                or mu.assignment[members[0]] not in cands:
            return f"matching {mu.assignment} breaks the constraints"
    if not c.sr.close(score, resolution_scalar(d, mu, c.enc, c.verbs)):
        return "score differs from resolution_scalar of its matching"
    for _ in range(SAMPLED_MATCHINGS):
        pick = [cands[int(rng.integers(len(cands)))]
                for cands in cons.candidates]
        slot_class = {s: i for i, m in enumerate(cons.classes) for s in m}
        other = MatchingFunction(tuple(pick[slot_class[s]]
                                       for s in range(d.k)))
        if float(resolution_scalar(d, other, c.enc, c.verbs)) > float(score):
            return f"sampled matching {other.assignment} beats the argmax"
    return None


def cli_expected(c, q, out):
    """What the CLI prints with --json, built from the library's answer."""
    sr_json = bool if c.sr.name == "boolean" else float
    command = q["command"]
    if command == "ask":
        return {"scalar": sr_json(out)}
    if command == "rank":
        return {"ranking": [{"entity": c.vocab.entities[e],
                             "score": sr_json(v)} for e, v in out]}
    if command == "resolve":
        mu, score = out
        _, cons = _make_constraints(c, q, _parse_discourse(c, q, None))
        return {"classes": [{"slot": m[0],
                             "entity": c.vocab.entities[mu.assignment[m[0]]]}
                            for m in cons.classes],
                "score": sr_json(score)}
    return out[1]  # emit-sparql prints the query text itself


def _check_cli(c, q, answer, expected):
    code, stdout = answer
    if code != 0:
        return f"exit code {code}"
    got = stdout if q["command"] == "emit-sparql" else json.loads(stdout)
    if got != expected:
        return f"{q['command']} output differs from the library answer"
    return None


def check(kind: str, c, q, answer, rng, expected=None):
    if kind == "ask":
        return _check_ask(c, q, answer)
    if kind == "rank":
        return _check_rank(c, q, answer)
    if kind == "sparql":
        return _check_sparql(c, q, answer)
    if kind in ("resolve_free", "resolve_coupled"):
        return _check_resolve(c, q, answer, rng)
    return _check_cli(c, q, answer, expected)


def import_probe_ms(env: dict, root: Path, repeats: int) -> float:
    """Fresh-interpreter import of discoquery.cli minus bare start, in ms."""
    def median_ms(code):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                           check=True, timeout=CLI_TIMEOUT)
            times.append((time.perf_counter_ns() - t0) / 1e6)
        return float(np.median(times))
    return median_ms("import discoquery.cli") - median_ms("pass")
