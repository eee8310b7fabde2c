"""Command-line front door: ask, rank, resolve, emit-sparql, similarity.

Exit codes: 0 success, 2 usage/parse/vocabulary/overflow error, 3 budget
error.
All output is deterministic: LF endings, floats at 6 significant digits
(full precision under --json).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import semiring as sr_mod
from .encoding import (build_verb_matrix, identity_encoding, load_embeddings,
                       normalize_l1, similarity)
from .errors import BudgetExceeded, DiscoError
from .kb import load_kg
from .questions import parse_question, rank_answers
from .resolution import (default_constraints, load_constraints,
                         resolve_argmax, score_all_matchings)
from .semantics import eval_sentence, load_lemmas, parse_discourse, parse_sentence
from .sparql import compile_discourse, compile_question, emit_sparql, DEFAULT_PREFIX


def format_scalar(sr, value, json_mode: bool = False):
    if sr.name == "boolean":
        return bool(value) if json_mode else ("true" if value else "false")
    if json_mode:
        return float(value)
    return format(float(value), ".6g")


# Every flag, in usage order; each command takes those it reads.
_FLAGS = {
    "--kg": dict(required=True, metavar="FILE"),
    "--embeddings": dict(metavar="FILE"),
    "--semiring": dict(choices=["boolean", "real", "fuzzy"], default="real"),
    "--lemmas": dict(metavar="FILE"),
    "--constraints": dict(metavar="FILE"),
    "--normalize": dict(action="store_true"),
    "--prefix": dict(default=DEFAULT_PREFIX, metavar="IRI"),
    "--all": dict(action="store_true", help="print every matching scored"),
    "--json": dict(action="store_true"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discoquery",
        description="Evaluate sentences, questions and anaphoric discourses "
                    "against a knowledge graph; compile them to SPARQL.")
    sub = parser.add_subparsers(dest="command", required=True)
    encoded = "--kg --embeddings --semiring --normalize --lemmas --json"
    for name, run, help_, flags in [
            ("ask", cmd_ask, "truth value of a declarative sentence", encoded),
            ("rank", cmd_rank, "rank answers to a who/whom question", encoded),
            ("resolve", cmd_resolve, "resolve pronouns by constrained argmax",
             encoded + " --constraints --all"),
            # emit-sparql prints SPARQL either way; it takes --json so that
            # one argv, --kg FILE --json TEXT, runs every text command.
            ("emit-sparql", cmd_emit_sparql,
             "compile a discourse or question to SPARQL",
             "--kg --lemmas --constraints --prefix --json"),
            ("similarity", cmd_similarity,
             "inner product of two entity encodings",
             "--kg --embeddings --semiring --normalize --json")]:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        for flag, kwargs in _FLAGS.items():
            if flag in flags.split():
                p.add_argument(flag, **kwargs)
        if name == "similarity":
            p.add_argument("entity1")
            p.add_argument("entity2")
        else:
            p.add_argument("text", help="input text, or - for stdin")
    return parser


def _load(args):
    """(semiring, vocabulary, KG, encoding) as the encoding flags set."""
    sr = sr_mod.by_name(args.semiring)
    vocab, kg = load_kg(args.kg)
    enc = (load_embeddings(args.embeddings, vocab, sr) if args.embeddings
           else identity_encoding(vocab, sr))
    return sr, vocab, kg, normalize_l1(enc) if args.normalize else enc


def _input(args) -> tuple[str, dict | None]:
    """The lemmas, then the text: the operand, or stdin read as UTF-8."""
    lemmas = load_lemmas(args.lemmas) if args.lemmas else None
    if args.text != "-":
        return args.text, lemmas
    stdin = getattr(sys.stdin, "buffer", None)
    if stdin is None:  # a text stream swapped in for sys.stdin
        return sys.stdin.read(), lemmas
    try:
        return stdin.read().decode("utf-8"), lemmas
    except UnicodeDecodeError:
        raise DiscoError("stdin is not valid UTF-8") from None


def _constraints(args, d, vocab):
    return (load_constraints(args.constraints, d.k, vocab) if args.constraints
            else default_constraints(d.k, vocab))


def _print_scalar(sr, value, json_mode: bool) -> int:
    print(json.dumps({"scalar": format_scalar(sr, value, True)}) if json_mode
          else format_scalar(sr, value))
    return 0


def cmd_ask(args) -> int:
    sr, vocab, kg, enc = _load(args)
    verbs = build_verb_matrix(enc, kg)
    text, lemmas = _input(args)
    value = eval_sentence(parse_sentence(text, vocab, lemmas), enc, verbs)
    return _print_scalar(sr, value, args.json)


def cmd_rank(args) -> int:
    sr, vocab, kg, enc = _load(args)
    verbs = build_verb_matrix(enc, kg)
    text, lemmas = _input(args)
    ranked = rank_answers(parse_question(text, vocab, lemmas), enc, verbs,
                          vocab)
    if args.json:
        print(json.dumps({"ranking": [
            {"entity": vocab.entities[e],
             "score": format_scalar(sr, v, True)} for e, v in ranked]}))
    else:
        for e, v in ranked:
            print(f"{vocab.entities[e]}\t{format_scalar(sr, v)}")
    return 0


def cmd_resolve(args) -> int:
    sr, vocab, kg, enc = _load(args)
    verbs = build_verb_matrix(enc, kg)
    text, lemmas = _input(args)
    d = parse_discourse(text, vocab, lemmas)
    constraints = _constraints(args, d, vocab)
    if args.all:
        scored = score_all_matchings(d, constraints, enc, verbs)
        if args.json:
            print(json.dumps({"matchings": [
                {"assignment": [vocab.entities[e] for e in mu.assignment],
                 "score": format_scalar(sr, v, True)}
                for mu, v in scored]}))
        else:
            for mu, v in scored:
                names = [vocab.entities[mu.assignment[members[0]]]
                         for members in constraints.classes]
                print("\t".join(names + [format_scalar(sr, v)]))
        return 0
    mu, score = resolve_argmax(d, constraints, enc, verbs, vocab)
    if args.json:
        print(json.dumps({
            "classes": [
                {"slot": members[0],
                 "entity": vocab.entities[mu.assignment[members[0]]]}
                for members in constraints.classes],
            "score": format_scalar(sr, score, True)}))
    else:
        for slot, *_ in constraints.classes:
            print(f"{slot}\t{vocab.entities[mu.assignment[slot]]}")
        print(f"score\t{format_scalar(sr, score)}")
    return 0


def cmd_emit_sparql(args) -> int:
    # Compiling needs the vocabulary only, not the encoding or verb matrix.
    vocab, _ = load_kg(args.kg)
    text, lemmas = _input(args)
    if text.split()[:1] == ["who"]:
        bgp, form = compile_question(parse_question(text, vocab, lemmas))
    else:
        d = parse_discourse(text, vocab, lemmas)
        bgp, form = compile_discourse(d, _constraints(args, d, vocab))
    sys.stdout.write(emit_sparql(bgp, form, vocab, args.prefix))
    return 0


def cmd_similarity(args) -> int:
    # Two encoding columns: no verb matrix, lemmas or text.
    sr, vocab, _, enc = _load(args)
    for name in (args.entity1, args.entity2):
        if name not in vocab.entity_index:
            raise DiscoError(f"unknown entity {name!r}")
    value = similarity(enc, vocab.entity_index[args.entity1],
                       vocab.entity_index[args.entity2])
    return _print_scalar(sr, value, args.json)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DiscoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
