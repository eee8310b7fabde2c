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
                       normalize_l1)
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kg", required=True, metavar="FILE")
    common.add_argument("--embeddings", metavar="FILE")
    common.add_argument("--semiring", choices=["boolean", "real", "fuzzy"],
                        default="real")
    common.add_argument("--lemmas", metavar="FILE")
    common.add_argument("--constraints", metavar="FILE")
    common.add_argument("--normalize", action="store_true")
    common.add_argument("--prefix", default=DEFAULT_PREFIX, metavar="IRI")
    common.add_argument("--all", action="store_true",
                        help="resolve: print every matching scored")
    common.add_argument("--json", action="store_true")

    parser = argparse.ArgumentParser(
        prog="discoquery",
        description="Evaluate sentences, questions and anaphoric discourses "
                    "against a knowledge graph; compile them to SPARQL.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
            ("ask", "truth value of a declarative sentence"),
            ("rank", "rank answers to a who/whom question"),
            ("resolve", "resolve pronouns by constrained argmax"),
            ("emit-sparql", "compile a discourse or question to SPARQL"),
            ("similarity", "inner product of two entity encodings")]:
        p = sub.add_parser(name, parents=[common], help=help_)
        if name == "similarity":
            p.add_argument("entity1")
            p.add_argument("entity2")
        else:
            p.add_argument("text", help="input text, or - for stdin")
    return parser


class _Session:
    def __init__(self, args, verbs: bool = True):
        self.sr = sr_mod.by_name(args.semiring)
        self.vocab, self.kg = load_kg(args.kg)
        if args.embeddings:
            self.enc = load_embeddings(args.embeddings, self.vocab, self.sr)
        else:
            self.enc = identity_encoding(self.vocab, self.sr)
        if args.normalize:
            self.enc = normalize_l1(self.enc)
        # similarity reads two encoding columns and no verb matrix
        self.verbs = build_verb_matrix(self.enc, self.kg) if verbs else None
        self.lemmas = load_lemmas(args.lemmas) if args.lemmas else None


def _read_text(args) -> str:
    return sys.stdin.read() if args.text == "-" else args.text


def cmd_ask(args) -> int:
    ses = _Session(args)
    value = eval_sentence(
        parse_sentence(_read_text(args), ses.vocab, ses.lemmas),
        ses.enc, ses.verbs)
    if args.json:
        print(json.dumps({"scalar": format_scalar(ses.sr, value, True)}))
    else:
        print(format_scalar(ses.sr, value))
    return 0


def cmd_rank(args) -> int:
    ses = _Session(args)
    q = parse_question(_read_text(args), ses.vocab, ses.lemmas)
    ranked = rank_answers(q, ses.enc, ses.verbs, ses.vocab)
    if args.json:
        print(json.dumps({"ranking": [
            {"entity": ses.vocab.entities[e],
             "score": format_scalar(ses.sr, v, True)} for e, v in ranked]}))
    else:
        for e, v in ranked:
            print(f"{ses.vocab.entities[e]}\t{format_scalar(ses.sr, v)}")
    return 0


def cmd_resolve(args) -> int:
    ses = _Session(args)
    d = parse_discourse(_read_text(args), ses.vocab, ses.lemmas)
    if args.constraints:
        constraints = load_constraints(args.constraints, d.k, ses.vocab)
    else:
        constraints = default_constraints(d.k, ses.vocab)
    if args.all:
        scored = score_all_matchings(d, constraints, ses.enc, ses.verbs)
        if args.json:
            print(json.dumps({"matchings": [
                {"assignment": [ses.vocab.entities[e] for e in mu.assignment],
                 "score": format_scalar(ses.sr, v, True)}
                for mu, v in scored]}))
        else:
            for mu, v in scored:
                names = [ses.vocab.entities[
                    mu.assignment[members[0]]] for members in constraints.classes]
                print("\t".join(names + [format_scalar(ses.sr, v)]))
        return 0
    mu, score = resolve_argmax(d, constraints, ses.enc, ses.verbs, ses.vocab)
    if args.json:
        print(json.dumps({
            "classes": [
                {"slot": members[0],
                 "entity": ses.vocab.entities[mu.assignment[members[0]]]}
                for members in constraints.classes],
            "score": format_scalar(ses.sr, score, True)}))
    else:
        for members in constraints.classes:
            slot = members[0]
            print(f"{slot}\t{ses.vocab.entities[mu.assignment[slot]]}")
        print(f"score\t{format_scalar(ses.sr, score)}")
    return 0


def cmd_emit_sparql(args) -> int:
    # Compiling needs the vocabulary only, not the encoding or verb matrix.
    vocab, _ = load_kg(args.kg)
    lemmas = load_lemmas(args.lemmas) if args.lemmas else None
    text = _read_text(args)
    if text.split() and text.split()[0] == "who":
        q = parse_question(text, vocab, lemmas)
        bgp, form = compile_question(q)
    else:
        d = parse_discourse(text, vocab, lemmas)
        if args.constraints:
            constraints = load_constraints(args.constraints, d.k, vocab)
        else:
            constraints = default_constraints(d.k, vocab)
        bgp, form = compile_discourse(d, constraints)
    sys.stdout.write(emit_sparql(bgp, form, vocab, args.prefix))
    return 0


def cmd_similarity(args) -> int:
    from .encoding import similarity
    ses = _Session(args, verbs=False)
    for name in (args.entity1, args.entity2):
        if name not in ses.vocab.entity_index:
            raise DiscoError(f"unknown entity {name!r}")
    value = similarity(ses.enc, ses.vocab.entity_index[args.entity1],
                       ses.vocab.entity_index[args.entity2])
    if args.json:
        print(json.dumps({"scalar": format_scalar(ses.sr, value, True)}))
    else:
        print(format_scalar(ses.sr, value))
    return 0


_COMMANDS = {
    "ask": cmd_ask,
    "rank": cmd_rank,
    "resolve": cmd_resolve,
    "emit-sparql": cmd_emit_sparql,
    "similarity": cmd_similarity,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DiscoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
