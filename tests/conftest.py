import os
from pathlib import Path

import numpy as np
import pytest

from discoquery import (BOOLEAN, FUZZY, NONNEG_REAL, EncodingMatrix, Matrix,
                        build_verb_matrix, identity_encoding, load_kg)
from discoquery.kb import KnowledgeGraph, Triple, Vocabulary

DATA = Path(__file__).parent / "data"
GOLDENS = Path(__file__).parent / "goldens"

SEMIRINGS = [BOOLEAN, NONNEG_REAL, FUZZY]


def cli_env():
    """Environment for a `python -m discoquery.cli` child of this tree."""
    import discoquery
    src = str(Path(discoquery.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


@pytest.fixture(scope="session")
def philosophers():
    return load_kg(DATA / "philosophers.kg")


@pytest.fixture(scope="session")
def alice_kg():
    return load_kg(DATA / "alice.kg")


def random_entries(rng, shape, sr):
    if sr.name == "boolean":
        return rng.random(shape) < 0.5
    return np.round(rng.random(shape), 3)


def random_matrix(rng, dom, cod, sr):
    import math
    shape = (math.prod(cod), math.prod(dom))
    return Matrix(sr, dom, cod, random_entries(rng, shape, sr))


def random_encoding(vocab, n, sr, rng):
    ent = random_entries(rng, (n, vocab.n_entities), sr)
    return EncodingMatrix(sr, ent, vocab)


def random_kg(rng, n_entities, n_relations, density=0.3):
    """Random vocabulary and graph over generic token names."""
    vocab = Vocabulary.from_lists(
        [f"e{i}" for i in range(n_entities)],
        [f"r{j}" for j in range(n_relations)])
    triples = [Triple(s, v, o)
               for s in range(n_entities)
               for v in range(n_relations)
               for o in range(n_entities)
               if rng.random() < density]
    return vocab, KnowledgeGraph(triples)


def identity_setup(vocab, kg, sr):
    enc = identity_encoding(vocab, sr)
    return enc, build_verb_matrix(enc, kg)
