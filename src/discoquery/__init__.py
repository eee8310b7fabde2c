"""Semiring tensor-diagram semantics for sentences, discourses and KG queries."""

from .semiring import (ALL_SEMIRINGS, BOOLEAN, FUZZY, NONNEG_REAL, Semiring,
                       by_name)
from .matrix import (DEFAULT_BUDGET, Matrix, add, cap, compose, cup, identity,
                     one_hot_effect, one_hot_state, scalar, scalar_value,
                     spider, swap, tensor, transpose)
from .kb import KnowledgeGraph, Triple, Vocabulary, kg_contains, load_kg
from .encoding import (EncodingMatrix, VerbMatrix, build_verb_matrix,
                       identity_encoding, load_embeddings, normalize_l1,
                       similarity)
from .semantics import (AtomicSentence, Discourse, EntityNP, PronounNP,
                        RestrictedNP, eval_sentence, load_lemmas,
                        noun_vector, parse_discourse, parse_sentence,
                        sentence_effect)
from .questions import ask, parse_question, rank_answers
from .resolution import (DrsConstraints, MatchingFunction,
                         default_constraints, enumerate_matchings,
                         load_constraints, make_constraints,
                         resolution_scalar, resolve_argmax,
                         score_all_matchings)
from .oracles import (dense_theorem_check, discourse_effect, kg_effect,
                      matching_process_eval, object_whom_cap_form,
                      triple_state)
from .sparql import (Ask, BasicGraphPattern, EntityTerm, Select, SelectAll,
                     VarTerm, compile_discourse, compile_question,
                     emit_sparql, evaluate_bgp)
from .errors import (BudgetExceeded, DiscoError, DomainError, GrammarError,
                     LoadError, SemiringMismatch, ShapeMismatch, VerbOverflow)
