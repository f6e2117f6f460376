"""The public API: the names `ppl` exports, pinned."""

import types

import ppl

PUBLIC_NAMES = [
    "ALG_ORDER", "Alg", "Arrow", "Atom", "AtomLimitError", "Clause", "Conj",
    "CyclicPriorityError", "DEFAULT_MAX_ATOMS", "Diagnostic", "Disj",
    "DuplicateRuleIdError", "EvalNode", "FALSUM", "Formula", "FormulaClass",
    "FormulaSyntaxError", "InvalidHistoryError", "KbDocument", "KbSyntaxError",
    "KbValidationError", "Lit", "Neg", "PlausibleDescription",
    "PriorityOverRseError", "Rule", "StrictRuleRejectedError", "TreeBudgetError",
    "TruthValue", "UnknownRuleIdError", "VERUM", "atoms", "build_axioms",
    "build_strict_rules", "classify", "clause_rules", "clauses_of",
    "co_algorithm", "complement", "conj", "core", "disj", "entails", "err",
    "evaluation_tree", "foes", "format_formula", "in_from",
    "judiciously_proves", "lits", "parse_formula", "parse_kb", "provable",
    "prove", "proves", "resolution_closure", "sat_filter", "satisfiable",
    "serialize_kb", "simplify", "tree_dot", "tree_json", "tree_value",
    "truth_value", "val_space", "validate_description",
]


def test_public_names_are_pinned():
    # submodules become attributes of `ppl` once imported, so they are not API
    names = sorted(n for n, v in vars(ppl).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_classical_reexports_the_literal_set_toolkit():
    from ppl import formulas
    from ppl.classical import core_clauses, is_tautology

    assert is_tautology is formulas.is_tautology
    assert core_clauses is formulas.core_clauses
