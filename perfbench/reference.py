"""Reference verdicts that do not come from the prover under test.

A verdict is the string of seven truth values, one per algorithm in
`ALG_ORDER` (for example ``"utttttt"``).  Closed forms are used where a
family has one; everything else comes from `engine.tree_value`, the
evaluation-tree definition, which follows the tree construction rules rather
than the prover's recursion.
"""

from __future__ import annotations

from ppl import classical, engine
from ppl.engine import ALG_ORDER, Alg
from ppl.formulas import Neg

N_ALGS = len(ALG_ORDER)


def truth(pos: bool, neg: bool) -> str:
    """Truth-value letter from provability of f and of ~f."""
    if pos and neg:
        return "a"
    if pos:
        return "t"
    if neg:
        return "f"
    return "u"


def tree_truth(desc, alg: Alg, f) -> str:
    return truth(engine.tree_value(desc, alg, f) == 1,
                 engine.tree_value(desc, alg, Neg(f)) == 1)


def tree_verdict(desc, f) -> str:
    return "".join(tree_truth(desc, alg, f) for alg in ALG_ORDER)


def chain_verdict(key: tuple) -> str:
    """Defeasible rule chain: a_i is u under phi and t otherwise; ~a_i is f
    except under phi (u)."""
    _, _, neg = key
    return "u" + ("f" if neg else "t") * (N_ALGS - 1)


def implication_chain_verdict(key: tuple) -> str:
    """Facts p_i -> p_{i+1} and the default {} => p0.

    The axioms are exactly the clauses ~p_i | p_j (i < j), so such a query
    is a fact (t everywhere).  Any other query holding a positive literal
    follows from the default p0 (t except phi, which sees only facts); a
    query of negative literals only is refuted by it (f except phi).
    """
    if key[0] == "lit":
        return chain_verdict(key)
    _, _, neg_i, _, neg_j = key
    if neg_i and not neg_j:
        return "t" * N_ALGS
    positive = not (neg_i and neg_j)
    return "u" + ("t" if positive else "f") * (N_ALGS - 1)


def lottery_verdict(n: int, facts, desc, q) -> str:
    """n-ticket lottery.

    phi is decided by `classical.entails` over the facts.  pi follows the
    truth profile the acceptance suite pins for the 4-lottery, generalised
    to n: a ticket is usually false and its negation usually true; a
    disjunction of k tickets is usually true for k >= n-1 and undetermined
    otherwise; a conjunction of two or more tickets is false (the facts
    refute it).  Other algorithms, and pi on mixed-sign queries, come from
    the evaluation tree.
    """
    f = q.formula
    phi = truth(classical.entails(facts, f), classical.entails(facts, Neg(f)))
    pi = _lottery_pi(n, q.key)
    out = []
    for alg in ALG_ORDER:
        if alg is Alg.PHI:
            out.append(phi)
        elif alg is Alg.PI and pi is not None:
            out.append(pi)
        else:
            out.append(tree_truth(desc, alg, f))
    return "".join(out)


def _lottery_pi(n: int, key: tuple) -> str | None:
    if key[0] == "lit":
        return "t" if key[2] else "f"
    kind, idx, signs = key
    if any(signs):
        return None
    if kind == "or":
        return "t" if len(idx) >= n - 1 else "u"
    return "f"
