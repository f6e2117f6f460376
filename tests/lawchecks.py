"""Structural-law checkers for randomized theories.

Each checker returns a list of violation strings (empty means the law
holds).  Proofs go through the public `prove`, whose memo lives on the
description, so the checks on one theory share it; the checkers also
share one tree evaluator per theory, since each tree value depends only
on the description, the algorithm, the formula, and the history's
entries among those its walk tested.

`prove` answers beta-p by beta's walk, and psi and psi-p by pi's and
pi-p's when there are no priorities, so its values meet the laws relating
those algorithms by construction.  `hierarchy` and
`empty_priority_equalities` check the tree's values as well, which walk
every algorithm on its own.  From the empty history `prove` also answers
+1, without a walk of its own, for a formula whose rank is at or below the
algorithm's place in the hierarchy: the rank is the lowest place of an
algorithm that has stored a +1 for it there, in any walk or sub-walk, and
the answer enters nothing in the proof memo.  So the prover's table is
built with each algorithm on a fresh copy of the description, whose memo
holds no other query's values, and with the ranks cleared before each
probe, since the co-algorithm walks inside a primed walk rank what they
prove: there the hierarchy is checked on the prover's own walks.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from itertools import combinations

from ppl import ALG_ORDER, Alg, Arrow, Atom, Conj, Disj, Neg, prove, satisfiable
from ppl.engine import _TreeEvaluator, _root_subject

MAIN_ALGS = (Alg.PHI, Alg.PI, Alg.PSI, Alg.BETA, Alg.BETA_P)

_CHAIN = (
    (Alg.PHI, Alg.PI),
    (Alg.PI, Alg.PSI),
    (Alg.PSI, Alg.BETA),
    (Alg.BETA, Alg.BETA_P),
    (Alg.BETA_P, Alg.BETA),
    (Alg.BETA, Alg.PSI_P),
    (Alg.PSI_P, Alg.PI_P),
)


class TheoryCheck:
    def __init__(self, desc, probes):
        self.desc = desc
        self.probes = probes
        self.table = {alg: self._walked(alg) for alg in ALG_ORDER}

    @cached_property
    def tree_table(self):
        """Whether each algorithm's tree on each probe has root value +1."""
        evaluator = _TreeEvaluator(self.desc)
        return {
            alg: {f: evaluator.value(_root_subject(alg, (), f)) == +1 for f in self.probes}
            for alg in ALG_ORDER
        }

    def _walked(self, alg) -> dict:
        """Whether alg proves each probe, on a fresh copy of the description
        (see the module docstring)."""
        desc = replace(self.desc)
        walked = {}
        for f in self.probes:
            desc._ranked.clear()
            walked[f] = prove(desc, alg, f) == +1
        return walked

    def proved(self, alg, x) -> bool:
        return prove(self.desc, alg, x) == +1

    def truth(self, alg, f) -> str:
        pos, neg = self.proved(alg, f), self.proved(alg, Neg(f))
        return {(True, True): "a", (True, False): "t",
                (False, True): "f", (False, False): "u"}[(pos, neg)]

    # -- the laws ------------------------------------------------------------

    def _tables(self):
        return (("prover", self.table), ("tree", self.tree_table))

    def hierarchy(self) -> list[str]:
        out = []
        for source, table in self._tables():
            for weaker, stronger in _CHAIN:
                for f in self.probes:
                    if table[weaker][f] and not table[stronger][f]:
                        out.append(f"{source}: {weaker} proves {f!r} but {stronger} does not")
        return out

    def empty_priority_equalities(self) -> list[str]:
        if self.desc.priority:
            return []
        out = []
        for source, table in self._tables():
            for a, b in ((Alg.PI, Alg.PSI), (Alg.PSI_P, Alg.PI_P)):
                for f in self.probes:
                    if table[a][f] != table[b][f]:
                        out.append(f"{source}: empty priority but {a} and {b} differ on {f!r}")
        return out

    def consistency(self) -> list[str]:
        out = []
        for alg in MAIN_ALGS:
            proved = [f for f in self.probes if self.table[alg][f]]
            for f, g in combinations(proved, 2):
                if not satisfiable(self.desc.axioms + (f, g)):
                    out.append(f"{alg} proves {f!r} and {g!r} jointly unsatisfiable")
            for f in proved:
                if not satisfiable(self.desc.axioms + (f, f)):
                    out.append(f"{alg} proves unsatisfiable {f!r}")
        for f in self.probes:
            if self.table[Alg.PSI][f] and self.proved(Alg.PSI_P, Neg(f)):
                out.append(f"psi proves {f!r} yet psi-p proves its negation")
        out += self._pi_consistency()
        return out

    def _pi_consistency(self) -> list[str]:
        # the pi/pi-p law needs its hypothesis: no provable-antecedent foe
        # of f leaves a superiority gap
        out = []
        rsd = self.desc.rsd()
        for f in self.probes:
            hypothesis = True
            for s in self.desc.supporters(Neg(f), rsd):
                entry = [(Alg.PI_P, s.rid)]
                if prove(self.desc, Alg.PI_P, s.antecedents, entry) == +1:
                    if self.desc.superior_supporters(f, s, rsd):
                        hypothesis = False
                        break
            if hypothesis and self.table[Alg.PI][f] and self.proved(Alg.PI_P, Neg(f)):
                out.append(f"pi proves {f!r} yet pi-p proves its negation")
        return out

    def plausible_conjunction(self) -> list[str]:
        out = []
        facts = [f for f in self.probes if self.desc.is_fact(f)]
        for alg in ALG_ORDER:
            for g in self.probes:
                if not self.table[alg][g]:
                    continue
                for f in facts:
                    if not self.proved(alg, Conj([f, g])):
                        out.append(
                            f"{alg}: fact {f!r} plus proved {g!r} "
                            "but not their conjunction"
                        )
        return out

    def right_weakening(self) -> list[str]:
        from ppl import entails

        out = []
        weaker: dict = {}
        for f in self.probes:
            weaker[f] = [
                g for g in self.probes
                if entails(self.desc.axioms + (f,), g)
            ]
        for alg in ALG_ORDER:
            for f in self.probes:
                if not self.table[alg][f]:
                    continue
                for g in weaker[f]:
                    if not self.table[alg][g]:
                        out.append(f"{alg} proves {f!r} but not entailed {g!r}")
        # modus ponens for the derived strict rules
        for alg in ALG_ORDER:
            for r in self.desc.rules:
                if r.arrow is not Arrow.STRICT:
                    continue
                if self.proved(alg, r.antecedents) and not self.proved(alg, r.consequent):
                    out.append(f"{alg} proves antecedents of {r.rid} but not its head")
        return out

    def decisiveness(self) -> list[str]:
        out = []
        for alg in ALG_ORDER:
            for f in self.probes:
                value = prove(self.desc, alg, f)
                if value not in (+1, -1):
                    out.append(f"{alg} on {f!r} returned {value!r}")
        return out

    def notational_equivalence(self) -> list[str]:
        out = []
        for alg in ALG_ORDER:
            for f in self.probes:
                if self.tree_table[alg][f] != self.table[alg][f]:
                    out.append(f"tree and prover disagree on {alg}, {f!r}")
        return out

    def truth_laws(self) -> list[str]:
        out = []
        lits = [f for f in self.probes if isinstance(f, (Atom, Neg))]
        for alg in ALG_ORDER:
            for f in self.probes:
                vf = self.truth(alg, f)
                if self.truth(alg, Neg(Neg(f))) != vf:
                    out.append(f"{alg}: double negation changes the value of {f!r}")
                if (vf == "t") != (self.truth(alg, Neg(f)) == "f"):
                    out.append(f"{alg}: t/f duality fails at {f!r}")
                if vf == "a" and alg not in (Alg.PSI_P, Alg.PI_P):
                    out.append(f"{alg}: ambiguous value outside the primed pair, {f!r}")
            for f, g in combinations(lits, 2):
                if self.truth(alg, Conj([f, g])) == "t":
                    if self.truth(alg, f) != "t" or self.truth(alg, g) != "t":
                        out.append(f"{alg}: true conjunction with untrue part {f!r},{g!r}")
                if self.truth(alg, f) == "t" or self.truth(alg, g) == "t":
                    if self.truth(alg, Disj([f, g])) != "t":
                        out.append(f"{alg}: true part but untrue disjunction {f!r},{g!r}")
        return out

    def supraclassicality(self) -> list[str]:
        out = []
        for f in self.probes:
            if self.desc.is_fact(f):
                for alg in ALG_ORDER:
                    if not self.table[alg][f]:
                        out.append(f"{alg} misses the fact {f!r}")
        return out

    def all_laws(self) -> list[str]:
        return (
            self.consistency()
            + self.plausible_conjunction()
            + self.right_weakening()
            + self.decisiveness()
            + self.notational_equivalence()
            + self.truth_laws()
            + self.supraclassicality()
        )
