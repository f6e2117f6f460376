"""Rules, priority relations, and plausible descriptions.

A knowledge base is supplied as facts (formulas), defeasible and warning
rules, and an acyclic priority relation.  Building a description converts
the facts into a satisfiable, minimal set of axiom clauses (via clause form,
the error filter, resolution closure, and the core), expands those axioms
into strict rules grouped by antecedent, and validates the priority
relation.  Strict rules are never supplied by the user; they exist only as
this derived closure of the facts.

The axioms are the prime implicates of the filtered clause set: strict
rules are their literal sets expanded, and fact and support checks are one
search for a countermodel (`classical.find_model`) of a formula's clauses,
read off its shape, in which the axioms take part through unit propagation
alone.  Supporters are read off an index built with the description: the
axioms' atoms split into connected components, and only rules whose
consequents touch the components of a formula's atoms are tested for
supporting it (each distinct consequent once), so a defeasible chain's
queries cost linear, not quadratic, work.  One scan propagates ~f once,
and the countermodels its candidates leave reject later candidates
without a search.  A conjunction is not scanned: its supporters are those
of all its members.

The distinguished strict rule with the empty antecedent (whose consequent
conjoins all axioms) may not appear as the inferior side of any priority
pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from . import classical
from .classical import Clause
from .formulas import (
    DEFAULT_MAX_ATOMS,
    FALSUM,
    Atom,
    Conj,
    Formula,
    Lit,
    Neg,
    atoms,
    canonical_set,
    complement,
    conj,
    disj,
    format_formula,
    is_clause,
    is_tautology,
    lits,
)


class Arrow(Enum):
    STRICT = "->"
    DEFEASIBLE = "=>"
    WARNING = "~>"


@dataclass(frozen=True)
class Rule:
    """A rule: finite antecedent set, arrow kind, consequent formula."""

    rid: str
    antecedents: tuple[Formula, ...]
    arrow: Arrow
    consequent: Formula

    def __post_init__(self):
        object.__setattr__(self, "antecedents", canonical_set(self.antecedents))

    @property
    def signature(self):
        """Identity-free content, for extensional comparison in tests."""
        return (frozenset(self.antecedents), self.arrow, self.consequent)

    def __repr__(self):
        ants = ",".join(format_formula(f) for f in self.antecedents)
        return f"{self.rid}: {{{ants}}} {self.arrow.value} {format_formula(self.consequent)}"


class KbValidationError(Exception):
    pass


class CyclicPriorityError(KbValidationError):
    def __init__(self, cycle: list[str]):
        super().__init__("cyclic priority: " + " > ".join(cycle + cycle[:1]))
        self.cycle = cycle


class PriorityOverRseError(KbValidationError):
    def __init__(self, superior: str, rse_id: str):
        super().__init__(
            f"priority pair {superior} > {rse_id} makes the axiom rule inferior"
        )


class UnknownRuleIdError(KbValidationError):
    def __init__(self, rid: str):
        super().__init__(f"unknown rule id: {rid}")
        self.rid = rid


class DuplicateRuleIdError(KbValidationError):
    def __init__(self, rid: str):
        super().__init__(f"duplicate rule id: {rid}")
        self.rid = rid


class StrictRuleRejectedError(KbValidationError):
    def __init__(self, rid: str):
        super().__init__(
            f"rule {rid}: strict rules are derived from facts, not user-supplied"
        )


def build_axioms(facts: Iterable[Formula],
                 max_atoms: int = DEFAULT_MAX_ATOMS) -> frozenset[Clause]:
    """Axiom clauses distilled from the facts.

    Pipeline: clause form, error filter, saturation, core, equal to
    `core_clauses(resolution_closure(sat_filter(clauses_of(facts))))`.
    The result is satisfiable, every member is contingent, and no member's
    literal set contains another's.

    One `saturate` of the clause form yields the error literals (its
    units).  With none, the filter only drops the empty clause, which
    resolves with nothing, so the core comes from that same saturation.
    Only conflicting facts pay for a second saturation, of the filtered
    clauses.
    """
    clauses = classical.clauses_of(facts, max_atoms)
    closed = classical.saturate(clauses)
    bad = classical.conflicting_units(closed)
    if bad:
        closed = classical.saturate(classical.without_errors(clauses, bad))
    return classical.core_clauses(closed - {classical.EMPTY_CLAUSE})


def axiom_formulas(ax: Iterable[Clause]) -> frozenset[Formula]:
    """Axiom clauses as simplified formulas (units become bare literals)."""
    return frozenset(disj(l.formula() for l in c) for c in ax)


def clause_rules(c: Formula) -> frozenset[Rule]:
    """The 2^n - 1 strict rules of one contingent n-literal clause.

    One clause never repeats an antecedent, so no rules are merged.
    """
    return frozenset(build_strict_rules([c]))


def build_strict_rules(ax_formulas: Iterable[Formula]) -> tuple[Rule, ...]:
    """Strict rules for an axiom set: clause expansions merged by antecedent.

    A contingent clause with literal set L expands, for each proper subset
    R of L, to the conjoined complements of R implying the disjunction of
    L - R.  Expansions sharing an antecedent are conjoined into one rule;
    the empty antecedent gives the distinguished axiom rule, concluding
    the conjunction of all axioms.  Formulas are simplified.
    """
    groups: dict[frozenset[Lit], set[frozenset[Lit]]] = {}  # antecedent -> consequents
    formula_of: dict[Lit, Formula] = {}  # each literal's formula, built once
    for c in ax_formulas:
        if not is_clause(c):
            raise ValueError(f"not a clause: {c!r}")
        ls = lits(c)
        if not ls or is_tautology(ls):
            raise ValueError(f"clause is not contingent: {c!r}")
        formula_of.update((l, l.formula()) for l in ls | complement(ls))
        ordered = sorted(ls)
        for size in range(len(ls)):
            for rest in combinations(ordered, size):
                groups.setdefault(complement(rest), set()).add(ls.difference(rest))
    out = []
    for ants, consequents in groups.items():
        if ants:
            antecedent = conj(formula_of[l] for l in ants)
            rid, antecedents = f"#s({format_formula(antecedent)})", (antecedent,)
        else:
            rid, antecedents = "#rse", ()
        consequent = conj(disj(formula_of[l] for l in keep) for keep in consequents)
        out.append(Rule(rid, antecedents, Arrow.STRICT, consequent))
    return tuple(sorted(out, key=lambda r: r.antecedents))


def _components(atom_sets: Iterable[frozenset[str]]) -> dict[str, str]:
    """Each atom of the sets mapped to one representative of its connected
    component in the hypergraph whose edges are the sets (union-find)."""
    parent: dict[str, str] = {}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]  # path halving
            a = parent[a]
        return a

    for avars in atom_sets:
        roots = [find(parent.setdefault(a, a)) for a in avars]
        for k in roots[1:]:
            parent[k] = roots[0]
    return {a: find(a) for a in parent}


@dataclass(frozen=True)
class PlausibleDescription:
    """An immutable, validated knowledge base ready for querying.

    `rules` holds the derived strict rules followed by the user rules;
    `priority` is the acyclic superior/inferior id-pair relation.  Query
    memos (facts per formula, consistency per consequent, supporters per
    formula, all and among `rsd()` in one entry, clause forms of a formula
    and of its negation per formula, the atoms a supporter scan decides per
    component, and proof values per algorithm and formula, shared by every
    query under any algorithm and history, see `engine._Prover`) always
    equal recomputation, take no part in equality, and concurrent reads
    are safe.
    """

    rules: tuple[Rule, ...]
    priority: frozenset[tuple[str, str]]
    axiom_clauses: frozenset[Clause]
    axioms: tuple[Formula, ...]
    rse_id: str | None
    max_atoms: int = DEFAULT_MAX_ATOMS
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _consistent: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _supporters: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _clause_forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _negations: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _proofs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _scopes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        derive = object.__setattr__  # the derived fields of a frozen instance
        derive(self, "_by_id", {r.rid: r for r in self.rules})
        # Each rule's position in `rules`: `engine._bit` numbers history entries by it.
        derive(self, "_position", {r.rid: i for i, r in enumerate(self.rules)})
        derive(self, "_rsd", tuple(filter(self._supporting, self.rules)))
        derive(self, "_inferiors", frozenset(inf for _, inf in self.priority))
        derive(self, "_implicates", classical.clause_index(self.axiom_clauses))
        derive(self, "_units", frozenset(l for c in self.axiom_clauses if len(c) == 1
                                         for l in c))
        # The supporter index: each distinct consequent with the positions
        # of its rules, each axiom atom's component, and the consequents
        # touching each component (all but the axiom rule's, see supporters).
        rules_with: dict[Formula, list[int]] = {}
        for i, r in enumerate(self.rules):
            rules_with.setdefault(r.consequent, []).append(i)
        component = _components(frozenset(l.atom for l in c) for c in self.axiom_clauses)
        touching: dict[str, list[Formula]] = {}
        axioms = self.rse.consequent if self.rse_id else None
        for c in rules_with:
            if c != axioms:
                for k in {component.get(a, a) for a in atoms(c)}:
                    touching.setdefault(k, []).append(c)
        if axioms is not None:
            self._consistent[axioms] = True  # the axioms are satisfiable
        derive(self, "_rules_with", rules_with)
        derive(self, "_component", component)
        derive(self, "_touching", touching)

    def rule(self, rid: str) -> Rule:
        try:
            return self._by_id[rid]
        except KeyError:
            raise UnknownRuleIdError(rid) from None

    @property
    def rse(self) -> Rule | None:
        return self._by_id[self.rse_id] if self.rse_id else None

    def rsd(self) -> tuple[Rule, ...]:
        """The supporting rules: strict and defeasible, minus the axiom rule."""
        return self._rsd

    def _supporting(self, r: Rule) -> bool:
        return r.arrow is not Arrow.WARNING and r.rid != self.rse_id

    def _countermodel(self, premises: tuple[Formula, ...], f: Formula,
                      start: classical.State | None = None) -> set[Lit] | None:
        """A model of the axioms and `premises` that falsifies f, as the true
        literals of an open branch, or None when they entail f.

        Found by `classical.find_model` on the clauses of the premises and
        of ~f, with the axioms, which are the prime implicates of a
        satisfiable set, taking part through unit propagation alone, so a
        check reaches only the axioms its literals touch.  `start` is a
        branch that `classical.assume` reached from ~f's clauses.
        """
        parts = [self._clauses(g, False) for g in premises]
        parts.append(self._clauses(f, True))
        return classical.find_model(parts, self._implicates, start)

    def _clauses(self, f: Formula, negated: bool) -> classical.Part:
        """The clause form of f, or of ~f, with its `clause_index`, memoised
        per formula; a literal's one clause needs no index and is built
        afresh, which costs less than a memo entry."""
        if type(f) is Atom:
            return (frozenset((Lit(f.name, negated),)),), classical.NO_INDEX
        if type(f) is Neg and type(f.inner) is Atom:
            return (frozenset((Lit(f.inner.name, not negated),)),), classical.NO_INDEX
        memo = self._negations if negated else self._clause_forms
        found = memo.get(f)
        if found is None:
            clauses = classical.clause_form(f, self.max_atoms, negated)
            index = classical.clause_index(c for c in clauses if len(c) > 1)
            found = memo[f] = (clauses, index or classical.NO_INDEX)
        return found

    def is_fact(self, f: Formula) -> bool:
        """Whether the axioms semantically entail f."""
        hit = self._facts.get(f)
        if hit is None:
            hit = self._facts[f] = self._countermodel((), f) is None
        return hit

    def _is_consistent(self, c: Formula) -> bool:
        hit = self._consistent.get(c)
        if hit is None:
            hit = self._consistent[c] = self._countermodel((c,), FALSUM) is not None
        return hit

    def supporters(self, f: Formula,
                   rules: Sequence[Rule] | None = None) -> tuple[Rule, ...]:
        """Rules whose consequent is consistent with and implies f (with the axioms).

        Read off the index built at construction, in `rules` order.  For a
        fact f that is every rule with a consistent consequent.  Otherwise
        only consequents touching K(f) can support f, where K(f) is the
        union of the connected components meeting atoms(f) in the
        hypergraph whose edges are the axioms' atom sets.  Lemma: if c is
        consistent with Ax and shares no atom with K(f), then
        `Ax ∪ {c} ⊨ f` iff `Ax ⊨ f`.  Proof: each axiom lies inside K(f)
        or wholly outside it.  A countermodel of `Ax ⊨ f` restricted to
        K(f) satisfies the inside axioms and falsifies f; a model of
        `Ax ∪ {c}` restricted to the outside satisfies the outside axioms
        and c; glued, they are a countermodel of `Ax ∪ {c} ⊨ f`.  The
        axiom rule's consequent is equivalent to Ax, so it supports exactly
        the facts and is never a candidate otherwise.  Each candidate
        consequent is decided once, however many rules share it
        (see `_supported`).

        A conjunction that is no fact is not scanned: its supporters are
        the rules supporting every member, in rule order.  Lemma:
        `Ax ∪ {c} ⊨ and{g1..gk}` iff `Ax ∪ {c} ⊨ gi` for each i, and the
        consistency of c does not depend on f.  A fact member is supported
        by every rule with a consistent consequent, so the intersection
        drops it.  Nested conjunctions are flattened on an explicit stack,
        so each member scanned is no conjunction, and the strict rules'
        antecedents share their literals' scans.
        """
        entry = self._supporters.get(f)
        if entry is None:
            if self.is_fact(f):
                found = self._rules_of(filter(self._is_consistent, self._rules_with))
            elif type(f) is Conj:
                found = self._supporting_all(f)
            else:
                ks = {self._component.get(a, a) for a in atoms(f)}
                found = self._rules_of(self._supported(f, ks))
            # the walks ask for the view among rsd(); it is the same tuple
            # when it drops nothing, as it mostly does
            view = tuple(filter(self._supporting, found))
            entry = self._supporters[f] = found, found if len(view) == len(found) else view
        found, view = entry
        if rules is self._rsd:
            return view
        if rules is None:
            return found
        ids = {r.rid for r in found}
        return tuple(r for r in rules if r.rid in ids)

    def _rules_of(self, consequents: Iterable[Formula]) -> tuple[Rule, ...]:
        """The rules concluding any of the consequents, in rule order."""
        at = sorted(i for c in consequents for i in self._rules_with[c])
        return tuple(self.rules[i] for i in at)

    def _supporting_all(self, f: Conj) -> tuple[Rule, ...]:
        """The rules supporting every member of the conjunction f, which is
        no fact, in rule order (see `supporters`).  Nested members are
        flattened on a stack; fact members support every consistent rule
        and are skipped."""
        found = None
        stack, seen = [f], {f}
        while stack:
            for g in stack.pop().members:
                if g in seen:
                    continue
                seen.add(g)
                if type(g) is Conj:
                    stack.append(g)
                elif not self.is_fact(g):
                    theirs = self.supporters(g)
                    if found is None:
                        found = theirs
                    else:
                        ids = {r.rid for r in theirs}
                        found = tuple(r for r in found if r.rid in ids)
                    if not found:
                        return ()
        return found

    def _supported(self, f: Formula, ks: set[str]) -> Iterator[Formula]:
        """The consequents touching the components `ks` that support f,
        which is no fact (see `supporters`).

        One scan shares its work, as incremental SAT shares it across
        assumptions (Eén and Sörensson 2003, MiniSat).  ~f is propagated
        through the axioms once, and each candidate c starts from that
        branch.  A search that finds a model of Ax ∧ c ∧ ~f leaves it to a
        pool local to this scan, once `classical.extend` has decided the
        atoms of f and of the candidates in it.  A pooled model still
        satisfies ~f and falsifies no axiom, so it extends to a model of
        them all (see `classical.find_model`).  A later candidate whose
        every clause meets a pooled model is satisfied by it too, so that
        model extends to a countermodel of `Ax ∪ {c} ⊨ f`, and the
        candidate is rejected without a search.  Deciding and checking a
        model costs about one search, so a model is pooled only while two
        or more candidates remain to be tested; a scan of one candidate
        also propagates nothing ahead.
        """
        candidates = list(dict.fromkeys(c for k in ks for c in self._touching.get(k, ())))
        start = None
        if len(candidates) > 1:  # no conflict: f is no fact
            start = classical.assume([self._clauses(f, True)], self._implicates)
        pool: list[set[Lit]] = []
        avars = None
        for i, c in enumerate(candidates):
            if pool:
                clauses = self._clauses(c, False)[0]
                if any(not any(map(m.isdisjoint, clauses)) for m in pool):
                    continue
            m = self._countermodel((c,), f, start)
            if m is None:
                if self._is_consistent(c):
                    yield c
            elif i + 2 < len(candidates):
                if avars is None:
                    avars = atoms(f).union(*map(self._scope, ks))
                classical.extend(m, avars, self._implicates, self._units)
                pool.append(m)

    def _scope(self, k: str) -> frozenset[str]:
        """The atoms of the consequents touching component k, memoised."""
        found = self._scopes.get(k)
        if found is None:
            found = self._scopes[k] = frozenset().union(*map(atoms, self._touching.get(k, ())))
        return found

    def superior_supporters(self, f: Formula, s: Rule,
                            rules: Sequence[Rule] | None = None) -> tuple[Rule, ...]:
        """Supporters of f strictly superior to s."""
        if s.rid not in self._inferiors:  # no rule is superior to s
            return ()
        return tuple(
            t for t in self.supporters(f, rules)
            if (t.rid, s.rid) in self.priority
        )

    def superior(self, r: Rule, s: Rule) -> bool:
        return (r.rid, s.rid) in self.priority


def validate_description(
    facts: Iterable[Formula],
    rules: Iterable[Rule],
    priority: Iterable[tuple[str, str]] = (),
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> PlausibleDescription:
    """Build a description from user input, or raise a KbValidationError.

    Checks: no user strict rules, unique ids, priority ids resolve, the
    axiom rule is never inferior, and the priority relation is acyclic.
    """
    user_rules = tuple(rules)
    for r in user_rules:
        if r.arrow is Arrow.STRICT:
            raise StrictRuleRejectedError(r.rid)

    ax_clauses = build_axioms(facts, max_atoms)
    ax = tuple(sorted(axiom_formulas(ax_clauses)))
    strict = build_strict_rules(ax)
    rse_id = "#rse" if ax else None

    seen = {r.rid for r in strict}
    for r in user_rules:
        if r.rid in seen:
            raise DuplicateRuleIdError(r.rid)
        seen.add(r.rid)

    pairs = []
    for sup, inf in priority:
        if sup not in seen:
            raise UnknownRuleIdError(sup)
        if inf not in seen:
            raise UnknownRuleIdError(inf)
        if inf == rse_id:
            raise PriorityOverRseError(sup, rse_id)
        pairs.append((sup, inf))

    # Each inferior depends on its superiors, so a cycle is listed in
    # superior -> inferior order, its first node repeated at the end.
    order = TopologicalSorter()
    for sup, inf in sorted(pairs):
        order.add(inf, sup)
    try:
        order.prepare()
    except CycleError as e:
        raise CyclicPriorityError(e.args[1][:-1]) from None

    return PlausibleDescription(
        rules=strict + user_rules,
        priority=frozenset(pairs),
        axiom_clauses=ax_clauses,
        axioms=ax,
        rse_id=rse_id,
        max_atoms=max_atoms,
    )
