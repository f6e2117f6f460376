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
alone.  A literal question needs no search: the axioms entail a clause
that is no tautology exactly when one of them lies inside it, so a literal
l is a fact iff {l} is an axiom, a literal c is consistent with the
axioms iff {~c} is no axiom, and a consistent literal c supports a
literal l that is no fact iff c == l or {~c, l} is an axiom (see
`_entails` and `supporters`).
A consequent is consistent with the axioms when its negation is no
fact, so the two questions are one: both read one memo entry, keyed, like
the clause forms, by the formula without its leading negations.
Supporters are read off indexes built with the description.  Each
literal has its literal supporters listed, read off the two-literal
axioms.  The axioms' atoms split into connected components, and only rules
whose consequents touch the components of a formula's atoms are tested for
supporting it (each distinct consequent once); a literal's scan tests only
the non-literal ones, and runs only when its component has one.  The
index lists only consistent consequents, each decided by one lookup in
the unit axioms as the description is built, so a literal in a component
without a non-literal consequent is answered from its index entry alone:
no scan, no filter, and no memo entry for each consequent.  So a
defeasible chain's queries cost linear, not quadratic, work, and a chain
of literal rules runs no scan at all.
A scan reads ~f's clauses once, propagates them once, and hands them to
every search.  The countermodels its candidates leave are pooled on the
description per set of components, each with a mask of the candidates it
satisfies, so every later scan over those components rejects candidates
by bit tests, not by searches.
A formula is read by its shape once its leading negations are stripped:
`and{…}` and `~or{…}` are conjunction-shaped, `or{…}` and `~and{…}`
disjunction-shaped, each member taking the polarity of the whole (see
`formulas._leaves`, the one reader of that shape, which `classical` shares).
A conjunction-shaped formula is not searched or scanned as a whole: it
is a fact iff each member, with its polarity, is one, and its supporters
are those of all its members, each member's taken among the rules found
so far.  A disjunction-shaped formula that is no fact is scanned, but
every candidate that supports one of its literal members is accepted off
the index, with no search, since `Ax ∪ {c} ⊨ gi` implies
`Ax ∪ {c} ⊨ or{g1..gk}`.

The distinguished strict rule with the empty antecedent (whose consequent
conjoins all axioms) may not appear as the inferior side of any priority
pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from itertools import combinations
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Sequence

from . import classical
from .classical import Clause
from .formulas import (
    DEFAULT_MAX_ATOMS,
    Atom,
    Conj,
    Disj,
    Formula,
    Lit,
    Neg,
    _leaves,
    _sorted_set,
    atoms,
    canonical_set,
    format_formula,
    is_clause,
    is_tautology,
    lits,
)


class Arrow(Enum):
    STRICT = "->"
    DEFEASIBLE = "=>"
    WARNING = "~>"


@dataclass(frozen=True, slots=True, init=False)
class Rule:
    """A rule: finite antecedent set, arrow kind, consequent formula.

    The antecedents are kept in canonical order however the rule is built,
    `dataclasses.replace` included.  `__init__` sets each slot through its
    descriptor, half the cost of the frozen dataclass's `object.__setattr__`
    calls, and slots load as fast as an instance dict."""

    rid: str
    antecedents: tuple[Formula, ...]
    arrow: Arrow
    consequent: Formula

    def __init__(self, rid, antecedents, arrow, consequent):
        if type(antecedents) is not tuple or len(antecedents) > 1:  # else already canonical
            antecedents = canonical_set(antecedents)
        _set_rid(self, rid)
        _set_antecedents(self, antecedents)
        _set_arrow(self, arrow)
        _set_consequent(self, consequent)

    @property
    def signature(self):
        """Identity-free content, for extensional comparison in tests."""
        return (frozenset(self.antecedents), self.arrow, self.consequent)

    def __repr__(self):
        ants = ",".join(format_formula(f) for f in self.antecedents)
        return f"{self.rid}: {{{ants}}} {self.arrow.value} {format_formula(self.consequent)}"


_set_rid, _set_antecedents, _set_arrow, _set_consequent = (
    Rule.__dict__[name].__set__ for name in Rule.__slots__)


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
    the conjunction of all axioms.  Formulas are simplified.  The literal
    sets go to `_expand`, as the axiom clauses of a description do.
    """
    clauses = set()
    for c in ax_formulas:
        if not is_clause(c):
            raise ValueError(f"not a clause: {c!r}")
        ls = lits(c)
        if not ls or is_tautology(ls):
            raise ValueError(f"clause is not contingent: {c!r}")
        clauses.add(ls)
    return _expand(clauses)[1]


def _literal(l: Lit, made: dict[Lit, tuple]) -> tuple:
    """The (key, formula, text) triple of the literal l (see
    `formulas._sorted_set`), built once into `made`."""
    t = made.get(l)
    if t is None:
        t = made[l] = ((l.neg, l.atom), l.formula(), repr(l))
    return t


def _expand(clauses: Iterable[Clause]) -> tuple[tuple[Formula, ...], tuple[Rule, ...]]:
    """The axioms and the strict rules of distinct contingent literal sets,
    each in canonical order (see `build_strict_rules`).

    Every formula is built from its members' sort keys, already in order,
    by `formulas._sorted_set`, so no formula is compared.  A clause's
    literals are sorted once, with their complements alongside; the
    combinations of n - k of them, reversed, are the complements of the
    combinations of k (lexicographic order reverses under complement), so
    each subset R pairs with L - R, already in key order, and only R's
    complements are sorted.  The axioms are the consequents of the empty
    antecedent, and the rules are ordered by their antecedents' keys, the
    axiom rule first.
    """
    made: dict[Lit, tuple] = {}
    groups: dict[tuple, tuple[list, list]] = {}  # antecedent keys -> (antecedent, pieces)
    for ls in clauses:
        own = sorted([_literal(l, made) for l in ls])
        flips = [_literal(Lit(atom, not neg), made) for (neg, atom), _, _ in own]
        n = len(own)
        for size in range(n):
            for rest, keep in zip(combinations(flips, size),
                                  reversed([*combinations(own, n - size)])):
                ants = sorted(rest)
                keys = tuple([t[0] for t in ants])
                group = groups.get(keys)
                if group is None:
                    group = groups[keys] = (ants, [])
                group[1].append(keep)
    if not groups:
        return (), ()
    axioms = sorted(_sorted_set(Disj, keep) for keep in groups.pop(())[1])
    strict = [Rule("#rse", (), Arrow.STRICT, _sorted_set(Conj, axioms)[1])]
    ordered = []
    for ants, pieces in groups.values():
        key, antecedent, text = _sorted_set(Conj, ants)
        consequent = _sorted_set(Conj, sorted(_sorted_set(Disj, keep) for keep in pieces))[1]
        ordered.append((key, Rule(f"#s({text})", (antecedent,), Arrow.STRICT, consequent)))
    ordered.sort(key=itemgetter(0))
    strict.extend(r for _, r in ordered)
    return tuple(f for _, f, _ in axioms), tuple(strict)


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
    `priority` is the acyclic superior/inferior id-pair relation.  The
    description derives, outside its fields, one index per key: each rule
    id's position in `rules` (read by `rule` and `engine._bit`), each
    distinct consequent's rule positions, each axiom atom's component, each
    component's touching consequents (all but the axiom rule's) and its
    non-literal ones, and each literal's consistent literal supporters (see
    `supporters`); the axiom rule's consequent, consistent since the axioms
    are satisfiable, so a fact's supporters need no search for it; `rsd()`,
    the inferior ids, and the axioms' `clause_index` and unit literals; and
    the query memos: whether the axioms entail a formula and whether they
    entail its negation, and the clause forms of a formula and of its
    negation, each per formula without leading negations (see `_entails`);
    the supporters of a formula and of its negation, each
    per formula without leading negations (all and among `rsd()` in one
    entry); the countermodel pool of the supporter scans per set of
    components (see `_supported`); proof values per algorithm, formula
    without leading negations and polarity, shared by every query under any
    algorithm and history (see `engine._Prover`); and the rank of each such
    formula and polarity, the lowest `ALG_ORDER` place of an algorithm that
    has stored a +1 for it at the empty history (see `engine.prove`), which
    answers a query without a walk and enters nothing in the proof values.
    The memos always equal recomputation (a pool's models only spare
    searches, and a rank only answers what a walk would); none of these
    takes part in equality, and concurrent reads are safe: a lost race on a
    rank can only keep a higher one, which is still sound.
    """

    rules: tuple[Rule, ...]
    priority: frozenset[tuple[str, str]]
    axiom_clauses: frozenset[Clause]
    axioms: tuple[Formula, ...]
    rse_id: str | None
    max_atoms: int = DEFAULT_MAX_ATOMS

    def __post_init__(self):
        derive = object.__setattr__  # the derived fields of a frozen instance
        for memo in ("_facts", "_refuted", "_supporters", "_opposers", "_clause_forms",
                     "_negations", "_proofs", "_ranked", "_pools"):
            derive(self, memo, {})
        position, rsd, rules_with = {}, [], {}  # rules_with: each consequent's positions
        for i, r in enumerate(self.rules):
            position[r.rid] = i
            rules_with.setdefault(r.consequent, []).append(i)
            if r.arrow is not Arrow.WARNING and r.rid != self.rse_id:  # see `_supporting`
                rsd.append(r)
        derive(self, "_position", position)
        derive(self, "_rsd", tuple(rsd))
        derive(self, "_inferiors", frozenset(inf for _, inf in self.priority))
        derive(self, "_implicates", classical.clause_index(self.axiom_clauses))
        derive(self, "_units", frozenset(l for c in self.axiom_clauses if len(c) == 1
                                         for l in c))
        component = _components(frozenset(l.atom for l in c) for c in self.axiom_clauses)
        touching: dict[str, list[Formula]] = {}
        compound: dict[str, set[Formula]] = {}  # each component's non-literal consequents
        # each literal's consistent literal supporters, by sign and atom
        linked: tuple[dict[str, list[Formula]], ...] = ({}, {})
        axioms = self.rse.consequent if self.rse_id else None
        for c, at in rules_with.items():
            if c is axioms:
                continue
            g, neg = c, False  # c's atom and sign, if c is a literal
            while type(g) is Neg:
                g, neg = g.inner, not neg
            if type(g) is Atom:
                ks = (component.get(g.name, g.name),)
                flip = (g.name, not neg)  # ~c, as a plain tuple: Lit hashes and equals one
                if flip not in self._units:  # c is consistent: {~c} is no axiom
                    linked[neg].setdefault(g.name, []).append(c)
                    for pair in self._implicates.get(flip, ()):
                        if len(pair) == 2:  # {~c, l}: c supports l
                            (l,) = pair.difference((flip,))
                            linked[l.neg].setdefault(l.atom, []).append(c)
            else:
                if self.rules[at[0]].arrow is Arrow.STRICT:
                    # one component: the axioms expanded into c share the
                    # atoms of c's antecedent, so any atom of c names it
                    while type(g) is not Atom:
                        g = g.inner if type(g) is Neg else g.members[0]
                    ks = (component[g.name],)
                else:
                    ks = {component.get(a, a) for a in atoms(c)}
                for k in ks:
                    compound.setdefault(k, set()).add(c)
            for k in ks:
                touching.setdefault(k, []).append(c)
        # the axiom rule's consequent is consistent: the axioms are satisfiable
        derive(self, "_conjoined_axioms", axioms)
        derive(self, "_rules_with", rules_with)
        derive(self, "_component", component)
        derive(self, "_touching", touching)
        derive(self, "_compound", compound)
        derive(self, "_linked", linked)

    def rule(self, rid: str) -> Rule:
        try:
            return self.rules[self._position[rid]]
        except KeyError:
            raise UnknownRuleIdError(rid) from None

    @property
    def rse(self) -> Rule | None:
        return self.rule(self.rse_id) if self.rse_id else None

    def rsd(self) -> tuple[Rule, ...]:
        """The supporting rules: strict and defeasible, minus the axiom rule."""
        return self._rsd

    def _supporting(self, r: Rule) -> bool:
        return r.arrow is not Arrow.WARNING and r.rid != self.rse_id

    def _clauses(self, f: Formula, negated: bool) -> classical.Part:
        """The clause form of f, or of ~f, with its `clause_index`.

        Negations are stripped first, each flipping `negated`, so g and
        every negation of g share the memo entries of g's clause form and
        of ~g's.  A literal's one clause needs no index and is built
        afresh, which costs less than a memo entry."""
        while type(f) is Neg:
            f, negated = f.inner, not negated
        if type(f) is Atom:
            return (frozenset((Lit(f.name, negated),)),), classical.NO_INDEX
        memo = self._negations if negated else self._clause_forms
        found = memo.get(f)
        if found is None:
            clauses = classical.clause_form(Neg(f) if negated else f, self.max_atoms)
            index = classical.clause_index(c for c in clauses if len(c) > 1)
            found = memo[f] = (clauses, index or classical.NO_INDEX)
        return found

    def is_fact(self, f: Formula) -> bool:
        """Whether the axioms semantically entail f: the memo entry that
        also answers whether ~f is consistent (see `_entails`)."""
        return self._entails(f, False)

    def _is_consistent(self, c: Formula) -> bool:
        """Whether c is consistent with the axioms: they do not entail ~c,
        so this reads the memo entry of `is_fact(~c)` (see `_entails`)."""
        return not self._entails(c, True)

    def _entails(self, f: Formula, negated: bool) -> bool:
        """Whether the axioms entail f, or ~f when `negated`.

        Negations are stripped first, each flipping `negated`, as in
        `_clauses`, so g and every negation of g share g's two entries,
        one for g and one for ~g, and no `Neg` is built to ask.  `Ax ⊨ g`
        holds when `classical.find_model` finds no model of the axioms and
        ~g, `Ax ⊨ ~g` when it finds none of the axioms and g.

        A literal l needs no search: `Ax ⊨ l` iff {l} is an axiom.  Proof:
        the axioms are the prime implicates of a satisfiable set, so Ax
        entails a clause that is no tautology exactly when some axiom lies
        inside it, and the only nonempty clause inside {l} is {l}.

        A conjunction-shaped f, `and{…}` or `~or{…}` (see
        `formulas._leaves`), needs no search of its own: Ax entails it iff
        Ax entails each of its leaves with its polarity, since
        `~or{g1..gk}` is `and{~g1..~gk}`.  Each leaf is a literal or
        disjunction-shaped, so that question is one index read or one
        search, and none recurses further."""
        while type(f) is Neg:
            f, negated = f.inner, not negated
        memo = self._refuted if negated else self._facts
        hit = memo.get(f)
        if hit is None:
            if type(f) is Atom:
                hit = (f.name, negated) in self._units  # a Lit is a plain tuple
            elif (type(f) is Conj) is not negated:
                hit = all(self._entails(g, p) for g, p in _leaves(f, negated))
            else:
                part = self._clauses(f, not negated)
                hit = classical.find_model([part], self._implicates) is None
            memo[f] = hit
        return hit

    def supporters(self, f: Formula,
                   rules: Sequence[Rule] | None = None) -> tuple[Rule, ...]:
        """Rules whose consequent is consistent with and implies f (with the
        axioms), among `rules` if given: the paper's R[f] for a rule set R.

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

        A literal l that is no fact needs no search for its literal
        candidates: a consistent literal c supports l iff c is l (once
        leading negations are stripped) or {~c, l} is an axiom.  Lemma: for
        c != l, `Ax ∪ {c} ⊨ l` iff `Ax ⊨ ~c ∨ l` iff some axiom lies inside
        the clause {~c, l}, which is no tautology (see `_entails`).  That
        axiom is not {~c}, since c is consistent, nor {l}, since l is no
        fact, so it is {~c, l} itself; for c == l the entailment is trivial.
        So the description lists, when it is built, each literal's
        consistent literal supporters, and l's supporters are those, with
        those a scan finds among the non-literal consequents of l's
        component; a component without any is not scanned.  A literal c is
        consistent iff {~c} is no axiom, since `Ax ⊨ ~c` iff some axiom
        lies inside {~c} (see `_entails`): one lookup in the unit axioms.
        So a literal in a component with no non-literal consequent is
        answered with no scan, no filter and no memo entry for each linked
        consequent: its rules are those of its index entry, sorted only
        when the entry lists more than one consequent.

        A conjunction-shaped f, `and{g1..gk}` or `~or{g1..gk}` once its
        leading negations are stripped, that is no fact is not scanned: its
        supporters are the rules supporting every member, each member with
        its polarity (gi in the first, ~gi in the second), in rule order.
        Lemma: `Ax ∪ {c} ⊨ and{g1..gk}` iff `Ax ∪ {c} ⊨ gi` for each i,
        `~or{g1..gk}` is equivalent to `and{~g1..~gk}`, and the consistency
        of c does not depend on f.  A fact member is supported by every rule
        with a consistent consequent, so the intersection drops it.  Nested
        members of the same shape are flattened on an explicit stack (see
        `formulas._leaves`), so each member asked is a literal or
        disjunction-shaped, and the strict rules' antecedents share their
        literals' scans.

        A disjunction-shaped f, `or{g1..gk}` or `~and{g1..gk}`, that is no
        fact is scanned, but a candidate that supports one of its literal
        members (again with its polarity) is accepted without a search.
        Lemma: `Ax ∪ {c} ⊨ gi` implies `Ax ∪ {c} ⊨ or{g1..gk}`.  Such a
        member is no fact, since f is none, so its supporters are found as
        the paragraph above says, and all touch K(f).  The other
        candidates, those of a conjunction-shaped member among them, are
        searched: a conjunction-shaped member's own supporters are not
        asked, so a scan runs at most a literal's scan inside it, and
        nesting costs no Python frames.
        """
        return self._support(f, False, rules)

    def _support(self, f: Formula, negated: bool,
                 rules: Sequence[Rule] | None = None) -> tuple[Rule, ...]:
        """`supporters(~f, rules)` when `negated`, else `supporters(f, rules)`.

        Negations are stripped first, each flipping `negated`, as in
        `_entails`, so g and every negation of g share g's two entries, the
        supporters of g and those of ~g, and no `Neg` is built to look one
        up or to scan for one."""
        while type(f) is Neg:
            f, negated = f.inner, not negated
        memo = self._opposers if negated else self._supporters
        entry = memo.get(f)
        if entry is None:
            if self._entails(f, negated):
                found = self._rules_of([c for c in self._rules_with
                                        if c is self._conjoined_axioms or self._is_consistent(c)])
            elif type(f) is Atom:
                kept = self._linked[negated].get(f.name, ())
                k = self._component.get(f.name, f.name)
                if k in self._compound:
                    kept = [*kept, *self._supported(f, negated, (k,), self._compound[k])]
                found = self._rules_of(kept)
            elif (type(f) is Conj) is not negated:
                found = self._supporting_all(f, negated)
            else:
                ks = {self._component.get(a, a) for a in atoms(f)}
                found = self._rules_of([*self._supported(f, negated, ks)])
            # the walks ask for the view among rsd(); it is the same tuple
            # when it drops nothing, as it mostly does
            view = tuple(filter(self._supporting, found))
            entry = memo[f] = found, found if len(view) == len(found) else view
        found, view = entry
        if rules is self._rsd:
            return view
        if rules is None:
            return found
        ids = {r.rid for r in found}
        return tuple(r for r in rules if r.rid in ids)

    def _rules_of(self, consequents: Sequence[Formula]) -> tuple[Rule, ...]:
        """The rules concluding any of the distinct consequents, in rule
        order; one consequent's rules are listed in order, so they need no
        sort."""
        at = []
        for c in consequents:
            at.extend(self._rules_with[c])
        if len(consequents) > 1:
            at.sort()
        return tuple(map(self.rules.__getitem__, at))

    def _supporting_all(self, f: Formula, negated: bool) -> tuple[Rule, ...]:
        """The rules supporting every leaf of the conjunction-shaped f, or
        ~f when `negated`, which is no fact, in rule order (see
        `supporters`).  Each leaf g narrows the rules found so far to their
        supporters of g, with g's polarity; fact leaves support every
        consistent rule and are skipped."""
        found = None
        for g, p in _leaves(f, negated):
            if not self._entails(g, p):
                found = self._support(g, p, found)
                if not found:
                    return ()
        return found

    def _supported(self, f: Formula, negated: bool, ks: Collection[str],
                   among: Collection[Formula] | None = None) -> Iterator[Formula]:
        """The consequents touching the components `ks` that support f, or
        its negation when `negated` (called f below), which is no fact (see
        `supporters`).

        The scans of a description share their work, as incremental SAT
        shares it across assumptions (Eén and Sörensson 2003, MiniSat).
        ~f's clauses are read once, as one part for the pool's test, for
        `classical.assume`, which propagates it through the axioms once, and
        for each candidate c's search, which starts from that branch.  The
        first scan of a set of components `ks` makes its pool, kept on the
        description, which fixes the candidate tuple and the atoms its
        models decide; every scan of `ks` reads both from the pool.  A search
        that finds a model of Ax ∧ c ∧ ~f leaves it to the pool, as an entry
        holding the model and a mask with one bit for each candidate that
        the model satisfies.  Before it is pooled, `classical.extend` decides
        in the model every atom of the components and of the candidates.
        The atoms of every formula whose components are `ks` lie in those
        components, so a pooled model decides each later f of this pool and
        each candidate: it satisfies ~f exactly when it meets every clause
        of ~f, and its mask bits are exact.  A pooled model falsifies no
        axiom, so it extends to a model of them all (see
        `classical.find_model`).  One that satisfies ~f and c therefore
        extends to a countermodel of `Ax ∪ {c} ⊨ f`, so a scan ORs the masks
        of the pooled models that satisfy ~f and runs the kernel only on the
        candidates left unmarked.  A model pooled without `extend` would
        still mark only what it meets in every clause, and so falsify no
        prime implicate and extend to a countermodel: it would reject fewer
        candidates, never a wrong one, and cost only kernel runs.  A scan
        of one candidate propagates nothing ahead.  Scans that race to make
        a pool all use the one `setdefault` keeps, and an entry is appended
        whole, so concurrent scans never pair a model with another's mask.

        Given `among`, the scan searches only the candidates in it: a
        literal's scan passes its component's non-literal consequents, as
        its literal ones are read off the index (see `supporters`).  The
        pool's candidate tuple and masks still cover every candidate.

        For a disjunction-shaped f, the candidates that support one of its
        literal leaves are accepted first, read off the index, and only the
        others are tested against the pool and searched (see `supporters`).
        An accepted candidate has no countermodel, so accepting it pools
        nothing that searching it would have pooled.
        """
        while type(f) is Neg:
            f, negated = f.inner, not negated
        accepted = set()
        if type(f) is not Atom and (type(f) is Conj) is negated:  # disjunction-shaped
            for g, p in _leaves(f, negated):
                if type(g) is Atom:
                    accepted.update(r.consequent for r in self._support(g, p))
            yield from accepted
        key = frozenset(ks)
        pool = self._pools.get(key)
        if pool is None:
            candidates = tuple(dict.fromkeys(c for k in ks for c in self._touching.get(k, ())))
            scope = frozenset(a for a, k in self._component.items() if k in key)
            scope = scope.union(key, *map(atoms, candidates))
            pool = self._pools.setdefault(key, (candidates, scope, []))
        candidates, scope, entries = pool
        left = [i for i, c in enumerate(candidates)
                if c not in accepted and (among is None or c in among)]
        if not left:
            return
        negation = self._clauses(f, not negated)
        rejected = 0
        for m, mask in entries:
            if not any(map(m.isdisjoint, negation[0])):
                rejected |= mask
        left = [i for i in left if not rejected >> i & 1]
        start = None
        if len(left) > 1:  # no conflict: f is no fact
            start = classical.assume([negation], self._implicates)
        for i in left:
            if rejected >> i & 1:
                continue
            c = candidates[i]
            m = classical.find_model([self._clauses(c, False), negation],
                                     self._implicates, start)
            if m is None:
                if self._is_consistent(c):
                    yield c
            else:
                classical.extend(m, scope, self._implicates, self._units)
                mask = sum(1 << j for j, d in enumerate(candidates)
                           if not any(map(m.isdisjoint, self._clauses(d, False)[0])))
                entries.append((m, mask))
                rejected |= mask

    def superior_supporters(self, f: Formula, s: Rule,
                            rules: Sequence[Rule] | None = None) -> tuple[Rule, ...]:
        """Supporters of f strictly superior to s."""
        return self._superior_supporters(f, False, s, rules)

    def _superior_supporters(self, f: Formula, negated: bool, s: Rule,
                             rules: Sequence[Rule] | None = None) -> tuple[Rule, ...]:
        """`superior_supporters(~f, s, rules)` when `negated`, else
        `superior_supporters(f, s, rules)`, read off `_support`, so no `Neg`
        is built to ask."""
        if s.rid not in self._inferiors:  # no rule is superior to s
            return ()
        return tuple(t for t in self._support(f, negated, rules)
                     if (t.rid, s.rid) in self.priority)

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
    ax, strict = _expand(ax_clauses)
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
