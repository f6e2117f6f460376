"""Proof algorithms, evaluation trees, and plausible truth values.

Seven algorithms share one recursion.  The factual algorithm (phi) proves
exactly what the axioms entail.  The others prove a non-fact by finding a
supporting rule whose antecedents they can prove, then defeating every foe:
each foe is either team-defeated by a superior supporter or disabled by
showing the co-algorithm cannot prove the foe's antecedents.  Which rules
count as foes is the only thing that distinguishes the algorithms:

  pi, psi, beta, beta-p   every non-inferior opposing rule
  psi-p                   only opposing rules strictly superior to the one in use
  phi, pi-p               none

A history records every (algorithm, rule) choice made on the current
branch; a choice may never repeat, which bounds the depth of every branch
by twice the number of rules and makes every query terminate with +1 or -1.
Most entries cannot affect a given sub-proof, so the prover memoises each
value with the set of entries whose membership its computation tested, and
reuses it under any history that agrees with it on that set: the memo
grows with the formulas and the entries they read, not with the histories.
A proof value is a function of the description alone, so the memo lives on
the description and every query on it, under any algorithm, history or
thread, reuses what earlier queries stored.
Every walk below is a generator run by one driver (`_run`) on an explicit
stack, so that depth is limited by memory, not by Python's recursion limit.

The same recursion, written out with all alternatives instead of
short-circuiting, yields the evaluation tree: min nodes for antecedent
obligations, max nodes for rule choices, minus nodes for the co-algorithm
flip.  The root value of the tree always equals the recursive verdict.
The tree is built as a DAG, one node per distinct subject; its exports
expand it as they write, on an explicit stack, rendering each node once,
so a streamed export holds the DAG, not the expanded output.

A tree is counted before it is built.  Lemma: below a set or minus node
with history h, every node (its history read as the part past h) and
every value depend on h only through h's entry set and h's last entry.
Proof: the construction rules test a history only for membership, and the
last entry (a, r) fixes the node's algorithm a and its formulas, r's
antecedents.  Only set and minus nodes extend a history, by one entry,
so every node whose history is h hangs below the one set (or minus and
set) node that appended h's last entry: the histories form a prefix trie,
and the distinct nodes are the sum, over its histories, of the nodes at
each.  Memoising that sum per (entry set, last entry) gives the exact
count in time that follows the states, not the histories: the 3-ticket
lottery's beta tree on ~s1 has 1,157,094 distinct nodes, and its refusal
at the default budget stops after about 44,000 states.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import count
from json.encoder import encode_basestring_ascii

from .formulas import Formula, Neg, canonical_set, format_formula
from .kb import PlausibleDescription, Rule


class Alg(Enum):
    """Names of the proof algorithms (ascii spellings, `-p` for primed)."""

    PHI = "phi"
    PI = "pi"
    PSI = "psi"
    BETA = "beta"
    BETA_P = "beta-p"
    PSI_P = "psi-p"
    PI_P = "pi-p"

    # Members are singletons compared by identity, so the identity hash is
    # exact, and it runs in C: Enum.__hash__ is Python code, and it would run
    # on every history entry and every memo key (alg, f).
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


#: Hierarchy order, weakest prover first.
ALG_ORDER = (Alg.PHI, Alg.PI, Alg.PSI, Alg.BETA, Alg.BETA_P, Alg.PSI_P, Alg.PI_P)

_CO = {
    Alg.PHI: Alg.PHI,
    Alg.PI: Alg.PI_P,
    Alg.PI_P: Alg.PI,
    Alg.PSI: Alg.PSI_P,
    Alg.PSI_P: Alg.PSI,
    Alg.BETA: Alg.BETA_P,
    Alg.BETA_P: Alg.BETA,
}

# Algorithms that regard nothing as evidence against a formula.
_BLIND = frozenset((Alg.PHI, Alg.PI_P))

# The algorithms whose history entries take the odd bits (see _Prover).
_PRIMED = frozenset((Alg.BETA_P, Alg.PSI_P, Alg.PI_P))


def co_algorithm(alg: Alg) -> Alg:
    """The co-algorithm: phi is self-dual, priming is an involution."""
    return _CO[alg]


class TruthValue(Enum):
    TRUE = "t"          # usually true: proves f, cannot prove ~f
    FALSE = "f"         # usually false: proves ~f, cannot prove f
    UNDETERMINED = "u"  # proves neither
    AMBIGUOUS = "a"     # proves both (primed algorithms only)

    def __str__(self):
        return self.value


HistoryEntry = tuple[Alg, str]
History = tuple[HistoryEntry, ...]


class InvalidHistoryError(Exception):
    pass


def check_history(desc: PlausibleDescription, alg, history) -> tuple[Alg, History]:
    """Normalize and validate a query's algorithm and history.

    `alg` is an `Alg` or its tag ("pi", "beta-p", ...); an unknown one
    raises ValueError.
    """
    try:
        alg = Alg(alg)
    except ValueError:
        raise ValueError(f"unknown algorithm {alg!r}") from None
    entries = []
    seen = set()
    allowed = {alg, co_algorithm(alg)}
    for entry in history:
        try:
            tag, rid = () if isinstance(entry, (str, bytes)) else entry
        except (TypeError, ValueError):
            rid = None
        if not isinstance(rid, str):
            raise InvalidHistoryError(
                f"history entry {entry!r} is not an (algorithm, rule id) pair")
        try:
            tag = Alg(tag)
        except ValueError:
            raise InvalidHistoryError(f"unknown algorithm tag {tag!r}") from None
        if tag not in allowed:
            raise InvalidHistoryError(
                f"entry {tag}:{rid} does not belong to {alg} or its co-algorithm"
            )
        desc.rule(rid)
        if (tag, rid) in seen:
            raise InvalidHistoryError(f"repeated entry {tag}:{rid}")
        seen.add((tag, rid))
        entries.append((tag, rid))
    return alg, tuple(entries)


def foes(desc: PlausibleDescription, alg: Alg, f: Formula, r: Rule) -> tuple[Rule, ...]:
    """The rules `alg` must defeat before concluding f via r."""
    if alg in _BLIND or r.rid == desc.rse_id:
        return ()
    against = desc.supporters(Neg(f))
    if alg is Alg.PSI_P:
        return tuple(s for s in against if desc.superior(s, r))
    return tuple(s for s in against if not desc.superior(r, s))


def _run(walk):
    """Result of a generator walk, driven on an explicit stack.

    A walk gets a sub-walk's result by yielding the sub-walk (another
    generator): `value = yield sub`.  Depth costs memory, not Python frames.
    """
    stack = [walk]
    value = None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(sub)
            value = None
    return value


class _Prover:
    """One proof walk over a description's shared memo of proof values.

    A history is an int bitset over (algorithm, rule) entries: the entry
    (alg, r) is bit `2 * position(r) + 1` if alg is primed and bit
    `2 * position(r)` otherwise, so extending a history is one `|`.  Two
    bits a rule suffice: a walk under alg only ever holds entries of alg
    and of its co-algorithm, which differ in priming (phi is its own), and
    `memo[alg, f]` is only read and written by walks under alg or its
    co-algorithm.  While computing a formula's value the prover collects in
    `reads` the set D of entries whose membership it tested, directly, in
    sub-proofs, or through the stored D of a memo hit.  The value depends
    on the history only through its intersection with D: the recursion is
    deterministic given its membership answers, and an entry a sub-proof
    adds was first tested, as absent, by the sub-proof itself.  So
    `memo[alg, f]` lists (D, history & D, value), and a lookup reuses any
    entry whose D-part matches the current history.

    The memo is the description's `_proofs`, shared by every walk on it:
    an entry is exact under any history, whichever query stored it.  Only
    `reads` belongs to the walk.  Entries are appended whole, and a value
    is stored only once its computation ends, so concurrent walks and a
    walk cut short by an exception leave only exact entries behind.
    """

    def __init__(self, desc: PlausibleDescription):
        self.desc = desc
        self.rsd = desc.rsd()
        self.position = desc._position
        self.memo = desc._proofs
        self.reads = 0

    def prove(self, alg: Alg, hset: frozenset, x) -> int:
        h = 0
        for tag, rid in hset:
            h |= self._fresh(h, tag, rid)
        return _run(self._prove(alg, h, x))

    def _fresh(self, h: int, alg: Alg, rid: str) -> int:
        """The bit of entry (alg, rid) if h lacks it, else 0; a read either way."""
        e = 1 << (2 * self.position[rid] + (alg in _PRIMED))
        self.reads |= e
        return 0 if h & e else e

    def _prove(self, alg: Alg, h: int, x):
        for f in (x,) if isinstance(x, Formula) else x:
            if (yield self._prove_formula(alg, h, f)) == -1:
                return -1
        return +1

    def _prove_formula(self, alg: Alg, h: int, f: Formula):
        known = self.memo.get((alg, f))
        if known is None:
            known = self.memo.setdefault((alg, f), [])
        for d, hd, value in known:
            if h & d == hd:
                self.reads |= d
                return value
        outer, self.reads = self.reads, 0
        if self.desc.is_fact(f):
            value = +1
        elif alg is Alg.PHI:
            value = -1
        else:
            value = -1
            for r in self.desc.supporters(f, self.rsd):
                e = self._fresh(h, alg, r.rid)
                if e and (yield self._evidence_for(alg, h, e, f, r)) == +1:
                    value = +1
                    break
        d = self.reads
        known.append((d, h & d, value))
        self.reads = outer | d
        return value

    def _evidence_for(self, alg: Alg, h: int, e: int, f: Formula, r: Rule):
        if (yield self._prove(alg, h | e, r.antecedents)) == -1:
            return -1
        for s in foes(self.desc, alg, f, r):
            if (yield self._defeated(alg, h, f, s)) == -1:
                return -1
        return +1

    def _defeated(self, alg: Alg, h: int, f: Formula, s: Rule):
        for t in self.desc.superior_supporters(f, s, self.rsd):
            e = self._fresh(h, alg, t.rid)
            if e and (yield self._prove(alg, h | e, t.antecedents)) == +1:
                return +1
        co = co_algorithm(alg)
        e = self._fresh(h, co, s.rid)
        if e and (yield self._prove(co, h | e, s.antecedents)) == -1:
            return +1
        return -1


def prove(desc: PlausibleDescription, alg: Alg, x, history=()) -> int:
    """Proof value (+1 or -1) of a formula or finite formula set.

    Values are memoised on the description and shared by every call on it,
    under any algorithm: a value is reused on every branch, of this or a
    later query, whose history agrees on the entries that value's
    computation tested (see _Prover).
    """
    alg, h = check_history(desc, alg, history)
    return _Prover(desc).prove(alg, frozenset(h), _normalize(x))


def provable(desc: PlausibleDescription, alg: Alg, x) -> bool:
    """Provability from the empty history."""
    return prove(desc, alg, x) == +1


def truth_value(desc: PlausibleDescription, alg: Alg, f: Formula) -> TruthValue:
    pos = provable(desc, alg, f)
    neg = provable(desc, alg, Neg(f))
    if pos and neg:
        return TruthValue.AMBIGUOUS
    if pos:
        return TruthValue.TRUE
    if neg:
        return TruthValue.FALSE
    return TruthValue.UNDETERMINED


def _normalize(x):
    """A query: a formula, or a finite formula set in canonical order."""
    if isinstance(x, Formula):
        return x
    if isinstance(x, (str, bytes)):
        raise TypeError(f"query {x!r} is text, not a formula or a set of formulas")
    try:
        members = tuple(x)
    except TypeError:
        raise TypeError(f"query {x!r} is not a formula or a set of formulas") from None
    for m in members:
        if not isinstance(m, Formula):
            raise TypeError(f"query member {m!r} is not a formula")
    return canonical_set(members)


# --- evaluation trees -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Subject:
    """Label of an evaluation-tree node.

    kind is one of "set", "formula", "rule", "foe", "minus"; `formulas`
    is set for "set"/"minus" subjects, `formula` for the others, and the
    rule / opponent ids for "rule" and "foe" subjects.
    """

    kind: str
    alg: Alg
    history: History
    formulas: tuple[Formula, ...] | None = None
    formula: Formula | None = None
    rule: str | None = None
    foe: str | None = None

    def text(self) -> str:
        hist = ",".join(tag.value + " " + rid for tag, rid in self.history)
        if self.kind in ("set", "minus"):
            body = "{" + ",".join(format_formula(f) for f in self.formulas) + "}"
            inner = f"({self.alg.value},({hist}),{body})"
            return "-" + inner if self.kind == "minus" else inner
        parts = [self.alg.value, f"({hist})", format_formula(self.formula)]
        if self.rule is not None:
            parts.append(self.rule)
        if self.foe is not None:
            parts.append(self.foe)
        return "(" + ",".join(parts) + ")"


@dataclass(frozen=True, slots=True)
class EvalNode:
    subject: Subject
    op: str  # "min", "max", or "minus"
    value: int
    children: tuple["EvalNode", ...]


class TreeBudgetError(Exception):
    """Tree construction refused: too many distinct nodes."""


class _TreeCore:
    """Shared construction rules: (operation, child subjects) of a subject."""

    def __init__(self, desc: PlausibleDescription):
        self.desc = desc
        self.rsd = desc.rsd()

    def expand(self, subject: Subject) -> tuple[str, tuple[Subject, ...]]:
        kind = subject.kind
        alg, h = subject.alg, subject.history
        if kind == "set":
            return "min", tuple(
                Subject("formula", alg, h, formula=f) for f in subject.formulas
            )
        if kind == "minus":
            return "minus", (Subject("set", alg, h, formulas=subject.formulas),)
        if kind == "formula":
            f = subject.formula
            if self.desc.is_fact(f):
                return "min", ()
            # The factual algorithm constructs no proof for a non-fact: a
            # childless max node keeps the root value equal to the verdict.
            if alg is Alg.PHI:
                return "max", ()
            hset = frozenset(h)
            return "max", tuple(
                Subject("rule", alg, h, formula=f, rule=r.rid)
                for r in self.desc.supporters(f, self.rsd)
                if (alg, r.rid) not in hset
            )
        if kind == "rule":
            f = subject.formula
            r = self.desc.rule(subject.rule)
            children = [
                Subject("set", alg, h + ((alg, r.rid),), formulas=r.antecedents)
            ]
            children += [
                Subject("foe", alg, h, formula=f, rule=r.rid, foe=s.rid)
                for s in foes(self.desc, alg, f, r)
            ]
            return "min", tuple(children)
        # foe: team-defeat branches, then the co-algorithm disable branch
        f = subject.formula
        s = self.desc.rule(subject.foe)
        hset = frozenset(h)
        children = [
            Subject("set", alg, h + ((alg, t.rid),), formulas=t.antecedents)
            for t in self.desc.superior_supporters(f, s, self.rsd)
            if (alg, t.rid) not in hset
        ]
        co = co_algorithm(alg)
        if (co, s.rid) not in hset:
            children.append(
                Subject("minus", co, h + ((co, s.rid),), formulas=s.antecedents)
            )
        return "max", tuple(children)


class _TreeBuilder:
    """Counts a tree's distinct nodes, then materializes a tree that fits.

    Both steps follow the construction rules of `_TreeCore.expand` through
    one plan per (algorithm, formula): whether the formula is a fact, its
    supporters, each one's foes and each foe's team defeaters, each entry
    with its history bit (the encoding of `_Prover`).  A level is the set of
    nodes sharing one history h: the formula, rule and foe nodes below h's
    set node.  `_level` reads a level off the plans: its size, and the
    entries it adds, each naming the set or minus node one level down.
    """

    def __init__(self, desc: PlausibleDescription, max_nodes: int):
        self.desc = desc
        self.rsd = desc.rsd()
        self.position = desc._position
        self.max_nodes = max_nodes
        self.plans: dict = {}
        # (alg, formulas) -> (entry bits their plans test, {h & those bits: level})
        self.levels: dict = {}

    def _bit(self, alg: Alg, rid: str) -> int:
        return 1 << (2 * self.position[rid] + (alg in _PRIMED))

    def _plan(self, alg: Alg, f: Formula) -> tuple[str, tuple]:
        """(op, ((r, bit, ((s, ((t, bit), ...), co bit), ...)), ...)) of
        the formula node (alg, h, f), whatever h is."""
        plan = self.plans.get((alg, f))
        if plan is None:
            desc = self.desc
            if desc.is_fact(f):
                plan = "min", ()
            elif alg is Alg.PHI:
                plan = "max", ()
            else:
                co = co_algorithm(alg)
                plan = "max", tuple(
                    (r, self._bit(alg, r.rid), tuple(
                        (s, tuple((t, self._bit(alg, t.rid))
                                  for t in desc.superior_supporters(f, s, self.rsd)),
                         self._bit(co, s.rid))
                        for s in foes(desc, alg, f, r)))
                    for r in desc.supporters(f, self.rsd))
            self.plans[alg, f] = plan
        return plan

    def _level(self, alg: Alg, h: int, formulas) -> tuple[int, dict]:
        """(formula, rule and foe nodes of history h, {bit: (alg, rule,
        minus?)} of the entries they add, first use first).

        A level reads h only through the entry bits its plans test, so it
        is stored per (alg, formulas) under h masked to those bits, and
        shared: callers must not change it.
        """
        memo = self.levels.get((alg, formulas))
        if memo is None:
            mask = 0
            for f in formulas:
                for r, e, opponents in self._plan(alg, f)[1]:
                    mask |= e
                    for s, team, ce in opponents:
                        mask |= ce
                        for t, te in team:
                            mask |= te
            memo = self.levels[alg, formulas] = mask, {}
        mask, seen = memo
        level = seen.get(h & mask)
        if level is not None:
            return level
        size = 0
        below: dict = {}
        co = co_algorithm(alg)
        for f in formulas:
            size += 1
            for r, e, opponents in self._plan(alg, f)[1]:
                if h & e:
                    continue
                size += 1 + len(opponents)
                if e not in below:
                    below[e] = alg, r, False
                for s, team, ce in opponents:
                    for t, te in team:
                        if not h & te and te not in below:
                            below[te] = alg, t, False
                    if not h & ce and ce not in below:
                        below[ce] = co, s, True
        level = seen[h & mask] = size, below
        return level

    def count(self, alg: Alg, h: int, x) -> int:
        """Distinct nodes of the tree rooted at (alg, h, x); raises
        TreeBudgetError as soon as the count passes max_nodes.

        A state (h, e) is a set node's history as its entry set h and last
        entry e; `sizes` holds the nodes at or below each state finished.
        The walk adds every level it reaches, or a state's stored size, to
        one running total, so the total never exceeds the tree's count.
        """
        sizes: dict[tuple[int, int], int] = {}
        limit = self.max_nodes
        size, below = self._level(alg, h, (x,) if isinstance(x, Formula) else x)
        total = size + (not isinstance(x, Formula))  # a set root's own node
        stack = [(None, 0, h, iter(below.items()))]
        while stack:
            key, start, h, entries = stack[-1]
            for e, (a, r, minus) in entries:
                total += minus
                known = sizes.get((h | e, e))
                if known is None:
                    size, below = self._level(a, h | e, r.antecedents)
                    stack.append(((h | e, e), total, h | e, iter(below.items())))
                    total += 1 + size
                    break
                total += known
                if total > limit:
                    break
            else:
                stack.pop()
                if key is not None:
                    sizes[key] = total - start
            if total > limit:
                raise TreeBudgetError(f"more than {limit} distinct nodes")
        return total

    def build(self, alg: Alg, history: History, h: int, x):
        """Walk materializing the tree: one node per subject, the set and
        minus nodes of each level shared by entry."""
        if isinstance(x, Formula):
            return (yield self._nodes(alg, history, h, (x,)))[0]
        children = yield self._nodes(alg, history, h, x)
        return EvalNode(Subject("set", alg, history, formulas=x), "min",
                        _aggregate("min", children), children)

    def _nodes(self, alg: Alg, history: History, h: int, formulas):
        """Walk returning the formula nodes of history h, building the
        levels below it first."""
        below = {}
        for e, (a, r, minus) in self._level(alg, h, formulas)[1].items():
            deeper = history + ((a, r.rid),)
            children = yield self._nodes(a, deeper, h | e, r.antecedents)
            node = EvalNode(Subject("set", a, deeper, formulas=r.antecedents), "min",
                            _aggregate("min", children), children)
            if minus:
                node = EvalNode(Subject("minus", a, deeper, formulas=r.antecedents),
                                "minus", -node.value, (node,))
            below[e] = node
        out = []
        for f in formulas:
            op, rules = self._plan(alg, f)
            children = []
            for r, e, opponents in rules:
                if h & e:
                    continue
                obligations = [below[e]]
                for s, team, ce in opponents:
                    routes = [below[te] for t, te in team if not h & te]
                    if not h & ce:
                        routes.append(below[ce])
                    routes = tuple(routes)
                    obligations.append(EvalNode(
                        Subject("foe", alg, history, formula=f, rule=r.rid, foe=s.rid),
                        "max", _aggregate("max", routes), routes))
                obligations = tuple(obligations)
                children.append(EvalNode(
                    Subject("rule", alg, history, formula=f, rule=r.rid),
                    "min", _aggregate("min", obligations), obligations))
            children = tuple(children)
            out.append(EvalNode(Subject("formula", alg, history, formula=f),
                                op, _aggregate(op, children), children))
        return tuple(out)


class _TreeEvaluator(_TreeCore):
    """Root value of the tree, computed without materializing nodes.

    A subject's value depends on its history only through the entry set,
    so values are shared across the (possibly astronomically many)
    branches that differ only in entry order.  Children are evaluated
    lazily; min and max are order-insensitive, so the result equals the
    fully materialized tree's root value.
    """

    def __init__(self, desc: PlausibleDescription):
        super().__init__(desc)
        self.memo: dict = {}

    def value(self, subject: Subject) -> int:
        return _run(self._value(subject))

    def _value(self, subject: Subject):
        key = (subject.kind, subject.alg, frozenset(subject.history),
               subject.formulas, subject.formula, subject.rule, subject.foe)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        op, child_subjects = self.expand(subject)
        if op == "minus":
            result = -(yield self._value(child_subjects[0]))
        else:
            # a min node stops at its first -1 child, a max node at its first +1
            stop = -1 if op == "min" else +1
            result = -stop
            for c in child_subjects:
                if (yield self._value(c)) == stop:
                    result = stop
                    break
        self.memo[key] = result
        return result


def _aggregate(op: str, children: tuple[EvalNode, ...]) -> int:
    values = [c.value for c in children]
    if op == "minus":
        return -values[0]
    if op == "min":
        return -1 if -1 in values else +1
    return +1 if +1 in values else -1


def evaluation_tree(desc: PlausibleDescription, alg: Alg, x, history=(),
                    max_nodes: int = 200_000) -> EvalNode:
    """The evaluation tree rooted at (alg, history, x).

    Identical subjects share one node, so the result is a DAG presented
    as a tree.  The exporters write the expanded tree from the DAG:
    `tree_json_pieces` and `tree_dot_pieces` render each node once, and a
    caller that writes their pieces as they come needs memory for the DAG,
    not for the expanded output.  The root value equals prove() on the
    same arguments.

    The budget is exact: TreeBudgetError is raised if and only if the tree
    has more than `max_nodes` distinct nodes, and it is raised before any
    node is built.  The count memoises the number of nodes at or below each
    (entry set, last entry) state, which is all a subtree depends on (see
    the module docstring), so a refusal costs the states it visits, not
    the nodes it refuses.  A tree that fits is then built from the same
    plans, one node per distinct subject.
    """
    alg, history = check_history(desc, alg, history)
    x = _normalize(x)
    builder = _TreeBuilder(desc, max_nodes)
    h = 0
    for tag, rid in history:
        h |= builder._bit(tag, rid)
    builder.count(alg, h, x)
    return _run(builder.build(alg, history, h, x))


def tree_value(desc: PlausibleDescription, alg: Alg, x, history=()) -> int:
    """Root value of the evaluation tree, without materializing nodes.

    Follows the tree construction rules rather than the prover's
    recursion, sharing values across branches whose histories contain the
    same entries, so it stays tractable where the materialized tree would
    not.  Always equals prove().
    """
    alg, h = check_history(desc, alg, history)
    root = _root_subject(alg, h, _normalize(x))
    return _TreeEvaluator(desc).value(root)


def _root_subject(alg: Alg, h: History, x) -> Subject:
    if isinstance(x, Formula):
        return Subject("formula", alg, h, formula=x)
    return Subject("set", alg, h, formulas=x)


def tree_json(node: EvalNode) -> dict:
    """Tree as JSON-ready nested dicts: {subject, op, value, children}.

    Every occurrence of a shared subtree is a fresh copy, so the result
    grows with the expanded tree; `tree_json_pieces` writes the same
    document as text from the DAG.
    """
    return _run(_json(node))


def _json(node: EvalNode):
    children = []
    for c in node.children:
        children.append((yield _json(c)))
    return {"subject": _subject_json(node.subject), "op": node.op,
            "value": node.value, "children": children}


def _subject_json(subject: Subject) -> dict:
    """The JSON object of a subject: the definition of its shape, which
    `tree_json_pieces` renders from templates to the same text."""
    out: dict = {
        "kind": subject.kind,
        "alg": subject.alg.value,
        "history": [[tag.value, rid] for tag, rid in subject.history],
    }
    if subject.formulas is not None:
        out["formulas"] = [format_formula(f) for f in subject.formulas]
    if subject.formula is not None:
        out["formula"] = format_formula(subject.formula)
    if subject.rule is not None:
        out["rule"] = subject.rule
    if subject.foe is not None:
        out["foe"] = subject.foe
    return out


# One history entry [tag, rule id] as it sits in a subject's "history" list.
_JSON_ENTRY = '\n    [\n      %s,\n      %s\n    ]'
_quote = encode_basestring_ascii  # what json.dumps applies to a str


def tree_json_pieces(root: EvalNode):
    """`json.dumps(tree_json(root), indent=2, sort_keys=True)`, in pieces.

    The expanded tree is written from the DAG on an explicit stack, so depth
    costs memory, not frames, and no nesting limit applies.  Each DAG node's
    op, subject and value are rendered once, from fixed templates in key
    order, and re-indented per occurrence.  A subject's history is most of
    its text, and the nodes of a level share one history, each the history
    above it plus one entry: each distinct history is rendered once, as the
    rendering of the history above it plus its last entry.  A caller that
    writes the pieces out as they come holds the DAG and its rendered nodes
    and histories, not the expanded document.
    """
    tails: dict[int, str] = {}
    # id(history) -> (history, its entries as the "history" list renders
    # them); holding the history keeps its id from being reused.
    histories: dict[int, tuple[History, str]] = {}

    def entries(history: History, above: tuple[History, str]) -> tuple[History, str]:
        hit = histories.get(id(history))
        if hit is None:
            up, text = above
            if history and history[:-1] == up:
                tag, rid = history[-1]
                text += ("," if up else "") + _JSON_ENTRY % (_quote(tag.value), _quote(rid))
            elif history != up:
                text = ",".join(_JSON_ENTRY % (_quote(tag.value), _quote(rid))
                                for tag, rid in history)
            hit = histories[id(history)] = history, text
        return hit

    def head(node: EvalNode, pad: str) -> str:
        return "{\n" + pad + ('"children": [\n' if node.children else '"children": [],\n')

    def tail(node: EvalNode, pad: str, history: str) -> str:
        # pad indents the node's keys; the node itself sits two spaces left
        text = tails.get(id(node))
        if text is None:
            s = node.subject
            keys = ['"alg": ' + _quote(s.alg.value)]
            if s.foe is not None:
                keys.append('"foe": ' + _quote(s.foe))
            if s.formula is not None:
                keys.append('"formula": ' + _quote(format_formula(s.formula)))
            if s.formulas is not None:
                members = ",\n    ".join(_quote(format_formula(f)) for f in s.formulas)
                keys.append('"formulas": ' + ("[\n    " + members + "\n  ]" if members else "[]"))
            keys.append('"history": ' + ("[" + history + "\n  ]" if history else "[]"))
            keys.append('"kind": ' + _quote(s.kind))
            if s.rule is not None:
                keys.append('"rule": ' + _quote(s.rule))
            text = tails[id(node)] = (f'"op": {_quote(node.op)},\n"subject": {{\n  '
                                      + ",\n  ".join(keys) + f"\n}},\n\"value\": {node.value}")
        close = "\n" + pad + "],\n" if node.children else ""
        text = text.replace("\n", "\n" + pad)
        return f"{close}{pad}{text}\n{pad[2:]}}}"  # one copy of the long text

    yield head(root, "  ")
    stack = [(root, "  ", entries(root.subject.history, ((), "")), enumerate(root.children))]
    while stack:
        node, pad, history, children = stack[-1]
        i, child = next(children, (0, None))
        if child is None:
            stack.pop()
            yield tail(node, pad, history[1])
        else:
            item = pad + "  "
            yield (",\n" if i else "") + item + head(child, item + "  ")
            stack.append((child, item + "  ", entries(child.subject.history, history),
                          enumerate(child.children)))


_DOT_SHAPE = {"min": "box", "max": "ellipse", "minus": "diamond"}


def tree_dot(node: EvalNode) -> str:
    """Tree in DOT format; min/max/minus nodes get distinct shapes.

    The lines of `tree_dot_pieces`, joined into one string as large as the
    expanded tree's text.
    """
    return "".join(tree_dot_pieces(node))


def tree_dot_pieces(root: EvalNode):
    """The DOT text of the expanded tree, one line a piece.

    Nodes are named in preorder; a node's line comes first, then, child by
    child, the child's subtree and the edge to it.  The walk runs on an
    explicit stack over the DAG and renders each DAG node's shape and label
    once, so a caller that writes the lines out as they come holds only the
    DAG and its labels.
    """
    rest: dict[int, str] = {}
    names = count()

    def line(node: EvalNode) -> tuple[str, str]:
        name = f"n{next(names)}"
        text = rest.get(id(node))
        if text is None:
            label = f"{node.subject.text()} = {node.value:+d}".replace('"', r"\"")
            text = rest[id(node)] = f' [shape={_DOT_SHAPE[node.op]}, label="{label}"];\n'
        return name, "  " + name + text

    yield "digraph evaluation {\n"
    name, text = line(root)
    yield text
    stack = [(name, iter(root.children))]
    while stack:
        name, children = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            if stack:
                yield f"  {stack[-1][0]} -> {name};\n"
        else:
            child_name, text = line(child)
            yield text
            stack.append((child_name, iter(child.children)))
    yield "}\n"
