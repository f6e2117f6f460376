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

So beta-p is beta with primed and unprimed history entries swapped, and
without priorities psi is pi and psi-p is pi-p: `prove` answers each of
these queries by the walk of the algorithm it equals (see `prove`).
From the empty history, provability grows along the paper's hierarchy
phi ⊆ pi ⊆ psi ⊆ beta = beta-p ⊆ psi-p ⊆ pi-p (`ALG_ORDER`), so each
formula keeps one rank, the lowest place in that order of an algorithm
that has proved it at the empty history, and a query there under any
algorithm at or above that rank is +1 without a walk.

A history records every (algorithm, rule) choice made on the current
branch; a choice may never repeat, which bounds the depth of every branch
by twice the number of rules and makes every query terminate with +1 or -1.
Every memoised walk (the prover, the tree count, the tree's root value)
reads a history as one int bitset, a bit per entry (see `_bit`), derived
once at the walk's entry point and threaded down it, each step that adds
an entry ORing in its bit, and stores each value with the bitset D of the
entries its computation tested, under `history & D`.
The prover's loop over a formula's supporters is this definition written
out: a fresh supporter, its antecedents proved, then each foe
team-defeated or else disabled.  The prover memoises each value on the
description with the entries its computation read, so the memo grows with
the formulas, not the histories, and every query reuses it: a query whose
value the memo holds under its history returns without a walk (see
`_Prover`).  The prover reads a formula as the description does, without
its leading negations and with a polarity, so ~~f shares f's values and a
truth value asks f and ~f without building a negation.
Every walk below is a generator run by one driver (`_run`) on an explicit
stack, so that depth is limited by memory, not by Python's recursion limit.

The same recursion, written out with all alternatives instead of
short-circuiting, yields the evaluation tree: min nodes for antecedent
obligations, max nodes for rule choices, minus nodes for the co-algorithm
flip.  The root value of the tree always equals the recursive verdict.
The tree is built as a DAG of named tuples, one node per distinct subject;
both exports expand it as they write, by one walk on an explicit stack
(`_expanded`) that renders each history once and takes each node's text on
entry and on exit from the export, so a streamed export holds the DAG and
one chunk, not the expanded output.
A tree is counted before it is built, each subtree's size memoised with
the entry bits it read (see `_TreeBuilder.count`); the tree's root value
is computed the same way, without the tree, on subjects that carry no
history and key its memo themselves (see `_TreeEvaluator`).
"""

from __future__ import annotations

from enum import Enum
from itertools import count
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

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
    # on every history entry and every memo key (alg, f, negated).
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

# The algorithms whose history entries take the odd bits (see _bit).
_PRIMED = frozenset((Alg.BETA_P, Alg.PSI_P, Alg.PI_P))

# The algorithm whose walk answers each of these when there are no
# priorities (see prove).
_UNRANKED = {Alg.PSI: Alg.PI, Alg.PSI_P: Alg.PI_P}

# Each algorithm's place in the hierarchy (see prove).
_RANK = {alg: i for i, alg in enumerate(ALG_ORDER)}


def _as_alg(alg) -> Alg:
    """The `Alg` named by `alg`, a member or its tag ("pi", "beta-p", ...);
    an unknown one raises ValueError."""
    try:
        return Alg(alg)
    except ValueError:
        raise ValueError(f"unknown algorithm {alg!r}") from None


def co_algorithm(alg: Alg | str) -> Alg:
    """The co-algorithm of an `Alg` or its tag: phi is self-dual, priming is
    an involution."""
    return _CO[alg if type(alg) is Alg else _as_alg(alg)]


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
    alg = _as_alg(alg)
    entries = []
    seen = 0
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
        e = _bit(desc, tag, rid)
        if seen & e:
            raise InvalidHistoryError(f"repeated entry {tag}:{rid}")
        seen |= e
        entries.append((tag, rid))
    return alg, tuple(entries)


def foes(desc: PlausibleDescription, alg: Alg | str, f: Formula,
         r: Rule) -> tuple[Rule, ...]:
    """The rules `alg`, an `Alg` or its tag, must defeat before concluding f
    via r: supporters of ~f, looked up under f itself (see
    `PlausibleDescription._support`).  An f with no opposers, as every link
    of a defeasible chain, has no foes, returned at once."""
    return _foes(desc, alg if type(alg) is Alg else _as_alg(alg), f, False, r)


def _foes(desc: PlausibleDescription, alg: Alg, f: Formula, negated: bool,
          r: Rule) -> tuple[Rule, ...]:
    """`foes(desc, alg, ~f, r)` when `negated`, else `foes(desc, alg, f, r)`,
    for an `Alg` alg: the opposing rules are the supporters of the other
    polarity, so no `Neg` is built to ask for them."""
    if alg in _BLIND or r.rid == desc.rse_id:
        return ()
    against = desc._support(f, not negated)
    if not against:
        return ()
    if alg is Alg.PSI_P:
        return tuple(s for s in against if desc.superior(s, r))
    return tuple(s for s in against if not desc.superior(r, s))


def _bit(desc: PlausibleDescription, alg: Alg, rid: str) -> int:
    """The history bit of entry (alg, rid): bit `2 * position + 1` if alg is
    primed and bit `2 * position` otherwise, position being rid's index in
    `desc.rules`.

    Two bits a rule suffice: a walk under alg only ever holds entries of
    alg and of its co-algorithm, which differ in priming (phi is its own),
    and `memo[alg, f, negated]` is only read and written by walks under alg
    or its co-algorithm.
    """
    return 1 << (2 * desc._position[rid] + (alg in _PRIMED))


def _history_bits(desc: PlausibleDescription, history) -> int:
    """The bitset of a history's (algorithm, rule) entries: distinct bits,
    so their sum is their OR."""
    return sum(_bit(desc, tag, rid) for tag, rid in history)


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


def _recall(memo: dict, alg: Alg, h: int, f: Formula, negated: bool):
    """The first entry (D, h & D, value) of `memo[alg, f, negated]` whose
    D-part matches h, or None: the one lookup of a memoised proof value, f
    having no leading negation."""
    for entry in memo.get((alg, f, negated), ()):
        if h & entry[0] == entry[1]:
            return entry
    return None


class _Prover:
    """One proof walk over a description's shared memo of proof values.

    A history is an int bitset over (algorithm, rule) entries, one bit each
    (see `_bit`), so extending a history is one `|`.  While computing a
    formula's value the prover collects in `reads` the set D of entries
    whose membership it tested, directly, in sub-proofs, or through the
    stored D of a memo hit.  The value depends on the history only through
    its intersection with D: the recursion is deterministic given its
    membership answers, and an entry a sub-proof adds was first tested, as
    absent, by the sub-proof itself.  So `memo[alg, g, negated]` lists (D,
    history & D, value), and a lookup reuses any entry whose D-part matches
    the current history.

    The memo is keyed as the description keys its own: by g, the formula
    left once its leading negations are stripped, and the polarity
    `negated`, whether an odd number of them was stripped.  Every entry
    point strips them first.  This is exact: the walk reads its formula only
    through whether it is a fact, its supporters, its foes and their
    superior supporters, asked of the description by polarity (`_entails`,
    `_support`, `_foes`, `_superior_supporters`), and the description
    strips leading negations before it answers any of these.  So
    prove(alg, h, ~~g) == prove(alg, h, g), and an entry or a rank stored
    under (g, negated) holds for every formula that strips to it.

    `_prove_formula` proves a non-fact f under history h in one loop over
    f's supporters.  A supporter r whose entry h lacks proves f if its
    antecedents are proved under h plus r's entry and every foe s falls:
    s is team-defeated if a superior supporter t whose entry h lacks has
    its antecedents proved under h plus t's entry, and disabled if the
    co-algorithm's entry for s is absent from h and the co-algorithm
    cannot prove s's antecedents under h plus that entry.  Team defeaters
    and the disable step extend h, not h plus r's entry.

    A walk starts only for a value the memo lacks: `prove` looks its query
    up (and, at the empty history, the formula's rank) before it makes a
    prover, and `_prove` and the loop over a supporter's antecedents look
    each formula up (`_known`), reading a hit's D, before they start its
    walk.  So a query whose value the memo holds under its history returns
    without a walk, and on the lotteries most supporters are refuted by a
    hit, without a generator.

    The memo is the description's `_proofs`, shared by every walk on it:
    a proof value is a function of the description alone, so an entry is
    exact under any history, whichever query stored it, and the memo grows
    with the formulas and the entries they read, not with the histories.
    Only `reads` belongs to the walk.  Entries are appended whole, and a
    value is stored only once its computation ends, so concurrent walks and
    a walk cut short by an exception leave only exact entries behind.

    A +1 stored with `h & D == 0` holds at the empty history, so it also
    lowers the rank of (g, negated), the description's `_ranked[g,
    negated]`, to alg's place in `ALG_ORDER` (see `prove`): every store
    counts, a sub-walk's as well as the query's own.
    """

    def __init__(self, desc: PlausibleDescription):
        self.desc = desc
        self.rsd = desc.rsd()
        self.memo = desc._proofs
        self.ranked = desc._ranked
        self.reads = 0

    def _fresh(self, h: int, alg: Alg, rid: str) -> int:
        """The bit of entry (alg, rid) if h lacks it, else 0; a read either way."""
        e = _bit(self.desc, alg, rid)
        self.reads |= e
        return 0 if h & e else e

    def _prove(self, alg: Alg, h: int, formulas):
        for f in formulas:
            value = self._known(alg, h, f)
            if value is None:
                value = yield self._prove_formula(alg, h, f, False)
            if value == -1:
                return -1
        return +1

    def _known(self, alg: Alg, h: int, f: Formula) -> int | None:
        """The memo's value of f under h, its D read, or None (see `_recall`)."""
        negated = False
        while type(f) is Neg:
            f, negated = f.inner, not negated
        hit = _recall(self.memo, alg, h, f, negated)
        if hit is None:
            return None
        self.reads |= hit[0]
        return hit[2]

    def _prove_formula(self, alg: Alg, h: int, f: Formula, negated: bool):
        """Walk computing the value of f, or of ~f when `negated`, under h,
        which the memo lacks."""
        while type(f) is Neg:
            f, negated = f.inner, not negated
        outer, self.reads = self.reads, 0
        desc = self.desc
        if desc._entails(f, negated):
            value = +1
        elif alg is Alg.PHI:
            value = -1
        else:
            value = -1
            co = co_algorithm(alg)
            for r in desc._support(f, negated, self.rsd):
                e = self._fresh(h, alg, r.rid)
                if not e:
                    continue
                g = h | e
                for a in r.antecedents:
                    known = self._known(alg, g, a)
                    if known is None:
                        known = yield self._prove_formula(alg, g, a, False)
                    if known == -1:
                        break
                else:
                    for s in _foes(desc, alg, f, negated, r):
                        for t in desc._superior_supporters(f, negated, s, self.rsd):
                            te = self._fresh(h, alg, t.rid)
                            if te and (yield self._prove(alg, h | te, t.antecedents)) == +1:
                                break  # s is team-defeated
                        else:
                            ce = self._fresh(h, co, s.rid)
                            if not ce or (yield self._prove(co, h | ce, s.antecedents)) == +1:
                                break  # s is neither team-defeated nor disabled
                    else:
                        value = +1
                        break
        d = self.reads
        self.memo.setdefault((alg, f, negated), []).append((d, h & d, value))
        rank = f, negated
        if value == +1 and not h & d and self.ranked.get(rank, len(ALG_ORDER)) > _RANK[alg]:
            self.ranked[rank] = _RANK[alg]
        self.reads = outer | d
        return value


def prove(desc: PlausibleDescription, alg: Alg, x, history=()) -> int:
    """Proof value (+1 or -1) of a formula or finite formula set.

    Values are memoised on the description and shared by every call on it,
    under any algorithm: a value is reused on every branch, of this or a
    later query, whose history agrees on the entries that value's
    computation tested (see _Prover).  A formula query whose value the
    memo holds under its history returns that value without a walk.  The
    history is still checked, unless it is an empty tuple or list and alg
    an `Alg`, which leave nothing to check.  A formula is looked up, ranked
    and walked without its leading negations, with a polarity, as the
    description reads it (see `_Prover`): prove(alg, h, ~~f) ==
    prove(alg, h, f), and one answers the other from the memo.

    A beta-p query, and without priorities a psi or psi-p query, runs the
    walk of the algorithm it equals, by two lemmas:

    - beta-p is beta with the history's tags swapped:
      prove(beta-p, h, x) == prove(beta, σ(h), x), σ swapping the tags beta
      and beta-p.  Proof, by induction on the supporter loop: `foes` gives
      both the same non-inferior opposing rules, and the two walks differ
      only in the tag of the entries they test and add, each testing and
      adding its own supporters' and team defeaters' entries and its
      co-algorithm's disable entries; each is the other's co-algorithm.
      This holds with or without priorities.
    - With no priorities, psi is pi and psi-p is pi-p: `foes` gives pi and
      psi every opposing rule and psi-p and pi-p none, no rule has a
      superior supporter, and `_bit` reads only priming, so the history's
      bits stay as they are.

    Only the query's own algorithm is redirected; the co-algorithm walks
    inside it keep their own.

    A formula query at the empty history that the memo lacks under its own
    algorithm then reads the formula's rank (see `_Prover`): the lowest
    place in `ALG_ORDER` of an algorithm with a stored +1 for it at the
    empty history.  If the rank is at or below the place of the algorithm
    whose walk the query runs, the query is +1 by the hierarchy theorem,
    and it returns without a walk.  Nothing enters the memo: the theorem
    gives the +1 at the empty history only, and no walk has read the
    entries (D) a memo entry would need.  Under a history with any entry,
    or at a higher rank, the query walks as before.
    """
    if not (type(alg) is Alg and type(history) in (tuple, list) and not history):
        alg, history = check_history(desc, alg, history)
    alg, h = _walked(desc, alg, history)
    if not isinstance(x, Formula):
        return _run(_Prover(desc)._prove(alg, h, _normalize(x)))
    return _ask(desc, alg, h, x, False)


def _walked(desc: PlausibleDescription, alg: Alg, history) -> tuple[Alg, int]:
    """The algorithm whose walk answers a query under alg, and the bits of
    the query's checked history for that walk: beta-p runs beta's walk on
    the history with its tags swapped, and without priorities psi and psi-p
    run pi's and pi-p's (see `prove`)."""
    if alg is Alg.BETA_P:
        alg = Alg.BETA
        history = [(co_algorithm(tag), rid) for tag, rid in history]
    elif not desc.priority and alg in _UNRANKED:
        alg = _UNRANKED[alg]
    return alg, _history_bits(desc, history) if history else 0


def _ask(desc: PlausibleDescription, alg: Alg, h: int, f: Formula, negated: bool) -> int:
    """The value of f, or of ~f when `negated`, under the walked algorithm
    alg (see `_walked`) and history bits h: the memo's, +1 by the rank at
    the empty history, or else a walk's (see `prove`)."""
    while type(f) is Neg:
        f, negated = f.inner, not negated
    hit = _recall(desc._proofs, alg, h, f, negated)
    if hit is not None:
        return hit[2]
    if not h and desc._ranked.get((f, negated), len(ALG_ORDER)) <= _RANK[alg]:
        return +1
    return _run(_Prover(desc)._prove_formula(alg, h, f, negated))


def provable(desc: PlausibleDescription, alg: Alg, x) -> bool:
    """Provability from the empty history."""
    return prove(desc, alg, x) == +1


def truth_value(desc: PlausibleDescription, alg: Alg, f: Formula) -> TruthValue:
    """The plausible truth value of one formula f under alg.

    A query that is no formula raises TypeError before any proof: a truth
    value compares proofs of f and ~f, and a formula set has no negation.
    Both are asked as `prove` asks them at the empty history, by polarity,
    after one redirect (see `_walked`): ~f is f with the other polarity,
    so no `Neg` is built, and a memo hit for either starts no walk.
    """
    if not isinstance(f, Formula):
        _normalize(f)  # text, or anything that is no formula set, is named as such
        raise TypeError(f"query {f!r} is a set of formulas, not a formula: "
                        "a truth value needs one formula")
    alg, _ = _walked(desc, alg if type(alg) is Alg else _as_alg(alg), ())
    pos = _ask(desc, alg, 0, f, False) == +1
    neg = _ask(desc, alg, 0, f, True) == +1
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

class Subject(NamedTuple):
    """Label of an evaluation-tree node.

    kind is one of "set", "formula", "rule", "foe", "minus"; `formulas`
    is set for "set"/"minus" subjects, `formula` for the others, and the
    rule / opponent ids for "rule" and "foe" subjects.  The history is
    None on the subjects `_TreeEvaluator` walks, which read it as bits;
    the nodes of a built tree hold their tuple histories.
    """

    kind: str
    alg: Alg
    history: History | None
    formulas: tuple[Formula, ...] | None = None
    formula: Formula | None = None
    rule: str | None = None
    foe: str | None = None


class EvalNode(NamedTuple):
    subject: Subject
    op: str  # "min", "max", or "minus"
    value: int
    children: tuple[EvalNode, ...]


class TreeBudgetError(Exception):
    """Tree construction refused: too many distinct nodes."""


class _TreeEvaluator:
    """The tree's construction rules, and the root value of the tree,
    computed without materializing nodes.

    `expand` gives a subject's operation and child subjects; the evaluator
    walks `expand` and nothing else.  It reads a subject's history as the
    int bitset the prover uses (see `_bit`): `value` derives it once from
    the root subject's history (`_history_bits`), and the walk threads it
    down, `expand` giving each child's bitset beside the child, so the
    subjects it walks carry no history (None), and a walk down n rules
    holds n bitsets, not n tuple histories.  `expand` tests an entry through
    the prover's own read-and-test, `_fresh`.  While it computes a
    subject's value the evaluator collects in `reads` the bitset D of the
    history entries whose membership `expand` tested, at the subject, below
    it, or through the stored D of a memo hit.  A formula node tests its
    supporters' entries and a foe node its team defeaters' and the
    co-algorithm's entry; set, minus and rule nodes test none.  The value
    depends on the history h only through h & D.  Proof, by induction on
    the walk: `expand` is deterministic given its membership answers, so
    under any history h' with h' & D == h & D it returns the same
    children, and the values decide which of them are walked: min stops at
    its first -1 child, max at its first +1.  A child keeps h or adds one
    entry e (a rule's antecedents, a team defeater, the co-algorithm's
    minus node); both histories then hold e, and agree on the rest of the
    child's D, which is part of D.  So the memo maps a subject, which holds
    no history, to {D: {h & D: value}}, and a lookup reuses the value of any D
    the history agrees on: one value serves every branch that differs only
    in entries the subtree never tests.  Min and max are order-insensitive,
    so the result equals the fully materialized tree's root value.
    """

    def __init__(self, desc: PlausibleDescription):
        self.desc = desc
        self.rsd = desc.rsd()
        # the subject, whose history is None -> {D: {h & D: value}}
        self.memo: dict[Subject, dict[int, dict[int, int]]] = {}
        self.reads = 0

    # the prover's read-and-test: the entry's bit if h lacks it, else 0
    _fresh = _Prover._fresh

    def expand(self, subject: Subject, h: int) -> tuple[str, tuple[tuple[Subject, int], ...]]:
        """(op, ((child subject, its history's bits), ...)) of a subject whose
        history's bits are h; the children carry no history."""
        kind, alg = subject.kind, subject.alg
        if kind == "set":
            return "min", tuple((Subject("formula", alg, None, None, f), h)
                                for f in subject.formulas)
        if kind == "minus":
            return "minus", ((Subject("set", alg, None, subject.formulas), h),)
        if kind == "formula":
            f = subject.formula
            if self.desc.is_fact(f):
                return "min", ()
            # The factual algorithm constructs no proof for a non-fact: a
            # childless max node keeps the root value equal to the verdict.
            if alg is Alg.PHI:
                return "max", ()
            return "max", tuple(
                (Subject("rule", alg, None, None, f, r.rid), h)
                for r in self.desc.supporters(f, self.rsd)
                if self._fresh(h, alg, r.rid))
        if kind == "rule":
            f = subject.formula
            r = self.desc.rule(subject.rule)
            # the formula node above has read r's entry, absent from h
            children = [(Subject("set", alg, None, r.antecedents),
                         h | _bit(self.desc, alg, r.rid))]
            children += [(Subject("foe", alg, None, None, f, r.rid, s.rid), h)
                         for s in foes(self.desc, alg, f, r)]
            return "min", tuple(children)
        # foe: team-defeat branches, then the co-algorithm disable branch
        f = subject.formula
        s = self.desc.rule(subject.foe)
        children = [
            (Subject("set", alg, None, t.antecedents), h | te)
            for t in self.desc.superior_supporters(f, s, self.rsd)
            if (te := self._fresh(h, alg, t.rid))
        ]
        co = co_algorithm(alg)
        if ce := self._fresh(h, co, s.rid):
            children.append((Subject("minus", co, None, s.antecedents), h | ce))
        return "max", tuple(children)

    def value(self, subject: Subject) -> int:
        h = _history_bits(self.desc, subject.history)
        return _run(self._value(subject._replace(history=None), h))

    def _value(self, subject: Subject, h: int):
        stored = self.memo.setdefault(subject, {})
        for d, values in stored.items():
            hit = values.get(h & d)
            if hit is not None:
                self.reads |= d
                return hit
        outer, self.reads = self.reads, 0
        op, children = self.expand(subject, h)
        if op == "minus":
            result = -(yield self._value(*children[0]))
        else:
            # a min node stops at its first -1 child, a max node at its first +1
            stop = -1 if op == "min" else +1
            result = -stop
            for c, g in children:
                if (yield self._value(c, g)) == stop:
                    result = stop
                    break
        d = self.reads
        stored.setdefault(d, {})[h & d] = result
        self.reads = outer | d
        return result


class _TreeBuilder:
    """Counts a tree's distinct nodes, then materializes a tree that fits.

    Both steps follow the construction rules of `_TreeEvaluator.expand`
    through one plan per (algorithm, formula): whether the formula is a
    fact, its supporters, each one's foes and each foe's team defeaters,
    each entry with its history bit (see `_bit`), and the OR of the bits the
    plan tests.  A level is the set of nodes sharing one history h: the
    formula, rule and foe nodes below h's set node.  `_level` reads a level
    off the plans: the entry bits it tests, its size, and the entries it
    adds, each naming the set or minus node one level down.  Both steps
    are walks run by `_run`; `build` makes each node's records positionally.
    """

    def __init__(self, desc: PlausibleDescription, max_nodes: int):
        self.desc = desc
        self.rsd = desc.rsd()
        self.max_nodes = max_nodes
        self.plans: dict = {}
        # (alg, formulas) -> (entry bits their plans test, {h & those bits: level})
        self.levels: dict = {}
        # last entry e -> {D: {h & D: nodes at or below the state}} (see count)
        self.sizes: dict[int, dict[int, dict[int, int]]] = {}

    def _plan(self, alg: Alg, f: Formula) -> tuple[str, tuple, int]:
        """(op, ((r, bit, ((s, ((t, bit), ...), co bit), ...)), ...), the
        OR of those bits) of the formula node (alg, h, f), whatever h is."""
        plan = self.plans.get((alg, f))
        if plan is None:
            desc = self.desc
            if desc.is_fact(f):
                plan = "min", (), 0
            elif alg is Alg.PHI:
                plan = "max", (), 0
            else:
                co = co_algorithm(alg)
                rules = tuple(
                    (r, _bit(desc, alg, r.rid), tuple(
                        (s, tuple((t, _bit(desc, alg, t.rid))
                                  for t in desc.superior_supporters(f, s, self.rsd)),
                         _bit(desc, co, s.rid))
                        for s in foes(desc, alg, f, r)))
                    for r in desc.supporters(f, self.rsd))
                # a team defeater supports f, so its bit is some rule's; the
                # foes of one rule are distinct, so their bits' sum is their OR
                mask = 0
                for r, e, opponents in rules:
                    mask |= e | sum(ce for s, team, ce in opponents)
                plan = "max", rules, mask
            self.plans[alg, f] = plan
        return plan

    def _level(self, alg: Alg, h: int, formulas) -> tuple[int, int, dict]:
        """(the entry bits the level's plans test, formula, rule and foe
        nodes of history h, {bit: (alg, rule, minus?)} of the entries they
        add, first use first).

        A level reads h only through the entry bits its plans test, so it
        is stored per (alg, formulas) under h masked to those bits, and
        shared: callers must not change it.
        """
        memo = self.levels.get((alg, formulas))
        if memo is None:
            mask = 0
            for f in formulas:
                mask |= self._plan(alg, f)[2]
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
        level = seen[h & mask] = mask, size, below
        return level

    def count(self, alg: Alg, h: int, x) -> int:
        """Distinct nodes of the tree rooted at (alg, h, x); raises
        TreeBudgetError as soon as the count passes max_nodes.

        Only set and minus nodes extend a history, by one entry, so every
        node whose history is h hangs below the one set (or minus and set)
        node that appended h's last entry: the histories form a prefix
        trie, and the distinct nodes are the sum, over its histories, of the
        nodes of each one's level.  A state (h, e) is a set node's history
        as its entry set h and last entry e.  The walk over a state's
        subtree (`_count`) returns the set D of entry bits it tested: the
        mask of each level it reads, and the D of each stored size it
        reuses.

        Lemma: the nodes at or below a state depend on h only through e and
        h & D.  Proof: the construction rules test a history only for
        membership, so the walk is deterministic given those answers; e =
        (a, r) fixes the node's algorithm a and its formulas, r's
        antecedents; and each entry the subtree adds was first tested, as
        absent, by the level that adds it, so it is in D and any history
        agreeing on D lacks it too.  So `sizes[e][D][h & D]` holds the
        nodes at or below each state finished, and a state reuses the size
        of any stored D its history agrees on: the count costs the distinct
        subtrees, not the histories.  The 3-ticket lottery's beta tree on
        ~s1 has 1,157,094 distinct nodes, counted by reading 5,376 levels;
        its refusal at the default budget reads 1,350.  The walk adds every
        level it reaches, or a state's stored size, to one running total,
        so the total never exceeds the tree's count; it checks the total
        against the budget before each entry and once more at the end.
        """
        self.total = not isinstance(x, Formula)  # a set root's own node
        _run(self._count(alg, h, (x,) if isinstance(x, Formula) else x))
        self._check_budget()
        return self.total

    def _check_budget(self):
        if self.total > self.max_nodes:
            raise TreeBudgetError(f"more than {self.max_nodes} distinct nodes")

    def _count(self, alg: Alg, h: int, formulas):
        """Walk adding the nodes of the level of history h, and of every
        state below it, to `total`; returns the entry bits D it read."""
        reads, size, below = self._level(alg, h, formulas)
        self.total += size
        for e, (a, r, minus) in below.items():
            self._check_budget()
            self.total += minus
            g = h | e
            stored = self.sizes.setdefault(e, {})
            for d, known in stored.items():
                size = known.get(g & d)
                if size is not None:
                    self.total += size
                    break
            else:
                start = self.total
                self.total += 1  # the state's set node
                d = yield self._count(a, g, r.antecedents)
                stored.setdefault(d, {})[g & d] = self.total - start
            reads |= d
        return reads

    def build(self, alg: Alg, history: History, h: int, x):
        """Walk materializing the tree: one node per subject, the set and
        minus nodes of each level shared by entry."""
        if isinstance(x, Formula):
            return (yield self._nodes(alg, history, h, (x,)))[0]
        children = yield self._nodes(alg, history, h, x)
        return EvalNode(Subject("set", alg, history, x), "min",
                        _aggregate("min", children), children)

    def _nodes(self, alg: Alg, history: History, h: int, formulas):
        """Walk returning the formula nodes of history h, building the
        levels below it first."""
        below = {}
        for e, (a, r, minus) in self._level(alg, h, formulas)[2].items():
            deeper = history + ((a, r.rid),)
            children = yield self._nodes(a, deeper, h | e, r.antecedents)
            node = EvalNode(Subject("set", a, deeper, r.antecedents), "min",
                            _aggregate("min", children), children)
            if minus:
                node = EvalNode(Subject("minus", a, deeper, r.antecedents),
                                "minus", -node.value, (node,))
            below[e] = node
        out = []
        for f in formulas:
            op, rules, _ = self._plan(alg, f)
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
                        Subject("foe", alg, history, None, f, r.rid, s.rid),
                        "max", _aggregate("max", routes), routes))
                obligations = tuple(obligations)
                children.append(EvalNode(
                    Subject("rule", alg, history, None, f, r.rid),
                    "min", _aggregate("min", obligations), obligations))
            children = tuple(children)
            out.append(EvalNode(Subject("formula", alg, history, None, f),
                                op, _aggregate(op, children), children))
        return tuple(out)


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
    `tree_json_pieces` and `tree_dot_pieces` render each node once and
    expand it by one walk (`_expanded`), and a caller that writes their
    chunks as they come needs memory for the DAG, not for the expanded
    output.  The root value equals prove() on the
    same arguments.

    The budget is exact: TreeBudgetError is raised if and only if the tree
    has more than `max_nodes` distinct nodes, and it is raised before any
    node is built, by a count that costs the distinct subtrees it reads,
    not the nodes it refuses (see `_TreeBuilder.count`).  A tree that fits
    is then built from the same plans, one node per distinct subject.
    """
    alg, history = check_history(desc, alg, history)
    x = _normalize(x)
    builder = _TreeBuilder(desc, max_nodes)
    h = _history_bits(desc, history)
    builder.count(alg, h, x)
    return _run(builder.build(alg, history, h, x))


def tree_value(desc: PlausibleDescription, alg: Alg, x, history=()) -> int:
    """Root value of the evaluation tree, without materializing nodes.

    Follows the tree construction rules rather than the prover's
    recursion, sharing each value across every branch whose history agrees
    on the entries that value's walk tested (see `_TreeEvaluator`), so it
    stays tractable where the materialized tree would not.  Always equals
    prove().
    """
    alg, h = check_history(desc, alg, history)
    root = _root_subject(alg, h, _normalize(x))
    return _TreeEvaluator(desc).value(root)


def _root_subject(alg: Alg, h: History, x) -> Subject:
    if isinstance(x, Formula):
        return Subject("formula", alg, h, None, x)
    return Subject("set", alg, h, x)


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


# Characters `_expanded` gathers before it yields them: a tree's text can be
# far larger than its DAG, so it is never joined whole.
_CHUNK = 1 << 16


def _history_texts(entry):
    """(texts, fill): id(history) -> (history, its entries rendered by
    `entry`, comma-joined), and `fill(history, above)`, which renders a
    history as the pair above it on `_expanded`'s stack plus one entry.
    A level's nodes share one history object; holding it keeps its id."""
    texts: dict[int, tuple[History, str]] = {}

    def fill(history: History, above: tuple[History, str]) -> tuple[History, str]:
        up, text = above
        if history and history[:-1] == up:
            text += ("," if up else "") + entry(*history[-1])
        elif history != up:
            text = ",".join(entry(tag, rid) for tag, rid in history)
        pair = texts[id(history)] = history, text
        return pair

    return texts, fill


def _node_texts(render):
    """(texts, fill): id(node) -> render(node), the node's text before and
    after its history's entries, and the function filling it.  Nodes equal
    but for their history's entries and their children share one pair."""
    texts: dict[int, tuple[str, str]] = {}
    shared: dict[tuple, tuple[str, str]] = {}

    def fill(node: EvalNode) -> tuple[str, str]:
        subject, op, value, children = node
        key = subject[:2] + subject[3:] + (op, value, not subject[2], not children)
        pair = shared.get(key)
        if pair is None:
            pair = shared[key] = render(node)
        texts[id(node)] = pair
        return pair

    return texts, fill


def _expanded(root: EvalNode, head: str, enter, leave, tail: str, entry):
    """The text of the expanded tree of `root`, in chunks of about `_CHUNK`
    characters: `head`, each node's text as the walk enters and leaves it,
    then `tail`.

    The walk runs on an explicit stack over the DAG, so depth costs memory,
    not frames.  `enter(node, i, above, history)` gives the i-th child of the
    node marked `above` (None at the root) its mark and its opening text;
    `leave(node, mark, history, above)` gives its closing text, built only
    when the node is left, so the stack holds marks, not texts.  `history`
    is the node's history rendered by `entry`, once per distinct history
    (see `_history_texts`).  A caller that writes the chunks out as they
    come holds the DAG, the rendered texts and one chunk, not the document.
    """
    histories, fill = _history_texts(entry)
    history = fill(root.subject.history, ((), ""))
    mark, text = enter(root, 0, None, history[1])
    out, size = [head, text], len(head) + len(text)
    stack = [(root, mark, None, history, enumerate(root.children))]
    while stack:
        node, mark, above, history, children = stack[-1]
        i, child = next(children, (0, None))
        if child is None:
            stack.pop()
            piece = leave(node, mark, history[1], above)
            if not piece:  # a DOT root: no edge, and no chunk check
                continue
        else:
            history = (histories.get(id(child.subject.history))
                       or fill(child.subject.history, history))
            child_mark, piece = enter(child, i, mark, history[1])
            stack.append((child, child_mark, mark, history, enumerate(child.children)))
        out.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            yield "".join(out)
            out, size = [], 0
    text = "".join(out) + tail
    if text:
        yield text


_quote = encode_basestring_ascii  # what json.dumps applies to a str


def _json_entry(tag: Alg, rid: str) -> str:
    # [tag, rule id] in a subject's "history", indented from the node's brace
    return f"\n      [\n        {_quote(tag.value)},\n        {_quote(rid)}\n      ]"


def _json_text(node: EvalNode) -> tuple[str, str]:
    """The node's text after its children, around its history's entries."""
    (kind, alg, history, formulas, formula, rule, foe), op, value, children = node
    # a leaf's head stops after "children": [], so its text starts a line
    before = "\n  ],\n  " if children else "\n  "
    before += f'"op": {_quote(op)},\n  "subject": {{\n    "alg": {_quote(alg.value)},\n    '
    if foe is not None:
        before += f'"foe": {_quote(foe)},\n    '
    if formula is not None:
        before += f'"formula": {_quote(format_formula(formula))},\n    '
    if formulas:
        members = ",\n      ".join(_quote(format_formula(f)) for f in formulas)
        before += f'"formulas": [\n      {members}\n    ],\n    '
    elif formulas is not None:
        before += '"formulas": [],\n    '
    after = ("\n    ]" if history else "]") + f',\n    "kind": {_quote(kind)}'
    if rule is not None:
        after += f',\n    "rule": {_quote(rule)}'
    return before + '"history": [', after + f'\n  }},\n  "value": {value}\n}}'


def tree_json_pieces(root: EvalNode):
    """`json.dumps(tree_json(root), indent=2, sort_keys=True)`, in chunks of
    about `_CHUNK` characters, written by `_expanded`.

    Each node's text is rendered once from fixed templates, apart from its
    history, and one `str.replace` indents it per occurrence.
    """
    texts, render = _node_texts(_json_text)

    def enter(node: EvalNode, i: int, above: str | None, history: str):
        # the mark is a newline and the spaces before the node's brace
        indent = above + "    " if above else "\n"
        return indent, (",\n" if i else "") + indent[1:] + "{" + indent + (
            '  "children": [\n' if node.children else '  "children": [],')

    def leave(node: EvalNode, indent: str, history: str, above: str | None) -> str:
        before, after = texts.get(id(node)) or render(node)
        return (before + history + after).replace("\n", indent)

    return _expanded(root, "", enter, leave, "", _json_entry)


_DOT_SHAPE = {"min": "box", "max": "ellipse", "minus": "diamond"}


def tree_dot(node: EvalNode) -> str:
    """Tree in DOT format; min/max/minus nodes get distinct shapes.

    The chunks of `tree_dot_pieces`, joined into one string as large as the
    expanded tree's text.
    """
    return "".join(tree_dot_pieces(node))


def _dot_entry(tag: Alg, rid: str) -> str:
    return (tag.value + " " + rid).replace('"', r"\"")


def _dot_text(node: EvalNode) -> tuple[str, str]:
    """The node's line after its name, around its history's entries.

    The label reads `S(alg,(h),x) = v`.  S is "-" on a minus subject and
    empty otherwise; h is the history's entries, `alg rid` each,
    comma-separated; x is `{f1,...,fn}`, the subject's formulas, on a set
    or minus subject, and otherwise its formula, then its rule id and its
    foe's id where it has them, comma-separated; v is `+1` or `-1`.
    Quotes in the entries and in x are escaped as `\\"`.
    """
    (kind, alg, _, formulas, formula, rule, foe), op, value, _ = node
    if formulas is None:
        body = ",".join([format_formula(formula)] + [r for r in (rule, foe) if r is not None])
    else:
        body = "{" + ",".join(map(format_formula, formulas)) + "}"
    sign = "-" if kind == "minus" else ""
    return (f' [shape={_DOT_SHAPE[op]}, label="{sign}({alg.value},(',
            f"),{body}) = {value:+d}".replace('"', r"\"") + '"];\n')


def tree_dot_pieces(root: EvalNode):
    """The DOT text of the expanded tree, in chunks of about `_CHUNK`
    characters, written by `_expanded`.

    Nodes are named in preorder; a node's line comes first, then, child by
    child, the child's subtree and the edge to it.  Each node's line is
    rendered once apart from its history.
    """
    texts, render = _node_texts(_dot_text)
    names = count()

    def enter(node: EvalNode, i: int, above: str | None, history: str):
        name = f"n{next(names)}"
        before, after = texts.get(id(node)) or render(node)
        return name, f"  {name}{before}{history}{after}"

    def leave(node: EvalNode, name: str, history: str, above: str | None) -> str:
        return f"  {above} -> {name};\n" if above else ""

    return _expanded(root, "digraph evaluation {\n", enter, leave, "}\n", _dot_entry)
