"""The benchmark's four workloads.

A run repeats (set up, then one round of queries).  Each set-up builds the
round's knowledge bases from the seed and the repetition number, so every
round asks the same set of queries of freshly validated knowledge bases of
the same shapes, with its own naming, rule order and query order; a run's
figures pool its rounds.

* Session workloads (`lottery`, `implication_chain`, `rule_ladder`): a
  session parses and validates a KB once, then answers many queries.  A
  query is one formula's truth value under all seven algorithms.
* `cli_oneshot`: each query is one in-process `ppl.cli.main(argv)` call;
  every call re-reads and re-validates its file.

The program receives only KB text and formula text.  Verdicts are checked
against `reference` after the timed phases.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import re
from dataclasses import dataclass

from ppl import cli, engine, kb, kbtext
from ppl.engine import ALG_ORDER, Alg
from ppl.formulas import format_formula, parse_formula

import gen
import reference

ALG_TAGS = [a.value for a in ALG_ORDER]


def interleave(lists: list[list]) -> list:
    """Merge lists so that every prefix holds about the same share of each."""
    keyed = [((k + 0.5) / len(lst), i, item)
             for i, lst in enumerate(lists) for k, item in enumerate(lst)]
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def seeded(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}/{tag}")


@dataclass
class Item:
    """One query of a round: what to run and how to check it."""

    label: str
    ref_key: tuple
    payload: object


# --- session workloads ------------------------------------------------------

@dataclass
class Session:
    family: gen.Family
    doc: kbtext.KbDocument
    text: str
    desc: kb.PlausibleDescription


class SessionWorkload:
    """Families built with `specs` (rng -> Family), queried in sessions."""

    def __init__(self, name: str, seed: int, specs, verdict):
        self.name = name
        self.seed = seed
        self.specs = specs
        self.verdict = verdict  # (canonical Session, Query) -> reference verdict
        self.canonical: dict[tuple, Session] = {}
        self._refs: dict[tuple, str] = {}

    def build(self, rep: int) -> list[Session]:
        sessions = []
        for i, spec in enumerate(self.specs):
            family = spec(seeded(self.seed, f"{rep}/kb{i}"))
            text = kbtext.serialize_kb(family.doc)
            doc = kbtext.parse_kb(text)
            desc = kb.validate_description(doc.facts, doc.rules, doc.priority)
            sessions.append(Session(family, doc, text, desc))
        return sessions

    def adopt(self, sessions: list[Session]) -> None:
        """Check the text round trip; keep the first sessions for references."""
        for s in sessions:
            source = s.family.doc
            if (s.doc.facts, s.doc.rules, s.doc.priority) != (
                    source.facts, source.rules, source.priority) or \
                    kbtext.serialize_kb(s.doc) != s.text:
                raise AssertionError(f"{s.family.shape}: KB text round trip changed the KB")
            self.canonical.setdefault(s.family.shape, s)

    def items(self, sessions: list[Session], rep: int) -> list[Item]:
        rng = seeded(self.seed, f"{rep}/order")
        lists = []
        for s in sessions:
            qs = list(s.family.queries)
            rng.shuffle(qs)
            lists.append([Item(f"{s.family.shape} {format_formula(q.formula)}",
                               (s.family.shape, q.key), (s.desc, q.formula))
                          for q in qs])
        return interleave(lists)

    def run(self, item: Item) -> str:
        desc, f = item.payload
        return "".join(engine.truth_value(desc, alg, f).value for alg in ALG_ORDER)

    def check(self, item: Item, outcome: str) -> str | None:
        expected = self.reference(item.ref_key)
        if outcome != expected:
            return f"verdict {outcome}, expected {expected}"
        return None

    def reference(self, ref_key: tuple) -> str:
        ref = self._refs.get(ref_key)
        if ref is None:
            shape, key = ref_key
            session = self.canonical[shape]
            query = next(q for q in session.family.queries if q.key == key)
            ref = self.verdict(session, query)
            self._refs[ref_key] = ref
        return ref


def _family_verdict(session: Session, q: gen.Query) -> str:
    shape = session.family.shape
    kind = shape[0]
    if kind == "lottery":
        return reference.lottery_verdict(shape[1], session.doc.facts, session.desc, q)
    if kind == "implication_chain":
        return reference.implication_chain_verdict(q.key)
    if kind == "rule_chain":
        return reference.chain_verdict(q.key)
    return reference.tree_verdict(session.desc, q.formula)


def lottery(seed: int) -> SessionWorkload:
    specs = [lambda rng, n=n: gen.lottery(n, rng) for n in (3, 4, 5)]
    return SessionWorkload("lottery", seed, specs, _family_verdict)


def implication_chain(seed: int) -> SessionWorkload:
    return SessionWorkload("implication_chain", seed,
                           [lambda rng: gen.implication_chain(6, rng)], _family_verdict)


def rule_ladder(seed: int) -> SessionWorkload:
    specs = [lambda rng, n=n, k=k: gen.rule_chain(n, rng, stride=k)
             for n, k in ((100, 4), (200, 100), (340, 50))]
    specs += [lambda rng: gen.ladder(4, False, rng), lambda rng: gen.ladder(8, True, rng)]
    return SessionWorkload("rule_ladder", seed, specs, _family_verdict)


# --- cli_oneshot --------------------------------------------------------------

# Shipped KB files: axiom count (a closed form: exactly-one-of-n lotteries
# have C(n,2)+1 prime implicates), query formulas, tree formula, and the
# tree (algorithm, format) pairs run on it.  Every file is checked once per
# round except lottery4: each call on a 4-lottery re-validates it (about
# 0.5 s), so the shipped one is only queried and the generated one only
# checked.
_ALL_TREES = [(alg, fmt) for alg in ("pi", "beta", "psi-p") for fmt in ("json", "dot")]
SHIPPED = {
    "ambiguity": (0, ["a", "~a", "b", "~b", "or{a,b}", "and{a,~b}"], "b", _ALL_TREES),
    # beta on lottery3 exceeds the default tree budget (TreeBudgetError);
    # it is run once per round, in one format, because each attempt takes
    # about 4 s.
    "lottery3": (4, ["s1", "~s1", "or{s1,s2}", "or{s1,s2,s3}", "and{s1,s2}"], "~s1",
                 [t for t in _ALL_TREES if t != ("beta", "dot")]),
    "lottery4": (7, ["or{s1,s2}"], "~s1", []),
    "plausible_default": (0, ["a", "~a"], "a", _ALL_TREES),
    "retracted_default": (1, ["a", "~a"], "a", _ALL_TREES),
}


@dataclass
class CliFile:
    path: str
    axioms: int
    queries: list  # formula text
    tree_formula: str
    trees: list
    family: gen.Family | None = None
    check: bool = True


def _generated_files(rng_for) -> list[tuple[str, gen.Family, list, object, list]]:
    """(name, family, query keys, tree query key, trees) of the generated KBs."""
    lot = gen.lottery(4, rng_for("lottery4"))
    lad = gen.ladder(3, False, rng_for("ladder3"))
    ladp = gen.ladder(4, True, rng_for("ladder4p"))
    chain = gen.rule_chain(40, rng_for("chain40"))
    return [
        ("gen_lottery4", lot, [], ("lit", 0, True), []),
        ("gen_ladder3", lad, [q.key for q in lad.queries], ("b", 3, False), _ALL_TREES),
        ("gen_ladder4p", ladp, [q.key for q in ladp.queries], ("b", 2, False), _ALL_TREES),
        ("gen_chain40", chain,
         [("lit", d, neg) for d in (9, 19, 29, 39) for neg in (False, True)],
         ("lit", 19, False), _ALL_TREES),
    ]


class Sink:
    """A stdout/stderr stand-in keeping the size, head and tail of the output."""

    KEEP = 4096

    def __init__(self):
        self.size = 0
        self.head = ""
        self.tail = ""

    def write(self, s: str) -> int:
        self.size += len(s)
        if len(self.head) < self.KEEP:
            self.head += s[:self.KEEP - len(self.head)]
        self.tail = (self.tail + s[-self.KEEP:])[-self.KEEP:]
        return len(s)

    def flush(self):
        pass


@dataclass
class CliOutcome:
    code: int
    out: Sink


_TREE_JSON_VALUE = re.compile(r'"value": (-?1)\s*}\s*$')
_TREE_DOT_VALUE = re.compile(r'n0 \[shape=\w+, label=".*= ([+-]1)"\];')
_CHECK_COUNT = re.compile(r"^(axioms|defeasible rules|warning rules|priority pairs) \((\d+)\):",
                          re.MULTILINE)


class CliWorkload:
    name = "cli_oneshot"

    def __init__(self, seed: int, root: str, outdir: str):
        self.seed = seed
        self.root = root
        self.dir = os.path.join(outdir, f"cli-{seed}")
        self.tracer = None
        self._descs: dict[str, kb.PlausibleDescription] = {}
        self._refs: dict[tuple, object] = {}
        self.files: list[CliFile] = []

    def build(self, rep: int) -> list[CliFile]:
        """Write the generated KB files; shipped files are used as they are.

        Every repetition writes the same files: CLI calls share nothing.
        """
        os.makedirs(self.dir, exist_ok=True)
        files = []
        for name, (axioms, queries, tree_f, trees) in SHIPPED.items():
            files.append(CliFile(os.path.join(self.root, "kb", f"{name}.ppl"),
                                 axioms, queries, tree_f, trees, check=name != "lottery4"))
        for name, family, keys, tree_key, trees in _generated_files(
                lambda tag: seeded(self.seed, tag)):
            path = os.path.join(self.dir, f"{name}.ppl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(kbtext.serialize_kb(family.doc))
            by_key = {q.key: format_formula(q.formula) for q in family.queries}
            axioms = math.comb(family.shape[1], 2) + 1 if family.name == "lottery" else 0
            files.append(CliFile(path, axioms, [by_key[k] for k in keys], by_key[tree_key],
                                 trees, family))
        return files

    def adopt(self, files: list[CliFile]) -> None:
        self.files = files

    def items(self, files: list[CliFile], rep: int) -> list[Item]:
        lists = []
        for fi, f in enumerate(files):
            calls = [("check", None, None, ["check", f.path])] if f.check else []
            calls += [("query", q, None, ["query", f.path, "--alg", "all", "--json", q])
                      for q in f.queries]
            calls += [("tree", f.tree_formula, (alg, fmt),
                       ["tree", f.path, "--alg", alg, "--format", fmt, f.tree_formula])
                      for alg, fmt in f.trees]
            lists.append([Item(" ".join(["ppl"] + argv[:1] + [os.path.basename(f.path)]
                                        + argv[2:]),
                               (fi, kind, formula, tree), argv)
                          for kind, formula, tree, argv in calls])
        order = [item for calls in lists for item in calls]
        seeded(self.seed, f"{rep}/order").shuffle(order)
        return order

    def run(self, item: Item) -> CliOutcome:
        out = Sink()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(Sink()):
            code = cli.main(item.payload)
        if code == 2:
            raise CliExit2(out.head)
        if self.tracer is not None and item.ref_key[1] == "tree" and item.ref_key[3][1] == "json":
            self.tracer.add("engine.tree_json.bytes_out", out.size)
        return CliOutcome(code, out)

    def _desc(self, path: str) -> kb.PlausibleDescription:
        desc = self._descs.get(path)
        if desc is None:
            with open(path, encoding="utf-8") as fh:
                doc = kbtext.parse_kb(fh.read())
            desc = kb.validate_description(doc.facts, doc.rules, doc.priority)
            self._descs[path] = desc
        return desc

    def check(self, item: Item, outcome: CliOutcome) -> str | None:
        fi, kind, formula, tree = item.ref_key
        f = self.files[fi]
        if outcome.code != 0:
            return f"exit code {outcome.code}"
        text = outcome.out.head
        if kind == "check":
            got = {m.group(1): int(m.group(2)) for m in _CHECK_COUNT.finditer(text)}
            want = {"axioms": f.axioms, **_declared_counts(f.path)}
            return None if got == want else f"summary {got}, expected {want}"
        if kind == "query":
            if outcome.out.size != len(text):
                return "query output truncated"
            rows = json.loads(text)["results"]
            got = "".join(r["truthValue"] for r in rows)
            proofs = [r["proofValue"] for r in rows]
            want = self._ref(fi, formula)
            if [r["alg"] for r in rows] != ALG_TAGS:
                return f"algorithms {[r['alg'] for r in rows]}"
            if proofs != [1 if v in "ta" else -1 for v in got]:
                return f"proof values {proofs} disagree with truth values {got}"
            return None if got == want else f"verdict {got}, expected {want}"
        alg, fmt = tree
        pattern = _TREE_JSON_VALUE if fmt == "json" else _TREE_DOT_VALUE
        m = pattern.search(outcome.out.tail if fmt == "json" else text)
        if m is None:
            return "no root value in tree output"
        got = int(m.group(1))
        want = self._tree_ref(fi, alg, formula)
        return None if got == want else f"root value {got:+d}, expected {want:+d}"

    def _ref(self, fi: int, formula: str) -> str:
        key = (fi, formula)
        if key not in self._refs:
            f = self.files[fi]
            if f.family is not None:
                query = next(q for q in f.family.queries if format_formula(q.formula) == formula)
                session = Session(f.family, f.family.doc, "", self._desc(f.path))
                self._refs[key] = _family_verdict(session, query)
            else:
                self._refs[key] = reference.tree_verdict(self._desc(f.path),
                                                         parse_formula(formula))
        return self._refs[key]

    def _tree_ref(self, fi: int, alg: str, formula: str) -> int:
        key = (fi, alg, formula)
        if key not in self._refs:
            self._refs[key] = engine.tree_value(self._desc(self.files[fi].path), Alg(alg),
                                                parse_formula(formula))
        return self._refs[key]


class CliExit2(Exception):
    """`ppl` exited 2 (usage, parse or validation error)."""


def _declared_counts(path: str) -> dict[str, int]:
    """Rule and priority counts read off the KB text, without the ppl parser."""
    counts = {"defeasible rules": 0, "warning rules": 0, "priority pairs": 0}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line.startswith("rule "):
                counts["defeasible rules" if "=>" in line else "warning rules"] += 1
            elif line.startswith("prio:"):
                counts["priority pairs"] += 1
    return counts


def make(name: str, seed: int, root: str, outdir: str):
    if name == "cli_oneshot":
        return CliWorkload(seed, root, outdir)
    return {"lottery": lottery, "implication_chain": implication_chain,
            "rule_ladder": rule_ladder}[name](seed)

