"""Tree exports: the streaming JSON and DOT writers against reference renderings.

The writers walk the evaluation DAG on an explicit stack and render each
node once; their text must equal, byte for byte, the standard `json`
module's rendering of `tree_json` and the recursive DOT walk below.
"""

import json
import random
import tracemalloc
from itertools import combinations, count

from conftest import KB_DIR, desc_rule_chain, make_random_theory, probe_formulas
from ppl import (
    ALG_ORDER,
    Alg,
    Arrow,
    Atom,
    Neg,
    Rule,
    TreeBudgetError,
    evaluation_tree,
    parse_kb,
    tree_dot,
    tree_json,
    validate_description,
)
from ppl import cli, engine
from ppl.engine import tree_dot_pieces, tree_json_pieces

_SHAPE = {"min": "box", "max": "ellipse", "minus": "diamond"}

# Trees compared here stay small enough for the recursive references.
MAX_NODES = 500
MAX_EXPANDED = 5_000


def reference_json(root) -> str:
    return json.dumps(tree_json(root), indent=2, sort_keys=True)


def reference_dot(root) -> str:
    """The DOT walk the writer replaced, over `tree_json(root)`: recursive,
    one label per occurrence, each read off the node's subject fields."""
    lines = ["digraph evaluation {"]
    names = count()

    def label(subject):
        history = ",".join(f"{tag} {rid}" for tag, rid in subject["history"])
        if "formulas" in subject:
            x = "{" + ",".join(subject["formulas"]) + "}"
        else:
            x = ",".join([subject["formula"]] + [subject[k] for k in ("rule", "foe")
                                                 if k in subject])
        sign = "-" if subject["kind"] == "minus" else ""
        return f"{sign}({subject['alg']},({history}),{x})"

    def walk(n):
        name = f"n{next(names)}"
        text = f"{label(n['subject'])} = {n['value']:+d}".replace('"', r"\"")
        lines.append(f'  {name} [shape={_SHAPE[n["op"]]}, label="{text}"];')
        for c in n["children"]:
            child = walk(c)
            lines.append(f"  {name} -> {child};")
        return name

    walk(tree_json(root))
    lines.append("}")
    return "\n".join(lines) + "\n"


def expanded_size(root) -> int:
    """Nodes of the expanded tree, counted on the DAG."""
    sizes: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        pending = [c for c in node.children if id(c) not in sizes]
        if pending:
            stack.extend(pending)
        else:
            stack.pop()
            sizes[id(node)] = 1 + sum(sizes[id(c)] for c in node.children)
    return sizes[id(root)]


def small_tree(desc, alg, x):
    """The tree of (alg, x), or None when it is too large to compare."""
    try:
        root = evaluation_tree(desc, alg, x, max_nodes=MAX_NODES)
    except TreeBudgetError:
        return None
    return root if expanded_size(root) <= MAX_EXPANDED else None


def assert_writers_match(root):
    assert "".join(tree_json_pieces(root)) == reference_json(root)
    assert tree_dot(root) == "".join(tree_dot_pieces(root)) == reference_dot(root)


def queries(desc, rng=None, per_kind=None):
    """Probe literals, clauses and dual clauses, plus formula sets of them."""
    probes = probe_formulas(desc)
    sets = [[]] + [list(pair) for pair in combinations(probes[:4], 2)]
    if rng is not None:
        probes = rng.sample(probes, min(per_kind, len(probes)))
        sets = rng.sample(sets, min(per_kind, len(sets)))
    return probes + sets


def ladder_text(stages: int, prio: bool) -> str:
    """Ambiguity ladder: stage i concludes b_i twice and ~b_i via a_i."""
    lines = ["rule r0: {} => b0"]
    for i in range(1, stages + 1):
        prev = f"b{i - 1}"
        lines += [f"rule ra{i}: {{{prev}}} => a{i}", f"rule rna{i}: {{{prev}}} => ~a{i}",
                  f"rule rb{i}: {{{prev}}} => b{i}", f"rule tb{i}: {{{prev}}} => b{i}",
                  f"rule ranb{i}: {{a{i}}} => ~b{i}", f"rule w{i}: {{a{i}}} ~> ~b{i}"]
        if prio:
            lines.append(f"prio: rb{i} > ranb{i}")
    return "\n".join(lines) + "\n"


def ladder(stages: int, prio: bool):
    doc = parse_kb(ladder_text(stages, prio))
    return validate_description(doc.facts, doc.rules, doc.priority)


def kb_files():
    paths = sorted(KB_DIR.glob("*.ppl"))
    assert paths
    for path in paths:
        doc = parse_kb(path.read_text(encoding="utf-8"))
        yield path, validate_description(doc.facts, doc.rules, doc.priority)


class TestWritersMatchTheReferences:
    def test_kb_files_under_every_algorithm(self):
        compared = {}
        for path, desc in kb_files():
            for alg in ALG_ORDER:
                compared[path.name, alg] = 0
                for x in queries(desc):
                    root = small_tree(desc, alg, x)
                    if root is not None:
                        assert_writers_match(root)
                        compared[path.name, alg] += 1
        assert min(compared.values()) > 0
        assert sum(compared.values()) > 800

    def test_random_theories(self):
        rng = random.Random(20261018)
        compared = 0
        for _ in range(100):
            desc = make_random_theory(rng)
            for alg in ALG_ORDER:
                for x in queries(desc, rng, per_kind=3):
                    root = small_tree(desc, alg, x)
                    if root is not None:
                        assert_writers_match(root)
                        compared += 1
        assert compared > 2000

    def test_chains_and_ladders(self):
        shapes = [(desc_rule_chain(30), [Atom("a29"), Neg(Atom("a29"))]),
                  (ladder(2, False), [Atom("b2"), Neg(Atom("b2"))]),
                  (ladder(2, True), [Atom("b2"), Atom("a2")])]
        for desc, xs in shapes:
            for alg in ALG_ORDER:
                for x in xs:
                    root = evaluation_tree(desc, alg, x)
                    assert expanded_size(root) <= 5 * MAX_EXPANDED
                    assert_writers_match(root)

    def test_rule_ids_that_need_escaping(self):
        # validate_description does not check id syntax, so rules built
        # through the API can carry ids the parser would never read; the
        # writer must escape them exactly as json.dumps does
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        rid = ['r"0', "r\\a", "r\x07na", "r\u03b2", 'q"\\\x1f\u00e9\U0001d51e\u2028']
        desc = validate_description([], [
            Rule(rid[0], (), Arrow.DEFEASIBLE, c),
            Rule(rid[1], (c,), Arrow.DEFEASIBLE, a),
            Rule(rid[2], (), Arrow.DEFEASIBLE, Neg(a)),
            Rule(rid[3], (c,), Arrow.DEFEASIBLE, b),
            Rule(rid[4], (a,), Arrow.DEFEASIBLE, Neg(b)),
        ], [(rid[3], rid[4])])
        escaped = 0
        for alg in ALG_ORDER:
            for history in ((), [(alg, rid[4]), (alg, rid[1])]):
                for x in (a, b, Neg(b), [a, b]):
                    root = evaluation_tree(desc, alg, x, history)
                    assert_writers_match(root)
                    escaped += "\\ud835\\udd1e" in "".join(tree_json_pieces(root))
        assert escaped

    def test_large_ladder_past_the_compared_size(self):
        # deep histories shared by many nodes: each one is rendered once
        # and extended by one entry per level
        root = evaluation_tree(ladder(3, False), Alg.BETA, Atom("b3"))
        assert expanded_size(root) > MAX_EXPANDED
        text = "".join(tree_json_pieces(root))
        assert len(text) > 20_000_000
        assert text == reference_json(root)

    def test_shared_subtrees_render_once_per_occurrence(self):
        # the ladder's DAG shares subtrees, and team defeat reaches some at
        # two depths; each occurrence gets its own indentation in JSON (so a
        # writer caching indented text per node, not per (node, indent),
        # fails here) and its own node name in DOT
        root = evaluation_tree(ladder(2, True), Alg.BETA, Atom("b2"))
        depths: dict[int, set[int]] = {}
        stack = [(root, 0)]
        while stack:
            node, depth = stack.pop()
            seen = depths.setdefault(id(node), set())
            if depth not in seen:
                seen.add(depth)
                stack.extend((c, depth + 1) for c in node.children)
        n = expanded_size(root)
        assert n > len(depths)
        assert any(len(d) > 1 for d in depths.values())
        assert_writers_match(root)
        assert "".join(tree_json_pieces(root)).count('"op":') == n
        assert tree_dot(root).count("shape=") == n

    def test_no_chunk_holds_the_whole_document(self, monkeypatch):
        # a chunk ends with the piece that reaches _CHUNK characters, and no
        # piece is longer than one node's text at its depth
        root = evaluation_tree(ladder(2, True), Alg.BETA, Atom("b2"))
        texts = {"json": reference_json(root), "dot": reference_dot(root)}
        longest = {"json": longest_json_node(root),
                   "dot": max(map(len, texts["dot"].splitlines(True)))}
        writers = {"json": tree_json_pieces, "dot": tree_dot_pieces}
        checked = set()
        for size in (engine._CHUNK, 1000):
            monkeypatch.setattr(engine, "_CHUNK", size)
            for fmt, writer in writers.items():
                if len(texts[fmt]) > 4 * size:
                    chunks = list(writer(root))
                    assert "".join(chunks) == texts[fmt]
                    assert max(map(len, chunks)) <= size + longest[fmt], (fmt, size)
                    checked.add((fmt, size))
        assert checked >= {("json", engine._CHUNK), ("json", 1000), ("dot", 1000)}

    def test_streaming_holds_one_chunk_not_the_document(self):
        # the beta tree of a 120-link chain is a few hundred nodes nesting
        # hundreds deep, each history one entry longer than the one above:
        # about 87 MB of JSON.  A writer that holds the document, or the
        # closing text of every open node, peaks near its size; one that
        # builds each closing text as it leaves the node peaked at 2.1 MiB
        # (Python 3.11)
        root = evaluation_tree(desc_rule_chain(120), Alg.BETA, Atom("a119"))
        tracemalloc.start()
        try:
            size = sum(map(len, tree_json_pieces(root)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 80_000_000
        assert peak < 10 << 20, f"peak {peak / 2**20:.1f} MiB while streaming"


def longest_json_node(root) -> int:
    """The longest text one node adds to `reference_json(root)`: its own
    keys, indented for the deepest place it occurs."""
    deepest: dict[int, tuple] = {}
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if deepest.get(id(node), (None, -1))[1] < depth:
            deepest[id(node)] = node, depth
            stack.extend((c, depth + 1) for c in node.children)
    longest = 0
    for node, depth in deepest.values():
        own = json.dumps(tree_json(node._replace(children=())), indent=2, sort_keys=True)
        longest = max(longest, len(own) + own.count("\n") * 4 * depth)
    return longest


class TestCliStreams:
    def test_kb_files(self, capsys):
        for path, desc in kb_files():
            for alg in ALG_ORDER:
                for x in (Atom("a"), Atom("b"), Neg(Atom("s1"))):
                    root = small_tree(desc, alg, x)
                    if root is None:
                        continue
                    formula = repr(x)
                    for fmt, want in (("json", reference_json(root) + "\n"),
                                      ("dot", reference_dot(root))):
                        code = cli.main(["tree", str(path), "--alg", alg.value,
                                         "--format", fmt, formula])
                        out = capsys.readouterr().out
                        assert (code, out) == (0, want), (path.name, alg, formula, fmt)

    def test_output_over_many_chunks(self, tmp_path, capsys, monkeypatch):
        kb = tmp_path / "ladder.ppl"
        kb.write_text(ladder_text(2, True), encoding="utf-8")
        root = evaluation_tree(ladder(2, True), Alg.BETA, Atom("b2"))
        want = {"json": reference_json(root) + "\n", "dot": reference_dot(root)}
        assert len(want["json"]) > 4 * engine._CHUNK
        for chunk in (engine._CHUNK, 1000):
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            for fmt in ("json", "dot"):
                assert cli.main(["tree", str(kb), "--alg", "beta", "--format", fmt, "b2"]) == 0
                assert capsys.readouterr().out == want[fmt]
        assert len(want["dot"]) > 4 * 1000
