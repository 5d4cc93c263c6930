import pytest

from nodeparse import (
    GraphFormatError,
    LabeledGraph,
    are_isomorphic_bruteforce,
    load_tudataset,
    parse_edge_list,
    serialize_edge_list,
)
from nodeparse.graphs import Components

from helpers import random_multigraph, write_tu_fixture


def test_construction_normalizes_and_validates():
    g = LabeledGraph(3, ((2, 0), (1, 1)), (1, 2, 3))
    assert g.edges == ((0, 2), (1, 1))
    assert g.num_edges == 2
    assert g.size() == 3 + 2 + 3

    with pytest.raises(ValueError):
        LabeledGraph(2, ((0, 2),), (1, 1))
    with pytest.raises(ValueError):
        LabeledGraph(2, (), (1, 0))
    with pytest.raises(ValueError):
        LabeledGraph(0, (), ())
    with pytest.raises(ValueError):
        LabeledGraph(2, (), (1,))


def test_loop_counts_twice_toward_degree():
    g = LabeledGraph(2, ((0, 0), (0, 1)), (1, 1))
    assert g.degrees() == [3, 1]


def test_parse_k2():
    g = parse_edge_list("n=2 labels=1,1 e=0-1")
    assert g.num_vertices == 2
    assert g.edges == ((0, 1),)
    assert g.labels == (1, 1)


def test_parse_double_self_loop():
    g = parse_edge_list("n=1 labels=5 e=0-0,0-0")
    assert g.num_vertices == 1
    assert g.edges == ((0, 0), (0, 0))
    assert g.labels == (5,)


def test_round_trip_identity(rng):
    for _ in range(25):
        g = random_multigraph(rng, max_vertices=10, max_edges=12, max_label=5)
        text = serialize_edge_list(g)
        assert serialize_edge_list(parse_edge_list(text)) == text
        assert parse_edge_list(text) == g


def test_round_trip_is_isomorphic(rng):
    for _ in range(10):
        g = random_multigraph(rng, max_vertices=6, max_edges=6)
        h = parse_edge_list(serialize_edge_list(g))
        assert are_isomorphic_bruteforce(g, h)


@pytest.mark.parametrize(
    "text",
    [
        "n=2 labels=1,1",                # missing e=
        "n=2 labels=1,1 e=0-1 extra=1",  # junk field
        "n=x labels=1 e=",               # bad int
        "n=2 labels=1,0 e=",             # label < 1
        "n=2 labels=1,1 e=0-2",          # endpoint out of range
        "n=2 labels=1,1 e=0:1",          # malformed edge token
        "n=2 labels=1 e=",               # wrong label count
        "",                              # no payload
    ],
)
def test_parse_errors(text):
    with pytest.raises(GraphFormatError):
        parse_edge_list(text)


@pytest.fixture
def tu_fixture(tmp_path):
    graphs = [
        (LabeledGraph(3, ((0, 1), (1, 2)), (1, 2, 1)), 1),
        (LabeledGraph(2, ((0, 1), (0, 1)), (2, 2)), -1),
        (LabeledGraph(1, ((0, 0),), (3,)), 1),
    ]
    write_tu_fixture(tmp_path / "TINY", "TINY", graphs, raw_label_offset=0)
    return tmp_path / "TINY", graphs


def test_tudataset_loads_fixture(tu_fixture):
    directory, graphs = tu_fixture
    loaded = load_tudataset(directory, "TINY")
    assert len(loaded) == 3
    for (g, cls), (want, want_cls) in zip(loaded, graphs):
        assert cls == want_cls
        assert g == want  # raw labels written as label-1, min 0 shifts back


def test_tudataset_uniform_labels_when_file_missing(tmp_path):
    graphs = [(LabeledGraph(2, ((0, 1),), (4, 9)), 1)]
    d = write_tu_fixture(tmp_path / "NL", "NL", graphs, node_labels=False)
    (g, _), = load_tudataset(d, "NL")
    assert g.labels == (1, 1)


def test_tudataset_label_shift_only_when_zero_based(tmp_path):
    graphs = [(LabeledGraph(2, ((0, 1),), (1, 2)), 1)]
    d = write_tu_fixture(tmp_path / "ONE", "ONE", graphs, raw_label_offset=1)
    (g, _), = load_tudataset(d, "ONE")
    assert g.labels == (1, 2)  # raw minimum 1, no shift


def test_tudataset_errors(tmp_path, tu_fixture):
    directory, _ = tu_fixture

    with pytest.raises(GraphFormatError, match="missing mandatory"):
        load_tudataset(tmp_path / "nowhere", "TINY")

    # empty indicator
    broken = tmp_path / "EMPTY"
    broken.mkdir()
    (broken / "EMPTY_A.txt").write_text("")
    (broken / "EMPTY_graph_indicator.txt").write_text("")
    (broken / "EMPTY_graph_labels.txt").write_text("")
    with pytest.raises(GraphFormatError, match="empty"):
        load_tudataset(broken, "EMPTY")

    # edge across graph boundaries
    cross = tmp_path / "CROSS"
    cross.mkdir()
    (cross / "CROSS_A.txt").write_text("1, 3\n3, 1\n")
    (cross / "CROSS_graph_indicator.txt").write_text("1\n1\n2\n")
    (cross / "CROSS_graph_labels.txt").write_text("1\n1\n")
    with pytest.raises(GraphFormatError, match="boundary"):
        load_tudataset(cross, "CROSS")

    # non-integer token reports the line number
    bad = tmp_path / "BAD"
    bad.mkdir()
    (bad / "BAD_A.txt").write_text("1, 2\n2, x\n")
    (bad / "BAD_graph_indicator.txt").write_text("1\n1\n")
    (bad / "BAD_graph_labels.txt").write_text("1\n")
    with pytest.raises(GraphFormatError, match=":2"):
        load_tudataset(bad, "BAD")


TU_FILES = ("A", "graph_indicator", "graph_labels", "node_labels")


def test_tudataset_ignores_padding_and_blank_lines(tmp_path, tu_fixture):
    directory, graphs = tu_fixture
    padded = tmp_path / "PAD"
    padded.mkdir()
    for kind in TU_FILES:
        lines = (directory / f"TINY_{kind}.txt").read_text().splitlines()
        out = ["", "  \t"]
        for k, line in enumerate(lines):
            out.append("\t" + " ,  ".join(line.split(",")) + "  ")
            if k % 2:
                out.append(" ")
        (padded / f"PAD_{kind}.txt").write_text("\n".join(out) + "\n\n")
    assert load_tudataset(padded, "PAD") == load_tudataset(directory, "TINY") == graphs


@pytest.mark.parametrize("kind", TU_FILES)
@pytest.mark.parametrize("bad, message", [
    ("x", "non-integer token"),
    ("1 ,, 2", "expected {} values"),
])
def test_tudataset_bad_lines_name_file_and_line(tmp_path, tu_fixture, kind, bad, message):
    directory, _ = tu_fixture
    broken = tmp_path / "BROKEN"
    broken.mkdir()
    for other in TU_FILES:
        lines = (directory / f"TINY_{other}.txt").read_text().splitlines()
        if other == kind:
            # blank lines count toward the line number
            lines[1:2] = ["", ",".join([bad] * (2 if kind == "A" else 1))]
        (broken / f"BROKEN_{other}.txt").write_text("\n".join(lines) + "\n")
    width = 2 if kind == "A" else 1
    with pytest.raises(GraphFormatError) as info:
        load_tudataset(broken, "BROKEN")
    assert str(info.value).startswith(
        f"BROKEN_{kind}.txt:3: " + message.format(width)
    )


def test_tudataset_collapses_symmetric_arcs(tu_fixture):
    directory, _ = tu_fixture
    loaded = load_tudataset(directory, "TINY")
    g0 = loaded[0][0]
    assert g0.num_edges == 2  # 4 arc lines collapsed to 2 undirected edges
    g1 = loaded[1][0]
    assert g1.edges == ((0, 1), (0, 1))  # parallel pair survives collapsing


def _write_raw_tu(directory, name, arcs, vertices):
    directory.mkdir()
    (directory / f"{name}_A.txt").write_text(arcs)
    (directory / f"{name}_graph_indicator.txt").write_text("1\n" * vertices)
    (directory / f"{name}_graph_labels.txt").write_text("1\n")
    return directory


def test_tudataset_rejects_missing_reverse_arc(tmp_path):
    # odd arc count: 3, 2 is missing
    d = _write_raw_tu(tmp_path / "ODD", "ODD", "1, 2\n2, 1\n2, 3\n", 3)
    with pytest.raises(GraphFormatError, match="arc 2, 3 listed 1 times but arc 3, 2 0 times"):
        load_tudataset(d, "ODD")


def test_tudataset_rejects_even_but_asymmetric_arcs(tmp_path):
    d = _write_raw_tu(tmp_path / "EVEN", "EVEN", "1, 2\n1, 2\n", 2)
    with pytest.raises(GraphFormatError, match="arc 1, 2 listed 2 times but arc 2, 1 0 times"):
        load_tudataset(d, "EVEN")


def test_components_levels_members_and_ties():
    comps = Components(5)
    assert comps.union(comps.find(0), comps.find(1)) == 0  # equal sizes: r1 survives
    assert comps.union(comps.find(0), comps.find(0)) == 0  # same component: level + 1
    assert comps.level == {0: 2, 2: 0, 3: 0, 4: 0}
    assert comps.union(comps.find(2), comps.find(3)) == 2
    assert comps.union(comps.find(4), comps.find(3)) == 2  # the larger side survives
    assert comps.level[2] == 2  # 1 + max(1, 0)
    assert comps.union(comps.find(3), comps.find(1)) == 2
    assert comps.level == {2: 3}  # 1 + max(2, 2)
    classes = {}
    for v in range(5):
        classes.setdefault(comps.find(v), []).append(v)
    assert classes == {2: [0, 1, 2, 3, 4]}
    assert {comps.find(v) for v in range(5)} == {2}


class NaiveComponents:
    """Per-vertex class ids and values, updated member by member."""

    def __init__(self, n):
        self.cls = list(range(n))
        self.values = [0] * n

    def members(self, v):
        return [w for w in range(len(self.cls)) if self.cls[w] == self.cls[v]]

    def shift(self, v, delta):
        for w in self.members(v):
            self.values[w] += delta

    def union(self, a, b):
        old = self.cls[b]
        self.cls = [self.cls[a] if c == old else c for c in self.cls]


def _check_against(comps, model):
    n = len(model.cls)
    assert [comps.value(v) for v in range(n)] == model.values
    for v in range(n):
        assert all(comps.find(w) == comps.find(v) for w in model.members(v))
    assert len(comps.level) == len(set(model.cls))
    assert set(comps.level) == {comps.find(v) for v in range(n)}


def test_components_values_match_a_naive_model(rng):
    for _ in range(150):
        n = rng.randint(1, 40)
        comps, model = Components(n), NaiveComponents(n)
        for _ in range(rng.randint(1, 120)):
            a, b = rng.randrange(n), rng.randrange(n)
            op = rng.random()
            if op < 0.4:
                comps.union(comps.find(a), comps.find(b))
                model.union(a, b)
            elif op < 0.7:
                delta = rng.choice((rng.randint(0, 9), rng.getrandbits(200)))
                comps.shift(comps.find(a), delta)
                model.shift(a, delta)
            elif op < 0.85:
                comps.find(a)
            else:
                assert comps.value(a) == model.values[a]
        _check_against(comps, model)


def test_find_halves_long_chains_and_keeps_values(rng):
    # Joining equal-size components round by round, through their roots only,
    # builds a tree of depth log2(n) that no find has shortened yet.
    n = 32
    comps, model = Components(n), NaiveComponents(n)
    width = 1
    while width < n:
        for start in range(0, n, 2 * width):
            a, b = start, start + width  # the roots of two blocks of size width
            for root in (a, b):
                delta = rng.getrandbits(64)
                comps.shift(root, delta)
                model.shift(root, delta)
            assert comps.union(a, b) == a
            model.union(a, b)
        width *= 2

    def depth(v):
        d = 0
        while comps.parent[v] != v:
            v, d = comps.parent[v], d + 1
        return d

    leaf = max(range(n), key=depth)
    assert depth(leaf) == 5
    assert comps.value(leaf) == model.values[leaf]
    assert comps.find(leaf) == 0
    assert depth(leaf) < 5  # halved
    _check_against(comps, model)
