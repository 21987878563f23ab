import os

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from slim.datasets import (
    DatasetBundle,
    DatasetError,
    Graph,
    ParseError,
    _densify,
    _int_column,
    _sorted_unique,
    load_tu_dataset,
    make_folds,
    one_hot_features,
    save_tu_dataset,
)
from slim.model import prepare_bundle
from slim.substructure import SubstructureConfig
from slim.synthetic import make_bundle

from conftest import (FUZZ_EDITS, adjacency_of, densify_oracle, directed_edges,
                      int_column_oracle, is_binary_oracle, mutate, write_tu_files)


class TestLoader:
    def test_tiny_dataset_shapes(self, loaded_tiny):
        assert len(loaded_tiny) == 3
        assert loaded_tiny.class_count == 2
        assert loaded_tiny.node_label_count == 3
        assert [g.node_count for g in loaded_tiny.graphs] == [3, 3, 3]
        # classes densified from {-1, 1} to {0, 1}
        assert [g.class_label for g in loaded_tiny.graphs] == [0, 1, 1]

    def test_two_node_single_edge(self, tmp_path):
        root = write_tu_files(tmp_path, "PAIR", [(1, 2)], [1, 1], [1], [0, 0])
        bundle = load_tu_dataset(root, "PAIR")
        g = bundle.graphs[0]
        assert g.node_count == 2
        assert g.edge_count == 1
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 0]])

    def test_one_directional_edges_are_symmetrized(self, tmp_path):
        root = write_tu_files(tmp_path, "DIR", [(1, 2), (2, 3)], [1, 1, 1], [1], [0, 0, 0])
        g = load_tu_dataset(root, "DIR").graphs[0]
        np.testing.assert_array_equal(g.edges, [[0, 1, 1, 2], [1, 0, 2, 1]])
        assert g.edge_count == 2

    def test_duplicates_and_self_loops_warn(self, tmp_path):
        edges = [(1, 2), (2, 1), (1, 2), (3, 3)]
        root = write_tu_files(tmp_path, "DUP", edges, [1, 1, 1], [1], [0, 0, 0])
        with pytest.warns(UserWarning, match="1 duplicate edge.*1 self-loop"):
            g = load_tu_dataset(root, "DUP").graphs[0]
        assert g.edge_count == 1
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 0]])

    def test_missing_file_names_it(self, tmp_path):
        root = write_tu_files(tmp_path, "MISS", [(1, 2)], [1, 1], [1], [0, 0])
        (tmp_path / "MISS" / "MISS_graph_labels.txt").unlink()
        with pytest.raises(DatasetError, match="MISS_graph_labels.txt"):
            load_tu_dataset(root, "MISS")

    def test_unknown_endpoint_reports_line(self, tmp_path):
        root = write_tu_files(tmp_path, "BADE", [(1, 2), (2, 9)], [1, 1], [1], [0, 0])
        with pytest.raises(ParseError, match="line 2"):
            load_tu_dataset(root, "BADE")

    @pytest.mark.parametrize("line, endpoint", [("0, 1", 0), ("-1, 2", -1), ("99, 1", 99),
                                                ("1, 99", 99), ("2, 0", 0)])
    def test_the_unknown_endpoint_is_named(self, tmp_path, line, endpoint):
        root = write_raw(tmp_path, "BADE", ["1, 2", line], [1, 1], [1], [0, 0])
        with pytest.raises(ParseError) as caught:
            load_tu_dataset(root, "BADE")
        assert str(caught.value).endswith(f"BADE_A.txt line 2: edge endpoint {endpoint} unknown")

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1])
    def test_an_endpoint_outside_int64_does_not_fit(self, tmp_path, value):
        root = write_raw(tmp_path, "HUGE", ["1, 2", f"1, {value}"], [1, 1], [1], [0, 0])
        with pytest.raises(ParseError) as caught:
            load_tu_dataset(root, "HUGE")
        assert str(caught.value).endswith(f"HUGE_A.txt line 2: '1, {value}' does not fit "
                                          "in 64 bits")

    def test_empty_graph_rejected(self, tmp_path):
        # two labels but every node belongs to graph 1
        root = write_tu_files(tmp_path, "EMPTY", [(1, 2)], [1, 1], [1, 2], [0, 0])
        with pytest.raises(ParseError, match="graph 2"):
            load_tu_dataset(root, "EMPTY")

    def test_degree_labels_when_file_absent(self, tmp_path):
        root = write_tu_files(tmp_path, "NOLAB", [(1, 2), (2, 3)], [1, 1, 1], [1])
        bundle = load_tu_dataset(root, "NOLAB")
        # degrees 1, 2, 1 densify to labels 0, 1, 0
        np.testing.assert_array_equal(bundle.graphs[0].node_labels, [0, 1, 0])
        assert bundle.node_label_count == 2

    def test_node_labels_densified(self, tmp_path):
        root = write_tu_files(tmp_path, "SPARSE", [(1, 2)], [1, 1], [1], [5, 9])
        bundle = load_tu_dataset(root, "SPARSE")
        np.testing.assert_array_equal(bundle.graphs[0].node_labels, [0, 1])
        assert bundle.node_label_count == 2

    def test_a_character_numpy_reads_as_a_digit_is_a_parse_error(self, tmp_path):
        # numpy's loadtxt reads U+976DD as the integer 620205, and can crash
        # on such characters; a file that is not ASCII is read line by line
        root = write_tu_files(tmp_path, "ODD", [(1, 2)], [1, 1], [1], [0, 0])
        (tmp_path / "ODD" / "ODD_node_labels.txt").write_text("0\n\U000976dd\n",
                                                              encoding="utf-8")
        with pytest.raises(ParseError, match="ODD_node_labels.txt line 2: expected an integer"):
            load_tu_dataset(root, "ODD")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetError, match="NOPE"):
            load_tu_dataset(str(tmp_path), "NOPE")

    def test_non_integer_label_reports_line(self, tmp_path):
        root = write_tu_files(tmp_path, "BADLBL", [(1, 2)], [1, 1], [1], [0, 0])
        (tmp_path / "BADLBL" / "BADLBL_node_labels.txt").write_text("0, 5\n0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_tu_dataset(root, "BADLBL")

    @pytest.mark.skipif(
        not os.path.isdir(os.path.join(os.environ.get("SLIM_DATA_DIR", "data"), "PROTEINS")),
        reason="PROTEINS benchmark not on disk",
    )
    def test_proteins_count(self):
        bundle = load_tu_dataset(os.environ.get("SLIM_DATA_DIR", "data"), "PROTEINS")
        assert len(bundle) == 1113


class TestRoundTrip:
    def test_synthetic_bundle_round_trips(self, tmp_path):
        bundle = make_bundle(n_graphs=12, seed=7)
        save_tu_dataset(bundle, str(tmp_path))
        again = load_tu_dataset(str(tmp_path), bundle.name)
        assert len(again) == len(bundle)
        assert again.class_count == bundle.class_count
        assert again.node_label_count == bundle.node_label_count
        for a, b in zip(bundle.graphs, again.graphs):
            np.testing.assert_array_equal(a.edges, b.edges)
            np.testing.assert_array_equal(a.node_labels, b.node_labels)
            assert a.class_label == b.class_label

    def test_loaded_bundle_round_trips(self, loaded_tiny, tmp_path):
        save_tu_dataset(loaded_tiny, str(tmp_path), name="AGAIN")
        again = load_tu_dataset(str(tmp_path), "AGAIN")
        for a, b in zip(loaded_tiny.graphs, again.graphs):
            np.testing.assert_array_equal(a.edges, b.edges)
            np.testing.assert_array_equal(a.node_labels, b.node_labels)
            assert a.class_label == b.class_label

    def test_loaded_graphs_are_symmetric(self, loaded_tiny):
        for g in loaded_tiny.graphs:
            a = adjacency_of(g)
            np.testing.assert_array_equal(a, a.T)
            assert np.all(np.diag(a) == 0)


class TestOneHot:
    def test_single_node_identity(self):
        from slim.datasets import Graph

        g = Graph.from_adjacency(np.zeros((1, 1)), np.array([0]), 0)
        np.testing.assert_array_equal(one_hot_features(g, 1), [[1.0]])

    def test_two_labels(self):
        from slim.datasets import Graph

        g = Graph.from_adjacency(np.zeros((2, 2)), np.array([0, 2]), 0)
        np.testing.assert_array_equal(
            one_hot_features(g, 3), [[1, 0, 0], [0, 0, 1]]
        )

    def test_row_sums_are_one(self, loaded_tiny):
        for g in loaded_tiny.graphs:
            x = one_hot_features(g, loaded_tiny.node_label_count)
            np.testing.assert_array_equal(x.sum(axis=1), np.ones(g.node_count))

    def test_label_out_of_range(self):
        from slim.datasets import Graph

        g = Graph.from_adjacency(np.zeros((1, 1)), np.array([3]), 0)
        with pytest.raises(ValueError):
            one_hot_features(g, 3)


def _counts_bundle(counts_per_class):
    """Bundle of single-node graphs with the given class sizes."""
    from slim.datasets import DatasetBundle, Graph

    graphs = []
    for cls, count in enumerate(counts_per_class):
        graphs += [Graph.from_adjacency(np.zeros((1, 1)), np.array([0]), cls)
                   for _ in range(count)]
    return DatasetBundle("counts", graphs, 1, len(counts_per_class))


class TestFolds:
    def test_perfect_stratification(self):
        bundle = _counts_bundle([5, 5])
        plan = make_folds(bundle, fold_count=5, seed=0)
        labels = bundle.class_labels()
        for fold in range(5):
            members = plan.fold_indices(fold)
            assert len(members) == 2
            assert sorted(labels[members]) == [0, 1]

    def test_deterministic(self):
        bundle = _counts_bundle([9, 7])
        a = make_folds(bundle, 4, seed=42)
        b = make_folds(bundle, 4, seed=42)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        c = make_folds(bundle, 4, seed=43)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_mutag_sized_fold_arithmetic(self):
        # 188 graphs split 125/63: global fold sizes must land in {18, 19}
        bundle = _counts_bundle([125, 63])
        plan = make_folds(bundle, fold_count=10, seed=3)
        sizes = np.bincount(plan.assignments, minlength=10)
        assert set(sizes.tolist()) <= {18, 19}
        assert sizes.sum() == 188
        # per-class fold sizes differ by at most one
        labels = bundle.class_labels()
        for cls in (0, 1):
            per_fold = np.bincount(plan.assignments[labels == cls], minlength=10)
            assert per_fold.max() - per_fold.min() <= 1

    def test_partition_property(self, rng):
        bundle = _counts_bundle([13, 8, 6])
        plan = make_folds(bundle, 5, seed=9)
        all_indices = np.concatenate([plan.fold_indices(f) for f in range(5)])
        assert sorted(all_indices.tolist()) == list(range(27))

    def test_split_disjoint(self):
        bundle = _counts_bundle([10, 10])
        plan = make_folds(bundle, 4, seed=1)
        train, val = plan.split(2)
        assert set(train) & set(val) == set()
        assert len(train) + len(val) == 20

    def test_too_many_folds(self):
        bundle = _counts_bundle([2, 2])
        with pytest.raises(ValueError, match="exceeds graph count"):
            make_folds(bundle, 10, seed=0)

    def test_fold_count_minimum(self):
        bundle = _counts_bundle([4, 4])
        with pytest.raises(ValueError, match="at least 2"):
            make_folds(bundle, 1, seed=0)

    def test_small_class_relaxes_with_warning(self):
        bundle = _counts_bundle([12, 2])
        with pytest.warns(UserWarning, match="stratification relaxed"):
            plan = make_folds(bundle, 4, seed=0)
        sizes = np.bincount(plan.assignments, minlength=4)
        assert sizes.max() - sizes.min() <= 1


# ---------------------------------------------------------------------------
# the vectorized edge reader against the line-by-line loader it replaced

def old_load_tu_dataset(root_path, name):
    """``load_tu_dataset`` as it stood with one Python step per edge line."""
    from slim.datasets import (DEGREE_LABEL_CAP, DatasetBundle, Graph, _densify,
                               _int_column, _read_lines, _require)
    import warnings

    base = os.path.join(root_path, name)
    if not os.path.isdir(base):
        raise DatasetError(f"dataset directory not found: {base}")
    prefix = os.path.join(base, name)

    indicator = _int_column(_require(f"{prefix}_graph_indicator.txt"))
    raw_class = _int_column(_require(f"{prefix}_graph_labels.txt"))
    n_graphs = len(raw_class)
    n_nodes = len(indicator)

    if n_nodes == 0 or indicator.min() < 1 or indicator.max() > n_graphs:
        raise ParseError(f"graph indicator out of range in {prefix}_graph_indicator.txt")
    counts = np.bincount(indicator, minlength=n_graphs + 1)[1 : n_graphs + 1]
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0]) + 1
        raise ParseError(f"graph {empty} has zero nodes in {prefix}_graph_indicator.txt")

    offsets = np.zeros(n_graphs + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    order = np.argsort(indicator, kind="stable")
    local_index = np.empty(n_nodes, dtype=np.int64)
    local_index[order] = np.arange(n_nodes) - offsets[indicator[order] - 1]

    adj = [np.zeros((c, c), dtype=np.float64) for c in counts]
    duplicates = self_loops = 0
    seen = set()
    for line_no, line in enumerate(_read_lines(_require(f"{prefix}_A.txt")), start=1):
        if not line:
            continue
        try:
            left, right = line.split(",")
            u, v = int(left), int(right)
        except ValueError:
            raise ParseError(f"{prefix}_A.txt line {line_no}: expected 'i, j', got {line!r}") from None
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            unknown = u if not 1 <= u <= n_nodes else v
            raise ParseError(f"{prefix}_A.txt line {line_no}: edge endpoint {unknown} unknown")
        if indicator[u - 1] != indicator[v - 1]:
            raise ParseError(f"{prefix}_A.txt line {line_no}: edge joins two different graphs")
        if u == v:
            self_loops += 1
            continue
        if (u, v) in seen:
            duplicates += 1
            continue
        seen.add((u, v))
        g = indicator[u - 1] - 1
        adj[g][local_index[u - 1], local_index[v - 1]] = 1.0
        adj[g][local_index[v - 1], local_index[u - 1]] = 1.0
    if duplicates or self_loops:
        warnings.warn(
            f"{name}: dropped {duplicates} duplicate edge(s) and {self_loops} self-loop(s)",
            stacklevel=2,
        )

    node_label_path = f"{prefix}_node_labels.txt"
    if os.path.isfile(node_label_path):
        raw_node = _int_column(node_label_path)
        if len(raw_node) != n_nodes:
            raise ParseError(f"{node_label_path}: {len(raw_node)} labels for {n_nodes} nodes")
    else:
        # degrees by node id; the loader of that time read them in graph
        # order, which mislabelled the nodes of interleaved indicators
        degrees = np.empty(n_nodes)
        degrees[order] = np.concatenate([a.sum(axis=1) for a in adj])
        raw_node = np.minimum(degrees, DEGREE_LABEL_CAP - 1).astype(np.int64)

    node_labels = _densify(raw_node)
    class_labels = _densify(raw_class)

    graphs = []
    for g in range(n_graphs):
        members = order[offsets[g] : offsets[g + 1]]
        graph = Graph.from_adjacency(adj[g], node_labels[members].copy(), int(class_labels[g]))
        graph.validate()
        graphs.append(graph)
    return DatasetBundle(
        name=name,
        graphs=graphs,
        node_label_count=int(node_labels.max()) + 1,
        class_count=int(class_labels.max()) + 1,
    )


def random_tu_lines(rng):
    """Edge lines, graph indicator and labels of a few random graphs whose
    nodes are interleaved across graphs, with edges listed in one or both
    directions, repeated, and mixed with self-loops and blank lines."""
    sizes = rng.integers(1, 9, int(rng.integers(1, 6)))
    indicator = rng.permutation(np.repeat(np.arange(1, len(sizes) + 1), sizes))
    lines = []
    for g in range(1, len(sizes) + 1):
        nodes = np.flatnonzero(indicator == g) + 1
        for _ in range(int(rng.integers(0, 3 * len(nodes)))):
            u, v = rng.choice(nodes, 2)
            lines.append(f"{u}, {v}")
            if rng.random() < 0.5:
                lines.append(f"{v},{u}")
            if rng.random() < 0.2:
                lines.append(f" {u} , {v} ")
            if rng.random() < 0.1:
                lines.append("")
    order = rng.permutation(len(lines))
    return ([lines[i] for i in order], indicator.tolist(),
            rng.integers(0, 3, len(sizes)).tolist(), rng.integers(0, 4, len(indicator)).tolist())


def write_raw(tmp_path, name, lines, indicator, graph_labels, node_labels):
    root = write_tu_files(tmp_path, name, [], indicator, graph_labels, node_labels)
    (tmp_path / name / f"{name}_A.txt").write_text("".join(f"{x}\n" for x in lines))
    return root


def load_both(root, name):
    """(bundle or ParseError message, warning messages) of the loader and the oracle."""
    import warnings

    results = []
    for load in (load_tu_dataset, old_load_tu_dataset):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = load(root, name)
            except ParseError as exc:
                out = str(exc)
        results.append((out, [str(w.message) for w in caught]))
    return results


def assert_same_bundle(a, b):
    assert (a.name, a.node_label_count, a.class_count) == (b.name, b.node_label_count,
                                                           b.class_count)
    assert len(a.graphs) == len(b.graphs)
    for ga, gb in zip(a.graphs, b.graphs):
        np.testing.assert_array_equal(ga.edges, gb.edges)
        np.testing.assert_array_equal(ga.node_labels, gb.node_labels)
        assert ga.class_label == gb.class_label


class TestEdgeReaderMatchesLineLoop:
    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("with_node_labels", [True, False])
    def test_same_bundle_and_warnings(self, tmp_path, seed, with_node_labels):
        lines, indicator, graph_labels, node_labels = random_tu_lines(
            np.random.default_rng(seed))
        root = write_raw(tmp_path, "RND", lines, indicator, graph_labels,
                         node_labels if with_node_labels else None)
        (new, new_warn), (old, old_warn) = load_both(root, "RND")
        assert_same_bundle(new, old)
        assert new_warn == old_warn

    @pytest.mark.parametrize("bad", ["1 2", "1, 2, 3", "1,", "x, 1", "1.0, 2", "0, 1",
                                     "1, 99", "-1, 2", "# 1, 2", "1, 2 # c", "cross",
                                     "1, \U000976dd"])
    def test_same_parse_error_on_a_bad_line(self, tmp_path, bad):
        lines, indicator, graph_labels, node_labels = random_tu_lines(
            np.random.default_rng(3))
        if bad == "cross":
            a = indicator.index(1) + 1
            b = next(i for i, g in enumerate(indicator, start=1) if g != 1)
            bad = f"{a}, {b}"
        at = len(lines) // 2
        lines = lines[:at] + [bad] + lines[at:] + ["7, 7, 7"]
        root = write_raw(tmp_path, "BAD", lines, indicator, graph_labels, node_labels)
        (new, _), (old, _) = load_both(root, "BAD")
        assert isinstance(new, str) and new == old
        assert f"line {at + 1}:" in new

    def test_spellings_only_int_reads_fall_back(self, tmp_path):
        # int() reads "1_0" and full-width digits; the line loop keeps them
        indicator = [1] * 12
        lines = ["1_0, 2", "３, 4", "5, 6"]
        root = write_raw(tmp_path, "ODD", lines, indicator, [0], [0] * 12)
        (new, _), (old, _) = load_both(root, "ODD")
        assert_same_bundle(new, old)
        a = adjacency_of(new.graphs[0])
        assert a[9, 1] == 1.0 and a[2, 3] == 1.0

    def test_empty_edge_file(self, tmp_path):
        root = write_raw(tmp_path, "NOEDGE", [], [1, 1, 2], [0, 1], [0, 1, 0])
        (new, new_warn), (old, old_warn) = load_both(root, "NOEDGE")
        assert_same_bundle(new, old)
        assert new_warn == old_warn == []


@st.composite
def faulty_edge_file(draw):
    """(edge lines, graph indicator, line number of the first fault, its
    message): a valid edge file of a few interleaved graphs, with one fault
    at a random line and a parse fault on a later line."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    indicator = draw(st.permutations([g for g, size in enumerate(sizes, 1)
                                      for _ in range(size)]))
    members = {g: [i for i, x in enumerate(indicator, 1) if x == g]
               for g in range(1, len(sizes) + 1)}
    n = len(indicator)
    edge = st.sampled_from(sorted(members)).flatmap(
        lambda g: st.tuples(st.sampled_from(members[g]), st.sampled_from(members[g])))
    lines = draw(st.lists(st.one_of(edge.map("{0[0]}, {0[1]}".format), st.just("")),
                          max_size=12))
    malformed = st.sampled_from(["1 2", "1,", ", 1", "x, 1", "1.0, 2", "1, 2, 3", "#"])
    kind = draw(st.sampled_from(["malformed", "low", "high", "cross", "int64"]))
    event(kind)
    if kind == "malformed":
        bad = draw(malformed)
        message = f"expected 'i, j', got {bad!r}"
    elif kind == "cross":
        g, h = draw(st.lists(st.sampled_from(sorted(members)), min_size=2, max_size=2,
                             unique=True))
        bad = f"{draw(st.sampled_from(members[g]))}, {draw(st.sampled_from(members[h]))}"
        message = "edge joins two different graphs"
    else:
        value = draw({"low": st.integers(-2**63, 0), "high": st.integers(n + 1, 2**63 - 1),
                      "int64": st.one_of(st.integers(max_value=-2**63 - 1),
                                         st.integers(min_value=2**63))}[kind])
        u, v = draw(st.permutations([value, draw(st.integers(1, n))]))
        bad = f"{u}, {v}"
        message = (f"{bad!r} does not fit in 64 bits" if kind == "int64"
                   else f"edge endpoint {value} unknown")
    at = draw(st.integers(0, len(lines)))
    lines.insert(at, bad)
    lines.insert(draw(st.integers(at + 1, len(lines))), draw(malformed))
    return lines, indicator, at + 1, message


class TestFirstFault:
    @settings(max_examples=150, deadline=None)
    @given(faulty_edge_file())
    def test_the_first_fault_is_named(self, tmp_path_factory, case):
        lines, indicator, line_no, message = case
        root = write_raw(tmp_path_factory.mktemp("fault"), "BAD", lines, indicator,
                         [0] * max(indicator), None)
        with pytest.raises(ParseError) as caught:
            load_tu_dataset(root, "BAD")
        assert str(caught.value).endswith(f"BAD_A.txt line {line_no}: {message}")


# ---------------------------------------------------------------------------
# the vectorized column reader, label densifier and binarity test against
# the per-line and per-value forms they replaced

def read_column_both(path):
    """(array or (exception type, message)) of the reader and the oracle."""
    results = []
    for read in (_int_column, int_column_oracle):
        try:
            results.append(read(str(path)))
        except (ParseError, OverflowError) as exc:
            results.append((type(exc), str(exc)))
    return results


def assert_same_column(path):
    new, old = read_column_both(path)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert new.dtype == old.dtype == np.int64 and new.shape == old.shape
        np.testing.assert_array_equal(new, old)
    return new


class TestColumnReaderMatchesLineLoop:
    @pytest.mark.parametrize("text", [
        "1\n2\n3\n", "5", "+1\n-2\n", "\n\n1\n\n\n2\n\n", "", "\n \n",
        " 7 \n\t8\t\n", "1\r\n2\r\n", "1\x0c2\n", "\u20281\n",
    ])
    def test_same_values(self, tmp_path, text):
        path = tmp_path / "col.txt"
        path.write_text(text, encoding="utf-8", newline="")
        assert not isinstance(assert_same_column(path), tuple)

    @pytest.mark.parametrize("text", [
        "# 1\n", "1\n# comment\n", "1 # c\n", "1 2\n", "1 2\n3 4\n", "1\n2 3\n",
        "1, 2\n", "1.0\n", "1e3\n", "0x10\n", "x\n", "99999999999999999999\n",
        "\U000976dd\n",
    ])
    def test_same_error(self, tmp_path, text):
        path = tmp_path / "col.txt"
        path.write_text("4\n" + text, encoding="utf-8")
        assert isinstance(assert_same_column(path), tuple)

    @pytest.mark.parametrize("value", [2**63 - 1, -2**63, 2**63, -2**63 - 1])
    def test_int64_bounds(self, tmp_path, value):
        # a spelling only int() reads sends the file to the line loop
        path = tmp_path / "col.txt"
        path.write_text(f"1_0\n{value}\n", encoding="utf-8")
        if -2**63 <= value < 2**63:
            np.testing.assert_array_equal(_int_column(str(path)), [10, value])
        else:
            with pytest.raises(ParseError, match=r"col\.txt line 2: .* does not fit in 64 bits"):
                _int_column(str(path))

    @pytest.mark.parametrize("text", ["1_000\n2\n", "\uff13\n4\n"])
    def test_spellings_only_int_reads_fall_back(self, tmp_path, text):
        path = tmp_path / "col.txt"
        path.write_text(text, encoding="utf-8")
        assert assert_same_column(path)[0] in (1000, 3)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from(["", " ", "+3", "-0", " 12 ", "1 2", "#", "1_0", "2.5"]),
    ), max_size=20))
    def test_random_lines(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("col") / "col.txt"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        assert_same_column(path)

    def test_loaded_labels_unchanged(self, tmp_path):
        # the whole loader on a file set whose columns take the fast path
        root = write_tu_files(tmp_path, "COLS", [(1, 2), (2, 1), (4, 5), (5, 4)],
                              [1, 1, 1, 2, 2], [7, -3], [10, 30, 10, 20, 30])
        bundle = load_tu_dataset(root, "COLS")
        assert [g.class_label for g in bundle.graphs] == [1, 0]
        np.testing.assert_array_equal(np.concatenate([g.node_labels for g in bundle.graphs]),
                                      [0, 2, 0, 1, 2])


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**62, 2**62), max_size=60),
           st.integers(0, 3))
    def test_matches_np_unique(self, values, repeat):
        keys = np.array(values * (repeat + 1), dtype=np.int64)
        got = _sorted_unique(keys)
        want = np.unique(keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("keys", [np.zeros(0, dtype=np.int64),
                                      np.full(7, 5, dtype=np.int64),
                                      np.array([3], dtype=np.int64)])
    def test_edge_cases(self, keys):
        got = _sorted_unique(keys)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.unique(keys))


class TestDensifyAndBinarity:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-2**62, 2**62), max_size=40))
    def test_densify_matches_dict_lookup(self, raw):
        raw = np.array(raw, dtype=np.int64)
        new, old = _densify(raw), densify_oracle(raw)
        assert new.dtype == old.dtype == np.int64 and new.shape == old.shape
        np.testing.assert_array_equal(new, old)

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.0, 2.0, 0.5, -1.0, np.inf, 1e-300])
    def test_binarity_matches_isin(self, value):
        a = np.array([[0.0, 1.0, value], [1.0, 0.0, 0.0], [value, 0.0, 0.0]])
        if is_binary_oracle(a):
            Graph.from_adjacency(a, np.zeros(3, dtype=np.int64), 0).validate()
        else:
            with pytest.raises(ValueError, match="must be binary"):
                Graph.from_adjacency(a, np.zeros(3, dtype=np.int64), 0)


# ---------------------------------------------------------------------------
# the stored graph format: one directed edge list in CSR order


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    a = np.zeros((n, n), dtype=draw(st.sampled_from([np.float64, np.int64, bool])))
    for i, j in edges:
        a[i, j] = a[j, i] = 1
    return a


class TestGraphFormat:
    @settings(max_examples=100, deadline=None)
    @given(symmetric_matrices())
    def test_from_adjacency_lists_the_non_zeros_row_major(self, a):
        g = Graph.from_adjacency(a, np.zeros(len(a), dtype=np.int64), 0)
        listed = [(i, j) for i in range(len(a)) for j in range(len(a)) if a[i, j]]
        assert g.edges.dtype == np.int64 and g.edges.shape == (2, len(listed))
        assert [tuple(e) for e in g.edges.T.tolist()] == listed
        np.testing.assert_array_equal(g.edges, np.nonzero(a))
        assert (g.node_count, g.edge_count) == (len(a), len(listed) // 2)
        g.validate()

    # the last two are square, but have a row count other than the 2 labels
    @pytest.mark.parametrize("a", [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2)),
                                   np.zeros((3, 3)),
                                   np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])])
    def test_from_adjacency_rejects_a_non_square_input(self, a):
        with pytest.raises(ValueError, match="square"):
            Graph.from_adjacency(a, np.zeros(2, dtype=np.int64), 0)

    # each edge list is wrong in exactly one way: 3 nodes, path 0 - 1 - 2
    @pytest.mark.parametrize("edges, message", [
        ([[0, 1, 1, 1, 2], [1, 0, 1, 2, 1]], "self-loops"),
        ([[0, 1, 1], [1, 0, 2]], "both directions"),
        ([[0, 1, 1, 1, 2], [1, 0, 2, 2, 1]], "repeat"),
        ([[1, 0, 1, 2], [0, 1, 2, 1]], "CSR order"),
        ([[0, 1, 1, 3], [1, 0, 3, 1]], r"endpoints must lie in \[0, 3\)"),
        ([[0, 1, -1], [1, 0, 1]], r"endpoints must lie in \[0, 3\)"),
        (np.array([[0, 1, 1, 2], [1, 0, 2, 1]], dtype=np.int32), "2 x 2E int64"),
        ([[0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 2.0, 1.0]], "2 x 2E int64"),
        ([0, 1, 1, 0], "2 x 2E int64"),
        ([[0, 1], [1, 0], [0, 0]], "2 x 2E int64"),
    ])
    def test_validate_names_what_is_wrong(self, edges, message):
        # a Graph checks itself when it is made
        with pytest.raises(ValueError, match=message):
            Graph(np.array(edges), np.zeros(3, dtype=np.int64), 0)

    def test_validate_accepts_the_path(self):
        Graph(np.array([[0, 1, 1, 2], [1, 0, 2, 1]]), np.zeros(3, dtype=np.int64), 0).validate()

    @pytest.mark.parametrize("a, message", [
        ([[0, 1, 0], [0, 0, 1], [0, 1, 0]], "both directions"),
        ([[1, 1], [1, 0]], "self-loops"),
    ])
    def test_from_adjacency_refuses_what_no_graph_may_hold(self, a, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_adjacency(a, np.zeros(len(a), dtype=np.int64), 0)

    @pytest.mark.parametrize("labels", [np.zeros(3), np.zeros((3, 1), dtype=np.int64),
                                        np.zeros(0, dtype=np.int64), np.array([0, -1, 0])])
    def test_node_labels_must_be_non_negative_ints(self, labels):
        with pytest.raises(ValueError, match="node_labels must be"):
            Graph(np.zeros((2, 0), dtype=np.int64), labels, 0)

    @pytest.mark.parametrize("edges, labels, message", [
        (np.zeros((2, 0), dtype=np.int64), [0, 1], "node_labels must be"),
        (np.zeros((2, 0), dtype=np.int64), 2, "node_labels must be"),
        ([[0, 1], [1, 0]], np.array([0, 1]), "edges must be a 2 x 2E int64 array"),
    ])
    def test_fields_that_are_not_arrays_are_named(self, edges, labels, message):
        # the constructor takes arrays only; from_adjacency converts its inputs
        with pytest.raises(ValueError, match=message):
            Graph(edges, labels, 0)

    def test_interleaved_indicators_give_local_csr_order(self, tmp_path):
        # node ids 1..7 alternate between graphs 1 and 2; edges are listed in
        # one direction each, in no particular order
        indicator = [2, 1, 2, 1, 1, 2, 1]
        lines = [(7, 2), (5, 4), (1, 3), (3, 6), (2, 4), (6, 1)]
        root = write_tu_files(tmp_path, "MIX", lines, indicator, [0, 1], [0] * 7)
        bundle = load_tu_dataset(root, "MIX")
        # graph 1 holds nodes 2, 4, 5, 7 as 0..3; graph 2 holds 1, 3, 6 as 0..2
        want = [[(0, 1), (0, 3), (1, 2)], [(0, 1), (0, 2), (1, 2)]]
        for g, pairs in zip(bundle.graphs, want):
            a = np.zeros((g.node_count, g.node_count), dtype=bool)
            for u, v in pairs:
                a[u, v] = a[v, u] = True
            np.testing.assert_array_equal(g.edges, directed_edges(a))
            src, dst = g.edges
            assert np.all(np.diff(src * g.node_count + dst) > 0)

    def test_degree_labels_follow_node_ids_on_interleaved_indicators(self, tmp_path):
        # node 1 (graph 2) is isolated; nodes 2 and 3 (graph 1) share an edge
        root = write_tu_files(tmp_path, "DEG", [(2, 3)], [2, 1, 1], [0, 1])
        bundle = load_tu_dataset(root, "DEG")
        np.testing.assert_array_equal(bundle.graphs[0].node_labels, [1, 1])
        np.testing.assert_array_equal(bundle.graphs[1].node_labels, [0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(symmetric_matrices(), min_size=1, max_size=5))
    def test_save_then_load_keeps_the_edges(self, tmp_path_factory, matrices):
        graphs = [Graph.from_adjacency(a, np.arange(len(a)) % 3, i % 2)
                  for i, a in enumerate(matrices)]
        root = str(tmp_path_factory.mktemp("rt"))
        save_tu_dataset(DatasetBundle("RT", graphs, 3, 2), root)
        again = load_tu_dataset(root, "RT")
        assert len(again) == len(graphs)
        for a, b in zip(graphs, again.graphs):
            np.testing.assert_array_equal(a.edges, b.edges)
            assert b.edges.dtype == np.int64


# ---------------------------------------------------------------------------
# fuzzing: a mutated TU file set loads to a DatasetError or to a bundle that
# prepares; since every Graph checks itself when made, a loader path that
# built a bad graph would show here as a ValueError

FUZZ_FILES = ("A", "graph_indicator", "graph_labels", "node_labels")


@pytest.fixture(scope="module")
def fuzz_set(tmp_path_factory):
    """The root of a 6-graph stand-in TU set and the bytes of its files."""
    root = tmp_path_factory.mktemp("fuzz")
    save_tu_dataset(make_bundle(6, seed=11, name="FUZZ"), str(root))
    return root, {name: (root / "FUZZ" / f"FUZZ_{name}.txt").read_bytes()
                  for name in FUZZ_FILES}


def fuzz_line():
    """A line as a TU file might hold it, or nearly: an integer, a pair, text."""
    number = st.integers(-3, 120)
    return st.one_of(number.map(str), st.tuples(number, number).map("{0[0]}, {0[1]}".format),
                     st.text(max_size=6)).map(lambda text: text.encode("utf-8"))


class TestFuzzTuFiles:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(FUZZ_FILES), st.sampled_from(FUZZ_EDITS),
                              st.integers(0, 2**16), fuzz_line(),
                              st.binary(min_size=1, max_size=1)), min_size=1, max_size=2))
    def test_a_mutated_set_gives_a_dataset_error_or_a_bundle(self, fuzz_set, edits):
        root, clean = fuzz_set
        files = dict(clean)
        for name, *edit in edits:
            files[name] = mutate(files[name], *edit)
        for name, data in files.items():
            (root / "FUZZ" / f"FUZZ_{name}.txt").write_bytes(data)
        try:
            bundle = load_tu_dataset(str(root), "FUZZ")
        except DatasetError as exc:
            event(type(exc).__name__)
            return
        event("bundle")
        graphs = prepare_bundle(bundle, SubstructureConfig())
        assert len(graphs) == len(bundle.graphs) >= 1
