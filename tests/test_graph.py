import logging
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    complete_edges,
    degree,
    edge_array,
    graph_from_edges,
    memory_test_graph,
    neighbors,
    random_edges,
    star_edges,
    structurally_equal,
    traced_peak,
)
from polarnet import graph
from polarnet.errors import AnnotationError, DataError, GraphFormatError
from polarnet.graph import (
    AnnotatedGraph,
    Opinion,
    load_edge_list,
    save_edge_array,
    save_edge_list,
    subgraph_by_opinion,
)

PRO, ANTI = int(Opinion.PRO), int(Opinion.ANTI)
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def write_files(tmp_path, edge_lines, attr_lines):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attrs.csv"
    edges.write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    attrs.write_text("\n".join(attr_lines) + "\n", encoding="utf-8")
    return edges, attrs


def write_raw(tmp_path, edge_text, attr_text):
    """Files holding exactly these characters (no newline translation)."""
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attrs.csv"
    edges.write_bytes(edge_text.encode("utf-8"))
    attrs.write_bytes(attr_text.encode("utf-8"))
    return edges, attrs


def test_load_dedupes_and_drops_self_loops(tmp_path, caplog):
    edges, attrs = write_files(tmp_path, ["0,1", "1,0", "1,1"], ["0,pro", "1,anti"])
    with caplog.at_level(logging.WARNING):
        g = load_edge_list(edges, attrs)
    assert g.n == 2
    assert g.edge_count == 1
    assert "1 self-loop" in caplog.text
    assert g.opinions.tolist() == [int(Opinion.PRO), int(Opinion.ANTI)]


def test_load_detects_header_and_case_insensitive_opinions(tmp_path):
    edges, attrs = write_files(
        tmp_path, ["src,dst", "10,20"], ["node,opinion", "10,PRO", "20,Anti"]
    )
    g = load_edge_list(edges, attrs)
    assert g.n == 2 and g.edge_count == 1
    assert g.labels.tolist() == [10, 20]


def test_load_malformed_line_reports_line_number(tmp_path):
    edges, attrs = write_files(tmp_path, ["0,1", "2;3"], ["0,pro", "1,anti"])
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(edges, attrs)
    assert err.value.line == 2


def test_load_bad_opinion_reports_line_number(tmp_path):
    edges, attrs = write_files(tmp_path, ["0,1"], ["0,pro", "1,maybe"])
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(edges, attrs)
    assert err.value.line == 2


def test_load_non_integer_destination_rejected(tmp_path):
    edges, attrs = write_files(tmp_path, ["0,1", "1,abc"], ["0,pro", "1,anti"])
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(edges, attrs)
    assert err.value.line == 2


def test_load_missing_opinion_lists_offenders(tmp_path):
    edges, attrs = write_files(tmp_path, ["0,1", "1,2", "2,3"], ["0,pro", "2,anti"])
    with pytest.raises(AnnotationError) as err:
        load_edge_list(edges, attrs)
    assert err.value.offenders == [1, 3]


def test_load_conflicting_opinion_rejected(tmp_path):
    edges, attrs = write_files(tmp_path, ["0,1"], ["0,pro", "1,anti", "0,anti"])
    with pytest.raises(AnnotationError):
        load_edge_list(edges, attrs)


def test_attr_only_nodes_kept_as_isolated(tmp_path):
    edges, attrs = write_files(tmp_path, ["0,1"], ["0,pro", "1,anti", "7,anti"])
    g = load_edge_list(edges, attrs)
    assert g.n == 3
    assert degree(g, 2) == 0  # label 7 densified last
    assert g.labels.tolist() == [0, 1, 7]


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    g = graph_from_edges(10, random_edges(rng, 10, 0.4), (rng.random(10) < 0.5))
    save_edge_list(g, tmp_path / "e.csv", tmp_path / "a.csv")
    g2 = load_edge_list(tmp_path / "e.csv", tmp_path / "a.csv")
    assert structurally_equal(g, g2)
    assert np.array_equal(g.labels, g2.labels)


def test_load_is_idempotent(tmp_path):
    edges, attrs = write_files(
        tmp_path,
        ["5,9", "9,12", "5,12", "3,5"],
        ["3,pro", "5,anti", "9,pro", "12,anti"],
    )
    g1 = load_edge_list(edges, attrs)
    save_edge_list(g1, tmp_path / "e2.csv", tmp_path / "a2.csv")
    g2 = load_edge_list(tmp_path / "e2.csv", tmp_path / "a2.csv")
    assert structurally_equal(g1, g2)
    assert np.array_equal(g1.labels, g2.labels)


# -- loader contract: what the file format accepts and rejects --------------


@pytest.mark.parametrize("edge_text", ["", "src,dst\n", "\n\nsrc,dst\n\n", "src,dst"])
def test_load_without_edges_gives_isolated_nodes(tmp_path, edge_text):
    edges, attrs = write_raw(tmp_path, edge_text, "node,opinion\n3,pro\n1,anti\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "input contained no data" warning
        g = load_edge_list(edges, attrs)
    assert g.n == 2 and g.edge_count == 0
    assert g.labels.tolist() == [1, 3]
    assert g.opinions.tolist() == [ANTI, PRO]


def test_load_tolerates_blank_lines_spaces_and_crlf(tmp_path):
    edges, attrs = write_raw(
        tmp_path,
        "\r\nsrc , dst\r\n\r\n 10 , 20 \r\n   \r\n20,\t30\r\n\r\n",
        "node,opinion\r\n10, pro\r\n\r\n 20 ,ANTI \r\n30,Pro",
    )
    g = load_edge_list(edges, attrs)
    clean = tmp_path / "clean"
    clean.mkdir()
    clean_edges, clean_attrs = write_files(
        clean, ["10,20", "20,30"], ["10,pro", "20,anti", "30,pro"]
    )
    assert structurally_equal(g, load_edge_list(clean_edges, clean_attrs))
    assert g.labels.tolist() == [10, 20, 30]
    assert g.opinions.tolist() == [PRO, ANTI, PRO]


@pytest.mark.parametrize("bom", ["", "\ufeff"])
@pytest.mark.parametrize("header", [False, True])
def test_load_drops_a_byte_order_mark(tmp_path, bom, header):
    # once the mark made a header-less first row look like a header, and
    # lost the first edge and the first opinion
    edge_text, attr_text = "1,2\n2,3\n3,1\n", "1,pro\n2,anti\n3,pro\n"
    if header:
        edge_text, attr_text = "src,dst\n" + edge_text, "node,opinion\n" + attr_text
    g = load_edge_list(*write_raw(tmp_path, bom + edge_text, bom + attr_text))
    assert g.edge_count == 3
    clean = tmp_path / "clean"
    clean.mkdir()
    assert structurally_equal(g, load_edge_list(*write_files(clean, ["1,2", "2,3", "3,1"], ["1,pro", "2,anti", "3,pro"])))


@pytest.mark.parametrize("line", ["# comment", "0,1 # note", "#0,1", "0,#1", "0,1#"])
def test_load_has_no_comment_syntax_in_edges(tmp_path, line):
    edges, attrs = write_files(tmp_path, ["0,1", line], ["0,pro", "1,anti"])
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(edges, attrs)
    assert err.value.line == 2


def test_load_leading_comment_line_rejected(tmp_path):
    edges, attrs = write_files(tmp_path, ["# edge list", "0,1"], ["0,pro", "1,anti"])
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(edges, attrs)
    assert err.value.line == 1


@pytest.mark.parametrize("line", ["1,pro # note", "1,anti#", "#1,anti"])
def test_load_has_no_comment_syntax_in_attributes(tmp_path, line):
    edges, attrs = write_files(tmp_path, ["0,1"], ["0,pro", line])
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(edges, attrs)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "opinion",
    ["antii", "pro x", "pr", "pro\x00", "anti\x00\x00", "pro" * 40, "anti" + "i" * 300, ""],
)
def test_load_rejects_opinions_that_only_start_right(tmp_path, opinion):
    # short and long values, NUL padding: nothing truncates or pads a field
    edges, attrs = write_raw(tmp_path, "0,1\n", f"0,pro\n1,{opinion}\n2,anti\n")
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(edges, attrs)
    assert err.value.line == 2


@pytest.mark.parametrize("line", ["0,1,2", "0", "0,", ",1", "0;1"])
def test_load_rejects_wrong_field_count_or_empty_field(tmp_path, line):
    edges, attrs = write_files(tmp_path, ["src,dst", "0,1", line], ["0,pro", "1,anti"])
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(edges, attrs)
    assert err.value.line == 3


def test_load_counts_every_dropped_self_loop(tmp_path, caplog):
    # label 2 occurs only in a self-loop: it is no node and needs no opinion
    edges, attrs = write_files(
        tmp_path, ["0,0", "0,1", "1,1", "1,1", "2,2"], ["0,pro", "1,anti"]
    )
    with caplog.at_level(logging.WARNING):
        g = load_edge_list(edges, attrs)
    assert "dropped 4 self-loop(s)" in caplog.text
    assert g.labels.tolist() == [0, 1] and g.edge_count == 1


def test_load_accepts_repeated_equal_annotations(tmp_path):
    edges, attrs = write_files(
        tmp_path, ["0,1"], ["0,pro", "1,anti", "0,PRO", "1, anti", "0,pro"]
    )
    g = load_edge_list(edges, attrs)
    assert g.n == 2
    assert g.opinions.tolist() == [PRO, ANTI]


def test_load_conflict_reports_first_conflicting_row(tmp_path):
    edges, attrs = write_files(
        tmp_path, ["5,7"], ["5,pro", "7,anti", "9,pro", "9,pro", "7,pro", "5,anti"]
    )
    with pytest.raises(AnnotationError) as err:
        load_edge_list(edges, attrs)
    assert err.value.offenders == [7]
    assert "node 7" in str(err.value)


def test_load_missing_opinions_sorted_and_truncated(tmp_path):
    edges, attrs = write_files(
        tmp_path, [f"{30 - i},0" for i in range(25)], ["0,pro", "30,anti", "2,pro"]
    )
    with pytest.raises(AnnotationError) as err:
        load_edge_list(edges, attrs)
    missing = sorted(set(range(6, 31)) - {30})
    assert err.value.offenders == missing
    assert f"{len(missing)} node(s)" in str(err.value)
    assert f"(+{len(missing) - 20} more)" in str(err.value)


# labels int() reads but that are not ASCII decimal int64, and labels no
# integer syntax reads (these make a first row a header)
LOOSE_INT_LABELS = [
    "99999999999999999999", "9223372036854775808", "-9223372036854775809",
    "1_000", "\u0661\u0662", "\uff15",
]
NON_INT_LABELS = ["0x1f", "1e3", "5.0", "+-5", "- 5"]


@pytest.mark.parametrize("label", LOOSE_INT_LABELS + NON_INT_LABELS)
@pytest.mark.parametrize("where", ["edge", "attribute"])
def test_load_rejects_labels_outside_decimal_int64(tmp_path, label, where):
    edges, attrs = write_raw(
        tmp_path,
        f"0,1\n1,{label}\n" if where == "edge" else "0,1\n",
        f"0,pro\n1,anti\n{label},pro\n",
    )
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(edges, attrs)
    assert err.value.line == (2 if where == "edge" else 3)


@pytest.mark.parametrize("label", LOOSE_INT_LABELS)
def test_load_first_row_with_loose_integer_is_data_not_header(tmp_path, label):
    edges, attrs = write_raw(tmp_path, f"{label},0\n", f"0,pro\n{label},anti\n")
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(edges, attrs)
    assert err.value.line == 1


def test_load_accepts_int64_extremes_signs_and_zeros(tmp_path):
    edges, attrs = write_files(
        tmp_path,
        [f"{INT64_MIN},{INT64_MAX}", "+5,007", f"{INT64_MAX},-0"],
        [f"{INT64_MAX},pro", f"{INT64_MIN},anti", "5,pro", "7,anti", "0,pro"],
    )
    g = load_edge_list(edges, attrs)
    assert g.labels.tolist() == [INT64_MIN, 0, 5, 7, INT64_MAX]
    assert g.edge_count == 3
    assert g.opinions.tolist() == [ANTI, PRO, PRO, ANTI, PRO]


# -- the loader's bytes read: each distinct opinion spelling parsed once ---


def _load_outcome(edges, attrs, opinion=None):
    """The arrays (with their dtypes) of the loaded graph, or the type,
    message, offenders and line of the error the load raises."""
    logging.disable(logging.WARNING)
    try:
        g = load_edge_list(edges, attrs, opinion)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "offenders", None), getattr(exc, "line", None)
    finally:
        logging.disable(logging.NOTSET)
    return g.n, [(a.dtype, a.tolist()) for a in (g.indptr, g.indices, g.opinions, g.labels)]


def _general_outcome(edges, attrs, opinion=None):
    """``_load_outcome`` with numpy's bulk read switched off: every line of
    both files through the line parser."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_bulk_rows", lambda path, dtype: None)
        return _load_outcome(edges, attrs, opinion)


# characters that fill an opinion field of the bytes read
WIDTH = graph._ATTR_BYTES["opinion"].itemsize
SPELLINGS = {
    PRO: ["pro", "PRO", "Pro", " pro", "pro ", " pro".ljust(WIDTH), "pro\xa0"],
    ANTI: ["anti", "ANTI", "Anti", " anti", "anti\t", "anti".rjust(WIDTH)],
}
BAD_OPINIONS = ["maybe", "pro\x00", "anti\x00\x00", "antii", "", "pr", "prö", "ＰＲＯ", "pro".ljust(WIDTH) + "x"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_load_gives_the_arrays_and_errors_of_the_general_path(data):
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10**6)))
    n = data.draw(st.integers(min_value=1, max_value=25))
    spread = data.draw(st.sampled_from([1, 3, 1_000_003]))
    labels = [int(x) * spread - 37 for x in rng.choice(3 * n, size=n, replace=False)]
    if data.draw(st.booleans()):
        labels[0], labels[-1] = INT64_MIN, INT64_MAX
    opinions = rng.random(n) < data.draw(st.floats(min_value=0.0, max_value=1.0))
    canonical = data.draw(st.booleans(), label="canonical spelling")

    def spelled(op: int) -> str:
        return SPELLINGS[op][0 if canonical else rng.integers(len(SPELLINGS[op]))]

    # every annotated label once, some twice (equal or, rarely, conflicting)
    annotated = rng.random(n) >= data.draw(st.sampled_from([0.0, 0.0, 0.2, 0.5]))
    rows = [(label, int(op)) for label, op, keep in zip(labels, opinions, annotated) if keep]
    extra = rng.integers(n, size=data.draw(st.integers(min_value=0, max_value=8)))
    conflict = data.draw(st.sampled_from([0.0, 0.0, 0.2]))
    rows += [(labels[i], int(opinions[i]) ^ int(rng.random() < conflict)) for i in extra]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    attr_lines = [f"{label},{spelled(op)}" for label, op in rows]
    if attr_lines and data.draw(st.integers(min_value=0, max_value=5)) == 0:
        bad = int(rng.integers(len(attr_lines)))
        attr_lines[bad] = f"{rows[bad][0]},{data.draw(st.sampled_from(BAD_OPINIONS))}"
    pairs = rng.integers(0, n, size=(data.draw(st.integers(min_value=0, max_value=40)), 2))
    edge_lines = [f"{labels[u]},{labels[v]}" for u, v in pairs]  # loops and duplicates included
    if data.draw(st.booleans()):
        edge_lines.insert(0, "src,dst")
    if data.draw(st.booleans()):
        attr_lines.insert(0, "node,opinion")
    opinion = data.draw(st.sampled_from([None, Opinion.PRO, Opinion.ANTI]))
    with tempfile.TemporaryDirectory() as tmp:
        edges, attrs = write_files(Path(tmp), edge_lines, attr_lines)
        assert _load_outcome(edges, attrs, opinion) == _general_outcome(edges, attrs, opinion)


@pytest.mark.parametrize(
    "spellings",
    [["pro", "anti"], ["PRO", "Anti"], [" pro ", "anti\t", "Pro  ", " ANTI"]],
    ids=["exact", "cased", "padded"],
)
def test_load_parses_each_distinct_spelling_at_most_once(tmp_path, monkeypatch, spellings):
    parse = Opinion.parse
    parsed = []

    def spy(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(Opinion, "parse", spy)
    n = 60
    opinions = [spellings[i % len(spellings)] for i in range(n)]
    edges, attrs = write_files(
        tmp_path, [f"{i},{i + 1}" for i in range(n - 1)], ["node,opinion"] + [f"{i},{op}" for i, op in enumerate(opinions)]
    )
    assert load_edge_list(edges, attrs).opinions.tolist() == [int(parse(op)) for op in opinions]
    assert len(parsed) <= len(spellings)


def test_load_reads_a_width_filling_opinion_and_names_a_longer_one(tmp_path):
    edges, attrs = write_raw(tmp_path, "0,1\n", f"0,{' pro'.ljust(WIDTH)}\n1,anti\n")
    assert load_edge_list(edges, attrs).opinions.tolist() == [PRO, ANTI]
    # numpy keeps the first WIDTH characters, "pro" and spaces: a cut field
    # that alone would parse as pro
    edges, attrs = write_raw(tmp_path, "0,1\n", f"0,anti\n1,{'pro'.ljust(WIDTH)}x\n")
    with pytest.raises(GraphFormatError, match="opinion must be 'pro' or 'anti'") as err:
        load_edge_list(edges, attrs)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "annotated, endpoint",
    [
        pytest.param(range(INT64_MAX - 3, INT64_MAX + 1), INT64_MIN, id="labels-at-the-top"),
        pytest.param(range(INT64_MIN, INT64_MIN + 4), INT64_MAX, id="labels-at-the-bottom"),
    ],
)
def test_load_names_an_endpoint_at_the_far_end_of_int64(tmp_path, annotated, endpoint):
    # the endpoint is as far from the labels as int64 allows: the
    # unannotated endpoint's error, not an IndexError or a wrong mapping
    labels = list(annotated)
    edges, attrs = write_files(
        tmp_path, [f"{labels[0]},{labels[1]}", f"{labels[2]},{endpoint}"], [f"{label},pro" for label in labels]
    )
    with pytest.raises(AnnotationError) as err:
        load_edge_list(edges, attrs)
    assert str(err.value) == f"1 node(s) in edges lack an opinion: {endpoint}"
    assert err.value.offenders == [endpoint]
    assert _load_outcome(edges, attrs) == _general_outcome(edges, attrs)


def _same_bytes_as_fstring_writer(g, tmp_path) -> bool:
    save_edge_list(g, tmp_path / "e.csv", tmp_path / "a.csv")
    oracles.fstring_edge_files(g, tmp_path / "e_ref.csv", tmp_path / "a_ref.csv")
    return all(
        (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes()
        for name in ("e", "a")
    )


@pytest.mark.parametrize(
    ("edge_lines", "attr_lines"),
    [
        (
            [f"{INT64_MIN + 1},-1", "-1,0", f"0,{INT64_MAX}", f"{INT64_MAX},{INT64_MIN}"],
            [f"{INT64_MIN + 1},pro", "-1,anti", "0,pro", f"{INT64_MAX},anti", f"{INT64_MIN},pro", "42,anti"],
        ),
        ([], [f"{INT64_MAX},anti", "-1,pro", "0,anti"]),  # no edges at all
    ],
)
def test_save_writes_the_bytes_of_the_fstring_writer(tmp_path, edge_lines, attr_lines):
    # extreme and negative labels, an isolated node (42), a zero-edge graph
    edges, attrs = write_files(tmp_path, edge_lines, attr_lines)
    assert _same_bytes_as_fstring_writer(load_edge_list(edges, attrs), tmp_path)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_save_in_row_blocks_writes_the_bytes_of_the_fstring_writer(tmp_path, monkeypatch, block):
    # rows are cut into blocks of about `block` arcs: isolated first and
    # last nodes, a hub whose row outgrows a block, and a graph without edges
    monkeypatch.setattr(graph, "_SAVE_BLOCK", block)
    rng = np.random.default_rng(block)
    n = 100
    hub = [(1, v) for v in range(2, 90)]
    edges = hub + [(u + 2, v + 2) for u, v in random_edges(rng, n - 3, 0.1)]
    opinions = (rng.random(n) < 0.5).astype(np.uint8)
    labels = np.arange(n) * 7919 - 300  # negative and multi-digit labels
    g = AnnotatedGraph.from_edge_array(n, edges, opinions=opinions, labels=labels)
    assert degree(g, 0) == degree(g, n - 1) == 0 and degree(g, 1) > block
    assert _same_bytes_as_fstring_writer(g, tmp_path)
    assert _same_bytes_as_fstring_writer(graph_from_edges(4, []), tmp_path)


def test_save_of_a_large_graph_writes_the_bytes_of_the_fstring_writer(tmp_path):
    g = memory_test_graph()
    assert g.indices.size > 5 * graph._SAVE_BLOCK  # several blocks at the real size
    assert _same_bytes_as_fstring_writer(g, tmp_path)


def test_save_allocates_at_most_2_2_times_the_adjacency(tmp_path):
    """Bound: 2.2x ``indices.nbytes``. The edge lines come from blocks of
    whole adjacency rows, so no array the size of the edge list is built;
    the save peaked at 3.24x when it formatted a full copy of the edges."""
    g = memory_test_graph()
    _, peak = traced_peak(save_edge_list, g, tmp_path / "e.csv", tmp_path / "a.csv")
    assert peak <= 2.2 * g.indices.nbytes


def _edge_array_cases():
    rng = np.random.default_rng(24)
    # more than five _SAVE_BLOCK blocks of keys, with repeats either way round
    many = rng.integers(0, 100_000, size=(6 * graph._SAVE_BLOCK, 2))
    many = np.concatenate([many, many[:1000, ::-1]])
    many = many[many[:, 0] != many[:, 1]]
    return [
        pytest.param(5, [[0, 1], [1, 0], [0, 1], [3, 2], [2, 3], [4, 0]], [PRO, ANTI, ANTI, PRO, ANTI], id="repeats"),
        pytest.param(4, np.empty((0, 2), dtype=np.int64), None, id="no-edges"),
        pytest.param(8, [[2, 5], [4, 3], [3, 2]], [ANTI, PRO] * 4, id="isolated"),
        pytest.param(1200, [[0, 9], [10, 9], [99, 10], [100, 99], [999, 1000], [1199, 5]], None, id="label-widths"),
        pytest.param(100_000, many, None, id="many-blocks"),
    ]


@pytest.mark.parametrize(("n", "pairs", "opinions"), _edge_array_cases())
def test_edge_array_writer_writes_the_bytes_of_the_built_graph(tmp_path, n, pairs, opinions):
    # the f-string writer's files of from_edge_array's graph, and its edge count
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    opinions = None if opinions is None else np.array(opinions, dtype=np.uint8)
    g = AnnotatedGraph.from_edge_array(n, pairs, opinions)
    assert save_edge_array(n, pairs.copy(), tmp_path / "e.csv", tmp_path / "a.csv", opinions) == g.edge_count
    oracles.fstring_edge_files(g, tmp_path / "e_ref.csv", tmp_path / "a_ref.csv")
    for name in ("e", "a"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes()


@pytest.mark.parametrize(
    ("pairs", "opinions"),
    [([[0, 3]], None), ([[-1, 2]], None), ([[0, 1], [2, 2]], None), ([[0, 1]], [PRO, ANTI])],
    ids=["endpoint-high", "endpoint-low", "self-loop", "opinions"],
)
def test_edge_array_writer_raises_the_builder_messages(tmp_path, pairs, opinions):
    pairs = np.array(pairs, dtype=np.int64)
    opinions = None if opinions is None else np.array(opinions, dtype=np.uint8)
    with pytest.raises(DataError) as built:
        AnnotatedGraph.from_edge_array(3, pairs, opinions)
    with pytest.raises(DataError) as written:
        save_edge_array(3, pairs, tmp_path / "e.csv", tmp_path / "a.csv", opinions)
    assert str(written.value) == str(built.value)
    assert not any(tmp_path.iterdir())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_save_load_round_trip_property(data):
    n = data.draw(st.integers(min_value=1, max_value=30))
    labels = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
                min_size=n, max_size=n, unique=True,
            )
        )
    )
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1), st.integers(min_value=0, max_value=n - 1)
    )
    edges = [e for e in data.draw(st.lists(pairs, max_size=80)) if e[0] != e[1]]
    opinions = data.draw(st.lists(st.sampled_from([ANTI, PRO]), min_size=n, max_size=n))
    g = AnnotatedGraph.from_edge_array(
        n, np.array(edges, dtype=np.int64).reshape(-1, 2),
        opinions=np.array(opinions, dtype=np.uint8), labels=np.array(labels, dtype=np.int64),
    )
    with tempfile.TemporaryDirectory() as tmp:
        e_path, a_path = Path(tmp) / "e.csv", Path(tmp) / "a.csv"
        save_edge_list(g, e_path, a_path)
        edge_text, attr_text = oracles.reference_edge_files(edges, labels, opinions)
        assert e_path.read_bytes() == edge_text.encode("utf-8")
        assert a_path.read_bytes() == attr_text.encode("utf-8")
        g2 = load_edge_list(e_path, a_path)
        # the edge array writer labels node i as i
        save_edge_array(n, np.array(edges, dtype=np.int64).reshape(-1, 2), e_path, a_path, g.opinions)
        edge_text, attr_text = oracles.reference_edge_files(edges, range(n), opinions)
        assert e_path.read_bytes() == edge_text.encode("utf-8")
        assert a_path.read_bytes() == attr_text.encode("utf-8")
    assert structurally_equal(g, g2)
    assert np.array_equal(g.labels, g2.labels)


def test_degree_star_and_isolated():
    g = graph_from_edges(6, star_edges(4))  # node 5 isolated
    assert degree(g, 0) == 4
    assert all(degree(g, i) == 1 for i in range(1, 5))
    assert degree(g, 5) == 0


def test_degree_out_of_range():
    g = graph_from_edges(3, complete_edges(3))
    with pytest.raises(IndexError):
        degree(g, 3)
    with pytest.raises(IndexError):
        neighbors(g, -1)


def test_self_loop_rejected_by_builder():
    with pytest.raises(DataError):
        graph_from_edges(3, [(0, 0)])


def test_duplicate_edges_collapse_in_builder():
    g = graph_from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.edge_count == 2


def _csr(indptr, indices, opinions=(0, 0, 0), labels=None):
    """A 3-node AnnotatedGraph built directly, bypassing the builder."""
    return AnnotatedGraph(
        n=3,
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        opinions=np.array(opinions, dtype=np.uint8),
        labels=labels,
    )


# the path 0-1-2 is indptr [0, 1, 3, 4], indices [1, 0, 2, 1]
@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: _csr([0, 1, 3], [1, 0, 2, 1]).validate(), "malformed indptr", id="indptr-shape"),
        pytest.param(lambda: _csr([1, 1, 3, 4], [1, 0, 2, 1]).validate(), "malformed indptr", id="indptr-start"),
        pytest.param(
            lambda: _csr([0, 1, 3, 3], [1, 0, 2, 1]).validate(), "indptr does not cover indices", id="indptr-end"
        ),
        pytest.param(
            lambda: _csr([0, 1, 3, 4], [1, 0, 3, 1]).validate(), "neighbor id out of range", id="neighbour-high"
        ),
        pytest.param(
            lambda: _csr([0, 1, 3, 4], [-1, 0, 2, 1]).validate(), "neighbor id out of range", id="neighbour-low"
        ),
        pytest.param(lambda: _csr([0, 1, 3, 4], [0, 0, 2, 1]).validate(), "self-loop present", id="self-loop"),
        pytest.param(
            lambda: _csr([0, 2, 3, 4], [1, 1, 0, 1]).validate(),
            "rows must be strictly increasing",
            id="row-duplicate",
        ),
        pytest.param(
            lambda: _csr([0, 1, 3, 4], [1, 2, 0, 1]).validate(),
            "rows must be strictly increasing",
            id="row-unsorted",
        ),
        pytest.param(
            lambda: _csr([0, 1, 3, 4], [1, 0, 2, 0]).validate(), "adjacency is not symmetric", id="asymmetric"
        ),
        pytest.param(
            lambda: AnnotatedGraph.from_edge_array(3, [[0, 3]]), "edge endpoint out of range", id="builder-endpoint-high"
        ),
        pytest.param(
            lambda: AnnotatedGraph.from_edge_array(3, [[-1, 2]]), "edge endpoint out of range", id="builder-endpoint-low"
        ),
        pytest.param(
            lambda: AnnotatedGraph.from_edge_array(3, [[0, 1]], opinions=np.zeros(2, np.uint8)),
            "opinions array must have one entry per node",
            id="builder-opinions",
        ),
        pytest.param(
            lambda: _csr([0, 1, 3, 4], [1, 0, 2, 1], opinions=(0, 2, 1)).validate(),
            r"opinions must be 0 \(anti\) or 1 \(pro\)",
            id="opinion-2",
        ),
        pytest.param(
            lambda: _csr([0, 1, 3, 4], [1, 0, 2, 1], opinions=(255, 0, 1)).validate(),
            r"opinions must be 0 \(anti\) or 1 \(pro\)",
            id="opinion-255",
        ),
    ],
)
def test_structural_check_names_each_fault(build, message):
    with pytest.raises(DataError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: _csr([0, 3, 1, 4], [1, 0, 2, 1]).validate(), "malformed indptr", id="indptr-decreasing"
        ),
        pytest.param(
            lambda: _csr([0, 1, 3, 4], [1, 0, 2, 1], opinions=(0, 1)).validate(),
            "opinions array must have one entry per node",
            id="opinions",
        ),
        pytest.param(
            lambda: _csr([0, 1, 3, 4], [1, 0, 2, 1], labels=np.arange(4)).validate(),
            "labels array must have one entry per node",
            id="labels",
        ),
        pytest.param(
            lambda: AnnotatedGraph.from_edge_array(3, [[0, 1], [1, 2]], labels=np.array([5, 6])),
            "labels array must have one entry per node",
            id="builder-labels",
        ),
        # once 2**31 started a 2 GB fill, -1 raised numpy's ValueError, 3.5 and True a TypeError
        *(
            pytest.param(
                lambda n=n: AnnotatedGraph.from_edge_array(n, []),
                rf"^node count must be an integer in \[0, 2147483647\], got {text}$",
                id=f"builder-nodes-{text}",
            )
            for n, text in ((2**31, "2147483648"), (-1, "-1"), (3.5, "3.5"), (True, "True"))
        ),
    ],
)
def test_structural_check_rejects_decreasing_indptr_and_misshapen_annotations(build, message):
    def refuse():
        with pytest.raises(DataError, match=message):
            build()

    _, peak = traced_peak(refuse)
    assert peak < 1 << 16  # refused before any node- or arc-sized array


_BAD_OPINIONS = pytest.mark.parametrize("opinions", [[0, 5, 1], [0, 0.5, 1], [0, -1, 1]], ids=["5", "half", "minus-1"])
_NOT_AN_OPINION = r"^opinions must be 0 \(anti\) or 1 \(pro\)$"


@_BAD_OPINIONS
def test_from_edge_array_rejects_opinions_other_than_0_and_1(opinions):
    # once 5 built a graph that compare_scenarios failed on with an IndexError, and 0.5 became anti
    with pytest.raises(DataError, match=_NOT_AN_OPINION):
        AnnotatedGraph.from_edge_array(3, [[0, 1], [1, 2]], opinions=opinions)


@_BAD_OPINIONS
def test_edge_array_writer_rejects_opinions_other_than_0_and_1_before_writing(tmp_path, opinions):
    # once the writer wrote the whole edge file, then failed on the attribute lines with an IndexError
    with pytest.raises(DataError, match=_NOT_AN_OPINION):
        save_edge_array(3, np.array([[0, 1], [1, 2]]), tmp_path / "e.csv", tmp_path / "a.csv", np.array(opinions))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("n", [2**31, -1, 3.5])
def test_edge_array_writer_rejects_a_bad_node_count_before_writing(tmp_path, n):
    with pytest.raises(DataError, match=rf"^node count must be an integer in \[0, 2147483647\], got {n}$"):
        save_edge_array(n, np.empty((0, 2), dtype=np.int64), tmp_path / "e.csv", tmp_path / "a.csv")
    assert not any(tmp_path.iterdir())


def test_builder_copies_the_callers_opinions_and_labels():
    opinions = np.zeros(3, dtype=np.uint8)
    labels = np.array([7, 8, 9], dtype=np.int64)
    g = AnnotatedGraph.from_edge_array(3, [[0, 1], [1, 2]], opinions=opinions, labels=labels)
    opinions[0] = PRO  # the caller's arrays stay writable
    labels[0] = 5
    assert g.opinions.tolist() == [ANTI, ANTI, ANTI]
    assert g.labels.tolist() == [7, 8, 9]


def test_load_allocates_at_most_four_times_the_adjacency(tmp_path):
    """The load holds no more than about three arc-sized arrays at once.

    Bound: 4x ``indices.nbytes``. The label mapping writes the dense ids
    over the label pairs, and the build frees those pairs before its sort;
    the label mapping sets the peak, 3.48x. The load peaked at 6.5x when the
    mapping used ``np.unique``, and at 3.64x when the build re-scanned its
    CSR with ``validate``.

    CPython 3.10 keeps a call's arguments on the caller's stack until the
    call returns; a wrapper that keeps ``from_edge_array``'s arguments alive
    through the call also read 3.48x on CPython 3.11 with numpy 2.4, so the
    bound is one for both. numpy 1.24's temporaries were not checked.
    """
    edges, attrs = tmp_path / "edges.csv", tmp_path / "attrs.csv"
    save_edge_list(memory_test_graph(), edges, attrs)
    g, peak = traced_peak(load_edge_list, edges, attrs)
    assert g.edge_count > 150_000
    assert peak <= 4 * g.indices.nbytes


def test_filtered_load_allocates_at_most_four_times_the_adjacency(tmp_path):
    """Bound: 4x the whole graph's ``indices.nbytes``, for either opinion.

    Every edge is read and mapped as in the unfiltered load; the kept pairs
    are then cut as int32 ids, and only the community is built. The pro
    community keeps nearly every edge; anti and pro read 3.45x each, set by
    the label mapping as in the unfiltered load.

    CPython 3.10 keeps the mapped pairs on the caller's stack through the
    cut, and the int32 ids through the build (see the generators' bound).
    The 3.10 factor, 4.5x, is not measured on 3.10: a wrapper that keeps the
    arguments of the cut and of ``from_edge_array`` alive through each call
    read 3.45 and 3.89x on CPython 3.11 with numpy 2.4, and numpy 1.24's
    temporaries were not checked.
    """
    edges, attrs = tmp_path / "edges.csv", tmp_path / "attrs.csv"
    g = memory_test_graph()
    save_edge_list(g, edges, attrs)
    bound = 4 if sys.version_info >= (3, 11) else 4.5
    for opinion in Opinion:
        sub, peak = traced_peak(load_edge_list, edges, attrs, opinion)
        assert peak <= bound * g.indices.nbytes, opinion
    assert sub.edge_count > 150_000  # the pro community, loaded last


def test_subgraph_allocates_at_most_2_45_times_the_adjacency():
    """Bound: 2.45x the whole graph's ``indices.nbytes``, for either opinion.

    The kept arcs come straight from the CSR; the pro subgraph, which keeps
    nearly every edge, peaks at 2.12x (anti 1.75x). It peaked at 4.4x when it
    was cut from a copy of the edge list, and at 3.30x when the build
    re-scanned its CSR with ``validate``.

    CPython 3.10 keeps a call's arguments on the caller's stack until the
    call returns, so there the forward pairs live through the cut and the
    int32 ids through the build. The 3.10 factor, 4.3x, is not measured on
    3.10: a wrapper that keeps the arguments of the cut and of
    ``from_edge_array`` alive through each call read 3.72x (pro) on CPython
    3.11 with numpy 2.4, and numpy 1.24's temporaries were not checked.
    """
    g = memory_test_graph()
    bound = 2.45 if sys.version_info >= (3, 11) else 4.3
    for opinion in Opinion:
        sub, peak = traced_peak(subgraph_by_opinion, g, opinion)
        assert peak <= bound * g.indices.nbytes, opinion
    assert sub.edge_count > 150_000  # the pro subgraph, taken last


def test_subgraph_two_triangles():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    opinions = [1, 1, 1, 0, 0, 0]
    g = graph_from_edges(6, edges, opinions)
    pro = subgraph_by_opinion(g, Opinion.PRO)
    assert pro.n == 3 and pro.edge_count == 3
    assert pro.opinions.tolist() == [1, 1, 1]
    anti = subgraph_by_opinion(g, Opinion.ANTI)
    assert anti.n == 3 and anti.edge_count == 3


def test_subgraph_excludes_cross_edges():
    # complete bipartite K_{2,2}, all edges cross-opinion
    g = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [1, 1, 0, 0])
    anti = subgraph_by_opinion(g, Opinion.ANTI)
    assert anti.n == 2 and anti.edge_count == 0


def test_subgraph_matches_brute_force_filter(tmp_path):
    # an independent reference for the one cut that both callers run: a
    # mixed graph, and an all-pro one whose anti cut is empty
    for pro_share in (0.5, 1.0):
        rng = np.random.default_rng(17)
        n = 50
        edges = random_edges(rng, n, 0.12)
        opinions = (rng.random(n) < pro_share).astype(np.uint8)
        labels = np.sort(rng.choice(np.arange(-500, 500), size=n, replace=False))
        g = AnnotatedGraph.from_edge_array(n, np.array(edges), opinions=opinions, labels=labels)
        paths = tmp_path / f"edges_{pro_share}.csv", tmp_path / f"attrs_{pro_share}.csv"
        save_edge_list(g, *paths)
        for op in (Opinion.PRO, Opinion.ANTI):
            keep = [i for i in range(n) if opinions[i] == int(op)]
            kept_edges = sorted(
                (int(labels[u]), int(labels[v])) for u, v in edges if opinions[u] == int(op) and opinions[v] == int(op)
            )
            for sub in (subgraph_by_opinion(g, op), load_edge_list(*paths, op)):
                assert sub.n == len(keep)
                # label traceability: subgraph labels are the kept nodes' labels
                assert sub.labels.tolist() == labels[keep].tolist()
                assert sub.opinions.tolist() == [int(op)] * len(keep)
                assert sorted(map(tuple, sub.labels[edge_array(sub)].tolist())) == kept_edges
        assert pro_share < 1 or sub.n == sub.edge_count == 0  # the empty anti cut, loaded last


# -- loading one community: the same graph as loading all and cutting -------


def _assert_filtered_load_equals_cut(edges, attrs, caplog):
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        whole = load_edge_list(edges, attrs)
    warned = [r.getMessage() for r in caplog.records]
    for opinion in Opinion:
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            sub = load_edge_list(edges, attrs, opinion)
        assert [r.getMessage() for r in caplog.records] == warned
        cut = subgraph_by_opinion(whole, opinion)
        assert structurally_equal(sub, cut), opinion
        for name in ("indptr", "indices", "opinions", "labels"):
            assert getattr(sub, name).dtype == getattr(cut, name).dtype, name
        assert np.array_equal(sub.labels, cut.labels)
        assert np.all(sub.opinions == int(opinion))


@pytest.mark.parametrize(
    "edge_lines, attr_lines",
    [
        pytest.param(
            ["30,-5", "12,12", "-5,7", "7,7", "30,7", "100,12"],
            ["30,pro", "-5,pro", "7,pro", "12,anti", "100,anti"],
            id="self-loops",
        ),
        pytest.param(
            ["3,8", "8,3", "8,1", "1,8", "1,3", "5,9", "9,5", "3,9"],
            ["1,pro", "3,pro", "8,pro", "5,anti", "9,anti"],
            id="duplicate-both-orientations",
        ),
        pytest.param(
            ["src,dst", "20,10", "10,30", "40,30"],
            ["node,opinion", "10,PRO", "20,pro", "30,Anti", "40,anti"],
            id="header-rows",
        ),
        pytest.param(
            ["4,6", "6,2", "9,11"],
            ["2,pro", "4,pro", "6,pro", "9,anti", "11,anti", "1,pro", "50,anti", "-7,anti", "8,pro"],
            id="isolated-nodes-of-either-opinion",
        ),
        pytest.param(
            ["1,2", "2,3", "1,3", "3,4", "4,1"],
            ["1,pro", "2,pro", "3,pro", "4,anti"],
            id="community-without-edges",
        ),
        pytest.param(
            ["1,2", "2,3", "3,3"],
            ["1,pro", "2,pro", "3,pro"],
            id="empty-community",
        ),
        pytest.param(["src,dst"], ["2,anti", "1,pro"], id="no-edges"),
    ],
)
def test_filtered_load_equals_load_then_cut(tmp_path, caplog, edge_lines, attr_lines):
    edges, attrs = write_files(tmp_path, edge_lines, attr_lines)
    _assert_filtered_load_equals_cut(edges, attrs, caplog)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_filtered_load_equals_load_then_cut_property(data):
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10**6)))
    n = data.draw(st.integers(min_value=1, max_value=30))
    labels = rng.choice(np.arange(-50, 50), size=n, replace=False)
    opinions = rng.random(n) < data.draw(st.floats(min_value=0.0, max_value=1.0))
    pairs = rng.integers(0, n, size=(data.draw(st.integers(min_value=0, max_value=60)), 2))
    edge_lines = [f"{labels[u]},{labels[v]}" for u, v in pairs]  # loops and duplicates included
    attr_lines = [f"{label},{'pro' if op else 'anti'}" for label, op in zip(labels, opinions)]
    with tempfile.TemporaryDirectory() as tmp:
        edges, attrs = write_files(Path(tmp), edge_lines, attr_lines)
        for opinion in Opinion:
            logging.disable(logging.WARNING)
            try:
                sub, whole = load_edge_list(edges, attrs, opinion), load_edge_list(edges, attrs)
            finally:
                logging.disable(logging.NOTSET)
            cut = subgraph_by_opinion(whole, opinion)
            assert structurally_equal(sub, cut)
            assert np.array_equal(sub.labels, cut.labels)


@pytest.mark.parametrize("opinion", list(Opinion))
def test_filtered_load_rejects_an_unannotated_node_on_a_cross_edge(tmp_path, opinion):
    edges, attrs = write_files(tmp_path, ["1,2", "2,99"], ["1,pro", "2,anti"])
    with pytest.raises(AnnotationError) as whole:
        load_edge_list(edges, attrs)
    with pytest.raises(AnnotationError) as filtered:
        load_edge_list(edges, attrs, opinion)
    assert str(filtered.value) == str(whole.value)
    assert filtered.value.offenders == whole.value.offenders == [99]


@settings(max_examples=40)
@given(st.data())
def test_handshake_and_symmetry(data):
    # the build does not re-scan its CSR: validate and a brute-force
    # adjacency check here what its construction guarantees
    n = data.draw(st.integers(min_value=2, max_value=25))
    linked = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n - 1, unique=True))
    node = st.sampled_from(linked)  # at least one node stays isolated
    drawn = [e for e in data.draw(st.lists(st.tuples(node, node), max_size=60)) if e[0] != e[1]]
    repeats = data.draw(st.lists(st.sampled_from(drawn), max_size=20)) if drawn else []
    # each repeat once as drawn and once reversed, all in a drawn order
    edges = data.draw(st.permutations(drawn + repeats + [(v, u) for u, v in repeats]))
    opinions = data.draw(st.lists(st.sampled_from([ANTI, PRO]), min_size=n, max_size=n))
    labels = data.draw(st.lists(st.integers(min_value=INT64_MIN, max_value=INT64_MAX), min_size=n, max_size=n))
    g = AnnotatedGraph.from_edge_array(n, np.array(edges, dtype=np.int64).reshape(-1, 2), opinions, labels)
    g.validate()  # symmetry + simplicity full scan
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    assert [neighbors(g, i).tolist() for i in range(n)] == [sorted(row) for row in adjacency]
    assert int(g.degrees.sum()) == 2 * g.edge_count
    assert g.opinions.tolist() == opinions and g.labels.tolist() == labels


def test_neighbors_sorted():
    g = graph_from_edges(5, [(4, 0), (2, 0), (3, 0)])
    assert neighbors(g, 0).tolist() == [2, 3, 4]
