"""Edge-list parsing, label mapping, result and vector serialization."""

import contextlib
import io
import json
import math
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localcluster import (
    ClusterResult,
    EmbeddingVector,
    Graph,
    GraphFormatError,
    InputError,
    InvalidSetError,
    LabelMap,
    load_edge_list,
    load_seed_set,
    read_vector_csv,
    write_edge_list,
    write_result,
    write_vector_csv,
)
from localcluster import io as lio
from localcluster.synth import ring_of_cliques


def test_load_triangle_plain():
    g, lm = load_edge_list(io.StringIO("0 1\n1 2\n2 0\n"))
    assert g.n == 3
    assert g.degrees.tolist() == [2, 2, 2]
    assert lm.labels == ("0", "1", "2")


def test_load_labeled_weighted_triangle():
    g, lm = load_edge_list(io.StringIO("a b 2\nb c 2\nc a 2\n"))
    assert lm.labels == ("a", "b", "c")
    assert lm.internal("a") == 0 and lm.internal("c") == 2
    assert g.degrees.tolist() == [4, 4, 4]


def test_comments_and_blank_lines():
    text = "# a comment\n\na b  # trailing note\nb c\n"
    g, lm = load_edge_list(io.StringIO(text))
    assert g.n == 3
    assert g.edge_count == 2


def test_self_loop_rejected_with_line_number():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_edge_list(io.StringIO("a b\nc c\n"))


def test_bad_weight_rejected():
    with pytest.raises(GraphFormatError, match="weight"):
        load_edge_list(io.StringIO("a b -1\n"))
    with pytest.raises(GraphFormatError, match="line 1"):
        load_edge_list(io.StringIO("a b zero\n"))
    with pytest.raises(GraphFormatError):
        load_edge_list(io.StringIO("a b inf\n"))


def test_wrong_field_count():
    with pytest.raises(GraphFormatError, match="line 1"):
        load_edge_list(io.StringIO("a\n"))
    with pytest.raises(GraphFormatError, match="line 2"):
        load_edge_list(io.StringIO("a b\na b 1 extra\n"))


def test_duplicate_edges_summed_with_warning(capsys):
    g, lm = load_edge_list(io.StringIO("a b 1\nb a 2\nb c\n"))
    assert g.edge_weight(0, 1) == 3.0
    err = capsys.readouterr().err
    assert "duplicate" in err


def test_empty_input_rejected():
    with pytest.raises(GraphFormatError, match="empty"):
        load_edge_list(io.StringIO("# nothing\n"))


def test_disconnected_named_vertices():
    with pytest.raises(GraphFormatError) as exc:
        load_edge_list(io.StringIO("a b\nc d\n"))
    msg = str(exc.value)
    assert "a" in msg and ("c" in msg or "d" in msg)


def test_load_seed_set_dedup():
    g, lm = load_edge_list(io.StringIO("a b\nb c\n"))
    seeds = load_seed_set(io.StringIO("a\na\nb\n"), lm, g)
    assert seeds.ids == (0, 1)


def test_load_seed_set_unknown_label():
    g, lm = load_edge_list(io.StringIO("a b\n"))
    with pytest.raises(InputError, match="z"):
        load_seed_set(io.StringIO("z\n"), lm, g)
    with pytest.raises(InvalidSetError):
        load_seed_set(io.StringIO("\n"), lm, g)


def test_label_map_identity_roundtrip():
    lm = LabelMap.identity_for(4)
    for i in range(4):
        assert lm.internal(lm.external(i)) == i


def test_edge_list_roundtrip(tmp_path):
    g, lm = load_edge_list(io.StringIO("a b 1.5\nb c 0.25\nc a 3\nc d 1\n"))
    path = tmp_path / "out.el"
    write_edge_list(g, lm, path)
    g2, lm2 = load_edge_list(path)
    assert lm2.labels == lm.labels
    assert g2.indptr.tolist() == g.indptr.tolist()
    assert g2.indices.tolist() == g.indices.tolist()
    assert g2.weights.tolist() == g.weights.tolist()


# Traced peak of one load over the bytes it returns (graph arrays and label
# strings), on the 20k-node ring of cliques: 2.83 measured; 5.47 when every
# token was a bytes object and the arcs were sorted as 2m (src, dst) keys.
LOAD_PEAK_OVER_RESULT = 4.0


def test_load_peak_memory_is_a_small_multiple_of_the_result(tmp_path):
    g = ring_of_cliques(2_000, 10)
    path = tmp_path / "ring.el"
    write_edge_list(g, LabelMap.identity_for(g.n), path)
    tracemalloc.start()
    try:
        loaded, lm = load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (loaded.indptr, loaded.indices, loaded.weights, loaded.degrees)
    returned = sum(a.nbytes for a in arrays) + sum(map(sys.getsizeof, lm.labels))
    assert (loaded.n, loaded.edge_count) == (g.n, g.edge_count)
    assert peak < LOAD_PEAK_OVER_RESULT * returned, (peak, returned)


def test_write_result_schema():
    lm = LabelMap(labels=("x", "y", "z"))
    result = ClusterResult(
        set_ids=(0, 2),
        objective_name="conductance",
        objective=0.5,
        conductance=0.5,
        cut=2.0,
        volume=4.0,
        touched_nodes=3,
        iterations=1,
        runtime_ms=1.25,
    )
    buf = io.StringIO()
    write_result(result, lm, buf)
    payload = json.loads(buf.getvalue())
    assert list(payload) == [
        "set",
        "objective_name",
        "objective",
        "conductance",
        "cut",
        "volume",
        "touched_nodes",
        "iterations",
        "runtime_ms",
    ]
    assert payload["set"] == ["x", "z"]
    assert payload["objective"] == 0.5


def test_write_result_empty_set():
    lm = LabelMap(labels=("x",))
    result = ClusterResult(
        set_ids=(),
        objective_name="conductance",
        objective=math.inf,
        conductance=math.inf,
        cut=0.0,
        volume=0.0,
        touched_nodes=0,
        iterations=0,
        runtime_ms=0.0,
    )
    buf = io.StringIO()
    write_result(result, lm, buf)
    assert '"set": []' in buf.getvalue()


def test_vector_csv_roundtrip_sparse():
    lm = LabelMap(labels=("a", "b", "c", "d"))
    vec = EmbeddingVector(
        n=4,
        values=np.array([0.125, 1e-17]),
        indices=np.array([1, 3]),
        kind="l1pr",
    )
    buf = io.StringIO()
    write_vector_csv(vec, lm, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "node,value"
    assert text.splitlines()[1] == "b,0.125"
    back = read_vector_csv(io.StringIO(text), lm)
    assert back.indices.tolist() == [1, 3]
    assert back.values.tolist() == [0.125, 1e-17]


def test_vector_csv_dense_has_all_rows():
    lm = LabelMap(labels=("a", "b", "c"))
    vec = EmbeddingVector(n=3, values=np.array([1.0, -2.0, 0.0]))
    buf = io.StringIO()
    write_vector_csv(vec, lm, buf)
    assert len(buf.getvalue().splitlines()) == 4


def test_vector_csv_roundtrip_with_commas_in_labels():
    # Edge-list labels may hold commas; values never do, so rows split at
    # their last comma.
    g, lm = load_edge_list(io.StringIO("a,b c\nc d,e,\n,f a,b\n"))
    assert lm.labels == ("a,b", "c", "d,e,", ",f")
    vec = EmbeddingVector(n=g.n, values=np.array([0.5, -1.0, 1e-17, 2.0]))
    buf = io.StringIO()
    write_vector_csv(vec, lm, buf)
    assert buf.getvalue().splitlines()[1] == "a,b,0.5"
    back = read_vector_csv(io.StringIO(buf.getvalue()), lm)
    assert back.indices.tolist() == [0, 1, 2, 3]
    assert back.values.tobytes() == vec.values.tobytes()
    with pytest.raises(InputError, match="line 2: expected 'node,value'"):
        read_vector_csv(io.StringIO("node,value\na,x,0.5\n"), lm)
    with pytest.raises(InputError, match="line 3: bad value 'x'"):
        read_vector_csv(io.StringIO("node,value\nc,1\nd,e,,x\n"), lm)


def test_read_vector_csv_validation():
    lm = LabelMap(labels=("a", "b"))
    with pytest.raises(InputError, match="header"):
        read_vector_csv(io.StringIO("not,a,header\n"), lm)
    with pytest.raises(InputError, match="duplicate"):
        read_vector_csv(io.StringIO("node,value\na,1\na,2\n"), lm)
    with pytest.raises(InputError):
        read_vector_csv(io.StringIO("node,value\nzz,1\n"), lm)


# -- the block tokenizer against the per-line loop it replaced -------------------


def reference_load_edge_list(source):
    """Parse one line at a time, summing duplicates in a dict."""
    labels, index, pair_weight, duplicates = [], {}, {}, []

    def intern(label):
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    with lio._open_text(source) as handle:
        for lineno, raw in enumerate(handle, start=1):
            data = raw.split("#", 1)[0].strip()
            if not data:
                continue
            tokens = data.split()
            if len(tokens) not in (2, 3):
                raise GraphFormatError(f"line {lineno}: expected 'u v [w]', got {len(tokens)} fields")
            if tokens[0] == tokens[1]:
                raise GraphFormatError(f"line {lineno}: self-loop on {tokens[0]!r}")
            weight = 1.0
            if len(tokens) == 3:
                try:
                    weight = float(tokens[2])
                except ValueError:
                    raise GraphFormatError(f"line {lineno}: bad weight {tokens[2]!r}") from None
                if not math.isfinite(weight) or weight <= 0:
                    raise GraphFormatError(
                        f"line {lineno}: weight must be finite and positive, got {tokens[2]}"
                    )
            a, b = intern(tokens[0]), intern(tokens[1])
            key = (a, b) if a < b else (b, a)
            if key in pair_weight:
                pair_weight[key] += weight
                duplicates.append((tokens[0], tokens[1]))
            else:
                pair_weight[key] = weight

    if not pair_weight:
        raise GraphFormatError("empty input: no edges found")
    for u_lab, v_lab in duplicates:
        print(f"warning: duplicate edge {u_lab} {v_lab}; weights summed", file=sys.stderr)
    keys = sorted(pair_weight)
    g = Graph.from_edges(
        len(labels),
        [k[0] for k in keys],
        [k[1] for k in keys],
        [pair_weight[k] for k in keys],
    )
    lm = LabelMap(labels=tuple(labels))
    if not g.is_connected():
        a, b = g.unreachable_witness()
        raise GraphFormatError(
            f"graph is disconnected: no path between {lm.external(a)!r} and {lm.external(b)!r}"
        )
    return g, lm


def _outcome(load, source):
    """Everything a load shows its caller: result arrays or error, and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            g, lm = load(source)
        except Exception as exc:  # the exception is the outcome being compared
            return (type(exc), str(exc)), err.getvalue()
    arrays = tuple(
        (a.dtype.str, a.tobytes()) for a in (g.indptr, g.indices, g.weights, g.degrees)
    )
    return (lm.labels, arrays, g.total_volume), err.getvalue()


LABELS = [
    "a", "b", "c", "d", "1", "10", "é", "日本", "ß",
    # Labels that differ only by a trailing NUL, and a label that is a
    # prefix of another.
    "a\x00", "abc", "abcdefgh", "abcdefgh\x00",
    # 8 UTF-8 bytes or more (keys wider than one 8-byte word from 9 on).
    "abcdefghi", "éééééééé", "日本語のラベル", "x" * 40,
]
GOOD_WEIGHTS = ["1", "2.5", "0.1", "1e-3", "3", "1_0", "٣", "1.", ".5", "1e300"]
BAD_WEIGHTS = ["0", "-1", "-0", "inf", "nan", "1e400", "x", "1__0"]
SPACES = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\u00a0", "\u2028", "\u3000", " \t "]


@st.composite
def edge_list_texts(draw):
    """Edge lists with odd spacing, comments and duplicates; few faulty lines."""
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["edge"] * 5 + ["weighted"] * 3 + ["blank", "comment", "fault"]))
        sep = draw(st.sampled_from(SPACES))
        u = draw(st.sampled_from(LABELS))
        v = draw(st.sampled_from([lab for lab in LABELS if lab != u]))
        if kind == "edge":
            body = f"{u}{sep}{v}"
        elif kind == "weighted":
            body = f"{u}{sep}{v}{sep}{draw(st.sampled_from(GOOD_WEIGHTS))}"
        elif kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t", "\u00a0"]))
        elif kind == "comment":
            body = f"# {u} {v}"
        else:
            fault = draw(st.sampled_from(["loop", "fields", "weight", "label as weight"]))
            if fault == "loop":
                body = f"{u}{sep}{u}{sep}{draw(st.sampled_from(BAD_WEIGHTS + ['']))}"
            elif fault == "fields":
                body = sep.join(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5).filter(
                    lambda fields: len(fields) not in (2, 3))))
            elif fault == "weight":
                body = f"{u}{sep}{v}{sep}{draw(st.sampled_from(BAD_WEIGHTS))}"
            else:
                body = f"{u}{sep}{v}{sep}{draw(st.sampled_from(LABELS))}"
        if draw(st.booleans()):
            body = draw(st.sampled_from(SPACES)) + body
        if draw(st.integers(0, 4)) == 0:
            body += draw(st.sampled_from(["#", " # note", "#a b", "\t#\t1 2 3"]))
        lines.append(body + draw(st.sampled_from(["\n", "\n", "\r\n", " \n"])))
    text = "".join(lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


@settings(max_examples=300)
@given(text=edge_list_texts(), block=st.sampled_from([1, 3, 8, 64, 1 << 20]))
@example(text="abcdefghi a\nabcdefgh\x00 a\na\x00 a\nabc abcdefgh\nabcdefgh a\n", block=1 << 20)
def test_loader_matches_the_per_line_loop(text, block):
    with mock.patch.object(lio, "_BLOCK_CHARS", block):
        assert _outcome(load_edge_list, io.StringIO(text)) == _outcome(
            reference_load_edge_list, io.StringIO(text)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.el"
            path.write_text(text, encoding="utf-8", newline="")
            assert _outcome(load_edge_list, path) == _outcome(reference_load_edge_list, path)


def test_whitespace_tables_match_str_split():
    ascii_space = {c for c in range(128) if chr(c).isspace()}
    wide_space = {c for c in range(128, sys.maxunicode + 1) if chr(c).isspace()}
    assert set(np.flatnonzero(lio._ASCII_SPACE).tolist()) == ascii_space
    assert set(lio._WIDE_SPACE) == wide_space


def test_loader_keeps_lone_surrogates_in_labels():
    g, lm = load_edge_list(io.StringIO("\ud800 b\nb c\n"))
    assert lm.labels == ("\ud800", "b", "c")
    assert g.edge_count == 2


# -- the one-pass vector reader against the per-line loop it replaced ------------


def reference_read_vector_csv(source, lm):
    """Parse one line at a time into a dict keyed by internal id."""
    entries = {}
    with lio._open_text(source) as handle:
        header = handle.readline().strip()
        if header != "node,value":
            raise InputError(f"expected header 'node,value', got {header!r}")
        for lineno, raw in enumerate(handle, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'node,value'")
            i = lm.internal(parts[0])
            if i in entries:
                raise InputError(f"line {lineno}: duplicate node {parts[0]!r}")
            try:
                entries[i] = float(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad value {parts[1]!r}") from None
    ids = np.array(sorted(entries), dtype=np.int64)
    vals = np.array([entries[i] for i in ids])
    return EmbeddingVector(n=len(lm), values=vals, indices=ids, kind="generic")


def _vector_outcome(read, source, lm):
    """What a read shows its caller: the vector's fields as bytes, or the error."""
    try:
        vec = read(source, lm)
    except Exception as exc:  # the exception is the outcome being compared
        return type(exc), str(exc)
    arrays = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (vec.values, vec.indices))
    return vec.n, vec.kind, arrays


VECTOR_LABELS = ("a", "b", "c", "10", "é", "日本", "x y", "1", "d", "e", "f", "g")
VALUES = ["1", "10", "-2.5", "0", "-0", "1e-17", "0.1", "1e300", "inf", "-inf", "nan", "1_0", "٣", " 3 ", ".5"]
BAD_VALUES = ["", "x", "1__0", "1,", "--1", "0x1"]


@st.composite
def vector_texts(draw):
    """Vector CSVs with blank lines and padding; a faulty line or header now and then."""
    header = draw(st.sampled_from(["node,value"] * 12 + [" node,value\t", "node, value", "value,node", ""]))
    labels = draw(st.permutations(VECTOR_LABELS))
    lines = [header + draw(st.sampled_from(["\n", "\r\n"]))]
    for k in range(draw(st.integers(0, len(VECTOR_LABELS)))):
        kind = draw(st.sampled_from(["row"] * 24 + ["blank"] * 4 + ["fields", "label", "value", "duplicate"]))
        label = labels[k]
        value = draw(st.sampled_from(VALUES))
        if kind == "row":
            body = f"{label},{value}"
        elif kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t", "\u3000"]))
        elif kind == "fields":
            body = draw(st.sampled_from([label, f"{label},{value},{value}", f"{label},,{value}", ","]))
        elif kind == "label":
            body = f"{draw(st.sampled_from(['zz', ' a', 'A', '']))},{value}"
        elif kind == "value":
            body = f"{label},{draw(st.sampled_from(BAD_VALUES))}"
        else:
            body = f"{labels[0]},{value}"
        if draw(st.integers(0, 3)) == 0:
            body = draw(st.sampled_from([" ", "\t", "\u3000"])) + body
        lines.append(body + draw(st.sampled_from(["\n", "\n", "\r\n", " \n"])))
    text = "".join(lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


@settings(max_examples=300)
@given(text=vector_texts())
# Three fields whose middle one is a label: split as one run, they would pair up.
@example(text="node,value\nb,2\na,10,10\n")
def test_vector_reader_matches_the_per_line_loop(text):
    lm = LabelMap(labels=VECTOR_LABELS)
    assert _vector_outcome(read_vector_csv, io.StringIO(text), lm) == _vector_outcome(
        reference_read_vector_csv, io.StringIO(text), lm
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _vector_outcome(read_vector_csv, path, lm) == _vector_outcome(
            reference_read_vector_csv, path, lm
        )

