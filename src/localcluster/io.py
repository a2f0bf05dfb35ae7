"""Edge-list and seed-file ingestion, label remapping, result serialization.

External files speak arbitrary string labels; everything in memory is
contiguous internal ids. A LabelMap carries the bijection and every
writer restores the external names.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat
from operator import methodcaller
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import GraphFormatError, InputError, InvalidSetError
from .graph import Graph, NodeSet
from .results import ClusterResult
from .spectral import EmbeddingVector

__all__ = [
    "LabelMap",
    "load_edge_list",
    "load_seed_set",
    "write_edge_list",
    "write_result",
    "write_vector_csv",
    "read_vector_csv",
]

FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class LabelMap:
    """Bijection between external string labels and internal ids 0..n-1."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "_index", dict(zip(self.labels, range(len(self.labels)))))
        if len(self._index) != len(self.labels):
            raise InputError("duplicate labels in label map")

    @classmethod
    def identity_for(cls, n: int) -> "LabelMap":
        return cls(labels=tuple(str(i) for i in range(n)))

    def __len__(self) -> int:
        return len(self.labels)

    def internal(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown vertex label {label!r}") from None

    def external(self, internal_id: int) -> str:
        if not (0 <= internal_id < len(self.labels)):
            raise InputError(f"internal id {internal_id} out of range")
        return self.labels[internal_id]


@contextmanager
def _open_text(source: str | Path | IO[str], mode: str = "r") -> Iterator[IO[str]]:
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding="utf-8") as handle:
            yield handle
    else:
        yield source


# Bytes str.split() treats as whitespace, once the non-ASCII ones have
# been translated to spaces; '\n' is among them.
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20]] = True
_WIDE_SPACE = dict.fromkeys(
    [0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000], " "
)
# Edge lists are read in blocks of about this many characters, so the
# per-byte and per-token temporaries stay small whatever the file size.
_BLOCK_CHARS = 1 << 18
# _PAD[r] sets the 8 - r low bytes of a big-endian word: the bytes past a
# token that holds r of the word's bytes.
_PAD = np.array([(1 << 8 * (8 - r)) - 1 for r in range(9)], dtype=np.uint64)
_decode = methodcaller("decode", "utf-8", "surrogatepass")


def _blocks(handle: IO[str]) -> Iterator[str]:
    """The handle's text in runs of whole lines (the last may lack its newline)."""
    pending: list[str] = []
    for chunk in iter(lambda: handle.read(_BLOCK_CHARS), ""):
        cut = chunk.rfind("\n") + 1
        if cut:
            pending.append(chunk[:cut])
            yield "".join(pending)
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    tail = "".join(pending)
    if tail:
        yield tail


def _tokenize(text: str) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray, int]:
    """Whitespace-separated tokens of a block of lines, comments removed.

    Returns the block's UTF-8 bytes, the start and end offset of each token
    in them, the block line of each token, and the number of lines. A
    comment runs from a line's first '#' to its end.
    """
    if not text.isascii():
        text = text.translate(_WIDE_SPACE)
    raw = text.encode("utf-8", "surrogatepass")
    buf = np.frombuffer(raw, dtype=np.uint8)
    newlines = np.flatnonzero(buf == 0x0A)
    is_token = ~_ASCII_SPACE[buf]
    hashes = np.flatnonzero(buf == 0x23)
    if hashes.size:
        hash_line, first = np.unique(np.searchsorted(newlines, hashes), return_index=True)
        toggles = np.zeros(buf.size + 1, dtype=bool)
        toggles[hashes[first]] = True
        toggles[np.append(newlines, buf.size)[hash_line]] = True
        is_token &= ~np.logical_xor.accumulate(toggles)[:-1]
    steps = np.diff(is_token.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts = np.flatnonzero(steps == 1)
    ends = np.flatnonzero(steps == -1)
    n_lines = newlines.size + (not text.endswith("\n"))
    return raw, starts, ends, np.searchsorted(newlines, starts), n_lines


def _only_tokens(raw: bytes, starts: np.ndarray, ends: np.ndarray) -> bytes:
    """``raw`` with every byte outside the tokens ``raw[starts[k]:ends[k]]`` made a space."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    inside = np.zeros(buf.size + 1, dtype=np.int8)
    inside[starts] = 1
    inside[ends] = -1
    return np.where(inside.cumsum(dtype=np.int8)[:-1].view(bool), buf, np.uint8(0x20)).tobytes()


def _intern(raw: bytes, starts: np.ndarray, ends: np.ndarray, index: dict[bytes, int]) -> np.ndarray:
    """Ids of the tokens ``raw[starts[k]:ends[k]]`` in ``index``, which gives
    each label it lacks the next id, in order of first appearance.

    Only the first occurrence of each distinct token becomes a ``bytes``
    and is looked up. Tokens are told apart by fixed-width keys: a token's
    bytes padded with 0xFF, which UTF-8 never contains, to a multiple of 8,
    so tokens of different lengths never share a key. Tokens are keyed in
    groups of one key width, so one long token does not widen them all,
    and each group is deduplicated by one stable sort of its keys.
    """
    lengths = ends - starts
    words = (lengths + 7) >> 3
    # Element i is the 8 bytes from offset i of the block, as a big-endian
    # number, so a key's words order as its bytes do.
    padded = raw + bytes(8 * int(words.max(initial=1)))
    word_at = np.ndarray((len(raw),), dtype=">u8", buffer=padded, strides=(1,))
    inverse = np.empty(starts.size, dtype=np.int64)
    firsts = [np.zeros(0, dtype=np.int64)]
    names: list[bytes] = []
    for width in np.flatnonzero(np.bincount(words)).tolist():
        group = np.flatnonzero(words == width)
        keys = np.empty((width, group.size), dtype=np.uint64)
        for j in range(width):
            rest = np.minimum(lengths[group] - 8 * j, 8)
            keys[j] = word_at[starts[group] + 8 * j] | _PAD[rest]
        # A stable sort by key lists equal tokens together, each run headed
        # by its first occurrence.
        order = np.lexsort(keys[::-1])
        head = np.ones(group.size, dtype=bool)
        head[1:] = (np.diff(keys[:, order]) != 0).any(axis=0)
        inverse[group[order]] = np.cumsum(head) + (len(names) - 1)
        first = order[head]
        firsts.append(group[first])
        # The distinct keys back to bytes: padding to spaces, a space after each.
        rows = np.full((first.size, 8 * width + 1), 0x20, dtype=np.uint8)
        rows[:, :-1] = keys[:, first].T.astype(">u8").view(np.uint8)
        rows[rows == 0xFF] = 0x20
        names += rows.tobytes().split()

    first = np.concatenate(firsts)
    ids = np.fromiter(map(index.get, names, repeat(-1)), np.int64, len(names))
    new = np.flatnonzero(ids < 0)
    new = new[np.argsort(first[new])]  # new labels get ids in order of first appearance
    ids[new] = np.arange(len(index), len(index) + new.size)
    index.update(zip(map(names.__getitem__, new.tolist()), ids[new].tolist()))
    return ids[inverse]


def _line_error(lineno: int, raw: str) -> GraphFormatError | None:
    """The error one line of an edge list raises on its own, if any."""
    tokens = raw.split("#", 1)[0].split()
    if not tokens:
        return None
    if len(tokens) not in (2, 3):
        return GraphFormatError(f"line {lineno}: expected 'u v [w]', got {len(tokens)} fields")
    if tokens[0] == tokens[1]:
        return GraphFormatError(f"line {lineno}: self-loop on {tokens[0]!r}")
    if len(tokens) == 3:
        try:
            weight = float(tokens[2])
        except ValueError:
            return GraphFormatError(f"line {lineno}: bad weight {tokens[2]!r}")
        if not math.isfinite(weight) or weight <= 0:
            return GraphFormatError(
                f"line {lineno}: weight must be finite and positive, got {tokens[2]}"
            )
    return None


def load_edge_list(source: str | Path | IO[str]) -> tuple[Graph, LabelMap]:
    """Parse a whitespace-delimited edge list into a connected Graph.

    Each data line is "u v" or "u v w"; text after '#' is comment. The
    weight defaults to 1.0 and must be a finite positive number.
    Duplicate vertex pairs are summed with a warning on stderr. Internal
    ids follow first appearance order. An error names the first bad line.

    The text is read and tokenized in blocks of whole lines with array
    operations, and only each block's distinct labels become Python
    objects, so working memory beyond the result is bounded by the block
    size. The parse's per-edge arrays are freed before the graph is built.
    """
    with _open_text(source) as handle:
        labels, lo, hi, w = _read_edges(handle)
    g = Graph.from_edges(len(labels), lo, hi, w)
    lm = LabelMap(labels=labels)

    if not g.is_connected():
        a, b = g.unreachable_witness()
        raise GraphFormatError(
            f"graph is disconnected: no path between {lm.external(a)!r} and {lm.external(b)!r}"
        )
    return g, lm


def _read_edges(handle: IO[str]) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The labels of an edge list and its distinct edges as (lo, hi) id pairs in
    increasing order with their summed weights; duplicates are warned about."""
    index: dict[bytes, int] = {}
    endpoints = [np.zeros((0, 2), dtype=np.int64)]
    weights = [np.zeros(0)]
    line0 = 1

    for text in _blocks(handle):
        raw, starts, ends, tok_line, n_lines = _tokenize(text)
        fields = np.bincount(tok_line, minlength=n_lines)
        data = np.flatnonzero(fields)
        bad = (fields[data] < 2) | (fields[data] > 3)
        good = np.flatnonzero(~bad)
        first_tok = (np.cumsum(fields) - fields)[data[good]]

        pairs = np.stack([first_tok, first_tok + 1], axis=1).ravel()
        uv = _intern(raw, starts[pairs], ends[pairs], index).reshape(-1, 2)
        bad[good] = uv[:, 0] == uv[:, 1]

        weighted = fields[data[good]] == 3
        w = np.ones(uv.shape[0])
        if weighted.any():
            at = first_tok[weighted] + 2
            try:
                w[weighted] = np.fromiter(
                    map(float, _decode(_only_tokens(raw, starts[at], ends[at])).split()), np.float64
                )
            except ValueError:  # some weight is no number: flag every weighted line
                bad[good[weighted]] = True
        bad[good] |= ~np.isfinite(w) | (w <= 0)
        if bad.any():
            # Error path: the first flagged line that fails on its own.
            lines = text.split("\n")
            for line in data[bad].tolist():
                error = _line_error(line0 + line, lines[line])
                if error is not None:
                    raise error

        endpoints.append(uv)
        weights.append(w)
        line0 += n_lines

    n = len(index)
    uv = np.concatenate(endpoints)
    del endpoints  # lowers the parse's peak by one copy of the endpoints
    codes = np.minimum(uv[:, 0], uv[:, 1]) * n + np.maximum(uv[:, 0], uv[:, 1])
    keys, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    if not keys.size:
        raise GraphFormatError("empty input: no edges found")
    # Tokens hold no spaces, so one decode of the joined labels splits back.
    labels = tuple(_decode(b" ".join(index)).split(" "))
    repeated = np.ones(codes.size, dtype=bool)
    repeated[first] = False
    if repeated.any():
        sys.stderr.write(
            "".join(
                f"warning: duplicate edge {labels[a]} {labels[b]}; weights summed\n"
                for a, b in uv[repeated].tolist()
            )
        )

    # bincount adds in file order, as summing duplicates one by one does.
    w = np.bincount(inverse, weights=np.concatenate(weights), minlength=keys.size)
    lo, hi = np.divmod(keys, n)
    return labels, lo, hi, w


def load_seed_set(source: str | Path | IO[str], lm: LabelMap, g: Graph) -> NodeSet:
    """Read one external label per line into a NodeSet, which sorts and deduplicates the ids."""
    ids: list[int] = []
    with _open_text(source) as handle:
        for raw in handle:
            label = raw.split("#", 1)[0].strip()
            if label:
                ids.append(lm.internal(label))
    if not ids:
        raise InvalidSetError("seed file contains no labels")
    return NodeSet.of(g, ids)


def write_edge_list(g: Graph, lm: LabelMap, sink: str | Path | IO[str]) -> None:
    """Emit "u v w" lines, one per undirected edge, u's id below v's."""
    with _open_text(sink, "w") as handle:
        for u in range(g.n):
            nbr, ws = g.neighbors(u)
            for j, w in zip(nbr, ws):
                if u < j:
                    handle.write(
                        f"{lm.external(u)} {lm.external(int(j))} {FLOAT_FMT % w}\n"
                    )


def write_result(result: ClusterResult, lm: LabelMap, sink: str | Path | IO[str]) -> None:
    """Serialize a clustering result as a stable-schema JSON object."""
    payload = {
        "set": [lm.external(i) for i in result.set_ids],
        "objective_name": result.objective_name,
        "objective": result.objective,
        "conductance": result.conductance,
        "cut": result.cut,
        "volume": result.volume,
        "touched_nodes": result.touched_nodes,
        "iterations": result.iterations,
        "runtime_ms": result.runtime_ms,
    }
    with _open_text(sink, "w") as handle:
        handle.write(json.dumps(payload, indent=2))
        handle.write("\n")


def write_vector_csv(vec: EmbeddingVector, lm: LabelMap, sink: str | Path | IO[str]) -> None:
    """Write "node,value" rows: every nonzero for sparse vectors, every
    vertex for dense ones, values at 17 significant digits."""
    with _open_text(sink, "w") as handle:
        handle.write("node,value\n")
        if vec.is_sparse:
            for i, val in zip(*vec.nonzeros()):
                handle.write(f"{lm.external(int(i))},{FLOAT_FMT % val}\n")
        else:
            for i, val in enumerate(vec.values):
                handle.write(f"{lm.external(i)},{FLOAT_FMT % val}\n")


def _raise_vector_line_error(lines: list[str], lm: LabelMap) -> None:
    """Raise the error of the first bad line of a vector CSV body (line 2 on)."""
    seen: set[int] = set()
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line:
            continue
        label, comma, value = line.rpartition(",")
        if not comma or ("," in label and label not in lm._index):
            raise InputError(f"line {lineno}: expected 'node,value'")
        i = lm.internal(label)
        if i in seen:
            raise InputError(f"line {lineno}: duplicate node {label!r}")
        seen.add(i)
        try:
            float(value)
        except ValueError:
            raise InputError(f"line {lineno}: bad value {value!r}") from None


def read_vector_csv(source: str | Path | IO[str], lm: LabelMap) -> EmbeddingVector:
    """Read a "node,value" CSV back into a sparse vector over lm's ids.

    The body is parsed in one pass: lines stripped, blank ones dropped,
    each split at its last comma (values hold none, labels may), labels
    looked up in lm's index and values parsed by one ``map(float, ...)``.
    If any of that fails, the lines are checked again one at a time, so
    the error names the first bad line. A line with several commas whose
    part before the last one is no label gets "expected 'node,value'".
    """
    with _open_text(source) as handle:
        header = handle.readline().strip()
        if header != "node,value":
            raise InputError(f"expected header 'node,value', got {header!r}")
        lines = handle.readlines()
    rows = list(filter(None, map(str.strip, lines)))
    try:
        # Each row as label, comma, value, flattened: no row's tuple outlives
        # its row, so the cyclic collector never runs over 100k of them.
        fields = list(chain.from_iterable(map(str.rpartition, rows, repeat(","))))
        if "" in fields[1::3]:
            raise ValueError("a line without a comma")
        ids = list(map(lm._index.__getitem__, fields[0::3]))
        if len(set(ids)) != len(ids):
            raise ValueError("a repeated node")
        values = list(map(float, fields[2::3]))
    except (KeyError, ValueError):
        _raise_vector_line_error(lines, lm)
        raise
    ids = np.array(ids, dtype=np.int64)
    order = np.argsort(ids)
    ids, vals = ids[order], np.array(values, dtype=np.float64)[order]
    return EmbeddingVector(n=len(lm), values=vals, indices=ids, kind="generic")
