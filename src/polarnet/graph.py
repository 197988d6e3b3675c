"""Annotated undirected contact graphs: construction, file I/O, queries.

Graphs are simple (no self-loops, no parallel edges) and stored in CSR form:
``indptr``/``indices`` arrays with each neighbor row sorted ascending. Node
ids are dense integers in ``[0, n)``; the original external labels are kept
in ``labels`` so saved files remain traceable to the input data.

Instances are immutable after construction and safe to share read-only
across concurrent simulation workers.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass, field
from enum import IntEnum
from numbers import Integral

import numpy as np

from .errors import AnnotationError, DataError, GraphFormatError

log = logging.getLogger(__name__)

# most nodes of a graph: every node id fits in int32, as the engine, the
# metrics and the community cut store them, and every pair index of a
# generator, n(n-1)/2, in int64
MAX_NODES = 2**31 - 1

_MAX_REPORTED_OFFENDERS = 20


class Opinion(IntEnum):
    """Vaccine stance attached to every node of an annotated graph.

    Integer values double as indices into 2x2 mixing matrices
    (0 = anti, 1 = pro).
    """

    ANTI = 0
    PRO = 1

    @classmethod
    def parse(cls, text: str) -> "Opinion":
        t = text.strip().lower()
        if t == "pro":
            return cls.PRO
        if t == "anti":
            return cls.ANTI
        raise ValueError(f"opinion must be 'pro' or 'anti', got {text!r}")

    def __str__(self) -> str:
        return "pro" if self is Opinion.PRO else "anti"


def _node_count(n) -> int:
    """``n`` as an int; a DataError unless it is an integer (a bool is
    none) in [0, MAX_NODES]."""
    if isinstance(n, bool) or not isinstance(n, Integral) or not 0 <= n <= MAX_NODES:
        raise DataError(f"node count must be an integer in [0, {MAX_NODES}], got {n!r}")
    return int(n)


def _check_pairs(n: int, edges) -> np.ndarray:
    """The ``(k, 2)`` int64 view of ``edges`` (a copy only if their dtype
    differs); raises a DataError unless every endpoint lies in [0, n) and no
    pair joins a node to itself."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise DataError("edge endpoint out of range")
    if np.any(edges[:, 0] == edges[:, 1]):
        raise DataError("self-loops are not allowed")
    return edges


def binary_codes(values, n: int, shape_error: str, value_error: str) -> np.ndarray:
    """A new uint8 array of ``values``; a DataError with ``shape_error``
    unless they are one per node, or with ``value_error`` unless each is 0
    or 1 (checked before the cast, which would make 0.5 a 0)."""
    values = np.asarray(values)
    if values.shape != (n,):
        raise DataError(shape_error)
    if not ((values == 0) | (values == 1)).all():
        raise DataError(value_error)
    return values.astype(np.uint8)


def _opinion_codes(n: int, opinions) -> np.ndarray:
    """The checked ``opinions`` as a new uint8 array, all PRO for None."""
    if opinions is None:
        return np.full(n, Opinion.PRO, dtype=np.uint8)
    return binary_codes(opinions, n, "opinions array must have one entry per node", "opinions must be 0 (anti) or 1 (pro)")


def _drop_repeats(keys: np.ndarray) -> np.ndarray:
    """The sorted ``keys`` without repeats: ``keys`` itself if it has none."""
    fresh = keys[1:] != keys[:-1]
    return keys if fresh.all() else keys[np.concatenate(([True], fresh))]


@dataclass(eq=False)
class AnnotatedGraph:
    """Immutable simple undirected graph with one opinion per node."""

    n: int
    indptr: np.ndarray  # int64, shape (n+1,)
    indices: np.ndarray  # int64, shape (2*edge_count,), sorted per row
    opinions: np.ndarray  # uint8 of Opinion values, shape (n,)
    labels: np.ndarray = field(default=None)  # external node labels, shape (n,)

    def __post_init__(self):
        if self.labels is None:
            self.labels = np.arange(self.n, dtype=np.int64)
        for arr in (self.indptr, self.indices, self.opinions, self.labels):
            arr.setflags(write=False)

    # -- queries ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_edge_array(
        cls,
        n: int,
        edges: np.ndarray,
        opinions: np.ndarray | None = None,
        labels: np.ndarray | None = None,
    ) -> "AnnotatedGraph":
        """Build a graph from an (k, 2) array of node-id pairs.

        Everything given is checked before the build, each fault a DataError:
        ``n`` must be an integer in [0, MAX_NODES] and every pair join two
        distinct nodes of [0, n). Duplicate pairs (in either orientation)
        collapse to a single edge; callers that ingest dirty data must strip
        self-loops first. ``opinions`` and ``labels``, when given, must have
        shape ``(n,)``, each opinion 0 (anti) or 1 (pro); the graph keeps
        copies of them, so the caller's arrays stay writable and its own.
        The CSR arrays are then sorted, simple and symmetric by construction,
        so the build does not re-scan them (``validate`` would pass).
        """
        n = _node_count(n)
        edges = _check_pairs(n, edges)
        u, v = edges[:, 0], edges[:, 1]
        opinions = _opinion_codes(n, opinions)
        if labels is not None:
            labels = np.array(labels, dtype=np.int64)
            if labels.shape != (n,):
                raise DataError("labels array must have one entry per node")

        # both arcs of every pair as src * n + dst in one buffer, sorted in
        # place: the CSR order. Equal arcs are the same edge given twice.
        k = len(edges)
        arcs = np.empty(2 * k, dtype=np.int64)
        np.multiply(u, n, out=arcs[:k])
        arcs[:k] += v
        np.multiply(v, n, out=arcs[k:])
        arcs[k:] += u
        del edges, u, v  # a caller's temporary pairs are freed here, before the sort
        arcs.sort()
        arcs = _drop_repeats(arcs)
        # row i starts at the first arc from i; the buffer then becomes the neighbour ids
        indptr = np.searchsorted(arcs, np.arange(n + 1, dtype=np.int64) * n)
        arcs %= n

        return cls(n=n, indptr=indptr, indices=arcs, opinions=opinions, labels=labels)

    def validate(self) -> None:
        """Full-scan structural check: simple, symmetric, consistent counts,
        one opinion (0 or 1) and one label per node. It is the check for CSR
        arrays assembled by hand; ``from_edge_array`` builds graphs that pass it."""
        n = self.n
        indptr = self.indptr
        if indptr.shape != (n + 1,) or indptr[0] != 0 or np.any(indptr[1:] < indptr[:-1]):
            raise DataError("malformed indptr")
        if int(indptr[-1]) != self.indices.size:
            raise DataError("indptr does not cover indices")
        _opinion_codes(n, self.opinions)
        if self.labels.shape != (n,):
            raise DataError("labels array must have one entry per node")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise DataError("neighbor id out of range")
        arcs = np.repeat(np.arange(n, dtype=np.int64), self.degrees)  # each arc's source
        if np.any(arcs == self.indices):
            raise DataError("self-loop present")
        reverse = self.indices * np.int64(n)
        reverse += arcs
        arcs *= n
        arcs += self.indices
        # arcs as src * n + dst strictly increase <=> rows sorted and duplicate-free
        if np.any(arcs[1:] <= arcs[:-1]):
            raise DataError("adjacency rows must be strictly increasing")
        # symmetry: the reversed arc set must equal the arc set
        reverse.sort()
        if not np.array_equal(arcs, reverse):
            raise DataError("adjacency is not symmetric")


def gather_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """Concatenate CSR rows without a Python-level loop.

    Returns ``(values, lengths)`` where ``values`` is the concatenation of
    ``indices[indptr[r]:indptr[r+1]]`` for each r in ``rows`` (order kept).
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = lengths.cumsum()
    if not ends.size or not ends[-1]:
        return np.empty(0, dtype=indices.dtype), lengths
    return indices[np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])], lengths


def row_blocks(bounds: np.ndarray, size: int):
    """Yield ``(lo, hi)``: consecutive runs of rows that together count at
    most ``size`` (``bounds[hi] - bounds[lo]``), or one row that alone counts
    more. ``bounds`` rises from 0 like a CSR ``indptr``, one entry per row
    and a last one."""
    lo, rows = 0, bounds.size - 1
    while lo < rows:
        hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + size, side="right")) - 1)
        yield lo, hi
        lo = hi


def _forward(g: AnnotatedGraph, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(int32 sources, targets) of the arcs of rows ``lo..hi-1`` whose
    source is the lower end: each of their edges once, in CSR order."""
    src = np.repeat(np.arange(lo, hi, dtype=np.int32), np.diff(g.indptr[lo : hi + 1]))
    dst = g.indices[g.indptr[lo] : g.indptr[hi]]
    forward = src < dst
    return src[forward], dst[forward]


def _community(pairs: np.ndarray, labels: np.ndarray, opinions: np.ndarray, opinion: Opinion) -> AnnotatedGraph:
    """The graph of the ``(k, 2)`` id ``pairs`` whose ends both hold
    ``opinion``, on those nodes renumbered in order. A caller handing over
    its only reference to ``pairs`` lets them be freed before the build."""
    keep = np.flatnonzero(opinions == int(opinion))
    remap = np.full(opinions.size, -1, dtype=np.int32)
    remap[keep] = np.arange(keep.size, dtype=np.int32)
    ids = remap[pairs]
    del pairs, remap
    kept = [ids[(ids >= 0).all(axis=1)]]
    del ids
    return AnnotatedGraph.from_edge_array(keep.size, kept.pop(), opinions=opinions[keep], labels=labels[keep])


def subgraph_by_opinion(g: AnnotatedGraph, opinion: Opinion) -> AnnotatedGraph:
    """Induced subgraph on the nodes holding ``opinion``, ids re-densified.

    The graph's forward arcs go through the one cut that ``load_edge_list``
    with an ``opinion`` runs on a file's pairs, so both give the same graph.
    """
    return _community(np.column_stack(_forward(g, 0, g.n)), g.labels, g.opinions, opinion)


# -- file formats ---------------------------------------------------------
#
# Edge file: UTF-8 CSV, one `src,dst` pair of node labels per line.
# Attribute file: `node,opinion` with opinion in {pro, anti}, case-insensitive.
# A node label is an ASCII decimal integer in the int64 range with an
# optional sign. Whitespace around fields (any, a tab or NBSP too) and blank
# lines are ignored; there is no comment syntax. An optional header is
# detected by a non-numeric first field on the first non-blank line.
#
# Opinions are read as bytes, each distinct spelling parsed once. A NUL, a
# field filling the byte width (it may have been cut) or a bad spelling
# sends the file to the line parser, which names the bad line: no result or
# error depends on the path.

_LABEL = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)
_SAVE_BLOCK = 1 << 16  # adjacency arcs formatted per write
_NUL_BLOCK = 1 << 16  # bytes read at a time by the NUL scan


def _is_int(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


def _label(text: str) -> int:
    """The node label a stripped field spells; ValueError outside the rule.

    numpy's int64 field parser, which reads the labels of the bulk parse,
    accepts the same fields.
    """
    if _LABEL.fullmatch(text) and _INT64.min <= int(text) <= _INT64.max:
        return int(text)
    raise ValueError(f"node label {text!r} is not a decimal integer in the int64 range")


# row types; numpy reads an opinion as its first eight characters, a byte
# each (latin-1: it refuses any character beyond)
_EDGE_DTYPE = np.dtype([("src", np.int64), ("dst", np.int64)])
_ATTR_DTYPE = np.dtype([("node", np.int64), ("opinion", np.uint8)])
_ATTR_BYTES = np.dtype([("node", np.int64), ("opinion", "S8")])


def text_lines(path, error):
    """Yield (line number, line) of a UTF-8 text file, a leading byte-order
    mark dropped. A file that does not decode raises ``error(message, line)``
    naming the first line that does not."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from enumerate(fh, start=1)
            return
        except UnicodeDecodeError:
            pass
    with open(path, "rb") as raw:
        lineno = next(i for i, b in enumerate(raw, 1) if b.decode("utf-8", "replace").encode() != b)
    raise error(f"{path} is not UTF-8 text", lineno)


def _data_lines(path):
    """Yield (line_number, stripped fields) for each data line of a 2-column CSV."""
    first = True
    for lineno, raw in text_lines(path, GraphFormatError):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise GraphFormatError(f"expected 2 comma-separated fields, got {len(fields)}", line=lineno)
        if first:
            first = False
            if not _is_int(fields[0]):  # header row
                continue
        yield lineno, fields


def _bulk_rows(path, dtype: np.dtype) -> np.ndarray | None:
    """Data rows of a 2-column CSV as a structured array of ``dtype``, read
    by numpy's C parser from the first data line on, labels included; None
    when numpy refuses the file."""
    first = next(_data_lines(path), None)
    if first is None:  # no data lines: numpy would warn
        return np.empty(0, dtype=dtype)
    try:
        return np.loadtxt(
            path, dtype=dtype, delimiter=",", comments=None,
            skiprows=first[0] - 1, ndmin=1, encoding="utf-8-sig",
        )
    except ValueError:
        return None


def _line_rows(path, dtype: np.dtype, parsers) -> np.ndarray:
    """The line parser: ``_bulk_rows`` with each field through its parser,
    a GraphFormatError naming the first bad line. It also reads what the
    format allows and numpy refuses (lines of only whitespace)."""
    rows = []
    for lineno, fields in _data_lines(path):
        try:
            rows.append(tuple(parse(f) for parse, f in zip(parsers, fields)))
        except ValueError as exc:
            raise GraphFormatError(str(exc), line=lineno) from None
    return np.array(rows, dtype=dtype)


def _has_nul(path) -> bool:
    """Whether the file holds a NUL byte; read in blocks of _NUL_BLOCK."""
    with open(path, "rb") as fh:
        return any(b"\0" in block for block in iter(functools.partial(fh.read, _NUL_BLOCK), b""))


def _spelled_codes(text: np.ndarray) -> np.ndarray | None:
    """The Opinion code of each opinion field as numpy read it, each
    spelling other than exactly ``pro`` or ``anti`` parsed once; None if a
    field fills the byte width (it may have been cut) or spells no opinion."""
    pro = text == b"pro"
    other = np.flatnonzero(~pro & (text != b"anti"))
    codes = pro.view(np.uint8)
    if other.size:
        # the eight bytes of a field as one uint64 sort faster than as text
        spellings, inverse = np.unique(text[other].view(np.uint64), return_inverse=True)
        spellings = spellings.view(text.dtype)
        if max(map(len, spellings)) == text.itemsize:
            return None
        try:
            parsed = [Opinion.parse(s.decode("latin-1")) for s in spellings]
        except ValueError:
            return None
        codes[other] = np.array(parsed, dtype=np.uint8)[inverse]
    return codes


def _annotations(attr_path) -> tuple[np.ndarray, np.ndarray]:
    """(labels ascending, the opinion of each) of an attribute file.

    A label may repeat with the same opinion; two opinions for one label
    raise an AnnotationError. numpy drops a field's trailing NULs, so a
    file holding a NUL goes to the line parser: ``pro\\0`` stays an error.
    """
    rows = None if _has_nul(attr_path) else _bulk_rows(attr_path, _ATTR_BYTES)
    codes = None if rows is None else _spelled_codes(rows["opinion"])
    if codes is None:  # the line parser names the bad line, or reads what numpy cannot
        rows = _line_rows(attr_path, _ATTR_DTYPE, (_label, Opinion.parse))
        codes = rows["opinion"]
    nodes = rows["node"]
    labels, first, inverse = np.unique(nodes, return_index=True, return_inverse=True)
    opinions = codes[first]
    clash = np.flatnonzero(codes != opinions[inverse])
    if clash.size:
        node = int(nodes[clash[0]])
        raise AnnotationError(f"conflicting opinions for node {node}", offenders=[node])
    return labels, opinions


def _dense_ids(edges: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The (k, 2) dense ids of the label pairs ``edges``: positions in ``labels``.

    The ids overwrite the labels in ``edges``' own buffer, which the result
    views. Raises an AnnotationError listing the edge labels that ``labels``
    lacks, leaving ``edges`` unchanged.
    """
    # the (src, dst) records side by side are one int64 array of the endpoints
    ends = edges.view(np.int64)
    order = np.argsort(ends)
    found = ends[order]
    # each distinct endpoint heads its run of the sorted endpoints
    heads = np.ones(found.size, dtype=bool)
    np.not_equal(found[1:], found[:-1], out=heads[1:])
    first = np.flatnonzero(heads)
    del heads
    distinct = found[first]
    del found
    dense = np.searchsorted(labels, distinct)
    known = dense < labels.size
    known[known] = labels[dense[known]] == distinct[known]
    if not known.all():
        missing = distinct[~known].tolist()
        shown = ", ".join(str(m) for m in missing[:_MAX_REPORTED_OFFENDERS])
        more = "" if len(missing) <= _MAX_REPORTED_OFFENDERS else f" (+{len(missing) - _MAX_REPORTED_OFFENDERS} more)"
        raise AnnotationError(
            f"{len(missing)} node(s) in edges lack an opinion: {shown}{more}",
            offenders=missing,
        )
    # int32 ids (n < 2**31) halve the run-length expansion
    ends[order] = np.repeat(dense.astype(np.int32), np.diff(first, append=ends.size))
    return ends.reshape(-1, 2)


def load_edge_list(path, attr_path, opinion: Opinion | None = None) -> AnnotatedGraph:
    """Load an annotated graph from an edge + attribute file.

    External labels are remapped to dense ids (ascending label order).
    Duplicate edges collapse silently; self-loops are dropped and counted in
    a log warning. Nodes present only in the attribute file are kept as
    isolated nodes. Every node appearing in an edge must be annotated.

    With an ``opinion``, only that community is built: every line is still
    read and every edge mapped, so the errors and the warning do not change,
    and the pairs go through ``subgraph_by_opinion``'s cut, giving its graph.
    Its peak stays below the unfiltered load's.

    Every opinion is read as bytes and each distinct spelling parsed once;
    a file holding a NUL, a field that may have been cut (one filling the
    byte width) or a spelling that is no opinion goes to the line parser,
    which names the bad line. The arrays, and each error's type, message,
    offenders and line, are the same either way.
    """
    edges = _bulk_rows(path, _EDGE_DTYPE)
    if edges is None:  # the line parser names the bad line, or reads what numpy cannot
        edges = _line_rows(path, _EDGE_DTYPE, (_label, _label))
    loops = edges["src"] == edges["dst"]
    if loops.any():
        log.warning("dropped %d self-loop(s) while loading %s", int(loops.sum()), path)
        edges = edges[~loops]
    del loops
    labels, opinions = _annotations(attr_path)
    # the ids overwrite the label pairs in place, and the build frees the
    # buffer once it has its arcs: no name here may still hold it then
    pairs = [_dense_ids(edges, labels)]
    del edges
    if opinion is not None:
        return _community(pairs.pop(), labels, opinions, opinion)
    return AnnotatedGraph.from_edge_array(labels.size, pairs.pop(), opinions=opinions, labels=labels)


def _label_bytes(labels: np.ndarray) -> np.ndarray:
    """Decimal text of each label as a row of a zero-padded uint8 matrix:
    a ``-`` column if any label is negative, then the digits right-aligned."""
    neg = labels < 0
    mag = labels.astype(np.uint64)
    mag[neg] = 0 - mag[neg]  # modulo 2**64, so -2**63 gives 2**63
    width = len(str(int(mag.max()))) if mag.size else 1
    text = np.zeros((labels.size, 1 + width), dtype=np.uint8)
    text[neg, 0] = ord("-")
    text[:, width] = mag % 10 + ord("0")  # the last digit, also of 0
    for col in range(width - 1, 0, -1):
        mag //= 10
        text[:, col] = np.where(mag > 0, mag % 10 + ord("0"), 0)
    return text if neg.any() else text[:, 1:]


def _write_rows(fh, *columns: np.ndarray) -> None:
    """Write the rows of the side-by-side uint8 columns, zero bytes dropped."""
    rows = np.hstack(columns)
    fh.write(rows[rows != 0].tobytes())


def _write_files(path, attr_path, text: np.ndarray, opinions: np.ndarray, blocks) -> None:
    """Write the edge file, one line for each ``(src, dst)`` of the id
    arrays that ``blocks`` yields, then the attribute file, one line per
    node. ``text`` is the ``_label_bytes`` of the node labels, ``opinions``
    the Opinion value of each node."""
    comma, newline = (np.full((1, 1), ord(c), dtype=np.uint8) for c in ",\n")
    with open(path, "wb") as fh:
        fh.write(b"src,dst\n")
        for src, dst in blocks:
            rows = (src.size, 1)
            _write_rows(fh, text[src], np.broadcast_to(comma, rows), text[dst], np.broadcast_to(newline, rows))
    # line ends by Opinion value (ANTI = 0, PRO = 1), zero-padded
    suffix = np.array([b",anti\n", b",pro\n"]).view(np.uint8).reshape(2, -1)
    with open(attr_path, "wb") as fh:
        fh.write(b"node,opinion\n")
        _write_rows(fh, text, suffix[opinions])


def save_edge_list(g: AnnotatedGraph, path, attr_path) -> None:
    """Write a graph back out in the load format (external labels).

    Each label is formatted once; every line is then a row of byte columns.
    The edge lines, ``src < dst`` in CSR order, are cut from blocks of whole
    adjacency rows of about ``_SAVE_BLOCK`` arcs (a longer row is a block of
    its own), so no array the size of the edge list is built.
    """
    blocks = (_forward(g, lo, hi) for lo, hi in row_blocks(g.indptr, _SAVE_BLOCK))
    _write_files(path, attr_path, _label_bytes(g.labels), g.opinions, blocks)


def save_edge_array(n: int, pairs: np.ndarray, path, attr_path, opinions: np.ndarray | None = None) -> int:
    """Write ``AnnotatedGraph.from_edge_array(n, pairs, opinions)`` as
    ``save_edge_list`` writes it, byte for byte, without building the
    graph; returns its edge count. Node i is labelled i.

    The node count, pairs and opinions get the build's checks and DataError
    messages before any file is opened. Each pair is then ordered in place and
    replaced by one int64 key ``lower * n + higher``; the keys are sorted and
    repeated keys dropped, as the build collapses duplicate edges, and the
    edge lines are formatted from blocks of ``_SAVE_BLOCK`` keys. A caller
    that hands over its only reference to ``pairs`` (as ``load_edge_list``
    does to the build) lets them be freed before the sort, so one key per
    edge stands in for the build's two arcs per edge.
    """
    n = _node_count(n)
    pairs = _check_pairs(n, pairs)
    opinions = _opinion_codes(n, opinions)
    pairs.sort(axis=1)
    keys = pairs[:, 0] * n
    keys += pairs[:, 1]
    del pairs
    keys.sort()
    keys = _drop_repeats(keys)
    blocks = (np.divmod(keys[lo : lo + _SAVE_BLOCK], n) for lo in range(0, keys.size, _SAVE_BLOCK))
    _write_files(path, attr_path, _label_bytes(np.arange(n, dtype=np.int64)), opinions, blocks)
    return keys.size
