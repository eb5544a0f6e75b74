"""In-memory triple store with the indexes the linking pipeline queries.

The store ingests line-oriented triples (an N-Triples subset: IRIs in
angle brackets, plain literals in double quotes, terminating dot) and
builds subject/predicate/object indexes; types are the objects of a
configurable type predicate. A load turns each line straight into a
plain key tuple, and the constructor keys each ``Triple`` it is given
the same way; both then sort the keys, drop duplicates and build the
indexes from the sorted distinct keys. The graph keeps no ``Triple``:
``KnowledgeGraph.triples`` builds them from the indexes on each read.
Graphs are immutable once loaded and safe to share across threads.

A graph file is opened once, in binary mode, and read about 64 KB at a
time, each chunk ending on a line, decoded on its own and parsed by one
regular-expression pass over all its lines; a chunk that holds a faulty
line is read again line by line, which gives the error, so a file's keys
and errors are those of the line reader.

Every reader here, the graph's and those of the JSON and line-based
inputs, reports a byte that is not UTF-8 the same way:
``<file> line <n>: not valid UTF-8: <reason>``. The graph's reports the
earliest faulty line: the chunk that does not decode has its lines
before the undecodable byte's line read first, so a malformed one among
them wins, whatever the chunk sizes.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import FrozenInstanceError, dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import IO, Callable, Iterable, Iterator, KeysView, Mapping, TypeVar, Union

log = logging.getLogger(__name__)

R = TypeVar("R")

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

_NO_INDEX: Mapping = MappingProxyType({})  # the index of an absent predicate


class DataError(ValueError):
    """Input whose content cannot be used; the CLI exits 4 on it."""


class ParseError(DataError):
    """Raised for a malformed triple line; carries the 1-based line number
    and names the file, when there is one, before it."""

    def __init__(self, line_no: int, message: str, path: Union[str, Path, None] = None):
        where = f"line {line_no}" if path is None else f"{path} line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.reason = message
        self.path = path

    def __reduce__(self):
        # the default rebuilds from ``args``, the formatted message alone
        return type(self), (self.line_no, self.reason, self.path)


class UnknownPredicateError(KeyError):
    def __init__(self, predicate: str):
        super().__init__(predicate)
        self.predicate = predicate

    def __str__(self) -> str:
        return f"unknown predicate: {self.predicate}"


def _refuse_setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen(cls: type) -> type:
    """Make setting or deleting any attribute of ``cls`` raise
    ``FrozenInstanceError``. ``slots=True`` builds a new class, and before
    Python 3.12 the ``__setattr__``/``__delattr__`` that ``frozen=True``
    generates still test against the old one, so a name that is not a
    field raised ``TypeError`` from ``super()``."""
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls


@_frozen
@dataclass(frozen=True, slots=True)
class Literal:
    """An opaque literal value; may appear only in object position."""

    value: str

    def __str__(self) -> str:
        return self.value


Node = Union[str, Literal]  # IRIs are plain strings


def node_key(node: Node) -> tuple[int, str]:
    """Sort key giving IRIs before literals, each lexicographically."""
    if isinstance(node, Literal):
        return (1, node.value)
    return (0, node)


def local_name(iri: str) -> str:
    """Substring after the last '#' or '/'."""
    cut = max(iri.rfind("#"), iri.rfind("/"))
    return iri[cut + 1 :]


@_frozen
@dataclass(frozen=True, slots=True)
class Triple:
    subject: str
    predicate: str
    object: Node

    def sort_key(self):
        return (self.subject, self.predicate, node_key(self.object))


# The characters \s matches, which are those str.isspace accepts.
_SPACES = (r"\t\n\x0b\x0c\r\x1c-\x20\x85\xa0\u1680"
           r"\u2000-\u200a\u2028\u2029\u202f\u205f\u3000")
_NOT_IRI_CHAR = re.compile(rf"[<>{_SPACES}]")
# An IRI term runs to the first '>'. The one-character class scans about
# twice as fast as one that also excludes '<' and whitespace; those are
# ruled out when an IRI is first seen (``_intern``), which gives the same
# answer as excluding them here, because an IRI term ends at the first
# '>' either way.
_IRI_TERM = r"<([^>]+)>"
_LIT_TERM = r'"([^"]*)"'
_TRIPLE = rf"{_IRI_TERM}\s+{_IRI_TERM}\s+(?:{_IRI_TERM}|{_LIT_TERM})\s*\."
_LINE_RE = re.compile(rf"^\s*{_TRIPLE}\s*$")
# One row per line of a whole chunk of text: a triple's four terms as
# ``_LINE_RE`` reads them, or four empty strings for a blank line or one
# whose first non-space character is '#'. Space before and after a row
# excludes '\n', so no valid line's row reaches past its line.
#
# Why equal counts mean no row spans a line: '^' makes every row start at
# a line start, and rows do not overlap, so no two start at one line
# start, and a row that spans lines covers a line start at which no row
# can then start. A chunk has one line start more than it has '\n's (its
# end is one when it ends with '\n', and gives an empty row). So when it
# gives that many rows, every line start begins a row and none is
# covered: each row is one whole line, which ``_LINE_RE`` reads the same
# way or ``_line_keys`` skips.
_ROW_RE = re.compile(rf"^[^\S\n]*(?:{_TRIPLE}[^\S\n]*|#.*)?$", re.M)
_CHUNK_BYTES = 1 << 16  # bytes a path's reader asks for at a time
_BOM = b"\xef\xbb\xbf"  # a UTF-8 byte-order mark


def valid_iri(iri: str) -> bool:
    """An IRI holds no '<', '>' or whitespace and has a non-empty local
    name; ``parse_line`` applies this rule to each IRI it reads."""
    return _NOT_IRI_CHAR.search(iri) is None and bool(local_name(iri))


def parse_line(
    line: str,
    line_no: int,
    iris: dict[str, str] | None = None,
    literals: dict[str, Literal] | None = None,
) -> Triple:
    """Parse one triple line: its key (``_line_key``) as a ``Triple``.

    ``iris`` and ``literals`` are the intern tables of one load: an IRI is
    checked by ``valid_iri`` when first seen and stored, a literal value
    gets its ``Literal`` when first seen, and every later occurrence reuses
    the stored object.
    """
    subject, predicate, kind, obj = _line_key(line, line_no, {} if iris is None else iris)
    if kind:
        if literals is None:
            literals = {}
        obj = literals.get(obj) or literals.setdefault(obj, Literal(obj))
    return Triple(subject, predicate, obj)


def _line_key(line: str, line_no: int, iris: dict[str, str]) -> tuple:
    """The key of one triple line: ``(s, p, 0, iri)`` for an IRI object,
    ``(s, p, 1, value)`` for a literal. It orders as ``Triple.sort_key``
    and compares in C.

    The line pattern reads each IRI term up to its first '>'. ``iris`` is
    the intern table of one load: an IRI is checked by ``valid_iri`` when
    first seen and stored, and every later occurrence reuses the stored
    string. A line with '<' or whitespace in any IRI term is not a valid
    triple; only a line without one reports an empty local name.
    """
    m = _LINE_RE.match(line)
    if not m:
        raise _not_a_triple(line, line_no)
    subject, predicate, obj_iri, obj_lit = m.groups()
    subject = iris.get(subject) or _intern(iris, subject, "subject", m, line_no)
    predicate = iris.get(predicate) or _intern(iris, predicate, "predicate", m, line_no)
    if obj_iri is None:
        return (subject, predicate, 1, obj_lit)
    obj_iri = iris.get(obj_iri) or _intern(iris, obj_iri, "object", m, line_no)
    return (subject, predicate, 0, obj_iri)


def _intern(iris: dict[str, str], iri: str, role: str, m: re.Match, line_no: int) -> str:
    """Check an IRI not yet in ``iris`` and store it there.

    ``m`` is the line's match. Every IRI term of the line is tested for
    '<' and whitespace before a local name is blamed, so such a line is
    not a valid triple even when an earlier term's local name is empty.
    """
    if not valid_iri(iri):
        if any(_NOT_IRI_CHAR.search(term) for term in m.groups()[:3] if term):
            raise _not_a_triple(m.string, line_no)
        raise ParseError(line_no, f"invalid {role} IRI: {iri!r}")
    iris[iri] = iri
    return iri


def _not_a_triple(line: str, line_no: int) -> ParseError:
    return ParseError(line_no, f"not a valid triple: {line.strip()!r}")


def _line_keys(
    lines: Iterable[str], iris: dict[str, str] | None = None, start: int = 1
) -> list[tuple]:
    """The keys (``_line_key``) of a line stream's triples, in line order,
    duplicates included; equal IRIs come out as one string object. Blank
    lines and lines whose first non-space character is '#' are skipped.
    ``iris`` is the load's intern table and ``start`` the number of the
    first line.

    A stream that fails to decode raises ``ParseError`` for the first
    line not yet read: text mode decodes ahead of the lines it returns,
    so the bad byte is at or after that line.
    """
    iris = {} if iris is None else iris
    keys: list[tuple] = []
    add = keys.append
    line_no = start - 1
    try:
        for line_no, line in enumerate(lines, start=start):
            head = line.lstrip()
            if not head or head[0] == "#":
                continue
            add(_line_key(line, line_no, iris))
    except UnicodeDecodeError as exc:
        reason = f"not valid UTF-8 at or after this line: {exc.reason}"
        raise ParseError(line_no + 1, reason) from exc
    return keys


class _Reread(Exception):
    """A chunk ``_ROW_RE`` cannot read alone: ``_line_keys`` reads it."""


def _new_iri(iris: dict[str, str], iri: str) -> str:
    if not valid_iri(iri):
        raise _Reread
    iris[iri] = iri
    return iri


def _chunks(fh: IO[bytes]) -> Iterator[bytes]:
    """The bytes of ``fh``, read ``_CHUNK_BYTES`` at a time, in chunks that
    end after a read's last LF, or last CR but its final byte, which may
    begin a CR LF pair: no chunk splits a UTF-8 character or a CR LF pair,
    and the bytes after the cut, or a read with no line end, open the next."""
    pieces = []
    while data := fh.read(_CHUNK_BYTES):
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        if not cut:  # a line longer than a read
            pieces.append(data)
            continue
        pieces.append(data[:cut])
        chunk = b"".join(pieces)
        pieces = [data[cut:]]
        del data  # not kept while the chunk is parsed
        yield chunk
    yield b"".join(pieces)


def _file_keys(fh: IO[bytes]) -> list[tuple]:
    """The keys ``_line_keys`` gives for the lines of the binary file
    ``fh``, read in ``_chunks``, each decoded, read with text mode's line
    endings and parsed by one ``_ROW_RE.findall``; each IRI is checked
    when first seen and interned, as ``_line_key`` does. A byte-order mark
    is dropped from the first chunk only.

    A chunk with fewer rows than line starts, which means a line that is
    not a triple, or with an IRI that ``valid_iri`` rejects, is read again
    line by line by ``_line_keys``, which raises its ``ParseError``; so
    keys and errors are those of ``_line_keys`` by construction. A chunk
    that does not decode has its complete lines before the bad byte read
    by ``_line_keys``, so an earlier faulty line wins, and otherwise
    raises ``not valid UTF-8`` at the bad byte's line.
    """
    iris: dict[str, str] = {}
    get = iris.get
    keys: list[tuple] = []
    add = keys.append
    line_no = 0  # the lines of the chunks before this one
    for chunk in _chunks(fh):
        if not line_no:  # the first chunk: one before it would have ended a line
            chunk = chunk.removeprefix(_BOM)
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = _lines_before(chunk, exc)
            _line_keys(before, iris, line_no + 1)  # an earlier faulty line wins
            line_no += len(before) + 1
            raise ParseError(line_no, f"not valid UTF-8: {exc.reason}") from exc
        if "\r" in text:
            text = _newlines(text)
        rows = _ROW_RE.findall(text)
        ends = text.count("\n")
        mark = len(keys)
        try:
            if len(rows) != ends + 1:
                raise _Reread
            for s, p, o, lit in rows:
                if s:  # not a blank or comment line
                    s = get(s) or _new_iri(iris, s)
                    p = get(p) or _new_iri(iris, p)
                    if o:
                        add((s, p, 0, get(o) or _new_iri(iris, o)))
                    else:
                        add((s, p, 1, lit))
        except _Reread:
            keys[mark:] = _line_keys(text.split("\n"), iris, line_no + 1)
        line_no += ends
    return keys


@dataclass(frozen=True, init=False)
class KnowledgeGraph:
    """Immutable indexed triple set.

    The constructor reads any iterable of ``Triple``s once, a generator
    included, and keys each as ``load`` keys a line; both then build the
    graph from the keys alone (``_index``), so duplicates drop and no
    ``Triple`` is kept. Two index families, keyed by predicate first,
    cover every lookup: ``sp[p][s]`` for (s, p, ?) and ``po[p][o]`` for
    (?, p, o); a (?, p, ?) scan walks ``sp[p]``. Their keys are the
    predicate's subject and object sets (``predicate_subjects``,
    ``predicate_objects``), and equal value sets are one ``frozenset``.
    ``entity_set`` and the type set are read from them; ``predicate_count``
    reads a per-predicate triple count taken when the triples are grouped,
    and ``len`` their sum. A node's types are its IRI objects of
    ``type_predicate``. Every index is built here; the graph is shared
    across threads, so no lazy population happens later. Two graphs are
    equal when their type predicates and indexes are.
    """

    type_predicate: str
    _sp: dict = field(repr=False)
    _po: dict = field(repr=False)
    predicate_set: frozenset[str]
    type_set: frozenset[str]
    entity_set: frozenset[str]
    _counts: dict = field(repr=False)  # predicate -> its number of triples

    def __init__(self, triples: Iterable[Triple] = (), type_predicate: str = RDF_TYPE):
        # a triple's key is the one its line gives (``_line_key``)
        keys = []
        add = keys.append
        for t in triples:
            o = t.object
            if isinstance(o, Literal):
                add((t.subject, t.predicate, 1, o.value))
            else:
                add((t.subject, t.predicate, 0, o))
        self._index(keys, type_predicate)

    def _index(self, keys: list[tuple], type_predicate: str) -> None:
        """Build every index from ``keys``, one ``_line_key`` tuple per
        triple in any order, duplicates included, with one ``Literal`` per
        distinct value.

        Sorting puts equal keys side by side, so a key equal to the one
        before it is a duplicate, and the distinct keys come in
        ``Triple.sort_key`` order, the order the index keys follow.
        ``keys`` is sorted in place and emptied once its triples are
        grouped by predicate, so the key tuples are freed before the
        indexes grow: a load of the 25,507-triple ingest benchmark file
        peaks at 5.2 MB under tracemalloc, and at 7.2 MB when the keys
        live until the indexes are built.
        """
        literals: dict[str, Literal] = {}
        columns: dict[str, tuple[list, list]] = {}  # predicate -> subjects, objects
        last = None
        keys.sort()
        for key in keys:
            if key == last:
                continue
            last = key
            subject, predicate, kind, obj = key
            if kind:
                obj = literals.get(obj) or literals.setdefault(obj, Literal(obj))
            column = columns.get(predicate)
            if column is None:
                column = columns[predicate] = ([], [])
            column[0].append(subject)
            column[1].append(obj)
        keys.clear()

        # equal value sets become one frozenset: many keys hold the same set
        # (the instances of a type, the subjects of one edge to a hub). The
        # table is local, so nothing is shared with other graphs or threads.
        # A one-element set is found by its element, so no throwaway
        # frozenset is built for it.
        shared: dict[frozenset, frozenset] = {}
        single: dict[Node, frozenset] = {}

        def grouped(keys: Iterable[Node], values: Iterable[Node]) -> dict:
            # a key holds its bare value until a second one arrives, so the
            # many keys with one value never get a list; every (s, p, o) is
            # unique, so a value seen under a key is never seen there again
            out: dict = {}
            hold = out.setdefault
            for key, value in zip(keys, values):
                held = hold(key, value)
                if held is not value:
                    if type(held) is list:
                        held.append(value)
                    else:
                        out[key] = [held, value]
            for key, held in out.items():
                if type(held) is list:
                    fs = frozenset(held)
                    out[key] = shared.setdefault(fs, fs)
                else:
                    fs = single.get(held)
                    if fs is None:
                        fs = single[held] = frozenset((held,))
                    out[key] = fs
            return out

        sp = {p: grouped(subjects, objects) for p, (subjects, objects) in columns.items()}
        po = {p: grouped(objects, subjects) for p, (subjects, objects) in columns.items()}
        entities: set[str] = set()
        for index in sp.values():
            entities.update(index)
        for p, index in po.items():
            if p != type_predicate:
                entities.update(o for o in index if not isinstance(o, Literal))
        types = (o for o in po.get(type_predicate, ()) if not isinstance(o, Literal))

        put = object.__setattr__  # the dataclass is frozen
        put(self, "type_predicate", type_predicate)
        put(self, "_sp", sp)
        put(self, "_po", po)
        put(self, "predicate_set", frozenset(columns))
        put(self, "type_set", frozenset(types))
        put(self, "entity_set", frozenset(entities))
        put(self, "_counts", {p: len(subjects) for p, (subjects, _) in columns.items()})

    @property
    def triples(self) -> tuple[Triple, ...]:
        """Every triple, sorted by ``Triple.sort_key``. Built from ``_sp``
        on each read and not kept: the graph is shared across threads, so
        it caches nothing."""
        return tuple(sorted(
            (Triple(s, p, o) for p, index in self._sp.items()
             for s, objects in index.items() for o in objects),
            key=Triple.sort_key,
        ))

    def __len__(self) -> int:
        return sum(self._counts.values())

    # -- lookups ---------------------------------------------------------

    def objects(self, subject: str, predicate: str) -> frozenset[Node]:
        return self._sp.get(predicate, _NO_INDEX).get(subject, frozenset())

    def subjects(self, predicate: str, obj: Node) -> frozenset[str]:
        return self._po.get(predicate, _NO_INDEX).get(obj, frozenset())

    def predicate_subjects(self, predicate: str) -> KeysView[str]:
        """The nodes with at least one ``predicate`` edge out (a read-only
        view)."""
        return self._sp.get(predicate, _NO_INDEX).keys()

    def predicate_objects(self, predicate: str) -> KeysView[Node]:
        """The nodes with at least one ``predicate`` edge in (a read-only
        view)."""
        return self._po.get(predicate, _NO_INDEX).keys()

    def has_triple(self, subject: str, predicate: str, obj: Node) -> bool:
        return obj in self.objects(subject, predicate)

    def types_of(self, node: Node) -> frozenset[str]:
        types = self.objects(node, self.type_predicate)
        return frozenset(o for o in types if not isinstance(o, Literal))

    def predicate_count(self, predicate: str) -> int:
        return self._counts.get(predicate, 0)


def load(
    source: Union[str, Path, IO[str], Iterable[str]],
    type_predicate: str = RDF_TYPE,
) -> KnowledgeGraph:
    """Parse and index a triple stream; duplicates are dropped silently.

    Each line becomes one key tuple, never a ``Triple``: a path's lines a
    chunk of bytes at a time (``_file_keys``), any other source's one at a
    time (``_line_keys``), with the same keys and errors. The graph is
    built from the keys as the constructor builds it
    (``KnowledgeGraph._index``). A path is opened once, in binary mode, so
    a named pipe loads as a file does. A file may start with a UTF-8
    byte-order mark, and its ``ParseError`` names it. The earliest faulty
    line wins: a file that is not UTF-8 raises ``ParseError`` for the
    first malformed line before the one holding its first undecodable
    byte, else for that line; an open text handle, which decodes ahead of
    the lines it returns, for the first line not yet read.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            try:
                keys = _file_keys(fh)
            except ParseError as exc:
                raise ParseError(exc.line_no, exc.reason, source) from None
    else:
        keys = _line_keys(source)
    g = KnowledgeGraph.__new__(KnowledgeGraph)
    g._index(keys, type_predicate)
    log.info(
        "loaded graph: %d triples, %d predicates, %d types, %d entities",
        len(g), len(g.predicate_set), len(g.type_set), len(g.entity_set),
    )
    return g


def read_bytes(path: Union[str, Path], error: type[ValueError] = DataError) -> bytes:
    """The bytes of a file. A directory raises ``error`` naming the file
    instead of ``IsADirectoryError``; any other ``OSError`` passes."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except IsADirectoryError as exc:
        raise error(f"{path}: is a directory") from exc


def read_lines(path: Union[str, Path]) -> list[str]:
    """The lines of a UTF-8 file, split the way text mode splits them: at
    LF, CR LF and CR, and nowhere else; a leading byte-order mark is
    dropped. A byte that does not decode, or a directory, raises
    ``DataError`` naming the file (and the line)."""
    text = _text(read_bytes(path), path, DataError)
    return text.removesuffix("\n").split("\n") if text else []


def read_json_lines(
    path: Union[str, Path],
    parse: Callable[[dict], R],
    error: type[DataError] = DataError,
) -> list[R]:
    """``parse`` of each non-blank line of a JSONL file (``read_lines``),
    each line a JSON object; a bad line, or a file with no entry, raises
    ``error`` naming the file (and the line)."""
    try:
        lines = read_lines(path)
    except DataError as exc:  # not UTF-8
        raise error(str(exc)) from exc
    out = []
    try:
        for line_no, line in enumerate(lines, start=1):
            if line.strip():
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise TypeError("not a JSON object")
                out.append(parse(data))
    except KeyError as exc:
        raise error(f"{path} line {line_no}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise error(f"{path} line {line_no}: {exc}") from exc
    if not out:
        raise error(f"{path}: no entries")
    return out


def _text(data: bytes, path: Union[str, Path], error: type[ValueError]) -> str:
    """``data`` decoded as UTF-8, a leading byte-order mark dropped and
    line endings read as text mode reads them. A byte that does not
    decode raises ``error`` naming the file and its line, as the graph
    reader does."""
    try:
        # not "utf-8-sig": its error offsets would not count the mark
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(_lines_before(data, exc)) + 1
        raise error(f"{path} line {line_no}: not valid UTF-8: {exc.reason}") from exc
    return _newlines(text).removeprefix("\ufeff")


def _newlines(text: str) -> str:
    """``text`` with each CR LF and lone CR read as LF, as text mode does."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _lines_before(data: bytes, exc: UnicodeDecodeError) -> list[str]:
    """The complete lines of ``data`` before the one that holds the byte
    ``exc`` failed on."""
    return _newlines(data[: exc.start].decode("utf-8")).split("\n")[:-1]


def read_json(
    path: Union[str, Path], what: str, error: type[ValueError] = ValueError
) -> dict:
    """The JSON object of a UTF-8 file (``what`` names it in errors); a
    leading byte-order mark is dropped, and line endings are read as text
    mode reads them. A directory, or a file that is empty, not UTF-8, not
    JSON or not a JSON object, raises ``error`` naming the file (and, for
    a byte that does not decode, its line)."""
    text = _text(read_bytes(path, error), path, error)
    try:
        if not text.strip():
            raise ValueError("empty file")
        data = json.loads(text)
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: {what} must be a JSON object, got {type(data).__name__}")
    return data


def load_prefixes(path: Union[str, Path]) -> dict[str, str]:
    """Prefix table (prefix -> IRI base), used only for display."""
    table = read_json(path, "prefix table")
    for prefix, base in table.items():
        if not isinstance(base, str):
            raise ValueError(
                f"{path}: prefix table value for {prefix!r} must be a string,"
                f" got {type(base).__name__}"
            )
    return table


def shorten(iri: str, prefixes: Mapping[str, str]) -> str:
    for prefix, base in sorted(prefixes.items(), key=lambda kv: -len(kv[1])):
        if iri.startswith(base):
            return f"{prefix}:{iri[len(base):]}"
    return iri
