"""Columnar trace representation and its binary blob format.

The timing cores iterate one flat issue tuple per dynamic instruction,
but a list of Python tuples is expensive two ways: every tuple costs
~200 bytes of heap, and every consumer that is not the recording
process (a fabric worker, another host) would have to re-record the
trace to obtain it. The :class:`ColumnarTrace` is the one trace
representation below the recorded :class:`~repro.trace.record.Trace`:
one compact :mod:`array`-module column per issue-tuple field —

``opclass, kind, dst, src1, src2, pc, addr, taken, target``

— built once per (trace, decoder library), ~30 bytes per dynamic
instruction, and serialisable to a stable self-describing binary blob.
The blob can be persisted content-addressed by
:class:`~repro.engine.tracestore.TraceStore` and **memory-mapped** by
every fabric worker on a host: attaching is a zero-copy
``memoryview.cast`` per column over the shared page cache, so the
second worker pays microseconds where it used to pay a full re-record.

The tuple list the cores iterate is materialised from the columns once
and memoised (:meth:`ColumnarTrace.stream`);
:meth:`~repro.trace.record.Trace.stream_with` is that same list, so
every configuration replayed over one trace shares it.
"""

from __future__ import annotations

import struct
from array import array

from repro.isa.decoder import decoder_library
from repro.trace.record import KIND_FLAGS

#: Leading bytes of every columnar blob.
BLOB_MAGIC = b"RCOL"

#: Bump on any incompatible change to the column set or encoding.
BLOB_VERSION = 1

#: Canonical column order and array typecodes. Registers are signed
#: bytes (``NO_REG`` is -1, ids stay below 128); opclass/kind/taken fit
#: unsigned bytes; pc/addr/target are 8-byte unsigned.
COLUMN_FIELDS = (
    ("opclass", "B"),
    ("kind", "B"),
    ("dst", "b"),
    ("src1", "b"),
    ("src2", "b"),
    ("pc", "Q"),
    ("addr", "Q"),
    ("taken", "B"),
    ("target", "Q"),
)

_HEADER = struct.Struct("<4sHHQ")  # magic, version, n_fields, length
_FIELD_HEADER = struct.Struct("<16scxQ")  # name, typecode, byte length
_U32 = struct.Struct("<I")  # name and library block lengths


class ColumnarTrace:
    """One decoded trace as parallel per-field columns.

    Instances come from :meth:`build` (recording process),
    :meth:`from_blob` (attaching process; zero-copy over ``bytes``,
    ``memoryview`` or ``mmap`` buffers) or
    :meth:`repro.trace.record.Trace.columns_with` (memoised per decoder
    library). A columnar trace is *trace-like* for the simulation
    layer: it has ``name``, ``__len__``, ``instruction_count`` and
    ``stream_with``, so :class:`~repro.simulator.simulator.SnipeSim`
    and both cores accept it anywhere a recorded
    :class:`~repro.trace.record.Trace` is accepted — which is exactly
    what lets a fabric worker simulate from an attached blob without
    ever re-recording.
    """

    __slots__ = ("name", "library", "length", "columns", "_buffer", "_stream")

    def __init__(self, name: str, library: tuple, length: int,
                 columns: dict, buffer=None) -> None:
        self.name = name
        #: ``decoder_library(...)`` tuple the columns were decoded with.
        self.library = tuple(library)
        self.length = length
        #: field name -> array/memoryview column, aligned by index.
        self.columns = columns
        # Keep the backing buffer (mmap / bytes) alive for the life of
        # any memoryview columns sliced out of it.
        self._buffer = buffer
        self._stream = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, records: list, decoded: list, name: str, library: tuple) -> "ColumnarTrace":
        """Columnarise ``records`` + their ``decoded`` forms.

        Decoded instructions are interned per word, so opclass
        conversion and kind-flag derivation happen once per static
        instruction, not per dynamic occurrence.
        """
        cols = {fname: array(code) for fname, code in COLUMN_FIELDS}
        op_a = cols["opclass"].append
        kind_a = cols["kind"].append
        dst_a = cols["dst"].append
        src1_a = cols["src1"].append
        src2_a = cols["src2"].append
        pc_a = cols["pc"].append
        addr_a = cols["addr"].append
        taken_a = cols["taken"].append
        target_a = cols["target"].append
        fields_of: dict = {}
        for rec, inst in zip(records, decoded):
            key = id(inst)
            fields = fields_of.get(key)
            if fields is None:
                opclass = int(inst.opclass)
                fields = (opclass, KIND_FLAGS[opclass], inst.dst, inst.src1, inst.src2)
                fields_of[key] = fields
            op_a(fields[0])
            kind_a(fields[1])
            dst_a(fields[2])
            src1_a(fields[3])
            src2_a(fields[4])
            pc_a(rec.pc)
            addr_a(rec.addr)
            taken_a(1 if rec.taken else 0)
            target_a(rec.target)
        return cls(name, library, len(records), cols)

    # ------------------------------------------------------------------
    # Blob serialisation
    # ------------------------------------------------------------------
    def to_blob(self) -> bytes:
        """Serialise to the stable self-describing binary form.

        Layout (all integers little-endian):

        - header: magic ``RCOL``, ``BLOB_VERSION``, field count,
          instruction count;
        - name block: u32 byte length + UTF-8 trace name;
        - library block: u32 byte length + UTF-8 ``module\\n`` lines of
          the decoder-library identity;
        - per field: 16-byte padded name, typecode char, payload byte
          length — then all payloads concatenated in field order.

        Column payloads are emitted in little-endian regardless of host
        order, so the blob (and its content address) is stable across
        recording hosts; :meth:`from_blob` byte-swaps on attach when the
        reader is big-endian.
        """
        parts = [_HEADER.pack(BLOB_MAGIC, BLOB_VERSION, len(COLUMN_FIELDS), self.length)]
        name_bytes = self.name.encode("utf-8")
        parts.append(_U32.pack(len(name_bytes)))
        parts.append(name_bytes)
        lib_bytes = "\n".join(str(part) for part in self.library).encode("utf-8")
        parts.append(_U32.pack(len(lib_bytes)))
        parts.append(lib_bytes)
        payloads = []
        for fname, code in COLUMN_FIELDS:
            col = self.columns[fname]
            if isinstance(col, memoryview):
                payload = col.tobytes()
            else:
                swapped = None
                if struct.pack("=H", 1) != struct.pack("<H", 1):  # big-endian host
                    swapped = array(code, col)
                    swapped.byteswap()
                payload = (swapped if swapped is not None else col).tobytes()
            parts.append(_FIELD_HEADER.pack(fname.encode("ascii").ljust(16, b"\0"),
                                            code.encode("ascii"), len(payload)))
            payloads.append(payload)
        parts.extend(payloads)
        return b"".join(parts)

    @classmethod
    def from_blob(cls, buffer) -> "ColumnarTrace":
        """Attach to a serialised blob; zero-copy for buffer-backed input.

        ``buffer`` may be ``bytes``, a ``memoryview`` or an ``mmap``
        object. Columns become ``memoryview.cast`` views straight over
        the buffer (the returned trace keeps the buffer alive), so
        attaching a memory-mapped file shares the OS page cache between
        every worker on the host instead of duplicating the trace per
        process. On big-endian hosts the columns are copied and
        byte-swapped instead (blobs are canonically little-endian).

        The structure is checked, not trusted: every column must hold
        exactly the header's instruction count, and the blob must end
        where the last column does. A short, long or otherwise
        malformed buffer raises :class:`ValueError`. The column bytes
        themselves are not checked.
        """
        view = memoryview(buffer)
        offset = 0

        def take(n: int) -> memoryview:
            # The next n bytes; a buffer that ends first is malformed.
            nonlocal offset
            if offset + n > len(view):
                raise ValueError(f"columnar blob truncated: {len(view)} bytes, "
                                 f"needs at least {offset + n}")
            offset += n
            return view[offset - n:offset]

        magic, version, n_fields, length = _HEADER.unpack(take(_HEADER.size))
        if magic != BLOB_MAGIC:
            raise ValueError("not a columnar trace blob (bad magic)")
        if version != BLOB_VERSION:
            raise ValueError(
                f"columnar blob version {version} unsupported "
                f"(this build reads version {BLOB_VERSION})"
            )
        (name_len,) = _U32.unpack(take(4))
        name = bytes(take(name_len)).decode("utf-8")
        (lib_len,) = _U32.unpack(take(4))
        library = tuple(bytes(take(lib_len)).decode("utf-8").split("\n"))
        fields = []
        for _ in range(n_fields):
            raw_name, code, payload_len = _FIELD_HEADER.unpack(take(_FIELD_HEADER.size))
            fields.append((raw_name.rstrip(b"\0").decode("ascii"),
                           code.decode("ascii"), payload_len))
        got = [(fname, code) for fname, code, _len in fields]
        if got != list(COLUMN_FIELDS):
            raise ValueError(f"columnar blob fields {got} != expected {list(COLUMN_FIELDS)}")
        little_endian = struct.pack("=H", 1) == struct.pack("<H", 1)
        columns: dict = {}
        for fname, code, payload_len in fields:
            expected = length * struct.calcsize(code)
            if payload_len != expected:
                raise ValueError(f"columnar blob column {fname!r} holds {payload_len} "
                                 f"bytes, not {expected}")
            payload = take(payload_len)
            if little_endian:
                columns[fname] = payload.cast(code)
            else:
                col = array(code)
                col.frombytes(bytes(payload))
                col.byteswap()
                columns[fname] = col
        if offset != len(view):
            raise ValueError(f"columnar blob has {len(view) - offset} trailing bytes")
        return cls(name, library, length, columns, buffer=buffer)

    # ------------------------------------------------------------------
    # Trace-like surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def instruction_count(self) -> int:
        """Number of dynamically executed instructions."""
        return self.length

    def __repr__(self) -> str:
        kind = "attached" if self._buffer is not None else "built"
        return f"ColumnarTrace({self.name!r}, {self.length} instructions, {kind})"

    def matches(self, decoder) -> bool:
        """True when ``decoder`` belongs to the recorded library."""
        return tuple(str(part) for part in decoder_library(decoder)) == self.library

    def _require(self, decoder) -> None:
        lib = tuple(str(part) for part in decoder_library(decoder))
        if lib != self.library:
            raise ValueError(
                f"columnar trace {self.name!r} was decoded with library "
                f"{self.library}, not {lib}; re-record for this decoder"
            )

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def tuples(self, start: int, stop: int) -> list:
        """Issue tuples for ``[start, stop)``.

        One ``(opclass, kind, dst, src1, src2, pc, addr, taken,
        target)`` tuple per instruction, with ``taken`` coming back as
        a ``bool`` — the layout both timing cores unpack.

        Equal rows share one tuple object. A loop body replays the same
        rows every iteration, so over the workload suite the list
        allocates ~40% as many tuples (and fresh ``pc``/``addr``/
        ``target`` ints) as it has instructions.
        """
        cols = self.columns
        intern = {}.setdefault
        return [intern(row, row) for row in zip(
            cols["opclass"][start:stop],
            cols["kind"][start:stop],
            cols["dst"][start:stop],
            cols["src1"][start:stop],
            cols["src2"][start:stop],
            cols["pc"][start:stop],
            cols["addr"][start:stop],
            map(bool, cols["taken"][start:stop]),
            cols["target"][start:stop],
        )]

    def stream(self) -> list:
        """The full issue-tuple list the timing cores iterate (memoised)."""
        if self._stream is None:
            self._stream = self.tuples(0, self.length)
        return self._stream

    def stream_with(self, decoder) -> list:
        """Trace-API compatibility: the full stream for ``decoder``.

        A columnar trace carries no instruction words, so it can only
        serve the decoder library it was built with; any other library
        raises instead of silently mis-decoding.
        """
        self._require(decoder)
        return self.stream()

    def columns_with(self, decoder) -> "ColumnarTrace":
        """Trace-API compatibility: itself, after a library check."""
        self._require(decoder)
        return self

    def nbytes(self) -> int:
        """Total column payload size in bytes (excludes tuple caches)."""
        total = 0
        for fname, _code in COLUMN_FIELDS:
            col = self.columns[fname]
            total += col.nbytes if isinstance(col, memoryview) else len(col) * col.itemsize
        return total
