"""Canonical byte encoding.

Layout rules, applied by every composite encoder in the package:
  * unsigned integers are big-endian, fixed width (u8, u32, u64)
  * strings are UTF-8 bytes prefixed by a 4-byte big-endian length
  * digests, keys, salts, signatures are raw fixed-width bytes
  * sequences are a u32 count followed by the elements
  * optional values are a presence byte (0/1) followed by the value
  * enumeration members are a u8 code: their position in declaration order
  * set-valued fields are a sequence written sorted and without repeats;
    decoders reject any other order and any repeated member, so a value has
    exactly one valid byte form
  * a transaction id is the SHA-256 of the transaction's exact wire bytes

The same field sequence always produces the same bytes on every platform;
there is no map ordering, padding, or float representation anywhere.

A record type declares each field once with `wire(codec)`, and `Struct`
derives both directions from those declarations. Writing is direct: each
codec appends its own bytes to a list (`Codec.write`), which `Codec.encode`
joins, so a primitive's layout, its range and bound checks, and its reader
live in one class. Reading is compiled: when a `Struct` is declared, every
codec in it contributes Python source to one read function (`Codec.emit`),
which is built with `exec`. A read function takes `(data, pos, end)`, reads
one value from `data[pos:end]` by advancing an integer offset, and returns
`(value, pos)`. A run of fixed-width fields (`U8`, `U32`, `U64`, `BOOL`,
`Raw`, `Enumerated`) is one precompiled `struct.Struct.unpack_from`;
strings, optional values, sequences, sets and pairs are written out inline.
A codec that cannot emit a reader fails the declaration of the record type
that uses it.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import struct
from contextlib import contextmanager
from functools import cached_property

from .errors import EncodingError

MAX_STRING = 4096
TRUNCATED = "input truncated"
BAD_UTF8 = "invalid UTF-8 in string field"
UNSORTED = "set members not in ascending order without repeats"


# ---------------------------------------------------------------------------
# Read functions are generated
# ---------------------------------------------------------------------------


class Source:
    """The body of one read function under construction. A codec appends the
    lines that read its value from `data`, starting at `pos` and never past
    `end`, and leave `pos` just after the value."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.env: dict = {"EncodingError": EncodingError, "TRUNCATED": TRUNCATED}
        self._depth = 1
        self._count = itertools.count()

    def local(self, hint: str) -> str:
        """A fresh variable name."""
        return f"{hint}_{next(self._count)}"

    def const(self, value, hint: str) -> str:
        """A fresh name under which the function sees `value`."""
        name = self.local(hint)
        self.env[name] = value
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * self._depth + text)

    @contextmanager
    def indented(self):
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    def sized(self, bound: int) -> str:
        """A u32 length of at most `bound`, then that many bytes: returns the
        name of their start offset; they end at `pos`."""
        length, start = U32.emit(self), self.local("start")
        self.line(f"if {length} > {bound}:")
        self.line(f"    raise EncodingError({f'string exceeds {bound} byte bound'!r})")
        self.line(f"{start} = pos")
        self.line(f"pos += {length}")
        self.line("if pos > end:")
        self.line("    raise EncodingError(TRUNCATED)")
        return start

    def text(self, start: str) -> str:
        """The UTF-8 text of `data[start:pos]`: returns its name."""
        text = self.local("text")
        self.line("try:")
        self.line(f"    {text} = data[{start} : pos].decode('utf-8')")
        self.line("except UnicodeDecodeError as exc:")
        self.line(f"    raise EncodingError({BAD_UTF8!r}) from exc")
        return text

    def values(self, codecs) -> list[str]:
        """Emit `codecs` in order, each run of fixed-width ones as one unpack;
        return an expression for each value."""
        out: list[str] = []
        for fixed, run in itertools.groupby(codecs, lambda codec: isinstance(codec, Fixed)):
            out += self._fixed_run(list(run)) if fixed else [codec.emit(self) for codec in run]
        return out

    def _fixed_run(self, codecs: list[Fixed]) -> list[str]:
        layout = struct.Struct(">" + "".join(c.fmt for c in codecs))
        checked, offset = [], 0
        for codec in codecs:
            if codec.limit is not None and offset + 1 < layout.size:  # a field follows it
                checked.append((offset, codec))
            offset += struct.calcsize(">" + codec.fmt)
        self.line(f"if pos + {layout.size} > end:")
        if checked:
            self.line(f"    {self.const(_cut_run, 'cut_run')}(data, pos, end, {self.const(tuple(checked), 'checked')})")
        self.line("    raise EncodingError(TRUNCATED)")
        raws = [self.local("raw") for _ in codecs]
        if layout.format == ">B":  # indexing is a third of the cost of an unpack
            self.line(f"{raws[0]} = data[pos]")
        else:
            self.line(f"{', '.join(raws)}, = {self.const(layout.unpack_from, 'unpack')}(data, pos)")
        self.line(f"pos += {layout.size}")
        for codec, raw in zip(codecs, raws):
            if codec.limit is not None:
                self.line(f"if {raw} > {codec.limit}:")
                self.line(f"    {self.const(codec.refuse, 'refuse')}({raw})")
        return [codec.value(self, raw) for codec, raw in zip(codecs, raws)]


def _cut_run(data: bytes, pos: int, end: int, checked: tuple) -> None:
    """For a run of fixed-width fields that does not fit before `end`: raise
    what reading its fields one at a time would raise ahead of the
    truncation, the first refused flag or code that fits. `checked` holds
    (offset, codec) for the checked fields, which are one byte wide."""
    for offset, codec in checked:
        if pos + offset >= end:
            break
        if data[pos + offset] > codec.limit:
            codec.refuse(data[pos + offset])


def _compile(codec: Codec, name: str):
    """The generated read function for `codec`."""
    src = Source()
    value = codec.emit(src)
    text = "\n".join([f"def read_{name}(data, pos, end):", *src.lines, f"    return {value}, pos", ""])
    exec(compile(text, f"<wire reader {name}>", "exec"), src.env)
    return src.env[f"read_{name}"]


# ---------------------------------------------------------------------------
# Wire types
# ---------------------------------------------------------------------------


class Codec:
    """One wire type: how a value is written, the source that reads it back
    (`emit`), how it orders inside a sorted set (`key`), and how it shows in
    an audit record."""

    def write(self, out: list[bytes], value) -> None:
        """Append the bytes of `value` to `out`."""
        raise NotImplementedError

    def emit(self, src: Source) -> str:
        """Append to `src` the lines that read one value; return an
        expression for the value."""
        raise TypeError(f"{type(self).__name__} has no compiled reader")

    def key(self, value):
        return value

    @property
    def sorts_as_itself(self) -> bool:
        """Whether `key` is the value itself, so sets compare members directly."""
        return type(self).key is Codec.key

    def audit(self, value):
        return value

    @cached_property
    def reader(self):
        """(data, pos, end) -> (value, pos): this codec's read function."""
        return _compile(self, type(self).__name__)

    def encode(self, value) -> bytes:
        out: list[bytes] = []
        self.write(out, value)
        return b"".join(out)

    def decode(self, data: bytes, start: int = 0, end: int | None = None):
        """The one value that `data[start:end]` holds, and nothing after it."""
        end = len(data) if end is None else end
        value, pos = self.reader(data, start, end)
        if pos != end:
            raise EncodingError(f"{end - pos} trailing bytes after value")
        return value


class Fixed(Codec):
    """A fixed-width type: one `struct` format code. When `limit` is set the
    type is one byte wide, and `refuse(raw)` raises for a raw byte above it."""

    fmt: str
    limit: int | None = None

    def refuse(self, raw: int) -> None:
        raise NotImplementedError

    def value(self, src: Source, raw: str) -> str:
        """The expression turning the unpacked `raw` into the value."""
        return raw

    def emit(self, src: Source) -> str:
        return src.values([self])[0]


class _Unsigned(Fixed):
    """A big-endian unsigned integer `width` bytes wide."""

    def __init__(self, width: int) -> None:
        self.name, self.width = f"u{8 * width}", width
        self.fmt, self.max = {1: "B", 4: "I", 8: "Q"}[width], (1 << 8 * width) - 1

    def write(self, out: list[bytes], value: int) -> None:
        if not 0 <= value <= self.max:
            raise EncodingError(f"{self.name} out of range: {value}")
        out.append(value.to_bytes(self.width, "big"))


U8 = _Unsigned(1)
U32 = _Unsigned(4)
U64 = _Unsigned(8)


class _Boolean(Fixed):
    fmt, limit = "B", 1

    def write(self, out: list[bytes], value: bool) -> None:
        out.append(b"\x01" if value else b"\x00")

    def refuse(self, raw: int) -> None:
        raise EncodingError(f"invalid boolean byte {raw}")

    def value(self, src: Source, raw: str) -> str:
        return f"{raw} == 1"


BOOL = _Boolean()


class Str(Codec):
    def __init__(self, bound: int = MAX_STRING) -> None:
        self.bound = bound

    def write(self, out: list[bytes], value: str) -> None:
        data = value.encode("utf-8")
        if len(data) > self.bound:
            raise EncodingError(f"string exceeds {self.bound} byte bound")
        U32.write(out, len(data))
        out.append(data)

    def emit(self, src: Source) -> str:
        return src.text(src.sized(self.bound))


class Raw(Fixed):
    """Fixed-width bytes, shown in audit records as hex."""

    def __init__(self, width: int) -> None:
        self.width, self.fmt = width, f"{width}s"

    def write(self, out: list[bytes], value: bytes) -> None:
        if len(value) != self.width:
            raise EncodingError(f"expected {self.width} raw bytes, got {len(value)}")
        out.append(value)

    def audit(self, value: bytes) -> str:
        return value.hex()


class Enumerated(Fixed):
    """A member of an `enum.Enum` as its u8 code; sorts by code, shows as its value."""

    fmt = "B"

    def __init__(self, enum_type) -> None:
        self.members = tuple(enum_type)
        self.codes = {m: i for i, m in enumerate(self.members)}
        self.name = enum_type.__name__
        self.limit = len(self.members) - 1

    def write(self, out: list[bytes], value) -> None:
        U8.write(out, self.codes[value])

    def refuse(self, raw: int) -> None:
        raise EncodingError(f"unknown {self.name} code {raw}")

    def value(self, src: Source, raw: str) -> str:
        return f"{src.const(self.members, self.name)}[{raw}]"

    def key(self, value) -> int:
        return self.codes[value]

    def audit(self, value) -> str:
        return value.value


class Opt(Codec):
    def __init__(self, item: Codec) -> None:
        self.item = item

    def write(self, out: list[bytes], value) -> None:
        BOOL.write(out, value is not None)
        if value is not None:
            self.item.write(out, value)

    def emit(self, src: Source) -> str:
        present, value = BOOL.emit(src), src.local("opt")
        src.line(f"{value} = None")
        src.line(f"if {present}:")
        with src.indented():
            item = self.item.emit(src)
            src.line(f"{value} = {item}")
        return value

    def audit(self, value):
        return self.item.audit(value)


class Seq(Codec):
    """Elements in the order given; decodes to a tuple."""

    def __init__(self, item: Codec) -> None:
        self.item = item

    def write(self, out: list[bytes], value) -> None:
        U32.write(out, len(value))
        for member in value:
            self.item.write(out, member)

    def emit(self, src: Source) -> str:
        count, members = U32.emit(src), src.local("members")
        src.line(f"{members} = []")
        src.line(f"for _ in range({count}):")
        with src.indented():
            member = self.item.emit(src)
            src.line(f"{members}.append({member})")
        return self.collect(src, members)

    def collect(self, src: Source, members: str) -> str:
        return f"tuple({members})"

    def audit(self, value) -> list:
        return [self.item.audit(member) for member in value]


class SortedSet(Seq):
    """Members written in ascending `key` order; decodes to `into` (a
    frozenset unless given) and rejects any other order or a repeat, once
    every member is read."""

    def __init__(self, item: Codec, into=frozenset) -> None:
        super().__init__(item)
        self.into = into

    def write(self, out: list[bytes], value) -> None:
        super().write(out, sorted(value, key=self.item.key))

    def collect(self, src: Source, members: str) -> str:
        keys = members
        if not self.item.sorts_as_itself:
            keys = src.local("keys")
            src.line(f"{keys} = list(map({src.const(self.item.key, 'key')}, {members}))")
        src.line(f"if any(map({src.const(operator.ge, 'ge')}, {keys}, {keys}[1:])):")
        src.line(f"    raise EncodingError({UNSORTED!r})")
        return f"{src.const(self.into, 'into')}({members})"

    def audit(self, value) -> list:
        return sorted(self.item.audit(member) for member in value)


class Pair(Codec):
    def __init__(self, first: Codec, second: Codec) -> None:
        self.first, self.second = first, second

    def write(self, out: list[bytes], value: tuple) -> None:
        self.first.write(out, value[0])
        self.second.write(out, value[1])

    def emit(self, src: Source) -> str:
        first, second = src.values([self.first, self.second])
        return f"({first}, {second})"

    def key(self, value: tuple) -> tuple:
        return self.first.key(value[0]), self.second.key(value[1])

    @property
    def sorts_as_itself(self) -> bool:
        return self.first.sorts_as_itself and self.second.sorts_as_itself


def wire(codec: Codec, *, default=dataclasses.MISSING, **meta):
    """A dataclass field carried on the wire by `codec`. Extra keywords are
    kept in the field's metadata for views derived from the same declaration."""
    return dataclasses.field(default=default, metadata={"codec": codec, **meta})


class Struct(Codec):
    """A dataclass as its `wire()` fields in declaration order (or the
    (name, codec) pairs given); decodes by calling the class positionally.
    Its read function is compiled here, so a field codec without one fails
    the declaration."""

    def __init__(self, cls, fields=None) -> None:
        if fields is None:
            fields = [(f.name, f.metadata["codec"]) for f in dataclasses.fields(cls) if "codec" in f.metadata]
        self.cls, self.fields = cls, tuple(fields)
        self.codecs = tuple(codec for _, codec in self.fields)
        self._writers = tuple((name, codec.write) for name, codec in self.fields)
        self.reader = _compile(self, cls.__name__)

    def write(self, out: list[bytes], value) -> None:
        for name, write in self._writers:
            write(out, getattr(value, name))

    def emit(self, src: Source) -> str:
        values, value = src.values(self.codecs), src.local("record")
        src.line(f"{value} = {src.const(self.cls, self.cls.__name__)}({', '.join(values)})")
        return value
