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

`Writer` and `Reader` handle the primitives. The `Codec` types below compose
them: a record type declares each field once with `wire(codec)`, and
`Struct` derives its encoder and decoder from those declarations.
"""

from __future__ import annotations

import dataclasses

from .errors import EncodingError

MAX_STRING = 4096


class Writer:
    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise EncodingError(f"u8 out of range: {value}")
        self._parts.append(value.to_bytes(1, "big"))

    def u32(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise EncodingError(f"u32 out of range: {value}")
        self._parts.append(value.to_bytes(4, "big"))

    def u64(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise EncodingError(f"u64 out of range: {value}")
        self._parts.append(value.to_bytes(8, "big"))

    def raw(self, data: bytes, width: int) -> None:
        if len(data) != width:
            raise EncodingError(f"expected {width} raw bytes, got {len(data)}")
        self._parts.append(data)

    def string(self, value: str, bound: int = MAX_STRING) -> None:
        data = value.encode("utf-8")
        if len(data) > bound:
            raise EncodingError(f"string exceeds {bound} byte bound")
        self.u32(len(data))
        self._parts.append(data)

    def boolean(self, value: bool) -> None:
        self.u8(1 if value else 0)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


def utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError("invalid UTF-8 in string field") from exc


class Reader:
    __slots__ = ("_data", "_pos", "_end")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._end = len(data)

    # The primitives read straight from the buffer rather than through one
    # another: a ledger read decodes a few hundred fields per block.

    def _take(self, n: int) -> bytes:
        pos = self._pos
        end = pos + n
        if end > self._end:
            raise EncodingError("input truncated")
        self._pos = end
        return self._data[pos:end]

    def u8(self) -> int:
        pos = self._pos
        if pos >= self._end:
            raise EncodingError("input truncated")
        self._pos = pos + 1
        return self._data[pos]

    def u32(self) -> int:
        pos = self._pos
        end = pos + 4
        if end > self._end:
            raise EncodingError("input truncated")
        self._pos = end
        return int.from_bytes(self._data[pos:end], "big")

    def u64(self) -> int:
        pos = self._pos
        end = pos + 8
        if end > self._end:
            raise EncodingError("input truncated")
        self._pos = end
        return int.from_bytes(self._data[pos:end], "big")

    raw = _take

    def sized(self, bound: int = MAX_STRING) -> bytes:
        """A u32 length of at most `bound`, then that many bytes."""
        data, pos = self._data, self._pos
        start = pos + 4
        if start > self._end:
            raise EncodingError("input truncated")
        end = start + int.from_bytes(data[pos:start], "big")
        if end - start > bound:
            raise EncodingError(f"string exceeds {bound} byte bound")
        if end > self._end:
            raise EncodingError("input truncated")
        self._pos = end
        return data[start:end]

    def string(self, bound: int = MAX_STRING) -> str:
        return utf8(self.sized(bound))

    def boolean(self) -> bool:
        flag = self.u8()
        if flag not in (0, 1):
            raise EncodingError(f"invalid boolean byte {flag}")
        return flag == 1

    @property
    def pos(self) -> int:
        return self._pos

    def since(self, start: int) -> bytes:
        """The bytes consumed from offset `start` up to the current position."""
        return self._data[start : self._pos]

    def remaining(self) -> int:
        return self._end - self._pos

    def expect_end(self) -> None:
        if self._pos != self._end:
            raise EncodingError(f"{self.remaining()} trailing bytes after value")


# ---------------------------------------------------------------------------
# Wire types
# ---------------------------------------------------------------------------


class Codec:
    """One wire type: how a value is written and read back, how it orders
    inside a sorted set (`key`), and how it shows in an audit record."""

    def write(self, w: Writer, value) -> None:
        raise NotImplementedError

    def read(self, r: Reader):
        raise NotImplementedError

    def key(self, value):
        return value

    def audit(self, value):
        return value

    def encode(self, value) -> bytes:
        w = Writer()
        self.write(w, value)
        return w.getvalue()

    def decode(self, data: bytes):
        r = Reader(data)
        value = self.read(r)
        r.expect_end()
        return value


class _Primitive(Codec):
    """A type the Writer and Reader handle directly: their methods are this
    codec's own."""

    def __init__(self, write, read) -> None:
        self.write, self.read = write, read


U32 = _Primitive(Writer.u32, Reader.u32)
U64 = _Primitive(Writer.u64, Reader.u64)
BOOL = _Primitive(Writer.boolean, Reader.boolean)


class Str(Codec):
    def __init__(self, bound: int = MAX_STRING) -> None:
        self.bound = bound

    def write(self, w: Writer, value: str) -> None:
        w.string(value, self.bound)

    def read(self, r: Reader) -> str:
        return r.string(self.bound)


class Raw(Codec):
    """Fixed-width bytes, shown in audit records as hex."""

    def __init__(self, width: int) -> None:
        self.width = width

    def write(self, w: Writer, value: bytes) -> None:
        w.raw(value, self.width)

    def read(self, r: Reader) -> bytes:
        return r.raw(self.width)

    def audit(self, value: bytes) -> str:
        return value.hex()


class Enumerated(Codec):
    """A member of an `enum.Enum` as its u8 code; sorts by code, shows as its value."""

    def __init__(self, enum_type) -> None:
        self.members = tuple(enum_type)
        self.codes = {m: i for i, m in enumerate(self.members)}
        self.name = enum_type.__name__

    def write(self, w: Writer, value) -> None:
        w.u8(self.codes[value])

    def read(self, r: Reader):
        return self.member(r.u8())

    def member(self, code: int):
        if code >= len(self.members):
            raise EncodingError(f"unknown {self.name} code {code}")
        return self.members[code]

    def key(self, value) -> int:
        return self.codes[value]

    def audit(self, value) -> str:
        return value.value


class Opt(Codec):
    def __init__(self, item: Codec) -> None:
        self.item = item

    def write(self, w: Writer, value) -> None:
        w.boolean(value is not None)
        if value is not None:
            self.item.write(w, value)

    def read(self, r: Reader):
        return self.item.read(r) if r.boolean() else None

    def audit(self, value):
        return self.item.audit(value)


class Seq(Codec):
    """Elements in the order given; decodes to a tuple."""

    def __init__(self, item: Codec) -> None:
        self.item = item

    def write(self, w: Writer, value) -> None:
        w.u32(len(value))
        for member in value:
            self.item.write(w, member)

    def read(self, r: Reader) -> tuple:
        read = self.item.read
        return tuple([read(r) for _ in range(r.u32())])

    def audit(self, value) -> list:
        return [self.item.audit(member) for member in value]


class SortedSet(Seq):
    """Members written in ascending `key` order; decodes to `into` (a
    frozenset unless given) and rejects any other order or a repeat."""

    def __init__(self, item: Codec, into=frozenset) -> None:
        super().__init__(item)
        self.into = into

    def write(self, w: Writer, value) -> None:
        super().write(w, sorted(value, key=self.item.key))

    def read(self, r: Reader):
        members = super().read(r)
        keys = [self.item.key(m) for m in members]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise EncodingError("set members not in ascending order without repeats")
        return self.into(members)

    def audit(self, value) -> list:
        return sorted(self.item.audit(member) for member in value)


class Pair(Codec):
    def __init__(self, first: Codec, second: Codec) -> None:
        self.first, self.second = first, second

    def write(self, w: Writer, value: tuple) -> None:
        self.first.write(w, value[0])
        self.second.write(w, value[1])

    def read(self, r: Reader) -> tuple:
        return self.first.read(r), self.second.read(r)

    def key(self, value: tuple) -> tuple:
        return self.first.key(value[0]), self.second.key(value[1])


def wire(codec: Codec, *, default=dataclasses.MISSING, **meta):
    """A dataclass field carried on the wire by `codec`. Extra keywords are
    kept in the field's metadata for views derived from the same declaration."""
    return dataclasses.field(default=default, metadata={"codec": codec, **meta})


class Struct(Codec):
    """A dataclass as its `wire()` fields in declaration order (or the
    (name, codec) pairs given); decodes by calling the class positionally."""

    def __init__(self, cls, fields=None) -> None:
        if fields is None:
            fields = [(f.name, f.metadata["codec"]) for f in dataclasses.fields(cls) if "codec" in f.metadata]
        self.cls, self.fields = cls, tuple(fields)
        self._writers = tuple((name, codec.write) for name, codec in self.fields)
        self._readers = tuple(codec.read for _, codec in self.fields)

    def write(self, w: Writer, value) -> None:
        for name, write in self._writers:
            write(w, getattr(value, name))

    def read_values(self, r: Reader) -> list:
        return [read(r) for read in self._readers]

    def read(self, r: Reader):
        return self.cls(*self.read_values(r))
