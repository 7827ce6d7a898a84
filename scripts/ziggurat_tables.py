#!/usr/bin/env python3
"""Print numpy's ziggurat tables for the standard normal as the literal
block of `memthermo/pcg64.py`.

numpy draws `standard_normal` with a 256-layer ziggurat whose tables,
`ki_double`, `wi_double` and `fi_double`, are literals in its C source.
Its wheel ships them compiled, in `numpy/random/lib/libnpyrandom.a`. This
reads the three symbols from that archive with `struct` alone: the ar
member that defines them, then its ELF `.symtab` and the bytes of the
section each symbol sits in. No binutils and no numpy import are needed.

    python3 scripts/ziggurat_tables.py
"""
from __future__ import annotations

import importlib.util
import struct
import sys
from pathlib import Path

SYMBOLS = ("ki_double", "wi_double", "fi_double")
LAYERS = 256
PER_LINE = 32   # bytes of the table block per source line: four words


def archive_path() -> Path | None:
    """The installed numpy's `libnpyrandom.a`, or None."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return None
    path = Path(spec.origin).parent / "random" / "lib" / "libnpyrandom.a"
    return path if path.is_file() else None


def ar_members(data: bytes):
    """The bytes of each member of an ar archive, its index tables too."""
    if not data.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos = 8
    while pos + 60 <= len(data):   # a 60-byte header, then the member
        size = int(data[pos + 48:pos + 58])
        yield data[pos + 60:pos + 60 + size]
        pos += 60 + size + size % 2


def elf_symbols(obj: bytes) -> dict[str, bytes]:
    """The bytes of each defined data symbol of an ELF64 little-endian
    relocatable object, by name."""
    if obj[:6] != b"\x7fELF\x02\x01":
        raise ValueError("not an ELF64 little-endian object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # (type, offset, size, link, entsize) of each section header
    sections = [struct.unpack_from("<4xI16xQQI12xQ", obj, shoff + i * shentsize)
                for i in range(shnum)]
    out = {}
    for sh_type, offset, size, link, entsize in sections:
        if sh_type != 2:   # SHT_SYMTAB
            continue
        strtab = sections[link][1]
        for at in range(offset, offset + size, entsize):
            name, shndx, value, sym_size = struct.unpack_from("<I2xHQQ", obj, at)
            if 0 < shndx < len(sections) and sections[shndx][0] == 1:   # PROGBITS
                start = strtab + name
                key = obj[start:obj.index(b"\0", start)].decode()
                base = sections[shndx][1] + value
                out[key] = obj[base:base + sym_size]
    return out


def read_tables(archive: Path) -> bytes:
    """ki, wi and fi as 3 x 256 little-endian 8-byte words."""
    for member in ar_members(archive.read_bytes()):
        if member[:4] != b"\x7fELF":
            continue
        symbols = elf_symbols(member)
        if all(s in symbols for s in SYMBOLS):
            tables = b"".join(symbols[s] for s in SYMBOLS)
            if len(tables) != len(SYMBOLS) * LAYERS * 8:
                raise ValueError(f"tables of {len(tables)} bytes")
            return tables
    raise ValueError(f"no ELF member of {archive} defines {', '.join(SYMBOLS)}")


def literal_block(tables: bytes) -> str:
    """The tables as the hex literal that `memthermo.pcg64` unpacks."""
    hexed = tables.hex()
    step = 2 * PER_LINE
    lines = [f'    "{hexed[i:i + step]}"' for i in range(0, len(hexed), step)]
    return "_ZIGGURAT_TABLES = bytes.fromhex(\n" + "\n".join(lines) + ")\n"


def main() -> int:
    archive = archive_path()
    if archive is None:
        print("the installed numpy ships no random/lib/libnpyrandom.a",
              file=sys.stderr)
        return 1
    sys.stdout.write(literal_block(read_tables(archive)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
