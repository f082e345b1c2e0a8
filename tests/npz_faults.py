"""Faults of a null-cache entry (a ``.npz`` zip archive) that the cache must survive."""

import io
import struct
import zipfile


def unsupported_compression(data: bytes, method: int = 99) -> bytes:
    """The entry with its first central-directory record naming compression
    ``method``: zipfile refuses a method it does not support with a
    NotImplementedError."""
    at = data.index(b"PK\x01\x02")
    return data[:at + 10] + struct.pack("<H", method) + data[at + 12:]


def oversized_header(data: bytes, count: int) -> bytes:
    """The entry written again, whole and with valid checksums, but with the
    header of ``samples.npy`` claiming ``count`` samples: numpy asks for
    ``count`` float64s before it reads one."""
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    raw = members["samples.npy"]
    (size,) = struct.unpack("<H", raw[8:10])
    header = raw[10:10 + size].decode("latin1")
    start, stop = header.index("'shape': (") + len("'shape': ("), header.index(")")
    header = f"{header[:start]}{count},{header[stop:]}".rstrip()
    members["samples.npy"] = raw[:10] + header.ljust(size - 1).encode("latin1") + b"\n" + raw[10 + size:]
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)
    return out.getvalue()
