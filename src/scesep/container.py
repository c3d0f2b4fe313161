"""Binary container for model checkpoints and NMF dictionaries.

Layout (little-endian throughout):
  magic (4 bytes) | format version (u32) |
  metadata length (u32) | UTF-8 "key=value" lines |
  tensors: name length (u16) | name bytes | rank (u8) | dims (u64 each) |
           row-major float64 data
"""

import math
import struct

import numpy as np

from .errors import CorruptCheckpoint

FORMAT_VERSION = 1
MAGIC_MODEL = b"SCEM"
MAGIC_NMF = b"SNMF"


def write_container(path, magic: bytes, meta: dict, tensors: dict) -> None:
    meta_blob = "\n".join(f"{k}={v}" for k, v in meta.items()).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", len(meta_blob)))
        f.write(meta_blob)
        for name, arr in tensors.items():
            # note: ascontiguousarray would promote 0-d arrays to shape (1,)
            arr = np.asarray(arr, dtype="<f8", order="C")
            name_b = name.encode("utf-8")
            f.write(struct.pack("<H", len(name_b)))
            f.write(name_b)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.tobytes())


def read_container(path, expected_magic: bytes):
    """Return (meta dict, tensors dict)."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12 or blob[:4] != expected_magic:
        raise CorruptCheckpoint(
            f"{path}: bad magic {blob[:4]!r}, expected {expected_magic!r}"
        )
    version = struct.unpack_from("<I", blob, 4)[0]
    if version != FORMAT_VERSION:
        raise CorruptCheckpoint(f"{path}: unsupported format version {version}")
    meta_len = struct.unpack_from("<I", blob, 8)[0]
    off = 12
    try:
        meta_blob = blob[off : off + meta_len].decode("utf-8")
        off += meta_len
        meta = {}
        for line in meta_blob.splitlines():
            k, _, v = line.partition("=")
            meta[k] = v
        tensors = {}
        while off < len(blob):
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off : off + name_len].decode("utf-8")
            off += name_len
            (rank,) = struct.unpack_from("<B", blob, off)
            off += 1
            dims = struct.unpack_from(f"<{rank}Q", blob, off)
            off += 8 * rank
            count = math.prod(dims)
            if 8 * count > len(blob) - off:
                raise CorruptCheckpoint(
                    f"{path}: tensor {name!r} (rank {rank}) overruns the file's "
                    f"{len(blob) - off} remaining bytes"
                )
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(dims)
            off += 8 * count
            tensors[name] = arr.astype(np.float64)
    except (struct.error, UnicodeDecodeError, ValueError, OverflowError) as e:
        raise CorruptCheckpoint(f"{path}: truncated or corrupt ({e})") from e
    return meta, tensors


def require(path, table, key, convert=None):
    """``table[key]`` of a container read from ``path``, passed through
    ``convert`` if given; a missing key or a value that does not convert is
    CorruptCheckpoint naming the path and the key."""
    if key not in table:
        raise CorruptCheckpoint(f"{path}: checkpoint has no {key!r}")
    if convert is None:
        return table[key]
    try:
        return convert(table[key])
    except ValueError:
        raise CorruptCheckpoint(
            f"{path}: checkpoint meta {key!r} is not a valid {convert.__name__}: {table[key]!r}"
        ) from None
