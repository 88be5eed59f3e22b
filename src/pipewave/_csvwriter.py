"""Format float64 rows as CSV text; run as a script, the CSV writer process.

``output.write_rows_csv`` calls :func:`write_csv` in process.  As a script
(``python -I -S _csvwriter.py``, started by ``output.CsvWriter``) the module
reads frames from its stdin until end of file and writes one file per frame.
A frame is ``FRAME`` (path bytes, header bytes, column count, row bytes)
followed by the path (``os.fsencode``), the UTF-8 header and the raw float64
row values in native byte order.  The first file that cannot be written ends
the process with status 1 and a message naming it on stderr.

The module imports only the standard library, so the writer process starts
without numpy or the package.
"""

import os
import struct
import sys
from array import array

FRAME = struct.Struct("=QQQQ")
_CHUNK_ROWS = 512     # rows formatted per write: bounded memory, few calls


def write_csv(path, header, columns, data):
    """Write ``header`` and one line per row of ``columns`` values taken from
    ``data``, raw float64 bytes in row order.  Each value is printed as
    ``format(v, ".17g")``; the rows are formatted a chunk at a time with one
    %-template, which gives the same bytes."""
    values = array("d")
    values.frombytes(data)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        if not values:
            return
        line = ",".join(["%.17g"] * columns) + "\n"
        chunk = _CHUNK_ROWS * columns
        for start in range(0, len(values), chunk):
            part = values[start:start + chunk]
            fh.write((line * (len(part) // columns)) % tuple(part))


def _truncated():
    sys.stderr.write("truncated frame on the CSV writer's input\n")
    return 1


def main(stream):
    """Write the file of every frame read from ``stream``; returns the exit
    status."""
    while head := stream.read(FRAME.size):
        if len(head) != FRAME.size:
            return _truncated()
        path_len, header_len, columns, data_len = FRAME.unpack(head)
        size = path_len + header_len + data_len
        body = memoryview(stream.read(size))
        if len(body) != size:
            return _truncated()
        path = os.fsdecode(bytes(body[:path_len]))
        header = str(body[path_len:path_len + header_len], "utf-8")
        try:
            write_csv(path, header, columns, body[path_len + header_len:])
        except OSError as exc:
            sys.stderr.write(f"cannot write {path}: {exc}\n")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.stdin.buffer))
