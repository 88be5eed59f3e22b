"""CSV emission shared by both solvers.

Probe files carry the header ``t_s,A_m2,Q_m3s,u_ms,rho_ratio,piezo_m`` and
snapshot files ``x_m,A_m2,Q_m3s,u_ms,rho_ratio,piezo_m``; numbers are printed
with 17 significant digits so that two runs of the same configuration can be
compared byte for byte.  Runs hand their files to a :class:`CsvWriter`,
whose child process formats and writes them while the caller computes;
:func:`write_rows_csv` writes one file with the same bytes in process.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from . import _csvwriter

PROBE_HEADER = "t_s,A_m2,Q_m3s,u_ms,rho_ratio,piezo_m"
SNAPSHOT_HEADER = "x_m,A_m2,Q_m3s,u_ms,rho_ratio,piezo_m"


def write_rows_csv(path, header, rows):
    """Write ``header`` and one line per row, each value as
    ``format(float(v), ".17g")``, in this process.  This is the routine the
    writer process runs for every file a :class:`CsvWriter` is handed."""
    rows = np.asarray(rows, dtype=float)
    _csvwriter.write_csv(path, header, rows.shape[1] if rows.size else 0, rows.tobytes())


class CsvWriter:
    """CSV files written by a child process, so that formatting them
    overlaps the caller's work.

    ``write(path, header, rows)`` hands one file over through the child's
    stdin; the files are written in order, with the bytes of
    :func:`write_rows_csv`.  A write blocks while the pipe is full, so at
    most a pipe's worth of rows waits in memory.  ``close()`` (or leaving
    the ``with`` block) waits until every file handed over is on disk.  A
    file the child cannot write raises ``OSError`` naming it, at the next
    ``write`` or at ``close``; when the ``with`` block is left by another
    exception, that exception propagates once the child has exited.
    """

    def __init__(self):
        # imported here: runs that write no file skip its start-up cost
        import subprocess
        self.process = subprocess.Popen(
            [sys.executable, "-I", "-S", _csvwriter.__file__],
            stdin=subprocess.PIPE, stderr=subprocess.PIPE)

    def write(self, path, header, rows):
        """Hand one file over; ``rows`` as for :func:`write_rows_csv`."""
        rows = np.ascontiguousarray(rows, dtype=float)
        path, header = os.fsencode(path), header.encode()
        columns = rows.shape[1] if rows.size else 0
        try:
            self.process.stdin.write(_csvwriter.FRAME.pack(
                len(path), len(header), columns, rows.nbytes) + path + header)
            self.process.stdin.write(rows)
            self.process.stdin.flush()
        except BrokenPipeError:
            self.close()            # raises the child's error
            raise

    def _wait(self):
        """Close the pipe and wait for the child; returns its exit status."""
        if self.process.returncode is None:
            self._stderr = self.process.communicate()[1]
        return self.process.returncode

    def close(self):
        """Wait until every file handed over is written; raise ``OSError``
        with the child's message if one could not be."""
        status = self._wait()
        if status:
            raise OSError(self._stderr.decode(errors="replace").strip()
                          or f"the CSV writer process exited with status {status}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._wait()


def frame_rows(lead, area, discharge, section, z, diameter, c, g):
    """Rows (lead, A, Q, u, rho/rho0, piezo) for one recorded frame; ``lead``
    is the time column for probes or the x column for snapshots."""
    area = np.asarray(area, dtype=float)
    discharge = np.asarray(discharge, dtype=float)
    lead = np.broadcast_to(np.asarray(lead, dtype=float), area.shape)
    z = np.broadcast_to(np.asarray(z, dtype=float), area.shape)
    u = discharge / area
    rho = area / section
    piezo = z + diameter + c * c * (rho - 1.0) / g
    return np.column_stack([lead, area, discharge, u, rho, piezo])
