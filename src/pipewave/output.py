"""CSV emission shared by both solvers.

Probe files carry the header ``t_s,A_m2,Q_m3s,u_ms,rho_ratio,piezo_m`` and
snapshot files ``x_m,A_m2,Q_m3s,u_ms,rho_ratio,piezo_m``; numbers are printed
with 17 significant digits so that two runs of the same configuration can be
compared byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

PROBE_HEADER = "t_s,A_m2,Q_m3s,u_ms,rho_ratio,piezo_m"
SNAPSHOT_HEADER = "x_m,A_m2,Q_m3s,u_ms,rho_ratio,piezo_m"


_CHUNK_ROWS = 512     # rows formatted per write: bounded memory, few calls


def write_rows_csv(path, header, rows):
    """Write ``header`` and one line per row, each value as
    ``format(float(v), ".17g")``.  The rows are formatted a chunk at a time
    with one %-template, which gives the same bytes."""
    rows = np.asarray(rows, dtype=float)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        if rows.size == 0:
            return
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


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


def read_probe_csv(path):
    """Probe file back as (t, A, Q, u, rho_ratio, piezo) arrays."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return tuple(data[:, k] for k in range(6))
