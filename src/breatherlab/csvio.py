"""CSV files: one writer for every table the lab produces, one reader for lattice states.

Floats are written at full ``repr`` precision, so a value read back with
``float`` is the value that was written, bit for bit.
"""

from __future__ import annotations

import csv
import os

from .lattice import LatticeState


def write_table(path, header, rows, comment: str | None = None):
    """Write ``header`` and ``rows`` to ``path``, creating its directory.

    ``comment``, when given, goes first as one ``# comment`` line.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)


def read_state(path) -> LatticeState:
    """The state in a ``k, p_k, q_k`` table; ``#`` lines are skipped.

    The state holds site 0 exactly when the table has a row for it.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if rows[0][:3] != ["k", "p_k", "q_k"]:
        raise ValueError(f"unexpected CSV header {rows[0]}")
    ks = [int(row[0]) for row in rows[1:]]
    state = LatticeState.zeros(max(abs(k) for k in ks), include_site0=0 in ks)
    idx = [state.index(k) for k in ks]
    state.p[idx] = [float(row[1]) for row in rows[1:]]
    state.q[idx] = [float(row[2]) for row in rows[1:]]
    return state
