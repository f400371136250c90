"""Comparison helpers shared by the test modules."""

import numpy as np


def models_equal(a, b):
    """Bitwise equality of autoencoder weights and phase coefficients."""
    ae_a, ae_b = a.autoencoder, b.autoencoder
    if not all(
        np.array_equal(getattr(ae_a, n), getattr(ae_b, n))
        for n in ("W_enc", "b_enc", "W_dec", "b_dec")
    ):
        return False
    if a.phase_labels != b.phase_labels:
        return False
    for pa, pb in zip(a.phases, b.phases):
        if not np.array_equal(pa.coefficients.Xi, pb.coefficients.Xi):
            return False
        if pa.coefficients.library != pb.coefficients.library:
            return False
    return True


def set_cell(path, column, row, value):
    """Rewrite one cell of a jump file, given by column name and data row."""
    header, *rows = path.read_text().splitlines()
    cells = rows[row].split(",")
    cells[header.split(",").index(column)] = value
    rows[row] = ",".join(cells)
    path.write_text("\n".join([header] + rows) + "\n")
