"""The socle by one stacked rank per degree, with no linear-form certificate:
an oracle for the tests, which the package itself never needs."""

from ezdlab.exactmat import rank
from ezdlab.ezd import mult_map
from ezdlab.polyring import variable


def socle_dims_by_stacked_rank(ring):
    """dim R_d minus the rank of the variables' maps from R_d stacked, for
    every degree d up to the top degree."""
    dims = []
    for d in range(ring.top_degree + 1):
        rows = []
        for i in range(ring.nvars):
            m = mult_map(ring, variable(ring.nvars, i), d)
            rows.extend(m.row(r) for r in range(m.rows))
        dims.append(ring.dim(d) - rank(rows))
    return tuple(dims)
