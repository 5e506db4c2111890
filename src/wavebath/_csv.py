"""The one CSV layout of wavebath's artifacts.

A header line, then one comma-separated row per sample with every value
printed as %.17g, which reads back as the same double. Rows are
formatted here rather than by np.savetxt: savetxt's handle wrapper
refers to itself, so every in-memory buffer it wrote to stays alive
until the cycle collector runs.
"""

import numpy as np


def write_csv(fh, header, columns):
    """Write `columns` (1-d or 2-d arrays, one row per sample) under `header`."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    fh.write(header + "\n")
    fh.writelines(row % tuple(values) for values in table)
