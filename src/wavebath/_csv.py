"""The one CSV layout of wavebath's artifacts.

A header line, then one comma-separated row per sample with every value
printed as %.17g, which reads back as the same double. Rows are
formatted here rather than by np.savetxt: savetxt's handle wrapper
refers to itself, so every in-memory buffer it wrote to stays alive
until the cycle collector runs.
"""

import numpy as np

# Rows formatted by one % operation. One operation per block rather than
# per row is 1.7 times faster on a 20000 x 5 table; a fixed block bounds
# the text and Python floats held at once, whatever the table's length.
BLOCK_ROWS = 1024


def write_csv(fh, header, columns):
    """Write `columns` (1-d or 2-d arrays, one row per sample) under `header`."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    fh.write(header + "\n")
    for lo in range(0, table.shape[0], BLOCK_ROWS):
        block = table[lo:lo + BLOCK_ROWS]
        fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
