"""Build and read a TabularDataset as rows of raw cell values.

A row holds a float per numeric column, a category value per categorical
column and None for a missing cell.  `encode` turns such rows into the
dataset's matrix (None -> NaN, category -> its index) and `decode` turns
the matrix back.  An undeclared category encodes as an out-of-range index,
and a cell past the last column is kept, so the dataset's own checks see
both.
"""

import numpy as np

from lungfuse import tabular as tb


def encode(columns, rows, labels, ids=None) -> tb.TabularDataset:
    def cell(ci, v):
        if v is None:
            return np.nan
        if ci < len(columns) and columns[ci].kind == "categorical":
            cats = columns[ci].categories
            return cats.index(v) if v in cats else len(cats)
        return v

    values = np.array([[cell(ci, v) for ci, v in enumerate(row)] for row in rows], dtype=float)
    return tb.TabularDataset(columns, values, labels, ids)


def decode(ds: tb.TabularDataset) -> list:
    def cell(col, v):
        if np.isnan(v):
            return None
        return col.categories[int(v)] if col.kind == "categorical" else float(v)

    return [[cell(col, v) for col, v in zip(ds.columns, row)] for row in ds.values]
