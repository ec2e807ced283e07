"""Compatibility names for partitioned ("super") matrices.

A partitioned matrix is a `Matrix` whose `partition` field is set (see
matrix); every name here is an alias for, or a one-line use of, that
single type and its one literal/JSON path.
"""

from __future__ import annotations

from .matrix import (
    Matrix,
    PartitionType,
    matrix_from_json,
    matrix_to_json,
    natural_inverse,
    ones,
    parse_literal,
    render_matrix,
)


class SuperMatrix:
    """`SuperMatrix(base, ptype)` is the `Matrix` `base` cut by `ptype`."""

    def __new__(cls, base: Matrix, ptype: PartitionType) -> Matrix:
        return base.with_partition(ptype)

    from_rows = Matrix.from_rows
    # the arithmetic is Matrix's own; named here for code that looks it up
    __add__ = Matrix.__add__
    __sub__ = Matrix.__sub__
    __mul__ = Matrix.__mul__
    __neg__ = Matrix.__neg__


def super_ones(ptype: PartitionType, domain) -> Matrix:
    return ones(ptype.shape, domain).with_partition(ptype)


parse_super = parse_literal
render_super = render_matrix
super_to_json = matrix_to_json
super_from_json = matrix_from_json
super_inverse = natural_inverse
