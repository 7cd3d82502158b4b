"""Multiplication tables for small built-in groups and their default generators.
This module is also the one that validates group tables: :func:`check_table`.

Element numbering conventions (documented because Cayley generators are given
as element indices):

* cyclic ``z<n>``: element ``i`` is the residue ``i``
* symmetric ``s<k>``: elements are the permutations of ``0..k-1`` in
  lexicographic order of their image tuples; index 0 is the identity
* dihedral ``d<n>``: element ``i + n*j`` is ``r^i * f^j`` with rotation ``r``
  and flip ``f`` (``f r f = r^-1``), so indices ``0..n-1`` are rotations
* direct products: ``(a, b) -> a * |B| + b``
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import InvalidTable


def cyclic_table(n: int) -> np.ndarray:
    i = np.arange(n)
    table = np.add.outer(i, i)  # the only n x n allocation
    return np.remainder(table, n, out=table)


def symmetric_elements(k: int) -> list[tuple[int, ...]]:
    return sorted(permutations(range(k)))


def symmetric_table(k: int) -> np.ndarray:
    """Composition table for Sym(k); product p*q acts as p after q."""
    elems = np.array(symmetric_elements(k), dtype=np.int64)
    weights = k ** np.arange(k - 1, -1, -1)
    codes = elems @ weights  # base-k codes ascend in lexicographic order
    table = np.empty((len(elems), len(elems)), dtype=np.int64)
    for i, p in enumerate(elems):
        table[i] = np.searchsorted(codes, p[elems] @ weights)
    return table


def dihedral_table(n: int) -> np.ndarray:
    """Dihedral group of order 2n; see the module docstring for numbering."""
    a = np.arange(2 * n)
    i, j = a % n, a // n
    sign = 1 - 2 * j  # r^i f^j * r^i' = r^(i + sign * i') f^j
    return (i[:, None] + sign[:, None] * i) % n + n * ((j[:, None] + j) % 2)


def direct_product_table(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    # ((a1,b1)*(a2,b2)) encoded blockwise: axes (a1, b1, a2, b2)
    na, nb = ta.shape[0], tb.shape[0]
    return (ta[:, None, :, None] * nb + tb[None, :, None, :]).reshape(na * nb, na * nb)


def is_associative(table: np.ndarray, identity: int) -> bool:
    """Light's test: is this square table on ``0..m-1`` with the two-sided
    identity ``identity`` associative?  By Light's lemma (Clifford and
    Preston, The Algebraic Theory of Semigroups I, 1961) the g with
    (a*g)*b = a*(g*b) for all a, b are closed under the product, so it
    suffices that a generating set passes: the smallest element not yet
    generated is tested, and the generated set (first the identity) is closed
    under right multiplication by those that passed.  On a latin square each
    pass at least doubles the generated subloop H, as H*g is disjoint from H:
    at most log2 m + 1 checks of O(m^2) each instead of O(m^3)."""
    m = table.shape[0]
    rows_per_block = max(1, (1 << 16) // m)  # two 512 KB int64 blocks, in cache
    generated = np.arange(m) == identity
    passed = []
    while not generated.all():
        g = int(np.argmin(generated))
        blocks = (table[lo : lo + rows_per_block] for lo in range(0, m, rows_per_block))
        if not all(np.array_equal(table[rows[:, g]], rows.take(table[g], axis=1)) for rows in blocks):
            return False
        passed.append(g)
        generated[g] = True
        frontier = np.flatnonzero(generated)
        while frontier.size:
            products = table[frontier[:, None], passed].ravel()
            frontier = products[~generated[products]]
            generated[frontier] = True
    return True


def check_table(table: np.ndarray) -> tuple[int, np.ndarray]:
    """Validate a group table; return (identity element, inverse array)."""
    m = table.shape[0]
    if table.ndim != 2 or table.shape != (m, m):
        raise InvalidTable("multiplication table must be square")
    if m == 0:
        raise InvalidTable("empty table")
    if table.min() < 0 or table.max() >= m:
        raise InvalidTable("table entries out of range")
    for i in range(m):
        if np.bincount(table[i], minlength=m).max() > 1 or np.bincount(table[:, i], minlength=m).max() > 1:
            raise InvalidTable("table is not a latin square")
    identity = int(np.flatnonzero(table[:, 0] == 0)[0])  # the one candidate in a latin square
    ident_row = np.arange(m)
    if not (np.array_equal(table[identity], ident_row) and np.array_equal(table[:, identity], ident_row)):
        raise InvalidTable("table has no two-sided identity")
    inv = np.flatnonzero(table == identity) % m  # each row's one right inverse
    if not np.array_equal(table[inv, ident_row], np.full(m, identity)):
        raise InvalidTable("table has an element without a two-sided inverse")
    if not is_associative(table, identity):
        raise InvalidTable("table is not associative")
    return identity, inv


def element_index_sym(k: int, perm: tuple[int, ...]) -> int:
    return symmetric_elements(k).index(tuple(perm))


def _atom(name: str) -> tuple[np.ndarray, list[int]]:
    kind, arg = name[:1], name[1:]
    if kind not in "zsd" or not arg.isdigit():
        raise ValueError(f"unknown group name {name!r}")
    n = int(arg)
    if n < 1:
        raise ValueError(f"group size in {name!r} must be >= 1")
    if kind == "z":
        table = cyclic_table(n)
        gens = sorted({1, n - 1}) if n > 1 else []
    elif kind == "s":
        if n > 8:
            raise ValueError("symmetric groups above s8 are too large to tabulate")
        table = symmetric_table(n)
        if n < 2:
            gens = []
        else:
            swap = element_index_sym(n, (1, 0) + tuple(range(2, n)))
            cyc = element_index_sym(n, tuple(range(1, n)) + (0,))
            cyc_inverse = element_index_sym(n, (n - 1,) + tuple(range(n - 1)))
            gens = sorted({swap, cyc, cyc_inverse})
    else:
        table = dihedral_table(n)
        gens = sorted({n} | ({1, n - 1} if n > 1 else set()))  # flip plus rotation pair
    return table, gens


def preset_group(name: str) -> tuple[np.ndarray, list[int]]:
    """Table and default inverse-closed generators for ``z<n>``, ``s<k>``,
    ``d<n>`` or products like ``s4xz5``.

    All presets (and their products) put the identity at element index 0;
    product defaults embed each factor's generators alongside the identity of
    the other factors.
    """
    name = name.strip().lower()
    if "x" in name:
        left, _, right = name.partition("x")
        ta, ga = preset_group(left)
        tb, gb = preset_group(right)
        nb = tb.shape[0]
        return direct_product_table(ta, tb), [a * nb for a in ga] + list(gb)
    return _atom(name)
