"""Multiplication tables for small built-in groups and their default generators.

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
    m = 2 * n
    table = np.empty((m, m), dtype=np.int64)
    for a in range(m):
        i1, j1 = a % n, a // n
        for b in range(m):
            i2, j2 = b % n, b // n
            i = (i1 + i2) % n if j1 == 0 else (i1 - i2) % n
            table[a, b] = i + n * ((j1 + j2) % 2)
    return table


def direct_product_table(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    na, nb = ta.shape[0], tb.shape[0]
    a = np.arange(na)
    b = np.arange(nb)
    # ((a1,b1)*(a2,b2)) encoded blockwise
    out = np.empty((na * nb, na * nb), dtype=np.int64)
    for a1 in range(na):
        for b1 in range(nb):
            out[a1 * nb + b1] = (ta[a1][a][:, None] * nb + tb[b1][b][None, :]).ravel()
    return out


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
