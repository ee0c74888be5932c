"""NPN orbits of total Boolean functions on n <= 4 positions.

A truth table is an int whose bit i is f(x) for the input x = format(i, "0nb")
(position 0 is the most significant bit of i).  Every measure the benchmark
checks is invariant under permuting positions, flipping 0/1 at a position
and negating the output, so one frozen reference value per orbit checks every
member of the orbit, whatever the seed picked.
"""

from itertools import permutations


def _input_maps(n):
    """Each (permutation, flip mask) as a list: new index -> old index."""
    maps = []
    for perm in permutations(range(n)):
        for flip in range(2 ** n):
            table = []
            for i in range(2 ** n):
                bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
                j = 0
                for k in range(n):
                    j = (j << 1) | (bits[perm[k]] ^ ((flip >> (n - 1 - k)) & 1))
                table.append(j)
            maps.append(table)
    return maps


def transforms(n):
    """Every NPN transform of n-bit tables, as (input map, output negation)."""
    return [(m, neg) for m in _input_maps(n) for neg in (0, 1)]


def apply(n, table, transform):
    mapping, neg = transform
    out = 0
    for i, j in enumerate(mapping):
        out |= (((table >> j) & 1) ^ neg) << i
    return out


def orbit_ids(n):
    """List of length 2**(2**n): the orbit id of every n-bit table.

    Orbits are numbered in the order of their smallest table.
    """
    size = 2 ** (2 ** n)
    ids = [-1] * size
    maps = transforms(n)
    next_id = 0
    for table in range(size):
        if ids[table] != -1:
            continue
        for t in maps:
            ids[apply(n, table, t)] = next_id
        next_id += 1
    return ids


def literal(n, table):
    return f"tt:{n}:" + "".join(str((table >> i) & 1) for i in range(2 ** n))


def table_of(lit):
    _, n, cells = lit.split(":")
    return int(n), sum(int(c) << i for i, c in enumerate(cells))
