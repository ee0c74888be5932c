"""Decision trees over query strings.

A tree queries one position per internal node and branches on the symbol it
sees; children exist only for symbols some consistent domain input can show,
so walking any input from the tree's build domain always reaches a leaf.
"""

from __future__ import annotations

from .core import SYMBOL_RANK


class Leaf:
    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return f"Leaf({self.label!r})"


class Node:
    __slots__ = ("position", "children")

    def __init__(self, position, children):
        self.position = position
        self.children = children

    def __repr__(self):
        return f"Node({self.position}, {sorted(self.children)})"


def walk(tree, x):
    """Follow x down the tree; returns (label, queries used)."""
    cost = 0
    node = tree
    while isinstance(node, Node):
        symbol = x[node.position]
        try:
            node = node.children[symbol]
        except KeyError:
            raise ValueError(
                f"input {x!r} is outside the tree's build domain"
            ) from None
        cost += 1
    return node.label, cost


def tree_depth(tree):
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(tree_depth(child) for child in tree.children.values())


def tree_to_obj(tree):
    """JSON-ready nested form with deterministic child order."""
    if isinstance(tree, Leaf):
        return {"leaf": tree.label}
    children = {
        symbol: tree_to_obj(tree.children[symbol])
        for symbol in sorted(tree.children, key=SYMBOL_RANK.get)
    }
    return {"query": tree.position, "children": children}
