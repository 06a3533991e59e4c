"""Abstract syntax for twig queries.

A query is a rooted tree of :class:`TwigNode` objects.  Each edge carries an
:class:`Axis` (child or descendant); the query as a whole carries a *root
axis* describing how its root attaches to the document root (``/`` = the
root of the pattern **is** the document root element, ``//`` = the root of
the pattern may match any node).  Exactly one node is *selected* — its
matches form the query answer.

Nodes are mutable (the learner rewrites patterns heavily); queries expose
``copy()`` that preserves which node is selected.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from typing import Optional

WILDCARD = "*"


class Axis(enum.Enum):
    """Edge type: ``CHILD`` = parent/child, ``DESC`` = proper descendant."""

    CHILD = "/"
    DESC = "//"

    def __str__(self) -> str:
        return self.value


def combine_axes(a: "Axis", b: "Axis") -> "Axis":
    """The most specific axis implied by both ``a`` and ``b``.

    Used by the product construction: a child edge in both patterns stays a
    child edge; any descendant involvement generalises to descendant.
    """
    if a is Axis.CHILD and b is Axis.CHILD:
        return Axis.CHILD
    return Axis.DESC


class TwigNode:
    """A pattern node: a label (or ``*``) plus axis-labelled child branches."""

    __slots__ = ("label", "branches")

    def __init__(
        self,
        label: str,
        branches: Optional[list[tuple[Axis, "TwigNode"]]] = None,
    ) -> None:
        if not label:
            raise ValueError("twig node label must be non-empty (use '*')")
        self.label = label
        self.branches: list[tuple[Axis, TwigNode]] = list(branches or [])

    @property
    def is_wildcard(self) -> bool:
        return self.label == WILDCARD

    def add(self, axis: Axis, child: "TwigNode") -> "TwigNode":
        self.branches.append((axis, child))
        return child

    def iter(self) -> Iterator["TwigNode"]:
        """This node and all descendants, pre-order."""
        stack = [self]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(child for _, child in reversed(current.branches))

    def size(self) -> int:
        return sum(1 for _ in self.iter())

    def depth(self) -> int:
        if not self.branches:
            return 1
        return 1 + max(child.depth() for _, child in self.branches)

    def contains_node(self, target: "TwigNode") -> bool:
        return any(n is target for n in self.iter())

    def copy_with_map(self) -> tuple["TwigNode", dict[int, "TwigNode"]]:
        """Deep copy; also return a map ``id(original) -> copy``."""
        mapping: dict[int, TwigNode] = {}

        def go(n: TwigNode) -> TwigNode:
            clone = TwigNode(n.label)
            mapping[id(n)] = clone
            clone.branches = [(axis, go(child)) for axis, child in n.branches]
            return clone

        return go(self), mapping

    def canonical(self) -> tuple:
        """Hashable form, invariant under branch permutation."""
        forms = sorted((axis.value, child.canonical())
                       for axis, child in self.branches)
        return (self.label, tuple(forms))

    def __repr__(self) -> str:
        return f"<TwigNode {self.label!r} {len(self.branches)} branches>"


class TwigQuery:
    """A unary twig query: root axis, pattern root, and selected node."""

    __slots__ = ("root_axis", "root", "selected")

    def __init__(self, root_axis: Axis, root: TwigNode,
                 selected: Optional[TwigNode] = None) -> None:
        self.root_axis = root_axis
        self.root = root
        self.selected = selected if selected is not None else root
        if not root.contains_node(self.selected):
            raise ValueError("selected node must belong to the query pattern")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[TwigNode]:
        return self.root.iter()

    def size(self) -> int:
        return self.root.size()

    def depth(self) -> int:
        return self.root.depth()

    def spine(self) -> list[tuple[Axis, TwigNode]]:
        """The path from the root to the selected node.

        Returns ``[(root_axis, root), (axis1, n1), ..., (axisk, selected)]``.
        A depth-first walk that keeps the current path on a stack and
        stops at the selected node.
        """
        target = self.selected
        path = [(self.root_axis, self.root)]
        if self.root is target:
            return path
        pending = [iter(self.root.branches)]
        while pending:
            for axis, child in pending[-1]:
                path.append((axis, child))
                if child is target:
                    return path
                pending.append(iter(child.branches))
                break
            else:
                pending.pop()
                path.pop()
        raise ValueError("selected node must belong to the query pattern")

    def copy(self) -> "TwigQuery":
        root_copy, mapping = self.root.copy_with_map()
        return TwigQuery(self.root_axis, root_copy, mapping[id(self.selected)])

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def canonical(self) -> tuple:
        """Hashable form for syntactic equality (selected node marked)."""

        def go(n: TwigNode) -> tuple:
            forms = sorted((axis.value, go(child)) for axis, child in n.branches)
            return (n.label, n is self.selected, tuple(forms))

        return (self.root_axis.value, go(self.root))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwigQuery):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_xpath(self) -> str:
        """Concrete syntax with the selected node as the main-path target.

        Branches off the root-to-selected spine render as ``[...]`` filters;
        inside a filter, a single-branch chain renders as a path
        (``[a/b//c]``) and multiple branches render as nested filters.
        """
        spine_ids = {id(n) for _, n in self.spine()}

        def render_filter_body(axis: Axis, n: TwigNode) -> str:
            prefix = "" if axis is Axis.CHILD else ".//"
            return f"[{prefix}{render_plain(n)}]"

        def render_plain(n: TwigNode) -> str:
            # Rendering for nodes strictly inside filters (no spine here).
            if len(n.branches) == 1:
                axis, child = n.branches[0]
                return f"{n.label}{axis.value}{render_plain(child)}"
            return n.label + "".join(
                render_filter_body(axis, child) for axis, child in n.branches
            )

        def render_spine(n: TwigNode) -> str:
            parts = [n.label]
            main_branch: tuple[Axis, TwigNode] | None = None
            for axis, child in n.branches:
                if id(child) in spine_ids and main_branch is None:
                    main_branch = (axis, child)
                else:
                    parts.append(render_filter_body(axis, child))
            if main_branch is not None:
                axis, child = main_branch
                parts.append(f"{axis.value}{render_spine(child)}")
            return "".join(parts)

        return f"{self.root_axis.value}{render_spine(self.root)}"

    def __repr__(self) -> str:
        return f"TwigQuery({self.to_xpath()!r})"


def twig(label: str, *branches: tuple[Axis, TwigNode]) -> TwigNode:
    """Convenience builder mirroring :func:`repro.xmltree.node`."""
    return TwigNode(label, list(branches))
