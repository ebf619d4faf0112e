"""The communication library: the "standard cells" of topology synthesis.

Section 3 of the paper draws an analogy with logic synthesis: the input
communication pattern plays the role of an uncommitted logic function and the
communication primitives play the role of standard cells.  The library
collects the primitives (gossip, broadcast, paths and loops of various sizes),
assigns them the numeric IDs that appear in the decomposition listings of
Section 5, and defines the order in which the branch-and-bound algorithm
tries them.

The default library mirrors the paper's choices: minimum gossip and broadcast
graphs that have efficient 2-D implementations plus paths and loops of
various sizes.  Larger primitives are deliberately excluded because (a) they
would need more wiring resources than the metal layers allow and (b) they are
increasingly unlikely to occur in real application graphs (Section 3).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.core.isomorphism import PatternPlan
from repro.core.primitives import (
    CommunicationPrimitive,
    make_broadcast_primitive,
    make_gossip_primitive,
    make_loop_primitive,
    make_multicast_primitive,
    make_path_primitive,
)
from repro.exceptions import LibraryError


@dataclass
class LibraryEntry:
    """A primitive together with its position (ID) in the library."""

    primitive_id: int
    primitive: CommunicationPrimitive

    @property
    def name(self) -> str:
        """The primitive's display name."""
        return self.primitive.name

    @property
    def size(self) -> int:
        """Number of nodes of the primitive."""
        return self.primitive.size

    @cached_property
    def pattern_plan(self) -> PatternPlan:
        """The pattern half of a VF2 search for this primitive, built once.

        Every query of the primitive binds it to its own target, so an
        entry's representation graph must not change once it is read.
        """
        return PatternPlan(self.primitive.representation)


class CommunicationLibrary:
    """Ordered collection of communication primitives.

    The iteration order is the order the decomposition algorithm tries
    matchings in (outermost loop of the pseudo-code in Figure 3).  By default
    entries are ordered the way they were added; :meth:`sorted_for_search`
    returns a copy ordered largest-requirement-first, which makes the greedy
    first branch of the search capture as much structure as possible.
    """

    def __init__(self, name: str = "library") -> None:
        self.name = name
        self._entries: list[LibraryEntry] = []
        self._by_name: dict[str, LibraryEntry] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, primitive: CommunicationPrimitive) -> LibraryEntry:
        """Validate and append a primitive; returns the created entry."""
        if primitive.name in self._by_name:
            raise LibraryError(f"primitive {primitive.name!r} is already in the library")
        primitive.validate()
        entry = LibraryEntry(primitive_id=len(self._entries) + 1, primitive=primitive)
        primitive.primitive_id = entry.primitive_id
        self._entries.append(entry)
        self._by_name[primitive.name] = entry
        return entry

    def extend(self, primitives: Iterable[CommunicationPrimitive]) -> None:
        """Add several primitives in order."""
        for primitive in primitives:
            self.add(primitive)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LibraryEntry]:
        return iter(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def entries(self) -> list[LibraryEntry]:
        """All entries in insertion (ID) order."""
        return list(self._entries)

    def primitives(self) -> list[CommunicationPrimitive]:
        """All primitives in insertion (ID) order."""
        return [entry.primitive for entry in self._entries]

    def by_name(self, name: str) -> CommunicationPrimitive:
        """Look a primitive up by name (raises :class:`LibraryError`)."""
        try:
            return self._by_name[name].primitive
        except KeyError as error:
            raise LibraryError(f"no primitive named {name!r} in library {self.name!r}") from error

    # ------------------------------------------------------------------
    # search ordering / filtering
    # ------------------------------------------------------------------
    def sorted_for_search(self) -> list[LibraryEntry]:
        """Entries ordered by decreasing requirement-edge count (ties: id).

        Trying dense primitives (gossip) before sparse ones (paths) lets the
        first depth-first branch absorb as many application edges as possible,
        which both tightens the branch-and-bound upper bound early and mirrors
        the decomposition listings of the paper (MGG4 matches come first).
        """
        return sorted(
            self._entries,
            key=lambda entry: (-entry.primitive.num_requirement_edges, entry.primitive_id),
        )

    def max_diameter(self) -> int:
        """Largest internal-route diameter over the library.

        Section 4.3 observes that any decomposition bounds the maximum hop
        count between communicating nodes by the largest diameter in the
        library; this accessor lets callers verify that property.
        """
        return max((entry.primitive.diameter() for entry in self._entries), default=0)

    def describe(self) -> str:
        """Multi-line human-readable summary (used by examples and reports)."""
        lines = [f"Communication library {self.name!r} ({len(self)} primitives)"]
        for entry in self._entries:
            primitive = entry.primitive
            lines.append(
                f"  [{entry.primitive_id:2d}] {primitive.name:<8s} kind={primitive.kind.value:<12s} "
                f"nodes={primitive.size:2d} req_edges={primitive.num_requirement_edges:2d} "
                f"impl_edges={primitive.num_implementation_edges:2d} rounds={primitive.num_rounds}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# default library builders
# ----------------------------------------------------------------------
def default_library(
    max_gossip_size: int = 4,
    broadcast_sizes: Sequence[int] = (3, 4),
    loop_sizes: Sequence[int] = (4, 5, 6),
    path_sizes: Sequence[int] = (3, 4),
    include_pair_gossip: bool = True,
    name: str = "default",
) -> CommunicationLibrary:
    """The library used throughout the paper's experiments.

    ID 1 is the gossip graph MGG4, ID 2 the one-to-four broadcast G1to4 and
    ID 3 the one-to-three broadcast G1to3, matching the decomposition
    listings in Section 5 (``1: MGG4``, ``2: G124``, ``3: G123``); loops and
    paths of various sizes follow.
    """
    library = CommunicationLibrary(name=name)
    gossip_size = 4
    while gossip_size <= max_gossip_size:
        library.add(make_gossip_primitive(gossip_size))
        gossip_size *= 2
    for receivers in sorted(broadcast_sizes, reverse=True):
        library.add(make_broadcast_primitive(receivers))
    for size in loop_sizes:
        library.add(make_loop_primitive(size))
    for size in path_sizes:
        library.add(make_path_primitive(size))
    if include_pair_gossip:
        library.add(make_gossip_primitive(2, name="MGG2"))
    return library


def aes_library(name: str = "aes") -> CommunicationLibrary:
    """The compact library sufficient for the AES experiment of Section 5.2.

    The AES application graph decomposes into column gossips (MGG4) and row
    loops (L4); the broadcast primitives are kept so the search space matches
    the paper's setup.
    """
    return default_library(
        max_gossip_size=4,
        broadcast_sizes=(3, 4),
        loop_sizes=(4,),
        path_sizes=(3,),
        include_pair_gossip=False,
        name=name,
    )


def extended_library(name: str = "extended") -> CommunicationLibrary:
    """A richer library (gossip up to 8, multicast, longer loops/paths).

    Used by the ablation benchmark that studies how library content affects
    decomposition quality and run time.
    """
    library = default_library(
        max_gossip_size=8,
        broadcast_sizes=(3, 4, 7),
        loop_sizes=(4, 5, 6, 8),
        path_sizes=(3, 4, 5),
        name=name,
    )
    library.add(make_multicast_primitive(2))
    library.add(make_multicast_primitive(5))
    return library


def minimal_library(name: str = "minimal") -> CommunicationLibrary:
    """Paths and pair-gossip only — the degenerate library for ablations."""
    library = CommunicationLibrary(name=name)
    library.add(make_path_primitive(3))
    library.add(make_path_primitive(2, name="P2"))
    library.add(make_gossip_primitive(2, name="MGG2"))
    return library
