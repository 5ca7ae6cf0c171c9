"""Cluster topology and DP×TP×PP(×SP) rank layout.

Mirrors the two testbeds of the paper plus the multi-node pre-training
cluster:

- ``p3_8xlarge()`` — AWS p3.8xlarge: 4×V100 with NVLink, 10 Gbps Ethernet
  between instances.
- ``local_pcie()`` — the paper's local machine: 4×V100 on one PCIe bridge.

Rank placement follows Megatron's convention (Narayanan et al. 2021):
tensor-parallel groups are packed *inside* a node (consecutive ranks) so TP
traffic rides the fast intra-node link, sequence-parallel rings sit just
outside them, pipeline stages span nodes, and the data-parallel axis is
outermost — replicas live as far apart as the cluster forces them to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["LinkType", "ClusterTopology", "ParallelLayout", "TopologyError",
           "validate_grid"]


class LinkType(enum.Enum):
    """Interconnect classes with distinct bandwidth/latency regimes."""

    NVLINK = "nvlink"
    PCIE = "pcie"
    ETHERNET = "ethernet"


class TopologyError(ValueError):
    """A parallelism grid that cannot be placed: carries the offending axis.

    Raised by :func:`validate_grid` (and therefore by
    ``ModelParallelConfig`` / ``create_backend``) *before* any worker is
    spawned, so a bad dp·tp·pp·sp factorization fails with the axis named
    instead of deep inside process setup.
    """

    def __init__(self, message: str, axis: str):
        super().__init__(message)
        self.axis = axis


def validate_grid(dp: int, tp: int, pp: int, sp: int,
                  world_size: int | None = None) -> int:
    """Check a DP×TP×PP×SP grid; returns its world size.

    Each axis must be a positive built-in ``int``: the rule is
    ``type(extent) is int``, so ``True``, ``1.0`` and NumPy integer
    scalars are all rejected (callers convert with ``int()``).  If
    ``world_size`` is given the product must factor it *exactly*.
    Failures raise :class:`TopologyError` naming the offending axis.
    """
    for axis, extent in (("dp", dp), ("tp", tp), ("pp", pp), ("sp", sp)):
        if type(extent) is not int or extent <= 0:
            raise TopologyError(
                f"axis {axis}={extent!r} must be a positive integer", axis)
    product = dp * tp * pp * sp
    if world_size is not None and product != world_size:
        # Name the *first* axis that cannot divide what remains after the
        # earlier axes are peeled off — that is the one the user must fix.
        remaining = world_size
        for axis, extent in (("dp", dp), ("pp", pp), ("sp", sp), ("tp", tp)):
            if remaining % extent != 0:
                raise TopologyError(
                    f"axis {axis}={extent} does not divide the remaining "
                    f"world {remaining} (world size {world_size} != "
                    f"dp*tp*pp*sp = {product})", axis)
            remaining //= extent
        axis = "dp" if product > world_size else "tp"
        raise TopologyError(
            f"dp*tp*pp*sp = {product} must equal world size {world_size} "
            f"(offending axis: {axis})", axis)
    return product


@dataclass(frozen=True)
class ClusterTopology:
    """A homogeneous cluster of ``num_nodes`` × ``gpus_per_node`` GPUs."""

    num_nodes: int
    gpus_per_node: int
    intra_node_link: LinkType
    inter_node_link: LinkType = LinkType.ETHERNET

    def __post_init__(self):
        if self.num_nodes <= 0 or self.gpus_per_node <= 0:
            raise ValueError("node and GPU counts must be positive")

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting global ``rank``."""
        self._check_rank(rank)
        return rank // self.gpus_per_node

    def link_between(self, rank_a: int, rank_b: int) -> LinkType:
        """The link class connecting two ranks."""
        if self.node_of(rank_a) == self.node_of(rank_b):
            return self.intra_node_link
        return self.inter_node_link

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")

    # ------------------------------------------------------------------
    @staticmethod
    def p3_8xlarge(num_nodes: int = 1) -> "ClusterTopology":
        """AWS p3.8xlarge instances: 4 V100s with NVLink, 10 Gbps between nodes."""
        return ClusterTopology(num_nodes, 4, LinkType.NVLINK, LinkType.ETHERNET)

    @staticmethod
    def local_pcie() -> "ClusterTopology":
        """The paper's local server: 4 V100s behind one PCIe bridge, no NVLink."""
        return ClusterTopology(1, 4, LinkType.PCIE, LinkType.ETHERNET)


@dataclass(frozen=True)
class ParallelLayout:
    """Assignment of a DP×PP×SP×TP grid onto a cluster.

    Ranks are numbered so that the ``tp`` dimension is innermost
    (consecutive ranks form a TP group), ``sp`` next, then ``pp``, with
    ``dp`` outermost — matching Megatron's dp-major convention.  The
    historical two-axis layouts (``dp == sp == 1``) keep their exact rank
    numbering: ``rank = pp_rank*tp + tp_rank``.
    """

    topology: ClusterTopology
    tp: int
    pp: int
    dp: int = 1
    sp: int = 1

    def __post_init__(self):
        validate_grid(self.dp, self.tp, self.pp, self.sp,
                      self.topology.world_size)

    def rank(self, pp_rank: int, tp_rank: int, sp_rank: int = 0,
             dp_rank: int = 0) -> int:
        """Global rank of (dp replica, pipeline stage, sp slot, tensor rank)."""
        if (not 0 <= pp_rank < self.pp or not 0 <= tp_rank < self.tp
                or not 0 <= sp_rank < self.sp or not 0 <= dp_rank < self.dp):
            raise ValueError(
                f"coords (dp={dp_rank},pp={pp_rank},sp={sp_rank},tp={tp_rank}) "
                f"out of grid (dp={self.dp},pp={self.pp},sp={self.sp},tp={self.tp})")
        return ((dp_rank * self.pp + pp_rank) * self.sp + sp_rank) * self.tp + tp_rank

    def tp_group(self, pp_rank: int, sp_rank: int = 0, dp_rank: int = 0) -> list[int]:
        """Global ranks of one pipeline stage's TP group."""
        return [self.rank(pp_rank, t, sp_rank, dp_rank) for t in range(self.tp)]

    def sp_group(self, pp_rank: int, tp_rank: int = 0, dp_rank: int = 0) -> list[int]:
        """Global ranks of one stage's sequence-parallel ring."""
        return [self.rank(pp_rank, tp_rank, s, dp_rank) for s in range(self.sp)]

    def dp_group(self, pp_rank: int = 0, sp_rank: int = 0, tp_rank: int = 0) -> list[int]:
        """Global ranks holding the same model shard across DP replicas."""
        return [self.rank(pp_rank, tp_rank, sp_rank, d) for d in range(self.dp)]

    def tp_link(self, pp_rank: int = 0) -> LinkType:
        """Link class TP collectives of a stage travel over (worst link)."""
        return self._group_link(self.tp_group(pp_rank))

    def sp_link(self, pp_rank: int = 0) -> LinkType:
        """Link class one stage's SP ring exchange travels over (worst link)."""
        return self._group_link(self.sp_group(pp_rank))

    def dp_link(self) -> LinkType:
        """Link class the DP gradient all-reduce travels over (worst link)."""
        return self._group_link(self.dp_group())

    def _group_link(self, group: list[int]) -> LinkType:
        if len(group) == 1:
            return self.topology.intra_node_link
        links = {
            self.topology.link_between(a, b)
            for a in group
            for b in group
            if a < b
        }
        return _slowest(links)

    def pp_link(self, stage: int) -> LinkType:
        """Link class the boundary after ``stage`` travels over."""
        if not 0 <= stage < self.pp - 1:
            raise ValueError(f"boundary index {stage} out of range [0, {self.pp - 1})")
        a = self.rank(stage, 0)
        b = self.rank(stage + 1, 0)
        return self.topology.link_between(a, b)


_LINK_ORDER = [LinkType.NVLINK, LinkType.PCIE, LinkType.ETHERNET]


def _slowest(links) -> LinkType:
    """Pick the slowest link class of a set (collectives are bottlenecked)."""
    return max(links, key=_LINK_ORDER.index)
