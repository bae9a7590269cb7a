"""Disk geometry: cylinders, heads, sectors, and LBA mapping.

The mechanical model charges seek cost by *cylinder distance*, so the
geometry's job is to map a logical block address onto a cylinder.  We
use the classic uniform CHS layout (no zoned recording): blocks fill a
track, then the next head on the same cylinder, then the next
cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.errors import DiskError

__all__ = ["DiskGeometry"]


@dataclass(frozen=True)
class DiskGeometry:
    """Immutable CHS geometry.

    Defaults give an ~37 GB disk with 512 B blocks — a plausible 2004
    desktop drive (the paper's test machine era).

    The derived sizes are computed on first use and cached: the fields
    are frozen, and :meth:`cylinder_of` reads them on every disk
    request.
    """

    cylinders: int = 60_000
    heads: int = 4
    sectors_per_track: int = 300
    block_size: int = 512

    def __post_init__(self) -> None:
        for name in ("cylinders", "heads", "sectors_per_track", "block_size"):
            if getattr(self, name) < 1:
                raise DiskError(f"{name} must be >= 1, got {getattr(self, name)}")

    @cached_property
    def blocks_per_cylinder(self) -> int:
        return self.heads * self.sectors_per_track

    @cached_property
    def total_blocks(self) -> int:
        return self.cylinders * self.blocks_per_cylinder

    @property
    def capacity_bytes(self) -> int:
        return self.total_blocks * self.block_size

    def check_lba(self, lba: int) -> None:
        """Raise :class:`DiskError` unless ``0 <= lba < total_blocks``."""
        if not (0 <= lba < self.total_blocks):
            raise DiskError(f"LBA {lba} out of range [0, {self.total_blocks})")

    def cylinder_of(self, lba: int) -> int:
        """Cylinder containing ``lba``."""
        self.check_lba(lba)
        return lba // self.blocks_per_cylinder

    def chs_of(self, lba: int) -> Tuple[int, int, int]:
        """(cylinder, head, sector) triple for ``lba``."""
        self.check_lba(lba)
        cyl, rem = divmod(lba, self.blocks_per_cylinder)
        head, sector = divmod(rem, self.sectors_per_track)
        return cyl, head, sector

    def lba_of(self, cylinder: int, head: int, sector: int) -> int:
        """Inverse of :meth:`chs_of`."""
        if not (0 <= cylinder < self.cylinders):
            raise DiskError(f"cylinder {cylinder} out of range")
        if not (0 <= head < self.heads):
            raise DiskError(f"head {head} out of range")
        if not (0 <= sector < self.sectors_per_track):
            raise DiskError(f"sector {sector} out of range")
        return (cylinder * self.heads + head) * self.sectors_per_track + sector

    def blocks_for_bytes(self, nbytes: int) -> int:
        """Number of whole blocks needed to hold ``nbytes`` (>= 1)."""
        if nbytes < 0:
            raise DiskError(f"negative byte count: {nbytes}")
        return max(1, -(-nbytes // self.block_size))
