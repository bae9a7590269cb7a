"""Block-level I/O request."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import DiskError

__all__ = ["IORequest"]

_request_ids = itertools.count()


@dataclass(slots=True)
class IORequest:
    """One block-granular request against a disk or array.

    Attributes
    ----------
    lba:
        First logical block address.
    nblocks:
        Number of consecutive blocks (must be >= 1).
    is_write:
        Direction; reads and writes cost the same at the device (the
        asymmetry the paper observes comes from the cache layer above).
    submitted_at / started_at / completed_at:
        Simulated timestamps filled in by the disk as the request moves
        through the queue; ``None`` until reached.

    The class is slotted: one is built per member-disk request, and it
    takes no attributes beyond the fields above.
    """

    lba: int
    nblocks: int
    is_write: bool = False
    request_id: int = field(default_factory=_request_ids.__next__)
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    completed_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lba < 0:
            raise DiskError(f"negative LBA: {self.lba}")
        if self.nblocks < 1:
            raise DiskError(f"request must cover >= 1 block, got {self.nblocks}")

    @property
    def end_lba(self) -> int:
        """One past the last block touched."""
        return self.lba + self.nblocks

    @property
    def service_time(self) -> float:
        """Time from start of service to completion (after both set)."""
        if self.started_at is None or self.completed_at is None:
            raise DiskError("request not yet serviced")
        return self.completed_at - self.started_at

    @property
    def response_time(self) -> float:
        """Time from submission to completion, including queueing."""
        if self.submitted_at is None or self.completed_at is None:
            raise DiskError("request not yet completed")
        return self.completed_at - self.submitted_at
