"""Tests for the RAID-0 striped array."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DiskError
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry, StripedArray

GEO = DiskGeometry(cylinders=100, heads=2, sectors_per_track=10)


def make_array(engine, ndisks=4, stripe_unit=4):
    disks = [Disk(engine, geometry=GEO, name=f"d{i}") for i in range(ndisks)]
    return StripedArray(engine, disks, stripe_unit=stripe_unit)


def test_construction_validation():
    eng = Engine()
    with pytest.raises(DiskError):
        StripedArray(eng, [])
    with pytest.raises(DiskError):
        StripedArray(eng, [Disk(eng, geometry=GEO)], stripe_unit=0)
    other = DiskGeometry(cylinders=50, heads=2, sectors_per_track=10)
    with pytest.raises(DiskError):
        StripedArray(eng, [Disk(eng, geometry=GEO), Disk(eng, geometry=other)])


def test_total_blocks_sums_members():
    eng = Engine()
    arr = make_array(eng, ndisks=4)
    assert arr.total_blocks == 4 * GEO.total_blocks
    assert arr.block_size == GEO.block_size


def test_map_block_round_robin():
    eng = Engine()
    arr = make_array(eng, ndisks=2, stripe_unit=4)
    # unit 0 → disk 0 blocks 0-3, unit 1 → disk 1 blocks 0-3,
    # unit 2 → disk 0 blocks 4-7, ...
    assert arr.map_block(0) == (0, 0)
    assert arr.map_block(3) == (0, 3)
    assert arr.map_block(4) == (1, 0)
    assert arr.map_block(7) == (1, 3)
    assert arr.map_block(8) == (0, 4)


def test_map_block_out_of_range():
    eng = Engine()
    arr = make_array(eng, ndisks=2)
    with pytest.raises(DiskError):
        arr.map_block(arr.total_blocks)


def test_split_single_unit():
    eng = Engine()
    arr = make_array(eng, ndisks=2, stripe_unit=4)
    assert arr.split(1, 2) == [(0, 1, 2)]


def test_split_spans_disks():
    eng = Engine()
    arr = make_array(eng, ndisks=2, stripe_unit=4)
    frags = arr.split(2, 6)
    assert frags == [(0, 2, 2), (1, 0, 4)]


def test_split_merges_contiguous_same_disk_runs():
    eng = Engine()
    arr = make_array(eng, ndisks=1, stripe_unit=4)
    # Single disk: all units land on it contiguously.
    assert arr.split(0, 12) == [(0, 0, 12)]


def test_split_validation():
    eng = Engine()
    arr = make_array(eng)
    with pytest.raises(DiskError):
        arr.split(0, 0)
    with pytest.raises(DiskError):
        arr.split(arr.total_blocks - 1, 2)


def test_submit_completes_with_fragments():
    eng = Engine()
    arr = make_array(eng, ndisks=2, stripe_unit=4)
    done = arr.submit_range(0, 8)
    eng.run()
    requests = done.value
    assert len(requests) == 2
    assert all(r.completed_at is not None for r in requests)


def test_striping_parallelizes_large_transfers():
    """A big sequential read over N disks should finish faster than on 1
    (with a stripe unit large enough that per-request overhead does not
    dominate, as a real array would be configured)."""
    def run(ndisks):
        eng = Engine()
        arr = make_array(eng, ndisks=ndisks, stripe_unit=128)
        done = arr.submit_range(0, 1600)  # fits the 2000-block single disk
        eng.run()
        return max(r.completed_at for r in done.value)

    t1, t4 = run(1), run(4)
    assert t4 < t1


def test_sequential_requests_stream_without_repositioning():
    eng = Engine()
    d = Disk(eng, geometry=GEO)
    first = d.submit_range(0, 8)
    eng.run()
    second = d.submit_range(8, 8)  # continues exactly at the previous end
    eng.run()
    assert second.value.service_time < first.value.service_time
    assert second.value.service_time == pytest.approx(
        d.params.controller_overhead + d.transfer_time(8)
    )


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=200),
)
def test_split_partitions_range_exactly(ndisks, unit, lba, nblocks):
    """Property: fragments tile the logical range with no gap/overlap and
    every physical block is within the member disk."""
    eng = Engine()
    arr = make_array(eng, ndisks=ndisks, stripe_unit=unit)
    if lba + nblocks > arr.total_blocks:
        nblocks = arr.total_blocks - lba
        if nblocks < 1:
            return
    frags = arr.split(lba, nblocks)
    assert sum(f[2] for f in frags) == nblocks
    for disk_index, phys, run in frags:
        assert 0 <= disk_index < ndisks
        assert 0 <= phys and phys + run <= GEO.total_blocks
    # Rebuild the logical blocks from fragments, in order.
    rebuilt = []
    for disk_index, phys, run in frags:
        for i in range(run):
            rebuilt.append((disk_index, phys + i))
    expected = [arr.map_block(b) for b in range(lba, lba + nblocks)]
    assert rebuilt == expected


def _reference_split(arr, lba, nblocks):
    """The split rule restated through ``map_block``: one fragment per
    stripe-unit run, merged into the previous one when it continues it
    on the same disk."""
    fragments = []
    block, end = lba, lba + nblocks
    while block < end:
        disk_index, phys = arr.map_block(block)
        run = min(end - block, arr.stripe_unit - block % arr.stripe_unit)
        if fragments and fragments[-1][0] == disk_index and (
            fragments[-1][1] + fragments[-1][2] == phys
        ):
            fragments[-1] = (disk_index, fragments[-1][1],
                             fragments[-1][2] + run)
        else:
            fragments.append((disk_index, phys, run))
        block += run
    return fragments


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=300),
    st.data(),
)
def test_split_matches_map_block_reference(ndisks, unit, data):
    """Property: the stepped split returns exactly the fragments (order,
    merges, lengths) of the per-unit ``map_block`` walk, anywhere in
    the array; ``ndisks=1`` exercises the same-disk merge."""
    arr = make_array(Engine(), ndisks=ndisks, stripe_unit=unit)
    total = arr.total_blocks
    lba = data.draw(st.integers(min_value=0, max_value=total - 1), label="lba")
    nblocks = data.draw(st.integers(min_value=1, max_value=total - lba),
                        label="nblocks")
    assert arr.split(lba, nblocks) == _reference_split(arr, lba, nblocks)
    with pytest.raises(DiskError):
        arr.split(lba, total - lba + 1)
    with pytest.raises(DiskError):
        arr.split(-1 - lba, nblocks)
    with pytest.raises(DiskError):
        arr.split(lba, 0)
