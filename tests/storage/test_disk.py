"""Tests for the mechanical disk model."""

import re

import pytest

from repro.errors import DiskError
from repro.sim import Engine
from repro.storage import SCHEDULERS, Disk, DiskGeometry, DiskParams, IORequest


SMALL_GEO = DiskGeometry(cylinders=100, heads=2, sectors_per_track=10)


def make_disk(engine, **kwargs):
    kwargs.setdefault("geometry", SMALL_GEO)
    return Disk(engine, **kwargs)


def test_request_validation():
    with pytest.raises(DiskError, match=r"^negative LBA: -1$"):
        IORequest(lba=-1, nblocks=1)
    with pytest.raises(DiskError, match=r"^request must cover >= 1 block, got 0$"):
        IORequest(lba=0, nblocks=0)
    with pytest.raises(DiskError, match=r"^request must cover >= 1 block, got -3$"):
        IORequest(lba=5, nblocks=-3)


def test_request_is_slotted():
    req = IORequest(lba=3, nblocks=2)
    assert not hasattr(req, "__dict__")
    with pytest.raises(AttributeError):
        req.owner = "cache"
    assert IORequest(lba=0, nblocks=1).request_id > req.request_id


def test_params_validation():
    with pytest.raises(DiskError):
        DiskParams(rpm=0)
    with pytest.raises(DiskError):
        DiskParams(transfer_rate=0)
    with pytest.raises(DiskError):
        DiskParams(seek_track_to_track=0.01, seek_full_stroke=0.001)
    with pytest.raises(DiskError):
        DiskParams(controller_overhead=-1.0)


def test_revolution_and_latency():
    p = DiskParams(rpm=7200)
    assert p.revolution_time == pytest.approx(60.0 / 7200.0)
    assert p.avg_rotational_latency == pytest.approx(60.0 / 7200.0 / 2)


def test_seek_time_zero_for_same_cylinder():
    eng = Engine()
    d = make_disk(eng)
    assert d.seek_time(5, 5) == 0.0


def test_seek_time_monotone_in_distance():
    eng = Engine()
    d = make_disk(eng)
    times = [d.seek_time(0, dist) for dist in (1, 10, 50, 99)]
    assert times == sorted(times)
    assert times[0] >= d.params.seek_track_to_track
    assert times[-1] <= d.params.seek_full_stroke + 1e-12


def test_seek_full_stroke_cost():
    eng = Engine()
    d = make_disk(eng)
    assert d.seek_time(0, SMALL_GEO.cylinders - 1) == pytest.approx(
        d.params.seek_full_stroke
    )


def test_transfer_time_scales_with_blocks():
    eng = Engine()
    d = make_disk(eng)
    assert d.transfer_time(2) == pytest.approx(2 * d.transfer_time(1))


def test_single_request_timing():
    eng = Engine()
    d = make_disk(eng)
    done = d.submit_range(lba=0, nblocks=1)
    eng.run()
    req = done.value
    expected = (
        d.params.controller_overhead
        + d.params.avg_rotational_latency
        + d.transfer_time(1)
    )  # head starts at cylinder 0 → no seek
    assert req.service_time == pytest.approx(expected)
    assert req.completed_at == pytest.approx(expected)


def test_head_moves_to_request_cylinder():
    eng = Engine()
    d = make_disk(eng)
    lba = SMALL_GEO.lba_of(50, 0, 0)
    d.submit_range(lba=lba, nblocks=1)
    eng.run()
    assert d.head_cylinder == 50


def test_fcfs_services_in_submission_order():
    eng = Engine()
    d = make_disk(eng, scheduler="fcfs")
    far = d.submit_range(lba=SMALL_GEO.lba_of(99, 0, 0), nblocks=1)
    near = d.submit_range(lba=0, nblocks=1)
    eng.run()
    assert far.value.completed_at < near.value.completed_at


def test_sstf_services_nearest_first():
    eng = Engine()
    # Occupy the arm briefly so both test requests are queued together.
    d = make_disk(eng, scheduler="sstf")
    d.submit_range(lba=0, nblocks=1)
    far = d.submit_range(lba=SMALL_GEO.lba_of(99, 0, 0), nblocks=1)
    near = d.submit_range(lba=SMALL_GEO.lba_of(1, 0, 0), nblocks=1)
    eng.run()
    assert near.value.completed_at < far.value.completed_at


def test_out_of_range_request_rejected():
    eng = Engine()
    d = make_disk(eng)
    with pytest.raises(DiskError,
                       match=r"^request \[1999, 2001\) exceeds disk of 2000 blocks$"):
        d.submit_range(lba=SMALL_GEO.total_blocks - 1, nblocks=2)


def test_request_ending_at_last_block_accepted():
    eng = Engine()
    d = make_disk(eng)
    total = SMALL_GEO.total_blocks
    assert d.total_blocks == total == 2000
    last = d.submit_range(lba=total - 10, nblocks=10)
    single = d.submit_range(lba=total - 1, nblocks=1)
    eng.run()
    assert last.value.end_lba == total
    assert single.value.completed_at > last.value.completed_at
    assert d.head_cylinder == SMALL_GEO.cylinders - 1


@pytest.mark.parametrize("lba, nblocks", [(1991, 10), (2000, 1)])
def test_request_one_block_past_the_end_rejected(lba, nblocks):
    eng = Engine()
    d = make_disk(eng)
    message = (f"request [{lba}, {lba + nblocks}) exceeds disk of "
               f"{SMALL_GEO.total_blocks} blocks")
    with pytest.raises(DiskError, match=f"^{re.escape(message)}$"):
        d.submit_range(lba=lba, nblocks=nblocks)
    assert len(d.scheduler) == 0


def test_double_submission_rejected():
    eng = Engine()
    d = make_disk(eng)
    req = IORequest(lba=0, nblocks=1)
    d.submit(req)
    message = f"request {req.request_id} already submitted"
    with pytest.raises(DiskError, match=f"^{re.escape(message)}$"):
        d.submit(req)
    eng.run()
    assert d.requests_completed.value == 1


def test_statistics_accumulate():
    eng = Engine()
    d = make_disk(eng)
    d.submit_range(lba=0, nblocks=4, is_write=False)
    d.submit_range(lba=8, nblocks=2, is_write=True)
    eng.run()
    assert d.requests_completed.value == 2
    assert d.bytes_read.value == 4 * 512
    assert d.bytes_written.value == 2 * 512
    assert d.service_times.count == 2
    assert d.response_times.count == 2


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_every_scheduler_completes_a_backlog(scheduler):
    """Work conservation holds regardless of policy."""
    eng = Engine()
    geo = DiskGeometry(cylinders=20_000, heads=4, sectors_per_track=200)
    d = make_disk(eng, geometry=geo, scheduler=scheduler)
    events = [d.submit_range(i * 1000, 4) for i in range(50)]

    def waiter():
        yield eng.all_of(events)

    eng.run_process(waiter())
    assert d.requests_completed.value == 50


def test_queued_request_response_includes_waiting():
    eng = Engine()
    d = make_disk(eng)
    a = d.submit_range(lba=0, nblocks=1)
    b = d.submit_range(lba=0, nblocks=1)
    eng.run()
    assert b.value.response_time > b.value.service_time
    assert a.value.response_time == pytest.approx(a.value.service_time)


def test_nondeterministic_rotation_uses_rng():
    import numpy as np

    eng = Engine()
    rng = np.random.default_rng(7)
    d = make_disk(eng, params=DiskParams(deterministic=False), rng=rng)
    samples = {d.rotational_latency() for _ in range(8)}
    assert len(samples) > 1
    assert all(0.0 <= s <= d.params.revolution_time for s in samples)


def test_deterministic_rotation_constant():
    eng = Engine()
    d = make_disk(eng)
    assert d.rotational_latency() == d.rotational_latency()


def test_disk_reusable_after_idle():
    """The arm must wake again after draining its queue once."""
    eng = Engine()
    d = make_disk(eng)
    first = d.submit_range(lba=0, nblocks=1)
    eng.run()
    assert first.value.completed_at is not None
    second = d.submit_range(lba=16, nblocks=1)
    eng.run()
    assert second.value.completed_at > first.value.completed_at
