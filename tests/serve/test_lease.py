"""Profile-lease table: single holder, release discipline, stealing."""

from repro.serve.lease import ProfileLeaseTable


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestAcquire:
    def test_first_acquire_granted(self):
        table = ProfileLeaseTable()
        assert table.acquire("key", 1) == ProfileLeaseTable.GRANTED

    def test_second_acquire_denied_while_held(self):
        table = ProfileLeaseTable()
        table.acquire("key", 1)
        assert table.acquire("key", 2) is None

    def test_distinct_classes_independent(self):
        table = ProfileLeaseTable()
        assert table.acquire("a", 1) == ProfileLeaseTable.GRANTED
        assert table.acquire("b", 2) == ProfileLeaseTable.GRANTED

    def test_release_then_reacquire(self):
        table = ProfileLeaseTable()
        table.acquire("key", 1)
        assert table.release("key", 1)
        assert table.acquire("key", 2) == ProfileLeaseTable.GRANTED


class TestSteal:
    def test_stale_lease_stolen(self):
        clock = FakeClock()
        table = ProfileLeaseTable(timeout=10.0, clock=clock)
        table.acquire("key", 1)
        clock.advance(11.0)
        assert table.acquire("key", 2) == ProfileLeaseTable.STOLEN
        assert table.steals == 1

    def test_fresh_lease_not_stolen(self):
        clock = FakeClock()
        table = ProfileLeaseTable(timeout=10.0, clock=clock)
        table.acquire("key", 1)
        clock.advance(9.0)
        assert table.acquire("key", 2) is None

    def test_no_timeout_means_no_steal(self):
        clock = FakeClock()
        table = ProfileLeaseTable(timeout=None, clock=clock)
        table.acquire("key", 1)
        clock.advance(1e9)
        assert table.acquire("key", 2) is None

    def test_old_holder_release_is_noop_after_steal(self):
        clock = FakeClock()
        table = ProfileLeaseTable(timeout=10.0, clock=clock)
        table.acquire("key", 1)
        clock.advance(11.0)
        table.acquire("key", 2)
        assert not table.release("key", 1)  # stolen from under holder 1
        assert table.held("key")
        assert table.release("key", 2)
        assert not table.held("key")


class TestDefer:
    """Backpressure deferral is *not* a lease: the scheduler reports it
    through this marker and never touches the table."""

    def test_deferred_marker_distinct_from_lease_states(self):
        assert ProfileLeaseTable.DEFERRED not in (
            ProfileLeaseTable.GRANTED,
            ProfileLeaseTable.STOLEN,
        )
