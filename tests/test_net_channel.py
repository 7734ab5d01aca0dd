"""Unit tests for the simulated channel."""

import pytest

from repro.errors import NetworkError
from repro.net.channel import Channel
from repro.net.message import BROADCAST_ID, SERVER_ID, MessageKind


@pytest.fixture
def channel():
    ch = Channel()
    ch.register(SERVER_ID)
    ch.register(0)
    ch.register(1)
    return ch


class TestRegistration:
    def test_duplicate_registration_raises(self, channel):
        with pytest.raises(NetworkError):
            channel.register(0)

    def test_broadcast_id_not_registrable(self, channel):
        with pytest.raises(NetworkError):
            channel.register(BROADCAST_ID)

    def test_membership_queries(self, channel):
        assert channel.is_registered(0)
        assert not channel.is_registered(99)
        assert channel.node_ids == {SERVER_ID, 0, 1}

    def test_mobile_range_answers_as_one_registration_per_id(self):
        ch = Channel()
        ch.register(SERVER_ID)
        ch.register_mobiles(3)
        assert ch.node_ids == {SERVER_ID, 0, 1, 2}
        assert ch.is_registered(2) and not ch.is_registered(3)
        with pytest.raises(NetworkError):
            ch.register(1)
        with pytest.raises(NetworkError):
            ch.register_mobiles(5)
        with pytest.raises(NetworkError):
            ch.send(MessageKind.LOCATION_UPDATE, 3, SERVER_ID)
        ch.send(MessageKind.LOCATION_UPDATE, 2, SERVER_ID)
        ch.send(MessageKind.COLLECT, SERVER_ID, BROADCAST_ID)
        ch.collect()
        assert ch.stats.broadcast_receptions == 3

    def test_mobile_range_may_not_cover_a_registered_id(self, channel):
        with pytest.raises(NetworkError):
            channel.register_mobiles(4)


class TestSend:
    def test_unknown_sender_raises(self, channel):
        with pytest.raises(NetworkError):
            channel.send(MessageKind.PROBE, 42, 0)

    def test_unknown_destination_raises(self, channel):
        with pytest.raises(NetworkError):
            channel.send(MessageKind.PROBE, SERVER_ID, 42)

    def test_send_queues_and_accounts(self, channel):
        channel.send(MessageKind.PROBE, SERVER_ID, 0)
        assert channel.pending() == 1
        assert channel.stats.total_messages == 1

    def test_messages_stamped_with_tick(self, channel):
        channel.begin_tick(7)
        msg = channel.send(MessageKind.PROBE, SERVER_ID, 0)
        assert msg.sent_tick == 7


class TestCollect:
    def test_collect_drains_queue(self, channel):
        channel.send(MessageKind.PROBE, SERVER_ID, 0)
        channel.send(MessageKind.PROBE, SERVER_ID, 1)
        msgs = channel.collect()
        assert len(msgs) == 2
        assert channel.pending() == 0

    def test_collect_preserves_order(self, channel):
        channel.send(MessageKind.PROBE, SERVER_ID, 0)
        channel.send(MessageKind.REVOKE_REGION, SERVER_ID, 1)
        kinds = [m.kind for m in channel.collect()]
        assert kinds == [MessageKind.PROBE, MessageKind.REVOKE_REGION]

    def test_broadcast_reception_accounting(self, channel):
        channel.send(MessageKind.COLLECT, SERVER_ID, BROADCAST_ID)
        channel.collect()
        # three registered nodes, sender excluded
        assert channel.stats.broadcast_receptions == 2

    def test_collect_sent_before_holds_back_recent(self, channel):
        channel.begin_tick(1)
        channel.send(MessageKind.PROBE, SERVER_ID, 0)
        channel.begin_tick(2)
        channel.send(MessageKind.PROBE, SERVER_ID, 1)
        ready = channel.collect_sent_before(2)
        assert len(ready) == 1
        assert ready[0].dst == 0
        assert channel.pending() == 1

    def test_collect_sent_before_eventually_delivers(self, channel):
        channel.begin_tick(1)
        channel.send(MessageKind.PROBE, SERVER_ID, 0)
        assert channel.collect_sent_before(1) == []
        assert len(channel.collect_sent_before(2)) == 1


class TestGeocast:
    """Geocast messages pass through the channel unaccounted: the
    simulator records coverage-based receptions, not the channel."""

    def _geocast(self, channel):
        from repro.core.protocol import CollectRequest
        from repro.net.message import GEOCAST_ID

        return channel.send(
            MessageKind.COLLECT,
            SERVER_ID,
            GEOCAST_ID,
            CollectRequest(0, 50.0, 50.0, 25.0),
        )

    def test_geocast_id_not_registrable(self, channel):
        from repro.net.message import GEOCAST_ID

        with pytest.raises(NetworkError):
            channel.register(GEOCAST_ID)

    def test_collect_passes_geocast_without_reception_accounting(
        self, channel
    ):
        self._geocast(channel)
        msgs = channel.collect()
        assert len(msgs) == 1
        assert channel.stats.broadcast_receptions == 0
        assert channel.stats.delivered == 0

    def test_collect_sent_before_passes_geocast_through(self, channel):
        channel.begin_tick(1)
        self._geocast(channel)
        assert channel.collect_sent_before(1) == []  # still in flight
        ready = channel.collect_sent_before(2)
        assert len(ready) == 1
        assert ready[0].payload.covers(50.0, 50.0)
        # reception accounting stays with the simulator in latency mode too
        assert channel.stats.broadcast_receptions == 0
