"""Tests for the wired-side substrate: LAN, SDN switch, middlebox."""

import pytest

from repro.core.config import MiddleboxConfig
from repro.core.packet import Packet
from repro.net.lan import BASE_DELAY_S, JITTER_S, LanSegment
from repro.net.middlebox import Middlebox
from repro.net.sdn import FlowMatch, MatchAction, SdnSwitch
from repro.sim import RandomRouter, Simulator
from repro.sim.random import DRAW_BLOCK


def rng(name="net", seed=0):
    return RandomRouter(seed).stream(name)


def packet(seq=0, flow="rt0"):
    return Packet(seq=seq, send_time=0.0, flow_id=flow)


# --------------------------------------------------------------------- LAN

def test_lan_forwards_with_small_delay():
    sim = Simulator()
    got = []
    lan = LanSegment(sim, lambda p: got.append((p.seq, sim.now)),
                     rng(seed=4))
    sim.call_at(0.0, lan.send, packet(9))
    sim.run()
    assert got[0][0] == 9
    assert 0.0005 <= got[0][1] <= 0.0008


def test_lan_preserves_order():
    sim = Simulator()
    got = []
    lan = LanSegment(sim, lambda p: got.append(p.seq), rng(seed=5))
    for i in range(5):
        sim.call_at(0.001 * i, lan.send, packet(i))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_lan_jitter_equals_generator_uniform_draws():
    """The buffered jitter is, float for float, what
    ``Generator.uniform(0.0, JITTER_S)`` draws from the same stream, and
    nothing else draws from that stream."""
    n = 10_000
    sim = Simulator()
    got = {}
    stream = rng("lan-p.jitter", seed=6)
    lan = LanSegment(sim, lambda p: got.__setitem__(p.seq, sim.now), stream)
    for i in range(n):
        lan.send(packet(i))          # sent at t=0, so arrival == delay
    sim.run()
    twin = rng("lan-p.jitter", seed=6)
    want = [BASE_DELAY_S + float(twin.uniform(0.0, JITTER_S))
            for _ in range(n)]
    assert [got[i] for i in range(n)] == want
    # The stream advanced by whole prefetched blocks, no word more.
    twin.bit_generator.random_raw(-n % DRAW_BLOCK)
    assert stream.bit_generator.state == twin.bit_generator.state


# --------------------------------------------------------------------- SDN

def test_sdn_replicates_to_both_ports():
    sim = Simulator()
    out_a, out_b = [], []
    switch = SdnSwitch(sim)
    switch.attach_port("a", out_a.append)
    switch.attach_port("b", out_b.append)
    switch.install_rule(MatchAction(FlowMatch(flow_id="rt0"), ["a", "b"]))
    sent = packet(1)
    sim.call_at(0.0, switch.ingress, sent)
    sim.run()
    assert len(out_a) == len(out_b) == 1
    assert out_a[0] is sent and out_b[0] is sent


def test_sdn_rule_priority():
    sim = Simulator()
    hi, lo = [], []
    switch = SdnSwitch(sim)
    switch.attach_port("hi", hi.append)
    switch.attach_port("lo", lo.append)
    switch.install_rule(MatchAction(FlowMatch(), ["lo"], priority=1))
    switch.install_rule(MatchAction(FlowMatch(flow_id="rt0"), ["hi"],
                                    priority=10))
    sim.call_at(0.0, switch.ingress, packet(flow="rt0"))
    sim.call_at(0.0, switch.ingress, packet(flow="web"))
    sim.run()
    assert len(hi) == 1 and len(lo) == 1


def test_sdn_table_miss_counted():
    sim = Simulator()
    switch = SdnSwitch(sim)
    sim.call_at(0.0, switch.ingress, packet())
    sim.run()
    assert switch.table_misses == 1


def test_sdn_unknown_port_rejected():
    sim = Simulator()
    switch = SdnSwitch(sim)
    with pytest.raises(ValueError):
        switch.install_rule(MatchAction(FlowMatch(), ["ghost"]))


def test_sdn_rule_removal():
    sim = Simulator()
    switch = SdnSwitch(sim)
    switch.attach_port("a", lambda p: None)
    switch.install_rule(MatchAction(FlowMatch(flow_id="rt0"), ["a"]))
    assert switch.remove_rules_for("rt0") == 1
    sim.call_at(0.0, switch.ingress, packet())
    sim.run()
    assert switch.table_misses == 1


def test_sdn_match_counters():
    sim = Simulator()
    switch = SdnSwitch(sim)
    switch.attach_port("a", lambda p: None)
    rule = MatchAction(FlowMatch(flow_id="rt0"), ["a"])
    switch.install_rule(rule)
    for i in range(3):
        sim.call_at(0.0, switch.ingress, packet(i))
    sim.run()
    assert rule.packets_matched == 3


# --------------------------------------------------------------- middlebox

def make_middlebox(sim, depth=3):
    return Middlebox(sim, MiddleboxConfig(buffer_len=depth))


def test_middlebox_buffers_until_start():
    sim = Simulator()
    mbox = make_middlebox(sim)
    got = []
    mbox.register_flow("rt0", got.append)
    for i in range(2):
        sim.call_at(0.0, mbox.replica_arrival, packet(i))
    sim.run()
    assert got == []
    assert mbox.stats.buffered == 2


def test_middlebox_start_drains_buffer():
    sim = Simulator()
    mbox = make_middlebox(sim)
    got = []
    mbox.register_flow("rt0", got.append)
    for i in range(2):
        sim.call_at(0.0, mbox.replica_arrival, packet(i))
    sim.call_at(1.0, mbox.start, "rt0")
    sim.run()
    assert [p.seq for p in got] == [0, 1]


def test_middlebox_head_drop_on_overflow():
    sim = Simulator()
    mbox = make_middlebox(sim, depth=2)
    got = []
    mbox.register_flow("rt0", got.append)
    for i in range(5):
        sim.call_at(0.001 * i, mbox.replica_arrival, packet(i))
    sim.call_at(1.0, mbox.start, "rt0")
    sim.run()
    assert [p.seq for p in got] == [3, 4]
    assert mbox.stats.buffer_drops == 3


def test_middlebox_streams_live_until_stop():
    sim = Simulator()
    mbox = make_middlebox(sim)
    got = []
    mbox.register_flow("rt0", got.append)
    sim.call_at(0.0, mbox.start, "rt0")
    sim.call_at(0.1, mbox.replica_arrival, packet(1))
    sim.call_at(0.2, mbox.stop, "rt0")
    sim.call_at(0.3, mbox.replica_arrival, packet(2))
    sim.run()
    assert [p.seq for p in got] == [1]       # live while streaming only
    assert mbox.stats.stop_messages == 1


def test_middlebox_unknown_flow_ignored_on_data_path():
    sim = Simulator()
    mbox = make_middlebox(sim)
    sim.call_at(0.0, mbox.replica_arrival, packet(flow="ghost"))
    sim.run()
    assert mbox.stats.buffered == 0


def test_middlebox_unknown_flow_control_raises():
    sim = Simulator()
    mbox = make_middlebox(sim)
    with pytest.raises(KeyError):
        mbox.start("ghost")


def test_middlebox_duplicate_registration_raises():
    sim = Simulator()
    mbox = make_middlebox(sim)
    mbox.register_flow("rt0", lambda p: None)
    with pytest.raises(ValueError):
        mbox.register_flow("rt0", lambda p: None)


def test_middlebox_service_delay_scales_with_load():
    sim = Simulator()
    mbox = make_middlebox(sim)
    mbox.register_flow("rt0", lambda p: None)
    base = mbox.service_delay_s()
    for i in range(999):
        mbox.register_flow(f"t{i}", lambda p: None)
    loaded = mbox.service_delay_s()
    # Section 6.4: ~+1.1 ms from 0 to 1000 streams.
    assert loaded - base == pytest.approx(0.0011, rel=0.05)


# ------------------------------------------- middlebox drain contract

def test_middlebox_stop_mid_drain_rebuffers_in_flight():
    # Regression: a stop arriving mid-drain used to let the forwards
    # still in flight fall on the floor uncounted; they must be put
    # back into the buffer so a later start can still deliver them.
    sim = Simulator()
    mbox = make_middlebox(sim)
    got = []
    mbox.register_flow("rt0", got.append)
    for i in range(3):
        sim.call_at(0.0, mbox.replica_arrival, packet(i))
    sim.call_at(1.0, mbox.start, "rt0")
    # The drain starts after the ~2.9 ms service delay and is spaced
    # 0.2 ms per packet: this stop lands between forwards #1 and #2.
    sim.call_at(1.0030, mbox.stop, "rt0")
    sim.call_at(2.0, mbox.start, "rt0")
    sim.run()
    assert [p.seq for p in got] == [0, 1, 2]    # nothing lost
    assert mbox.stats.rebuffered == 2
    assert mbox.stats.buffer_drops == 0


def test_middlebox_stop_rebuffer_head_drops_past_depth():
    # Re-buffered in-flight packets must respect the shallow buffer:
    # overflow is head-dropped and *counted*, never silent.
    sim = Simulator()
    mbox = make_middlebox(sim, depth=2)
    got = []
    mbox.register_flow("rt0", got.append)
    for i in range(2):
        sim.call_at(0.0, mbox.replica_arrival, packet(i))
    sim.call_at(1.0, mbox.start, "rt0")
    # A live replica joins the still-pending drain, then the stop
    # arrives before any forward fired: 3 packets into a depth-2 buffer.
    sim.call_at(1.0001, mbox.replica_arrival, packet(2))
    sim.call_at(1.0010, mbox.stop, "rt0")
    sim.call_at(2.0, mbox.start, "rt0")
    sim.run()
    assert [p.seq for p in got] == [1, 2]       # oldest head-dropped
    assert mbox.stats.rebuffered == 3
    assert mbox.stats.buffer_drops == 1


def test_middlebox_live_replicas_do_not_overtake_drain():
    # Regression: a live replica arriving while the drain was still
    # pending used to be forwarded immediately, overtaking the buffered
    # packets — the secondary AP saw 2, 0, 1.  Delivery must stay
    # sequence-monotone.
    sim = Simulator()
    mbox = make_middlebox(sim)
    got = []
    mbox.register_flow("rt0", got.append)
    for i in range(2):
        sim.call_at(0.0, mbox.replica_arrival, packet(i))
    sim.call_at(1.0, mbox.start, "rt0")
    sim.call_at(1.0001, mbox.replica_arrival, packet(2))
    # Long after the drain, live forwarding is immediate again.
    sim.call_at(1.5, mbox.replica_arrival, packet(3))
    sim.run()
    seqs = [p.seq for p in got]
    assert seqs == [0, 1, 2, 3]
    assert seqs == sorted(seqs)


def test_middlebox_default_config_not_shared():
    # Regression: the config default argument was a single shared
    # MiddleboxConfig instance aliased across every default-constructed
    # middlebox.
    sim = Simulator()
    assert Middlebox(sim).config is not Middlebox(sim).config


# ------------------------------------------------- SDN switch coverage

def test_sdn_priority_tie_fifo_across_reinstalls():
    # Equal-priority rules resolve FIFO, and that order must track the
    # *latest* install sequence (the controller reinstalls rules on
    # every reroute).
    sim = Simulator()
    sw = SdnSwitch(sim)
    got = []
    sw.attach_port("a", lambda p: got.append("a"))
    sw.attach_port("b", lambda p: got.append("b"))

    def install(first, second):
        sw.remove_rules_for("rt0")
        sw.install_rule(MatchAction(FlowMatch(flow_id="rt0"),
                                    [first], priority=5))
        sw.install_rule(MatchAction(FlowMatch(flow_id="rt0"),
                                    [second], priority=5))

    install("a", "b")
    sim.call_at(0.0, sw.ingress, packet(0))
    sim.call_at(1.0, install, "b", "a")
    sim.call_at(2.0, sw.ingress, packet(1))
    sim.run()
    assert got == ["a", "b"]


def test_sdn_remove_rules_leaves_wildcard():
    # remove_rules_for is exact-match: the default (wildcard) rule that
    # carries all other traffic must survive a flow teardown.
    sim = Simulator()
    sw = SdnSwitch(sim)
    got = []
    sw.attach_port("client", got.append)
    sw.attach_port("mirror", lambda p: None)
    sw.install_rule(MatchAction(FlowMatch(flow_id="rt0"),
                                ["mirror"], priority=9))
    sw.install_rule(MatchAction(FlowMatch(), ["client"], priority=0))
    assert sw.remove_rules_for("rt0") == 1
    sim.call_at(0.0, sw.ingress, packet(0))
    sim.run()
    assert [p.seq for p in got] == [0]
    assert sw.table_misses == 0


def test_sdn_miss_counted_after_removal():
    # With the flow's rules gone and no wildcard, traffic becomes
    # counted table misses, not an error.
    sim = Simulator()
    sw = SdnSwitch(sim)
    sw.attach_port("client", lambda p: None)
    sw.install_rule(MatchAction(FlowMatch(flow_id="rt0"), ["client"]))
    sw.remove_rules_for("rt0")
    sim.call_at(0.0, sw.ingress, packet(0))
    sim.run()
    assert sw.table_misses == 1
