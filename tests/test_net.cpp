// The multi-process runtime: seed-list parsing, the membership state
// machine, loopback UDP delivery, report serialisation, and -- the
// system-level property -- a real forked cluster on 127.0.0.1 agreeing
// with the lockstep simulator on the same fault schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/registry.hpp"
#include "drr/drr.hpp"
#include "net/membership.hpp"
#include "net/multiproc.hpp"
#include "net/node.hpp"
#include "net/udp_transport.hpp"
#include "support/rng.hpp"
#include "support/workload.hpp"

namespace drrg {
namespace {

// --- parse_seed_list --------------------------------------------------------

TEST(SeedList, ParsesBarePortsAndHostPortPairs) {
  const auto bare = net::parse_seed_list("7001,7002,7003");
  ASSERT_TRUE(bare.has_value());
  ASSERT_EQ(bare->size(), 3u);
  EXPECT_EQ((*bare)[0].host, "127.0.0.1");
  EXPECT_EQ((*bare)[0].port, 7001);
  EXPECT_EQ((*bare)[2].port, 7003);

  const auto pairs = net::parse_seed_list("10.0.0.1:9000,10.0.0.2:9001");
  ASSERT_TRUE(pairs.has_value());
  EXPECT_EQ((*pairs)[0].host, "10.0.0.1");
  EXPECT_EQ((*pairs)[1].port, 9001);
}

TEST(SeedList, RejectsMalformedInput) {
  EXPECT_FALSE(net::parse_seed_list("").has_value());
  EXPECT_FALSE(net::parse_seed_list("a:b:").has_value());
  EXPECT_FALSE(net::parse_seed_list("7001,,7002").has_value());
  EXPECT_FALSE(net::parse_seed_list("host:").has_value());
  EXPECT_FALSE(net::parse_seed_list(":7001").has_value());
  EXPECT_FALSE(net::parse_seed_list("7001,99999").has_value());
  EXPECT_FALSE(net::parse_seed_list("7001,0").has_value());
  EXPECT_FALSE(net::parse_seed_list("7001x").has_value());
}

// --- membership -------------------------------------------------------------

TEST(Membership, HigherHeartbeatWinsAndTiesTakeTheWorseState) {
  net::Membership m{4, /*self=*/0};
  m.merge(net::MemberEntry{1, net::PeerState::kAlive, 5}, 100);
  EXPECT_EQ(m.state(1), net::PeerState::kAlive);

  // A stale death (lower heartbeat) loses.
  m.merge(net::MemberEntry{1, net::PeerState::kDead, 3}, 110);
  EXPECT_EQ(m.state(1), net::PeerState::kAlive);

  // The same heartbeat with a worse state sticks.
  m.merge(net::MemberEntry{1, net::PeerState::kSuspect, 5}, 120);
  EXPECT_EQ(m.state(1), net::PeerState::kSuspect);

  // A higher heartbeat revives regardless of current state.
  m.merge(net::MemberEntry{1, net::PeerState::kAlive, 6}, 130);
  EXPECT_EQ(m.state(1), net::PeerState::kAlive);
}

TEST(Membership, SilenceAgesAlivePeersToSuspectThenDead) {
  net::MembershipConfig cfg;
  cfg.suspect_after_ms = 100;
  cfg.dead_after_ms = 300;
  cfg.suspect_confirm_ms = 150;
  net::Membership m{3, /*self=*/0, cfg};
  m.heard_from(1, 0);
  m.age(50);
  EXPECT_EQ(m.state(1), net::PeerState::kAlive);
  m.age(150);
  EXPECT_EQ(m.state(1), net::PeerState::kSuspect);
  m.age(350);  // silent 350 >= 300, suspect since 150: window met
  EXPECT_EQ(m.state(1), net::PeerState::kDead);
  EXPECT_TRUE(m.is_dead(1));

  // Direct evidence revives a locally-declared death.
  m.heard_from(1, 400);
  EXPECT_EQ(m.state(1), net::PeerState::kAlive);
  EXPECT_EQ(m.flaps(), 1u);
}

TEST(Membership, DelayedButAliveHeartbeatsNeverConfirmADeath) {
  // The hysteresis regression: a peer whose frames arrive late (heavy-
  // tail delay) keeps tripping the silence thresholds, but every landing
  // restarts the confirm window, so latency alone never evicts it.
  net::MembershipConfig cfg;
  cfg.suspect_after_ms = 100;
  cfg.dead_after_ms = 300;
  cfg.suspect_confirm_ms = 200;
  net::Membership m{2, /*self=*/0, cfg};
  std::int64_t heard = 0;
  for (std::int64_t now = 0; now <= 4000; now += 50) {
    m.age(now);
    EXPECT_FALSE(m.is_dead(1)) << "evicted at t=" << now;
    if (now - heard >= 250) {  // a straggler lands inside the confirm window
      m.heard_from(1, now);
      heard = now;
    }
  }
  EXPECT_GE(m.flaps(), 1u);  // each rescue from suspect is counted

  // Without the window (confirm = 0) the same pattern kills the peer.
  net::MembershipConfig old = cfg;
  old.suspect_confirm_ms = 0;
  net::Membership bare{2, /*self=*/0, old};
  bare.age(150);
  bare.age(350);
  EXPECT_TRUE(bare.is_dead(1));
}

TEST(Membership, DigestLeadsWithSelfAndRespectsTheWireBound) {
  net::Membership m{40, /*self=*/7};
  for (std::uint32_t v = 0; v < 40; ++v)
    if (v != 7) m.heard_from(v, 10 + v);
  net::Frame f;
  m.fill_digest(f);
  EXPECT_EQ(f.id, net::MsgId::kMemberGossip);
  ASSERT_EQ(f.n_members, net::kMaxMemberEntries);
  EXPECT_EQ(f.members[0].node, 7u);  // self first
  // Most recently heard peers follow.
  EXPECT_EQ(f.members[1].node, 39u);
}

TEST(Membership, SamplesOnlyPeersNotBelievedDead) {
  net::MembershipConfig cfg;
  cfg.suspect_after_ms = 10;
  cfg.dead_after_ms = 20;
  cfg.suspect_confirm_ms = 0;  // no hysteresis: this test is about sampling
  net::Membership m{4, /*self=*/0, cfg};
  m.heard_from(2, 1000);  // 1 and 3 stay silent since t=0
  m.age(1005);            // 1/3 silent past both thresholds, 2 heard 5ms ago
  EXPECT_TRUE(m.is_dead(1));
  EXPECT_FALSE(m.is_dead(2));
  Rng rng{99};
  for (int i = 0; i < 64; ++i) EXPECT_EQ(m.sample_live_peer(rng), 2u);

  m.merge(net::MemberEntry{2, net::PeerState::kDead, 100}, 1010);
  EXPECT_EQ(m.sample_live_peer(rng), 4u);  // n = nobody left
  EXPECT_EQ(m.alive_count(), 1u);          // just self
}

// --- UDP loopback -----------------------------------------------------------

TEST(UdpTransport, DeliversFramesBetweenLoopbackSockets) {
  if (!net::udp_available()) GTEST_SKIP() << "no UDP on this platform";
  net::UdpTransport a, b;
  ASSERT_TRUE(a.bind(0));
  ASSERT_TRUE(b.bind(0));
  const std::vector<net::PeerAddr> peers{{"127.0.0.1", a.port()},
                                         {"127.0.0.1", b.port()}};
  ASSERT_TRUE(a.set_peers(2, 0, peers));
  ASSERT_TRUE(b.set_peers(2, 0, peers));

  net::Frame f;
  f.id = net::MsgId::kProbeAck;
  f.src = 0;
  f.dst = 1;
  f.seq = 42;
  f.max = 0.625;
  ASSERT_TRUE(a.send(f));

  net::Frame got;
  bool delivered = false;
  for (int tries = 0; tries < 50 && !delivered; ++tries)
    delivered = b.poll(got, 20);
  ASSERT_TRUE(delivered);
  EXPECT_EQ(got, f);
  EXPECT_EQ(a.stats().sent, 1u);
  EXPECT_EQ(b.stats().delivered, 1u);
}

TEST(UdpTransport, InjectedLossDropsButStillCountsAsSent) {
  if (!net::udp_available()) GTEST_SKIP() << "no UDP on this platform";
  net::UdpTransport a;
  ASSERT_TRUE(a.bind(0));
  ASSERT_TRUE(a.set_peers(1, 0, {{"127.0.0.1", a.port()}}));
  a.set_loss(1.0, Rng{7});
  net::Frame f;
  f.id = net::MsgId::kPing;
  f.src = 0;
  f.dst = 0;
  ASSERT_TRUE(a.send(f));
  EXPECT_EQ(a.stats().sent, 1u);
  EXPECT_EQ(a.stats().dropped, 1u);
  net::Frame got;
  EXPECT_FALSE(a.poll(got, 10));
}

// --- report serialisation ---------------------------------------------------

TEST(NodeReport, RoundTripsThroughThePipeEncoding) {
  net::NodeReport r;
  r.node = 13;
  r.ok = true;
  r.root = true;
  r.parent = 0xffffffffu;
  r.max = 74.844216058581296;
  r.min = -0.125;
  r.sum = 1e-300;
  r.count = 57;
  r.sent = 1234;
  r.delivered = 1200;
  r.bits = 99999;
  r.retries = 7;
  r.steps = 11;
  r.roots_seen = 3;
  r.wall_ms = 4321;
  r.duplicates_dropped = 21;
  r.corrupt_rejected = 5;
  r.reorders_buffered = 17;
  r.backoff_ms_total = 4096;
  r.suspect_flaps = 2;
  r.error = "pipe|chars\nare sanitised";
  net::NodeReport d;
  ASSERT_TRUE(net::decode_report(net::encode_report(r), d));
  EXPECT_EQ(d.node, r.node);
  EXPECT_EQ(d.ok, r.ok);
  EXPECT_EQ(d.root, r.root);
  EXPECT_EQ(d.parent, r.parent);
  EXPECT_EQ(d.max, r.max);  // full round-trip precision
  EXPECT_EQ(d.min, r.min);
  EXPECT_EQ(d.sum, r.sum);
  EXPECT_EQ(d.count, r.count);
  EXPECT_EQ(d.sent, r.sent);
  EXPECT_EQ(d.wall_ms, r.wall_ms);
  EXPECT_EQ(d.duplicates_dropped, r.duplicates_dropped);
  EXPECT_EQ(d.corrupt_rejected, r.corrupt_rejected);
  EXPECT_EQ(d.reorders_buffered, r.reorders_buffered);
  EXPECT_EQ(d.backoff_ms_total, r.backoff_ms_total);
  EXPECT_EQ(d.suspect_flaps, r.suspect_flaps);
  EXPECT_EQ(d.error, "pipe/chars/are sanitised");

  net::NodeReport bad;
  EXPECT_FALSE(net::decode_report("not a report", bad));
  EXPECT_FALSE(net::decode_report("1|2|3", bad));
}

// --- the cluster end to end -------------------------------------------------

TEST(Cluster, CleanRunComputesEveryAggregateExactly) {
  if (!net::multiproc_available()) GTEST_SKIP() << "no fork/UDP on this platform";
  constexpr std::uint32_t kN = 8;
  net::ClusterOptions opt;
  opt.n = kN;
  opt.seed = 3;
  opt.values = {5.0, 1.0, 9.0, 4.0, 8.0, 2.0, 7.0, 3.0};
  // Localhost is fast: shrink the wall-clock knobs so the suite stays
  // snappy (the CI smoke run exercises the defaults at N = 64).
  opt.node_template.bootstrap_min_ms = 150;
  opt.node_template.linger_ms = 300;
  opt.node_template.deadline_ms = 20000;
  const net::ClusterReport cluster = net::run_cluster(opt);
  ASSERT_TRUE(cluster.ok) << cluster.error;
  ASSERT_EQ(cluster.nodes.size(), kN);
  for (const net::NodeReport& r : cluster.nodes) {
    EXPECT_TRUE(r.ok) << "node " << r.node << ": " << r.error;
    EXPECT_EQ(r.max, 9.0) << "node " << r.node;
    EXPECT_EQ(r.min, 1.0) << "node " << r.node;
    EXPECT_EQ(r.sum, 39.0) << "node " << r.node;
    EXPECT_EQ(r.count, kN) << "node " << r.node;
  }
}

TEST(Cluster, PhaseOneForestMatchesTheSimulator) {
  if (!net::multiproc_available()) GTEST_SKIP() << "no fork/UDP on this platform";
  // The UDP node runs Phase I by the simulator's rules on the same RNG
  // streams, so on a clean cluster it builds run_drr's forest, parent for
  // parent -- a stronger check than the folded end value.
  struct Case {
    std::uint32_t n;
    std::uint64_t seed;
  };
  for (const Case c : {Case{16, 1}, Case{16, 2}, Case{16, 3}, Case{48, 4}}) {
    net::ClusterOptions opt;
    opt.n = c.n;
    opt.seed = c.seed;
    opt.node_template.bootstrap_min_ms = 150;
    opt.node_template.linger_ms = 300;
    opt.node_template.deadline_ms = 20000;
    const net::ClusterReport cluster = net::run_cluster(opt);
    ASSERT_TRUE(cluster.ok) << "n " << c.n << " seed " << c.seed << ": " << cluster.error;
    ASSERT_EQ(cluster.nodes.size(), c.n);
    const Forest forest = run_drr(c.n, RngFactory{c.seed}).forest;
    for (const net::NodeReport& r : cluster.nodes) {
      const NodeId want = forest.parent(r.node);
      EXPECT_EQ(r.parent, want == kNoParent ? 0xffffffffu : want)
          << "n " << c.n << " seed " << c.seed << " node " << r.node;
    }
  }
}

TEST(Cluster, ChurnDegradesButEveryNodeTerminatesWithAValue) {
  if (!net::multiproc_available()) GTEST_SKIP() << "no fork/UDP on this platform";
  // Mid-run churn kills parents *after* they acked tree values: children
  // end up passively waiting for a final that will never come.  The
  // failure detector must break that wait (orphan promotion), so every
  // scheduled survivor terminates ok well inside its deadline -- churn
  // degrades the answer, it must never hang the cluster.
  net::ClusterOptions opt;
  opt.n = 10;
  opt.seed = 11;
  opt.faults = sim::FaultSchedule{/*loss=*/0.0, /*crash=*/0.0, {{6, 0.3}}};
  opt.node_template.deadline_ms = 20000;
  const net::ClusterReport cluster = net::run_cluster(opt);
  ASSERT_TRUE(cluster.ok) << cluster.error;
  for (const net::NodeReport& r : cluster.nodes) {
    if (r.scheduled_crash) continue;
    EXPECT_TRUE(r.ok) << "node " << r.node << ": " << r.error;
    EXPECT_GE(r.count, 1u) << "node " << r.node;
  }
}

TEST(Cluster, MatchesTheSimulatorOnMaxUnderCrashes) {
  if (!net::multiproc_available()) GTEST_SKIP() << "no fork/UDP on this platform";
  api::RunSpec spec;
  spec.n = 12;
  spec.aggregate = api::Aggregate::kMax;
  spec.seed = 7;
  spec.faults = sim::FaultSchedule{/*loss=*/0.0, /*crash=*/0.25};

  spec.transport = api::Transport::kUdp;
  const api::RunReport udp = api::run("drr", spec);
  ASSERT_TRUE(udp.ok()) << udp.error;
  EXPECT_TRUE(udp.consensus);

  spec.transport = api::Transport::kSim;
  const api::RunReport simulated = api::run("drr", spec);
  ASSERT_TRUE(simulated.ok()) << simulated.error;

  // Same seed -> same fault timeline -> same survivor set; max over the
  // survivors is exact in both worlds, so the values agree bit for bit.
  EXPECT_EQ(udp.value, simulated.value);
  EXPECT_EQ(udp.truth, simulated.truth);
  EXPECT_EQ(udp.participating, simulated.participating);
}

TEST(Registry, GatesTheUdpTransportPerAlgorithm) {
  api::RunSpec spec;
  spec.n = 16;
  spec.aggregate = api::Aggregate::kMax;
  spec.transport = api::Transport::kUdp;
  const api::RunReport r = api::run("uniform", spec);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.supported);
  EXPECT_NE(r.error.find("transport"), std::string::npos);

  const api::AlgorithmInfo* drr = api::Registry::instance().find("drr");
  ASSERT_NE(drr, nullptr);
  EXPECT_TRUE(drr->supports(api::Transport::kUdp));
  const api::AlgorithmInfo* uniform = api::Registry::instance().find("uniform");
  ASSERT_NE(uniform, nullptr);
  EXPECT_FALSE(uniform->supports(api::Transport::kUdp));
  EXPECT_TRUE(uniform->supports(api::Transport::kSim));
}

}  // namespace
}  // namespace drrg
