// The chaos harness: the text grammar, the pure decision engine (its
// determinism is what makes a chaos run reproducible from the root
// seed), the transport decorator's injection mechanics over real
// loopback sockets, the backoff schedule, and -- end to end -- a small
// forked cluster that stays exact under duplication and reordering.

#include <gtest/gtest.h>

#include <vector>

#include "api/scenario_text.hpp"
#include "net/backoff.hpp"
#include "net/chaos.hpp"
#include "net/multiproc.hpp"
#include "net/wire.hpp"
#include "support/rng.hpp"

namespace drrg {
namespace {

// --- the text grammar -------------------------------------------------------

TEST(ChaosGrammar, EmptyAndNoneParseToThePassthroughSpec) {
  const auto empty = api::parse_chaos("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->zero());
  const auto none = api::parse_chaos("none");
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->zero());
  EXPECT_EQ(api::format_chaos(*empty), "");
}

TEST(ChaosGrammar, ParsesEveryTokenAndRoundTripsThroughFormat) {
  const auto spec = api::parse_chaos(
      "drop:0.1,dup:0.05,corrupt:0.02,reorder:0.2/6,delay:tail:5-150:0.1,"
      "cut:24@500-4000,cut:8@1000");
  ASSERT_TRUE(spec.has_value());
  EXPECT_DOUBLE_EQ(spec->drop, 0.1);
  EXPECT_DOUBLE_EQ(spec->dup, 0.05);
  EXPECT_DOUBLE_EQ(spec->corrupt, 0.02);
  EXPECT_DOUBLE_EQ(spec->reorder, 0.2);
  EXPECT_EQ(spec->reorder_span, 6u);
  EXPECT_EQ(spec->delay.kind, sim::LatencyModel::Kind::kHeavyTail);
  EXPECT_EQ(spec->delay.min_delay, 5u);
  EXPECT_EQ(spec->delay.max_delay, 150u);
  ASSERT_EQ(spec->cuts.size(), 2u);
  EXPECT_EQ(spec->cuts[0].boundary, 24u);
  EXPECT_EQ(spec->cuts[0].start_ms, 500);
  EXPECT_EQ(spec->cuts[0].heal_ms, 4000);
  EXPECT_EQ(spec->cuts[1].boundary, 8u);
  EXPECT_EQ(spec->cuts[1].heal_ms, net::ChaosCut::kNoHeal);

  const auto reparsed = api::parse_chaos(api::format_chaos(*spec));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, *spec);
}

TEST(ChaosGrammar, RejectsMalformedSpecs) {
  EXPECT_FALSE(api::parse_chaos("drop").has_value());        // no value
  EXPECT_FALSE(api::parse_chaos("drop:0").has_value());      // prob not in (0,1]
  EXPECT_FALSE(api::parse_chaos("drop:1.5").has_value());
  EXPECT_FALSE(api::parse_chaos("reorder:0.2/0").has_value());  // zero span
  EXPECT_FALSE(api::parse_chaos("delay:zero").has_value());     // no-op delay
  EXPECT_FALSE(api::parse_chaos("cut:24").has_value());         // missing @mark
  EXPECT_FALSE(api::parse_chaos("cut:24@500-400").has_value()); // heal <= start
  EXPECT_FALSE(api::parse_chaos("frobnicate:1").has_value());   // unknown key
}

// --- chaos_with_faults ------------------------------------------------------

TEST(ChaosWithFaults, MapsPartitionsAndLatencyOntoTheWallClock) {
  sim::FaultSchedule faults;
  faults.partitions.push_back(sim::PartitionEvent{/*round=*/2, /*heal_round=*/12,
                                                  /*boundary=*/24});
  faults.latency = sim::LatencyModel{sim::LatencyModel::Kind::kUniform, 1, 4, 0.0};

  const net::ChaosSpec spec = net::chaos_with_faults({}, faults, /*round_ms=*/250);
  ASSERT_EQ(spec.cuts.size(), 1u);
  EXPECT_EQ(spec.cuts[0].start_ms, 500);
  EXPECT_EQ(spec.cuts[0].heal_ms, 3000);
  EXPECT_EQ(spec.cuts[0].boundary, 24u);
  EXPECT_EQ(spec.delay.kind, sim::LatencyModel::Kind::kUniform);
  EXPECT_EQ(spec.delay.min_delay, 250u);  // rounds -> milliseconds
  EXPECT_EQ(spec.delay.max_delay, 1000u);
}

TEST(ChaosWithFaults, ExplicitDelayWinsAndZeroRoundMsIsIdentity) {
  sim::FaultSchedule faults;
  faults.latency = sim::LatencyModel{sim::LatencyModel::Kind::kFixed, 3, 3, 0.0};

  net::ChaosSpec base;
  base.delay = sim::LatencyModel{sim::LatencyModel::Kind::kFixed, 7, 7, 0.0};
  const net::ChaosSpec kept = net::chaos_with_faults(base, faults, 250);
  EXPECT_EQ(kept.delay.min_delay, 7u);  // the explicit ms model is not overwritten

  const net::ChaosSpec untouched = net::chaos_with_faults(base, faults, 0);
  EXPECT_EQ(untouched, base);
}

// --- the decision engine ----------------------------------------------------

TEST(ChaosEngine, SameSeedSameDecisionStream) {
  net::ChaosSpec spec;
  spec.drop = 0.2;
  spec.dup = 0.1;
  spec.corrupt = 0.1;
  spec.reorder = 0.3;
  spec.reorder_span = 4;

  net::ChaosEngine a{spec, Rng{0xc4a05}};
  net::ChaosEngine b{spec, Rng{0xc4a05}};
  bool perturbed = false;
  for (int i = 0; i < 512; ++i) {
    const net::ChaosDecision da = a.next();
    ASSERT_EQ(da, b.next()) << "decision " << i << " diverged";
    perturbed |= da.drop || da.duplicate || da.corrupt || da.hold_sends > 0;
    if (da.hold_sends > 0) {
      EXPECT_LE(da.hold_sends, spec.reorder_span);
    }
    if (da.corrupt) {
      EXPECT_NE(da.corrupt_mask, 0);  // XOR with 0 would be a no-op
    }
  }
  EXPECT_TRUE(perturbed) << "512 draws at these rates must perturb something";
}

TEST(ChaosEngine, ZeroSpecNeverPerturbs) {
  net::ChaosEngine e{net::ChaosSpec{}, Rng{1}};
  for (int i = 0; i < 64; ++i) EXPECT_EQ(e.next(), net::ChaosDecision{});
}

TEST(ChaosEngine, CutsRespectTheBoundaryAndTheClock) {
  net::ChaosSpec spec;
  spec.cuts.push_back(net::ChaosCut{/*start_ms=*/500, /*heal_ms=*/4000,
                                    /*boundary=*/24});
  const net::ChaosEngine e{spec, Rng{1}};
  EXPECT_FALSE(e.cut(3, 30, 499));   // before the cut
  EXPECT_TRUE(e.cut(3, 30, 500));    // straddles, active
  EXPECT_TRUE(e.cut(30, 3, 3999));   // both directions
  EXPECT_FALSE(e.cut(3, 4, 1000));   // same side
  EXPECT_FALSE(e.cut(30, 40, 1000));
  EXPECT_FALSE(e.cut(3, 30, 4000));  // healed
}

// --- the transport decorator ------------------------------------------------

net::Frame ping(std::uint32_t src, std::uint32_t dst, std::uint32_t seq) {
  net::Frame f;
  f.id = net::MsgId::kPing;
  f.src = src;
  f.dst = dst;
  f.seq = seq;
  f.nonce = 0x5eedull + seq;
  return f;
}

bool poll_one(net::ChaosTransport& t, net::Frame& out, int tries = 50) {
  for (int i = 0; i < tries; ++i)
    if (t.poll(out, 20)) return true;
  return false;
}

struct LoopbackPair {
  net::ChaosTransport a, b;

  bool up() {
    if (!a.bind(0) || !b.bind(0)) return false;
    const std::vector<net::PeerAddr> peers{{"127.0.0.1", a.port()},
                                           {"127.0.0.1", b.port()}};
    return a.set_peers(2, 0, peers) && b.set_peers(2, 0, peers);
  }
};

TEST(ChaosTransport, ZeroSpecIsAPassthrough) {
  if (!net::udp_available()) GTEST_SKIP() << "no UDP on this platform";
  LoopbackPair p;
  ASSERT_TRUE(p.up());
  p.a.set_chaos(net::ChaosSpec{}, /*self=*/0, Rng{1});
  EXPECT_FALSE(p.a.chaotic());

  const net::Frame f = ping(0, 1, 7);
  ASSERT_TRUE(p.a.send(f));
  net::Frame got;
  ASSERT_TRUE(poll_one(p.b, got));
  EXPECT_EQ(got, f);
  EXPECT_EQ(p.a.chaos_stats().injected_drops, 0u);
}

TEST(ChaosTransport, CertainCorruptionIsAlwaysRejectedByTheChecksum) {
  if (!net::udp_available()) GTEST_SKIP() << "no UDP on this platform";
  LoopbackPair p;
  ASSERT_TRUE(p.up());
  net::ChaosSpec spec;
  spec.corrupt = 1.0;
  p.a.set_chaos(spec, 0, Rng{9});
  ASSERT_TRUE(p.a.chaotic());

  constexpr std::uint64_t kSends = 32;
  for (std::uint32_t i = 0; i < kSends; ++i) ASSERT_TRUE(p.a.send(ping(0, 1, i)));
  // Drain everything on the wire: each poll consumes (and rejects) at
  // most one datagram, so give it more rounds than there are sends.
  net::Frame got;
  for (std::uint64_t i = 0; i < kSends + 8; ++i)
    EXPECT_FALSE(p.b.poll(got, 10)) << "a flipped byte must never decode";
  EXPECT_EQ(p.a.chaos_stats().corruptions, kSends);
  EXPECT_EQ(p.b.stats().rejected, kSends);
  EXPECT_EQ(p.b.stats().delivered, 0u);
}

TEST(ChaosTransport, CertainDuplicationDeliversEveryFrameTwice) {
  if (!net::udp_available()) GTEST_SKIP() << "no UDP on this platform";
  LoopbackPair p;
  ASSERT_TRUE(p.up());
  net::ChaosSpec spec;
  spec.dup = 1.0;
  p.a.set_chaos(spec, 0, Rng{9});

  const net::Frame f = ping(0, 1, 3);
  ASSERT_TRUE(p.a.send(f));
  net::Frame first, second;
  ASSERT_TRUE(poll_one(p.b, first));
  ASSERT_TRUE(poll_one(p.b, second));
  EXPECT_EQ(first, f);
  EXPECT_EQ(second, f);
  EXPECT_EQ(p.a.chaos_stats().duplicates, 1u);
}

TEST(ChaosTransport, CertainDropDeliversNothingButCountsTheSend) {
  if (!net::udp_available()) GTEST_SKIP() << "no UDP on this platform";
  LoopbackPair p;
  ASSERT_TRUE(p.up());
  net::ChaosSpec spec;
  spec.drop = 1.0;
  p.a.set_chaos(spec, 0, Rng{9});

  ASSERT_TRUE(p.a.send(ping(0, 1, 0)));
  net::Frame got;
  EXPECT_FALSE(poll_one(p.b, got, 5));
  EXPECT_EQ(p.a.chaos_stats().injected_drops, 1u);
  EXPECT_EQ(p.a.stats().sent, 1u) << "a chaos drop still counts as sent";
}

TEST(ChaosTransport, ReorderHoldsAFrameBackUntilALaterSend) {
  if (!net::udp_available()) GTEST_SKIP() << "no UDP on this platform";
  LoopbackPair p;
  ASSERT_TRUE(p.up());
  net::ChaosSpec hold;
  hold.reorder = 1.0;
  hold.reorder_span = 1;  // hold exactly one later send
  p.a.set_chaos(hold, 0, Rng{9});

  ASSERT_TRUE(p.a.send(ping(0, 1, 0)));
  net::Frame got;
  EXPECT_FALSE(poll_one(p.b, got, 5)) << "the held frame must not be on the wire yet";
  EXPECT_EQ(p.a.chaos_stats().reorders, 1u);

  // Swap to an armed-but-inert spec (a cut at boundary 0 separates
  // nothing): the second send still walks the chaos path, so it both
  // advances the send index past the held frame's release mark and
  // goes out untouched itself.
  net::ChaosSpec inert;
  inert.cuts.push_back(net::ChaosCut{/*start_ms=*/0, /*heal_ms=*/1, /*boundary=*/0});
  p.a.set_chaos(inert, 0, Rng{9});
  ASSERT_TRUE(p.a.send(ping(0, 1, 1)));
  ASSERT_TRUE(poll_one(p.b, got));
  EXPECT_EQ(got.seq, 1u) << "the later send overtakes the held frame";
  net::Frame held;
  (void)p.a.poll(held, 1);  // pump: the release mark has now passed
  ASSERT_TRUE(poll_one(p.b, held));
  EXPECT_EQ(held.seq, 0u) << "the held frame is released after the later send";
}

TEST(ChaosTransport, ActiveCutEatsStraddlingFrames) {
  if (!net::udp_available()) GTEST_SKIP() << "no UDP on this platform";
  LoopbackPair p;
  ASSERT_TRUE(p.up());
  net::ChaosSpec spec;
  spec.cuts.push_back(net::ChaosCut{/*start_ms=*/0, net::ChaosCut::kNoHeal,
                                    /*boundary=*/1});
  p.a.set_chaos(spec, /*self=*/0, Rng{9});

  ASSERT_TRUE(p.a.send(ping(0, 1, 0)));  // 0 -> 1 straddles boundary 1
  net::Frame got;
  EXPECT_FALSE(poll_one(p.b, got, 5));
  EXPECT_EQ(p.a.chaos_stats().cut_drops, 1u);
}

// --- backoff ----------------------------------------------------------------

TEST(Backoff, DoublesToTheCapWithoutJitter) {
  net::BackoffPolicy policy{/*base_ms=*/100, /*cap_ms=*/1000, /*jitter=*/0.0};
  Rng rng{1};
  EXPECT_EQ(policy.delay(0, rng), 100);
  EXPECT_EQ(policy.delay(1, rng), 200);
  EXPECT_EQ(policy.delay(2, rng), 400);
  EXPECT_EQ(policy.delay(3, rng), 800);
  EXPECT_EQ(policy.delay(4, rng), 1000);
  EXPECT_EQ(policy.delay(9, rng), 1000) << "capped forever after";
}

TEST(Backoff, JitterStretchesWithinItsFractionAndIsSeedDeterministic) {
  const net::BackoffPolicy policy{/*base_ms=*/100, /*cap_ms=*/1000, /*jitter=*/0.25};
  Rng a{42}, b{42};
  for (std::uint32_t attempt = 0; attempt < 16; ++attempt) {
    const std::int64_t raw = std::min<std::int64_t>(100 << attempt, 1000);
    const std::int64_t da = policy.delay(attempt, a);
    EXPECT_GE(da, raw);
    EXPECT_LT(da, raw + raw / 4 + 1);
    EXPECT_EQ(da, policy.delay(attempt, b)) << "same seed, same schedule";
  }
}

// --- end to end: a forked cluster stays exact under chaos -------------------

TEST(ChaosCluster, DupReorderCorruptClusterComputesEveryAggregateExactly) {
  if (!net::multiproc_available()) GTEST_SKIP() << "no fork/UDP on this platform";
  constexpr std::uint32_t kN = 8;
  net::ClusterOptions opt;
  opt.n = kN;
  opt.seed = 3;
  opt.values = {5.0, 1.0, 9.0, 4.0, 8.0, 2.0, 7.0, 3.0};
  const auto spec = api::parse_chaos("dup:0.2,reorder:0.25/4,corrupt:0.05");
  ASSERT_TRUE(spec.has_value());
  opt.node_template.chaos = *spec;
  opt.node_template.bootstrap_min_ms = 150;
  opt.node_template.linger_ms = 500;
  opt.node_template.deadline_ms = 20000;
  const net::ClusterReport cluster = net::run_cluster(opt);
  ASSERT_TRUE(cluster.ok) << cluster.error;
  std::uint64_t dups = 0, rejects = 0;
  for (const net::NodeReport& r : cluster.nodes) {
    EXPECT_TRUE(r.ok) << "node " << r.node << ": " << r.error;
    EXPECT_EQ(r.max, 9.0) << "node " << r.node;
    EXPECT_EQ(r.min, 1.0) << "node " << r.node;
    EXPECT_EQ(r.sum, 39.0) << "node " << r.node;
    EXPECT_EQ(r.count, kN) << "node " << r.node;
    dups += r.duplicates_dropped;
    rejects += r.corrupt_rejected;
  }
  // At these rates the cluster cannot have run adversity-free: the
  // degradation counters prove the harness actually injected.
  EXPECT_GT(dups + rejects, 0u);
}

}  // namespace
}  // namespace drrg
