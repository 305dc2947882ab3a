#include "net/node.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <thread>

#include "drr/drr_rules.hpp"
#include "net/backoff.hpp"
#include "net/membership.hpp"
#include "sim/scenario.hpp"
#include "support/mathutil.hpp"
#include "support/workload.hpp"

namespace drrg::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNone = 0xffffffffu;

// Wall-clock and retry constants, sized for localhost-to-LAN clusters.
// Every retry ladder backs off from kRetryBaseMs (net/backoff.hpp).
constexpr std::int64_t kRetryBaseMs = 150;
constexpr std::uint32_t kBootstrapQuorum = 3;  ///< hello-acks before proceeding
constexpr std::uint32_t kProbeRetries = 3;  ///< sends per probe (then the attempt is spent)
/// Sends of a tree-edge request: a value up (then orphan-promote to
/// root) or a final down (then give the child up).
constexpr std::uint32_t kTreeRetries = 25;
/// Retry budget for the kTreeLeave retraction: generous because it must
/// survive a whole partition (backoff caps the per-try cost).
constexpr std::uint32_t kTreeLeaveRetryCap = 64;
constexpr std::int64_t kSubtreeStableMs = 400;  ///< root quiescence before gossip
constexpr std::int64_t kGossipTickMs = 100;
constexpr std::uint32_t kQuietExchanges = 3;
/// Roots hold the finalize until the fold covers every peer membership
/// still presumes live; past this mark they finalize on quiescence alone
/// (liveness under pathological loss -- degrade, don't hang).
constexpr std::int64_t kFinalizeFallbackMs = 8000;
constexpr std::uint32_t kRelayTtl = 24;

/// The monotone aggregate bundle one subtree (or root table fold)
/// carries.  Exact double equality is the change detector: merges move
/// the same bit patterns around, so equal means nothing new arrived.
struct Stats {
  double max = -std::numeric_limits<double>::infinity();
  double min = std::numeric_limits<double>::infinity();
  double sum = 0.0;
  std::uint64_t count = 0;

  bool operator==(const Stats&) const = default;

  void merge(const Stats& o) noexcept {
    max = std::max(max, o.max);
    min = std::min(min, o.min);
    sum += o.sum;
    count += o.count;
  }
};

struct ChildSlot {
  std::uint32_t child = kNone;
  std::uint32_t ver = 0;
  Stats stats{};
  bool seen = false;
  /// Highest kTreeLeave version from this child: the subtree retracted
  /// itself (orphan promotion) and tree values at or below this version
  /// are stale echoes, never re-adopted.
  std::uint32_t departed_ver = 0;
};

/// Per-source window of recently seen (id, seq) keys: retries and chaos
/// duplicates of a request are re-acked without re-processing, and
/// duplicate non-requests are dropped.  Handlers stay idempotent -- the
/// window is bandwidth hygiene plus a diagnosable counter, not a
/// correctness dependency.
struct DedupRing {
  std::array<std::uint64_t, 16> keys{};
  std::uint32_t next = 0;
};

/// One in-flight request awaiting its ack.
struct Pending {
  MsgId kind;
  std::uint32_t dst;
  std::uint32_t seq;
  Frame frame;
  std::int64_t deadline;
  std::int64_t timeout;
  std::uint32_t attempts;
  std::uint32_t cap;
};

enum class Phase : std::uint8_t {
  kBootstrap,
  kProbing,    // Phase I: probing / connecting
  kTree,       // settled non-root: convergecast + wait for kFinal
  kRootWait,   // root: waiting for the subtree to quiesce
  kGossip,     // root: Phase III anti-entropy
  kSpread,     // pushing kFinal to children
  kLinger,     // answer stragglers, then exit
};

class NodeRuntime {
 public:
  explicit NodeRuntime(const NodeOptions& opt)
      : opt_(opt), rngs_(opt.seed), drr_rules_(opt.n, DrrConfig{}, /*complete_graph=*/true) {}

  NodeReport run() {
    NodeReport report;
    report.node = opt_.node;
    if (opt_.n < 2 || opt_.node >= opt_.n) {
      report.error = "need n >= 2 and node < n";
      return report;
    }

    // The fault timeline is a pure function of (seed, faults): every
    // process and the simulator agree on it without coordination.  Each
    // node consults only its *own* fate; peer liveness is learned the
    // distributed way (timeouts + membership gossip).
    const sim::FaultTimeline timeline = sim::full_timeline(opt_.n, rngs_, opt_.faults);
    death_round_ = timeline.death[opt_.node];
    birth_round_ = timeline.birth[opt_.node];
    if (death_round_ == 0) {
      report.scheduled_crash = true;
      return report;  // down from the start: never binds
    }
    // A joiner sleeps through its absence: with a wall-clock round scale
    // the process exists from launch but only binds (and starts its own
    // clocks) at birth_round * round_ms on the cluster clock.
    if (birth_round_ != sim::kBornAtStart && opt_.round_ms > 0) {
      start_delay_ = static_cast<std::int64_t>(birth_round_) * opt_.round_ms;
      std::this_thread::sleep_for(std::chrono::milliseconds(start_delay_));
    }

    values_ = opt_.values;
    if (values_.empty()) values_ = workload::make_values(opt_.n, opt_.seed);
    if (values_.size() != opt_.n) {
      report.error = "values length != n";
      return report;
    }

    const std::uint16_t port =
        opt_.bind_port != 0
            ? opt_.bind_port
            : static_cast<std::uint16_t>(opt_.port_base + opt_.node);
    if (!udp_.bind(port) || !udp_.set_peers(opt_.n, opt_.port_base, opt_.seed_list)) {
      report.error = udp_.error();
      return report;
    }
    if (opt_.faults.loss_prob > 0.0) {
      udp_.set_loss(opt_.faults.loss_prob,
                    rngs_.engine_stream(derive_seed(0x105eULL, opt_.node)));
    }
    // Fold the schedule's transport-level adversity (partitions,
    // latency) into the chaos spec; deaths/births stay real (SIGKILL /
    // late spawn).  A zero spec keeps the transport in passthrough.
    const ChaosSpec chaos = chaos_with_faults(opt_.chaos, opt_.faults, opt_.round_ms);
    if (!chaos.zero()) {
      udp_.set_chaos(chaos, opt_.node, rngs_.node_stream(opt_.node, 0xc4a05ULL),
                     start_delay_);
    }
    backoff_rng_ = rngs_.node_stream(opt_.node, 0xb0ffULL);
    dedup_.assign(opt_.n, DedupRing{});

    // The simulator's Phase I stream: the rank, then the probe targets.
    drr_rng_ = rngs_.node_stream(opt_.node, drr_stream_purpose(0));
    rank_ = draw_rank(drr_rng_);
    aux_rng_ = rngs_.node_stream(opt_.node, 0x90551bULL);

    min_exchanges_ = std::max<std::uint32_t>(8, 2 * ceil_log2(opt_.n));
    membership_ = std::make_unique<Membership>(opt_.n, opt_.node);
    own_stats_ = Stats{values_[opt_.node], values_[opt_.node], values_[opt_.node], 1};
    // Joiners match the simulator's founder semantics: they carry
    // traffic (probe, relay, adopt the final) but hold no founding
    // value, so the fold stays the surviving round-0 cohort's aggregate.
    joiner_.assign(opt_.n, false);
    if (opt_.round_ms > 0) {
      for (std::uint32_t v = 0; v < opt_.n; ++v)
        joiner_[v] = timeline.birth[v] != sim::kBornAtStart;
      if (joiner_[opt_.node]) own_stats_ = Stats{};
    }

    t0_ = Clock::now();
    loop();

    report.ok = have_final_ && error_.empty();
    report.scheduled_crash = halted_by_schedule_;
    report.root = root_;
    report.parent = parent_;
    report.max = final_.max;
    report.min = final_.min;
    report.sum = final_.sum;
    report.count = final_.count;
    report.sent = udp_.stats().sent;
    report.delivered = udp_.stats().delivered;
    report.bits = udp_.stats().bits;
    report.retries = retries_;
    report.steps = steps_;
    report.roots_seen = static_cast<std::uint32_t>(table_.size());
    report.wall_ms = now_ms();
    report.duplicates_dropped = duplicates_dropped_;
    report.corrupt_rejected = udp_.stats().rejected;
    report.reorders_buffered = udp_.chaos_stats().reorders;
    report.backoff_ms_total = backoff_ms_total_;
    report.suspect_flaps = membership_->flaps();
    report.error = error_;
    if (!report.ok && report.error.empty() && !halted_by_schedule_)
      report.error = "deadline before final value";
    return report;
  }

 private:
  [[nodiscard]] std::int64_t now_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0_)
        .count();
  }

  // --- event loop -----------------------------------------------------

  void loop() {
    std::int64_t next_gossip = 0;
    std::int64_t next_hello = 0;
    while (true) {
      const std::int64_t now = now_ms();
      if (now >= opt_.deadline_ms) return;
      if (death_round_ != sim::kNeverCrashes && opt_.self_halt) {
        // Mid-run churn: go silent, as scheduled.  With a wall-clock
        // round scale the mark is on the cluster clock (start_delay_
        // re-bases a joiner); otherwise the legacy protocol-step count
        // approximates the round.  self_halt == false leaves the death
        // to the driver's SIGKILL -- a real crash, not a clean return.
        const bool due =
            opt_.round_ms > 0
                ? now + start_delay_ >=
                      static_cast<std::int64_t>(death_round_) * opt_.round_ms
                : steps_ >= death_round_;
        if (due) {
          halted_by_schedule_ = true;
          return;
        }
      }
      if (phase_ == Phase::kLinger && now >= linger_until_) return;

      Frame f;
      if (udp_.poll(f, 1)) handle(f, now);

      expire_pending(now);

      // Membership heartbeat + digest push, every gossip tick, in every
      // phase (lissandra runs its gossip timer independent of request
      // traffic for the same reason: failure detection must not stall
      // behind the workload).
      if (now >= next_gossip) {
        next_gossip = now + kGossipTickMs;
        membership_->beat();
        membership_->age(now);
        for (std::uint32_t i = 0; i < membership_->gossip_fanout(); ++i) {
          const std::uint32_t peer = membership_->sample_live_peer(aux_rng_);
          if (peer >= opt_.n) break;
          Frame d;
          membership_->fill_digest(d);
          d.src = opt_.node;
          d.dst = peer;
          d.seq = next_seq();
          udp_.send(d);
        }
        if (phase_ == Phase::kGossip ||
            (root_ && have_final_ && (phase_ == Phase::kSpread || phase_ == Phase::kLinger)))
          gossip_tick(now);
      }

      // A settled non-root pushes its subtree whenever it changed and no
      // tree value is in flight: the Phase II convergecast, and after the
      // final a correction (a child retracted or re-reported).
      if (!root_ && dirty_ && find_pending(MsgId::kTreeValue) == nullptr) push_tree(now);

      switch (phase_) {
        case Phase::kBootstrap:
          if ((hello_acks_ >= effective_quorum() && now >= opt_.bootstrap_min_ms) ||
              now >= opt_.bootstrap_timeout_ms) {
            phase_ = Phase::kProbing;
          } else if (now >= next_hello) {
            // Backoff'd tick, two fresh contacts per tick: same early
            // aggregate rate as the old fixed interval, but under loss
            // or delay chaos the cluster's hello bursts de-synchronize
            // instead of hammering in lockstep.
            next_hello = now + BackoffPolicy{kRetryBaseMs}.delay(hello_tries_++, backoff_rng_);
            send_hello();
            send_hello();
          }
          break;
        case Phase::kProbing:
          advance_phase1(now);
          break;
        case Phase::kTree:
          if (find_pending(MsgId::kTreeValue) == nullptr && membership_->is_dead(parent_)) {
            // Value acked, now passively waiting for the parent's final --
            // but the failure detector says the parent died (mid-run
            // churn).  There is no pending send whose retries could
            // notice, so the detector breaks the wait: promote and reach
            // a value through Phase III instead of the deadline.
            promote_to_root(now);
          }
          break;
        case Phase::kRootWait:
          if (now - last_subtree_change_ >= kSubtreeStableMs) {
            phase_ = Phase::kGossip;
          }
          break;
        case Phase::kSpread:
          // A final to a child believed dead keeps retrying but does not
          // hold the spread.
          if (std::none_of(pending_.begin(), pending_.end(), [&](const Pending& p) {
                return p.kind == MsgId::kFinal && !membership_->is_dead(p.dst);
              })) {
            linger_until_ = now + opt_.linger_ms;
            phase_ = Phase::kLinger;
          }
          break;
        case Phase::kGossip:  // driven by gossip_tick above
        case Phase::kLinger:
          break;
      }
    }
  }

  [[nodiscard]] std::uint32_t effective_quorum() const {
    return std::min(kBootstrapQuorum, opt_.n - 1);
  }

  // --- message handling -----------------------------------------------

  void handle(const Frame& f, std::int64_t now) {
    if (f.dst != opt_.node || f.src >= opt_.n) return;  // stray datagram
    if (f.src != opt_.node) {
      membership_->heard_from(f.src, now);  // duplicates still prove liveness
      if (suppress_duplicate(f)) return;
    }
    switch (f.id) {
      case MsgId::kHello:
        ack(f);
        break;
      case MsgId::kHelloAck:
        if (f.src < opt_.n && !helloed_[f.src]) {
          helloed_[f.src] = true;
          ++hello_acks_;
        }
        drop_pending(MsgId::kHello, f.src);
        break;
      case MsgId::kPing:
        ack(f);
        break;
      case MsgId::kPong:
        break;  // heard_from above did the work
      case MsgId::kMemberGossip:
        for (std::uint8_t i = 0; i < f.n_members; ++i)
          membership_->merge(f.members[i], now);
        break;
      case MsgId::kProbe:
        ack(f);
        break;
      case MsgId::kProbeAck:
        on_probe_ack(f, now);
        break;
      case MsgId::kConnect:
        add_child(f.src, now);
        ack(f);
        break;
      case MsgId::kConnectAck:
        on_connect_ack(f, now);
        break;
      case MsgId::kTreeValue:
        on_tree_value(f, now);
        break;
      case MsgId::kTreeAck: {
        const Pending* p = find_pending(MsgId::kTreeValue);
        if (p != nullptr && p->dst == f.src && f.ver >= p->frame.ver)
          drop_pending(MsgId::kTreeValue, f.src);
        break;
      }
      case MsgId::kRootExchange:
        on_root_exchange(f, now);
        break;
      case MsgId::kRootAck:
        on_root_ack(f, now);
        break;
      case MsgId::kTreeLeave:
        on_tree_leave(f, now);
        break;
      case MsgId::kTreeLeaveAck:
        drop_pending_seq(MsgId::kTreeLeave, f.src, f.seq);
        break;
      case MsgId::kFinal:
        on_final(f, now);
        break;
      case MsgId::kFinalAck:
        // Seq-matched: a delayed ack for a superseded final must not
        // cancel the re-spread of a newer one.
        drop_pending_seq(MsgId::kFinal, f.src, f.seq);
        break;
    }
  }

  /// True when (src, id, seq) was already seen recently.  Requests are
  /// re-acked (the retry means our ack was lost); everything else is
  /// dropped -- the first copy already did the work.
  bool suppress_duplicate(const Frame& f) {
    DedupRing& ring = dedup_[f.src];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint16_t>(f.id)) << 32) | f.seq;
    for (const std::uint64_t k : ring.keys) {
      if (k != key) continue;
      ++duplicates_dropped_;
      ack(f);
      return true;
    }
    ring.keys[ring.next] = key;
    ring.next = (ring.next + 1) % static_cast<std::uint32_t>(ring.keys.size());
    return false;
  }

  /// Sends the ack a request is owed: the first copy's, and a suppressed
  /// duplicate's, so the sender's retry ladder terminates even when our
  /// first ack was lost.  The probe ack carries our rank in the max slot.
  void ack(const Frame& f) {
    MsgId id;
    switch (f.id) {
      case MsgId::kHello: id = MsgId::kHelloAck; break;
      case MsgId::kPing: id = MsgId::kPong; break;
      case MsgId::kProbe: id = MsgId::kProbeAck; break;
      case MsgId::kConnect: id = MsgId::kConnectAck; break;
      case MsgId::kTreeValue: id = MsgId::kTreeAck; break;
      case MsgId::kTreeLeave: id = MsgId::kTreeLeaveAck; break;
      case MsgId::kFinal: id = MsgId::kFinalAck; break;
      default: return;  // acks, gossip, exchanges: the duplicate just dies here
    }
    // Each ack echoes the request's seq; the codec carries only the
    // fields its kind defines (the ping's nonce, the acked version).
    Frame a = make_frame(id, f.src);
    a.seq = f.seq;
    a.nonce = f.nonce;
    a.ver = f.ver;
    if (id == MsgId::kProbeAck) a.max = rank_;
    udp_.send(a);
  }

  // --- bootstrap ------------------------------------------------------

  void send_hello() {
    // A fresh random contact each tick: a dropped packet (or a dead
    // seed) costs one retry interval, never a hang.
    const auto peer = static_cast<std::uint32_t>(aux_rng_.next_below(opt_.n));
    if (peer == opt_.node) return;
    Frame h = make_frame(MsgId::kHello, peer);
    h.a = udp_.port();
    udp_.send(h);
  }

  // --- Phase I: DRR ---------------------------------------------------
  //
  // Algorithm 1's rules are drr_rules_'s (drr/drr_rules.hpp), the ones
  // the simulator runs; this section only moves their frames.  One probe
  // or connect is in flight at a time, retried by the pending machinery,
  // and its answer or give-up closes the exchange.

  void advance_phase1(std::int64_t now) {
    if (find_pending(MsgId::kProbe) != nullptr || find_pending(MsgId::kConnect) != nullptr)
      return;
    const DrrRules::Action action = drr_rules_.begin_round(drr_);
    if (action == DrrRules::Action::kProbe)
      issue_probe(now);
    else if (action == DrrRules::Action::kConnect)
      start_connect(now);
  }

  void issue_probe(std::int64_t now) {
    const std::uint32_t target = drr_rules_.probe_target(
        opt_.node, static_cast<std::uint32_t>(drr_rng_.next_below(opt_.n)));
    ++steps_;
    Frame p = make_frame(MsgId::kProbe, target);
    p.a = drr_.attempts + 1;  // 1-based attempt index
    // A confirmed-dead target gets one send and a spent attempt -- the
    // simulator's lost-probe semantics, at one timeout's cost.
    const std::uint32_t cap = membership_->is_dead(target) ? 1 : kProbeRetries;
    add_pending(p, now, kRetryBaseMs, cap);
    udp_.send(p);
  }

  void on_probe_ack(const Frame& f, std::int64_t now) {
    const Pending* p = find_pending(MsgId::kProbe);
    if (p == nullptr || p->dst != f.src || p->seq != f.seq) return;
    drop_pending(MsgId::kProbe, f.src);
    DrrRules::probe_answered(drr_, f.src, f.max, rank_);  // rank rides the max slot
    end_exchange(now);
  }

  /// An answered or abandoned probe closes the exchange.
  void end_exchange(std::int64_t now) {
    if (drr_rules_.end_round(drr_)) settle(now);
  }

  void start_connect(std::int64_t now) {
    ++steps_;
    Frame c = make_frame(MsgId::kConnect, drr_.pending_parent);
    add_pending(c, now, kRetryBaseMs, drr_rules_.connect_cap);
    udp_.send(c);
  }

  void on_connect_ack(const Frame& f, std::int64_t now) {
    if (drr_.settled || f.src != drr_.pending_parent) return;
    drop_pending(MsgId::kConnect, f.src);
    DrrRules::connected(drr_, f.src);
    settle(now);
  }

  /// Orphan promotion: an already-settled child whose parent is gone
  /// re-enters the pipeline as a root of its own subtree, so the subtree
  /// reaches Phase III instead of vanishing (and the child terminates
  /// with a value instead of waiting for a final that will never come).
  void promote_to_root(std::int64_t now) {
    if (root_ || !drr_.settled) return;
    const std::uint32_t old_parent = parent_;
    root_ = true;
    parent_ = kNone;
    last_subtree_change_ = now;
    // Insert our authoritative table entry directly: recompute_subtree
    // would early-return (the subtree stats are unchanged) and never
    // reach its root-only upsert.  The version bump marks the entry
    // fresher than any rumor.
    ++subtree_ver_;
    upsert_table(RootEntry{opt_.node, subtree_ver_, subtree_.count, subtree_.max,
                           subtree_.min, subtree_.sum});
    quiet_ = 0;
    phase_ = Phase::kRootWait;
    // Retract our subtree from the old parent's slot: we now announce it
    // ourselves, and the old parent may be alive (a lossy link spent our
    // retries, or a partition heals), so without the retraction the fold
    // counts it twice.  Retried through a cut (exempt from the dead-peer
    // fast path) until acked.
    if (old_parent != kNone) {
      Frame lv = make_frame(MsgId::kTreeLeave, old_parent);
      lv.ver = subtree_ver_;
      add_pending(lv, now, kRetryBaseMs, kTreeLeaveRetryCap);
      udp_.send(lv);
    }
  }

  /// Phase I is over: Phase II starts from its outcome.
  void settle(std::int64_t now) {
    parent_ = drr_.parent;
    root_ = parent_ == kNone;
    recompute_subtree(now);
    if (root_) {
      last_subtree_change_ = now;
      phase_ = Phase::kRootWait;
    } else {
      phase_ = Phase::kTree;
      dirty_ = true;
    }
  }

  // --- Phase II: convergecast as monotone push ------------------------

  void add_child(std::uint32_t child, std::int64_t now) {
    for (const ChildSlot& s : children_)
      if (s.child == child) return;
    children_.push_back(ChildSlot{child, 0, Stats{}, false, 0});
    // A child attaching after the result went out (a late joiner, or a
    // straggler whose connect spent its backoff) still gets the current
    // final; its value then re-folds through the normal tree push.
    if (have_final_) send_final(child, now);
  }

  void on_tree_value(const Frame& f, std::int64_t now) {
    add_child(f.src, now);  // a retried connect-ack may have been lost: adopt
    for (ChildSlot& s : children_) {
      if (s.child != f.src) continue;
      // Values at or below the child's retraction version are stale
      // echoes (a reordered datagram from before it promoted away):
      // ack them -- the sender is not waiting -- but never re-adopt.
      if (f.ver > s.departed_ver && (!s.seen || f.ver >= s.ver)) {
        s.seen = true;
        s.ver = f.ver;
        s.stats = Stats{f.max, f.min, f.sum, f.count};
        recompute_subtree(now);
      }
      break;
    }
    ack(f);
  }

  void on_tree_leave(const Frame& f, std::int64_t now) {
    for (ChildSlot& s : children_) {
      if (s.child != f.src) continue;
      if (f.ver > s.departed_ver) {
        s.departed_ver = f.ver;
        s.seen = false;  // the subtree is the child's to announce now
        recompute_subtree(now);
      }
      break;
    }
    ack(f);  // always: the retraction must stop retrying
  }

  void recompute_subtree(std::int64_t now) {
    if (!drr_.settled) return;
    Stats next = own_stats_;
    for (const ChildSlot& s : children_)
      if (s.seen) next.merge(s.stats);
    if (next == subtree_ && subtree_ver_ != 0) return;
    subtree_ = next;
    ++subtree_ver_;
    last_subtree_change_ = now;
    if (root_) {
      upsert_table(RootEntry{opt_.node, subtree_ver_, subtree_.count, subtree_.max,
                             subtree_.min, subtree_.sum});
      quiet_ = 0;  // our own entry changed: re-spread before finalizing
      refinalize(now);
    } else {
      dirty_ = true;
    }
  }

  void push_tree(std::int64_t now) {
    dirty_ = false;
    ++steps_;
    Frame t = make_frame(MsgId::kTreeValue, parent_);
    t.max = subtree_.max;
    t.min = subtree_.min;
    t.sum = subtree_.sum;
    t.count = subtree_.count;
    t.ver = subtree_ver_;
    add_pending(t, now, kRetryBaseMs, kTreeRetries);
    udp_.send(t);
  }

  // --- Phase III: root-table anti-entropy -----------------------------

  bool upsert_table(const RootEntry& e) {
    for (RootEntry& mine : table_) {
      if (mine.root != e.root) continue;
      if (e.ver <= mine.ver) return false;
      mine = e;
      return true;
    }
    table_.push_back(e);
    return true;
  }

  /// Merges a received table; the entry for *this* root is authoritative
  /// locally and never overwritten by rumor.
  bool merge_table(const Frame& f) {
    bool changed = false;
    for (std::uint8_t i = 0; i < f.n_roots; ++i) {
      if (f.roots[i].root == opt_.node) continue;
      changed = upsert_table(f.roots[i]) || changed;
    }
    return changed;
  }

  void send_table(MsgId id, std::uint32_t dst, std::uint32_t ttl) {
    for (std::size_t base = 0; base < table_.size() || base == 0;
         base += kMaxRootEntries) {
      Frame x = make_frame(id, dst);
      x.a = ttl;
      const std::size_t chunk = std::min(kMaxRootEntries, table_.size() - base);
      x.n_roots = static_cast<std::uint8_t>(chunk);
      for (std::size_t i = 0; i < chunk; ++i) x.roots[i] = table_[base + i];
      udp_.send(x);
      if (base + kMaxRootEntries >= table_.size()) break;
    }
  }

  /// Phase III push of the table, then the finalize gate.  After the
  /// result went out a root keeps pushing and alternates the live sample
  /// with a uniform draw over *all* ids: after a heal the peers that
  /// matter most are exactly the ones membership still believes dead --
  /// only an unconditional contact can revive them (resurrection sampling).
  void gossip_tick(std::int64_t now) {
    ++steps_;
    const bool finalized = phase_ != Phase::kGossip;
    resurrect_ = finalized && !resurrect_;
    std::uint32_t peer = resurrect_ ? static_cast<std::uint32_t>(aux_rng_.next_below(opt_.n))
                                    : membership_->sample_live_peer(aux_rng_);
    if (resurrect_ && peer == opt_.node) peer = (peer + 1) % opt_.n;
    if (peer < opt_.n) send_table(MsgId::kRootExchange, peer, kRelayTtl);
    if (finalized) return;
    ++exchanges_;
    if (peer >= opt_.n) ++quiet_;  // nobody left to learn from
    // Completeness gate on top of the stability heuristics: a laggard
    // subtree (CPU-starved process, slow link) can announce its entry
    // *after* min_exchanges went quiet, so quiescence alone may finalize
    // a partial fold.  The membership view knows how many peers are not
    // (yet) believed dead; hold the finalize until the fold covers them
    // all.  Crashed peers leave the estimate via silence aging, so the
    // gate converges; the fallback deadline keeps pathological loss from
    // blocking termination (degrade, don't hang).
    std::uint64_t covered = 0;
    for (const RootEntry& e : table_) covered += e.count;
    // Joiners hold no founding value: a live joiner raises the
    // membership estimate but can never raise the covered count, so it
    // is excluded from the completeness target.
    std::uint32_t expect = membership_->alive_count();
    for (std::uint32_t v = 0; v < opt_.n; ++v)
      if (joiner_[v] && (v == opt_.node || !membership_->is_dead(v)) && expect > 0)
        --expect;
    const bool complete = covered >= expect;
    if (exchanges_ >= min_exchanges_ && quiet_ >= kQuietExchanges &&
        now - last_table_change_ >= 2 * kGossipTickMs &&
        (complete || now >= kFinalizeFallbackMs)) {
      finalize(now);
    }
  }

  void on_root_exchange(const Frame& f, std::int64_t now) {
    if (!drr_.settled) return;  // cannot relay yet; originator will retry
    if (!root_) {
      if (f.a == 0 || parent_ == kNone) return;  // TTL exhausted / orphaned
      Frame relay = f;  // src stays the originator: the ack goes direct
      relay.a -= 1;
      relay.dst = parent_;
      udp_.send(relay);
      return;
    }
    if (f.src == opt_.node) {
      // An exchange of ours walked home through our own tree: it met no
      // other root, which is as quiet as an unchanged ack.  Without this a
      // root whose peers already finalized and left never goes quiet.
      ++quiet_;
      return;
    }
    if (merge_table(f)) {
      last_table_change_ = now;
      quiet_ = 0;
      refinalize(now);
    }
    send_table(MsgId::kRootAck, f.src, 0);  // anti-entropy pull half
  }

  void on_root_ack(const Frame& f, std::int64_t now) {
    if (!root_ || f.src == opt_.node) return;
    if (merge_table(f)) {
      last_table_change_ = now;
      quiet_ = 0;
      refinalize(now);
    } else {
      ++quiet_;
    }
  }

  /// Fold of the current table in root-id order: every root holding the
  /// same table computes the bit-identical result regardless of arrival
  /// order.
  [[nodiscard]] Stats fold_table() const {
    std::vector<RootEntry> sorted = table_;
    std::sort(sorted.begin(), sorted.end(),
              [](const RootEntry& a, const RootEntry& b) { return a.root < b.root; });
    Stats folded{};
    for (const RootEntry& e : sorted)
      folded.merge(Stats{e.max, e.min, e.sum, e.count});
    return folded;
  }

  void finalize(std::int64_t now) {
    final_ = fold_table();
    have_final_ = true;
    ++final_ver_;
    spread_final(now);
  }

  /// Post-final convergence: when the table changes after the result
  /// went out (a late root's entry, a retracted or re-reported subtree,
  /// a healed partition's other island), a root folds again and
  /// re-spreads under a higher version.
  void refinalize(std::int64_t now) {
    if (root_ && have_final_ && fold_table() != final_) finalize(now);
  }

  // --- result spread --------------------------------------------------

  void spread_final(std::int64_t now) {
    phase_ = Phase::kSpread;
    drop_pending_all(MsgId::kFinal);  // superseded spreads stop retrying
    for (const ChildSlot& s : children_) {
      if (s.departed_ver > 0 && !s.seen) continue;  // promoted away: a root now
      send_final(s.child, now);
    }
  }

  void send_final(std::uint32_t child, std::int64_t now) {
    Frame fin = make_frame(MsgId::kFinal, child);
    fin.max = final_.max;
    fin.min = final_.min;
    fin.sum = final_.sum;
    fin.count = final_.count;
    fin.ver = final_ver_;
    add_pending(fin, now, kRetryBaseMs, kTreeRetries);
    udp_.send(fin);
  }

  void on_final(const Frame& f, std::int64_t now) {
    ack(f);
    // A promoted orphan is a root in its own right: it acks (the old
    // parent must stop retrying) but reaches its result through Phase
    // III, never by adopting a fold that may lack its retracted subtree.
    if (root_) return;
    // Monotone adoption by version: a re-spread after re-convergence
    // supersedes, a duplicate or reordered older final never regresses.
    if (have_final_ && f.ver <= final_ver_) return;
    final_ = Stats{f.max, f.min, f.sum, f.count};
    final_ver_ = f.ver;
    have_final_ = true;
    // A tree value still in flight keeps retrying: the fold may lack it,
    // and once the parent has it the correction re-folds up to the root.
    spread_final(now);
  }

  // --- pending / retry machinery --------------------------------------

  std::uint32_t next_seq() { return ++seq_; }

  Frame make_frame(MsgId id, std::uint32_t dst) {
    Frame f;
    f.id = id;
    f.src = opt_.node;
    f.dst = dst;
    f.seq = next_seq();
    return f;
  }

  void add_pending(const Frame& f, std::int64_t now, std::int64_t timeout,
                   std::uint32_t cap) {
    pending_.push_back(Pending{f.id, f.dst, f.seq, f, now + timeout, timeout, 1, cap});
  }

  [[nodiscard]] const Pending* find_pending(MsgId kind) const {
    for (const Pending& p : pending_)
      if (p.kind == kind) return &p;
    return nullptr;
  }

  void drop_pending(MsgId kind, std::uint32_t dst) {
    std::erase_if(pending_, [&](const Pending& p) {
      return p.kind == kind && p.dst == dst;
    });
  }

  /// Seq-matched variant: retries reuse the request's seq, so the ack of
  /// any retry matches, while a stale ack for a superseded request (an
  /// earlier final, a delayed duplicate) matches nothing.
  void drop_pending_seq(MsgId kind, std::uint32_t dst, std::uint32_t seq) {
    std::erase_if(pending_, [&](const Pending& p) {
      return p.kind == kind && p.dst == dst && p.seq == seq;
    });
  }

  void drop_pending_all(MsgId kind) {
    std::erase_if(pending_, [&](const Pending& p) { return p.kind == kind; });
  }

  void expire_pending(std::int64_t now) {
    // Collect expirations first: give-up handlers mutate pending_.
    std::vector<Pending> exhausted;
    for (Pending& p : pending_) {
      if (now < p.deadline) continue;
      // Confirmed-dead destination: spend the remaining budget at once
      // instead of walking the whole backoff ladder -- except for the
      // retraction and the final, which must keep trying *through* a cut
      // or lossy link the failure detector mistakes for a death (a child
      // left without its final promotes too late to retract its slot).
      const bool dead_fast =
          membership_->is_dead(p.dst) &&
          (p.kind == MsgId::kConnect || p.kind == MsgId::kTreeValue);
      if (p.attempts >= p.cap || dead_fast) {
        exhausted.push_back(p);
        continue;
      }
      // Capped exponential backoff with seeded jitter (net/backoff.hpp):
      // retry number `attempts - 1` of this request, so consecutive
      // resends spread out instead of re-colliding with whatever chaos
      // ate the original.
      const std::int64_t wait =
          BackoffPolicy{p.timeout}.delay(p.attempts - 1, backoff_rng_);
      backoff_ms_total_ +=
          static_cast<std::uint64_t>(std::max<std::int64_t>(0, wait - p.timeout));
      ++p.attempts;
      ++retries_;
      p.deadline = now + wait;
      udp_.send(p.frame);
    }
    for (const Pending& p : exhausted) {
      drop_pending(p.kind, p.dst);
      give_up(p, now);
    }
  }

  void give_up(const Pending& p, std::int64_t now) {
    switch (p.kind) {
      case MsgId::kHello:
        break;  // bootstrap keeps trying fresh peers on its own timer
      case MsgId::kProbe:
        end_exchange(now);  // unanswered: the attempt is spent
        break;
      case MsgId::kConnect:
        if (DrrRules::connect_exhausted(drr_)) settle(now);
        break;
      case MsgId::kTreeValue:
        // Parent unreachable (crashed mid-run): promote to root so this
        // subtree still reaches Phase III instead of vanishing.
        promote_to_root(now);
        break;
      case MsgId::kFinal:
        break;  // child likely dead; the rest of the tree still exits
      default:
        break;
    }
  }

  // --- state ----------------------------------------------------------

  NodeOptions opt_;
  RngFactory rngs_;
  ChaosTransport udp_;
  std::unique_ptr<Membership> membership_;
  Clock::time_point t0_{};

  std::vector<double> values_;
  std::vector<bool> joiner_;  ///< birth > 0 per id (empty-valued peers)
  std::uint32_t death_round_ = sim::kNeverCrashes;
  std::uint32_t birth_round_ = sim::kBornAtStart;
  std::int64_t start_delay_ = 0;  ///< joiner: cluster-clock ms slept before bind
  bool halted_by_schedule_ = false;

  DrrRules drr_rules_;
  DrrNode drr_{};
  Rng drr_rng_{};
  double rank_ = 0.0;
  Rng aux_rng_{};
  Rng backoff_rng_{};
  std::uint32_t min_exchanges_ = 0;

  std::vector<DedupRing> dedup_;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t backoff_ms_total_ = 0;
  std::uint32_t hello_tries_ = 0;
  bool resurrect_ = false;  ///< post-final gossip_tick sampling alternator

  Phase phase_ = Phase::kBootstrap;
  std::uint32_t seq_ = 0;
  std::vector<Pending> pending_;
  std::uint64_t retries_ = 0;
  std::uint32_t steps_ = 0;

  std::vector<bool> helloed_ = std::vector<bool>(opt_.n, false);
  std::uint32_t hello_acks_ = 0;

  std::uint32_t parent_ = kNone;  ///< Phase II tree parent (orphans promote away)
  bool root_ = false;

  Stats own_stats_{};
  Stats subtree_{};
  std::uint32_t subtree_ver_ = 0;
  bool dirty_ = false;
  std::vector<ChildSlot> children_;
  std::int64_t last_subtree_change_ = 0;

  std::vector<RootEntry> table_;
  std::int64_t last_table_change_ = 0;
  std::uint32_t exchanges_ = 0;
  std::uint32_t quiet_ = 0;

  Stats final_{};
  bool have_final_ = false;
  std::uint32_t final_ver_ = 0;  ///< monotone per spread lineage
  std::int64_t linger_until_ = 0;
  std::string error_;
};

}  // namespace

NodeReport run_node(const NodeOptions& options) {
  NodeRuntime runtime{options};
  return runtime.run();
}

std::string encode_report(const NodeReport& r) {
  char buf[768];
  std::string err = r.error;
  for (char& c : err)
    if (c == '|' || c == '\n') c = '/';
  std::snprintf(buf, sizeof(buf),
                "%u|%d|%d|%d|%u|%.17g|%.17g|%.17g|%" PRIu64 "|%" PRIu64 "|%" PRIu64
                "|%" PRIu64 "|%" PRIu64 "|%u|%u|%" PRId64 "|%" PRIu64 "|%" PRIu64
                "|%" PRIu64 "|%" PRIu64 "|%" PRIu64 "|%s",
                r.node, r.scheduled_crash ? 1 : 0, r.ok ? 1 : 0, r.root ? 1 : 0,
                r.parent, r.max, r.min, r.sum, r.count, r.sent, r.delivered, r.bits,
                r.retries, r.steps, r.roots_seen, r.wall_ms, r.duplicates_dropped,
                r.corrupt_rejected, r.reorders_buffered, r.backoff_ms_total,
                r.suspect_flaps, err.c_str());
  return std::string{buf};
}

bool decode_report(const std::string& line, NodeReport& out) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (fields.size() < 21) {
    const std::size_t bar = line.find('|', pos);
    if (bar == std::string::npos) return false;
    fields.push_back(line.substr(pos, bar - pos));
    pos = bar + 1;
  }
  fields.push_back(line.substr(pos));  // error text (may be empty)
  try {
    NodeReport r;
    r.node = static_cast<std::uint32_t>(std::stoul(fields[0]));
    r.scheduled_crash = fields[1] == "1";
    r.ok = fields[2] == "1";
    r.root = fields[3] == "1";
    r.parent = static_cast<std::uint32_t>(std::stoul(fields[4]));
    r.max = std::strtod(fields[5].c_str(), nullptr);
    r.min = std::strtod(fields[6].c_str(), nullptr);
    r.sum = std::strtod(fields[7].c_str(), nullptr);
    r.count = std::stoull(fields[8]);
    r.sent = std::stoull(fields[9]);
    r.delivered = std::stoull(fields[10]);
    r.bits = std::stoull(fields[11]);
    r.retries = std::stoull(fields[12]);
    r.steps = static_cast<std::uint32_t>(std::stoul(fields[13]));
    r.roots_seen = static_cast<std::uint32_t>(std::stoul(fields[14]));
    r.wall_ms = std::stoll(fields[15]);
    r.duplicates_dropped = std::stoull(fields[16]);
    r.corrupt_rejected = std::stoull(fields[17]);
    r.reorders_buffered = std::stoull(fields[18]);
    r.backoff_ms_total = std::stoull(fields[19]);
    r.suspect_flaps = std::stoull(fields[20]);
    r.error = fields[21];
    out = r;
  } catch (...) {
    return false;
  }
  return true;
}

std::string report_json(const NodeReport& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"node\":%u,\"crashed\":%s,\"ok\":%s,\"root\":%s,\"parent\":%d,"
      "\"max\":%.17g,\"min\":%.17g,\"sum\":%.17g,\"count\":%" PRIu64
      ",\"sent\":%" PRIu64 ",\"delivered\":%" PRIu64 ",\"bits\":%" PRIu64
      ",\"retries\":%" PRIu64 ",\"steps\":%u,\"roots_seen\":%u,\"wall_ms\":%" PRId64
      ",\"duplicates_dropped\":%" PRIu64 ",\"corrupt_rejected\":%" PRIu64
      ",\"reorders_buffered\":%" PRIu64 ",\"backoff_ms_total\":%" PRIu64
      ",\"suspect_flaps\":%" PRIu64 ",\"error\":\"%s\"}",
      r.node, r.scheduled_crash ? "true" : "false", r.ok ? "true" : "false",
      r.root ? "true" : "false",
      r.parent == 0xffffffffu ? -1 : static_cast<int>(r.parent), r.max, r.min, r.sum,
      r.count, r.sent, r.delivered, r.bits, r.retries, r.steps, r.roots_seen, r.wall_ms,
      r.duplicates_dropped, r.corrupt_rejected, r.reorders_buffered, r.backoff_ms_total,
      r.suspect_flaps, r.error.c_str());
  return std::string{buf};
}

}  // namespace drrg::net
