// In-process message bus for the decentralized runtime.
//
// The DMRA paper's algorithm is decentralized: UEs, SPs, and BSs exchange
// proposals, decisions, and resource broadcasts. This bus models that
// exchange explicitly — agents only communicate through typed envelopes
// and broadcast channels, never by reading each other's state — while
// staying deterministic: messages sent during round r are delivered at
// the start of round r+1, ordered by (recipient, send sequence number).
//
// The bus is synchronous and single-threaded on purpose. What we need
// from "decentralized" is the information structure (who can know what,
// and when), not OS-level parallelism; a deterministic bus makes the
// equivalence proof against the direct solver an exact, testable claim.
//
// Storage model (ROADMAP item 2): envelopes live in two pooled flat
// buffers that the bus reuses round after round. deliver() drains the
// pending pool in one batch — fault draws first, then a per-recipient
// counting pass, then placement into per-agent segments of one
// contiguous buffer — and swaps the buffers. After the first few rounds
// reach their high-water marks, the steady state performs zero heap
// allocations; reserve() warms the pools up front. take_inbox() hands
// out a non-owning InboxView into the segment instead of moving a heap
// vector out. Payload must be default-constructible (the pool is sized
// with value-initialized envelopes before placement move-assigns into
// it).
//
// Broadcast channels (ROADMAP item 9): a publisher posts once on its
// channel — one send, however many agents read it — and each reader
// copies a publication only when its stamp is newer than the one it holds.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/fault_plan.hpp"
#include "net/stats.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dmra {

/// Opaque agent address on a bus.
struct AgentId {
  std::uint32_t value = 0;
  constexpr friend auto operator<=>(AgentId, AgentId) = default;
  constexpr std::size_t idx() const { return value; }
};

/// A delivered message.
template <typename Payload>
struct Envelope {
  AgentId from;
  AgentId to;
  std::uint64_t sent_round = 0;
  std::uint64_t seq = 0;  ///< global send order, for deterministic delivery
  Payload payload;
};

/// Non-owning window over one agent's drained inbox segment. Valid until
/// the next deliver() call on the bus that produced it (delivery swaps
/// the underlying pool); drain-and-dispatch immediately, don't store.
template <typename Payload>
class InboxView {
 public:
  InboxView() = default;
  InboxView(const Envelope<Payload>* data, std::size_t size)
      : data_(data), size_(size) {}

  const Envelope<Payload>* begin() const { return data_; }
  const Envelope<Payload>* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Envelope<Payload>& operator[](std::size_t n) const { return data_[n]; }
  const Envelope<Payload>& at(std::size_t n) const {
    DMRA_REQUIRE(n < size_);
    return data_[n];
  }

 private:
  const Envelope<Payload>* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Storage of a bus's broadcast channels: per channel, its newest `depth`
/// publications of `width` words and its stamp, the count of publications
/// so far (0 = none). Sized once, so publish() never allocates; a stamp
/// outside the window is a contract violation, never a stale record.
class SnapshotRing {
 public:
  SnapshotRing() = default;
  SnapshotRing(std::size_t channels, std::size_t width, std::size_t depth)
      : width_(width), depth_(depth), words_(channels * depth * width, 0), latest_(channels, 0) {}

  std::size_t channels() const { return latest_.size(); }
  std::uint32_t latest(std::size_t channel) const { return latest_[channel]; }

  /// Post the next publication on `channel`; returns its words to fill.
  std::span<std::uint32_t> publish(std::size_t channel) {
    DMRA_REQUIRE(channel < latest_.size());
    return {words_.data() + slot(channel, ++latest_[channel]), width_};
  }

  const std::uint32_t* words(std::size_t channel, std::uint32_t stamp) const {
    DMRA_REQUIRE_MSG(stamp >= 1 && stamp <= latest_[channel] && latest_[channel] - stamp < depth_,
                     "publication outside the channel's window");
    return words_.data() + slot(channel, stamp);
  }

 private:
  std::size_t slot(std::size_t channel, std::uint32_t stamp) const {
    return (channel * depth_ + stamp % depth_) * width_;
  }

  std::size_t width_ = 0;
  std::size_t depth_ = 1;
  std::vector<std::uint32_t> words_;   // depth_ records of width_ words per channel
  std::vector<std::uint32_t> latest_;  // stamp of each channel's newest publication
};

template <typename Payload>
class MessageBus {
 public:
  /// Register an agent; returns its address. All registration must happen
  /// before the first send — and before the first deliver(): a late
  /// registration would retroactively grow the per-agent segment tables a
  /// running delivery schedule already committed to, leaving earlier
  /// rounds and later rounds disagreeing about the agent population (the
  /// sharded runtime builds one bus per region on exactly this contract).
  AgentId register_agent() {
    DMRA_REQUIRE_MSG(seq_ == 0 && round_ == 0,
                     "register agents before any send or deliver()");
    const AgentId id{static_cast<std::uint32_t>(num_agents_)};
    ++num_agents_;
    seg_begin_.push_back(0);
    cursor_.push_back(0);
    seg_end_.push_back(0);
    write_pos_.push_back(0);
    return id;
  }

  std::size_t num_agents() const { return num_agents_; }

  /// Warm the pools to a per-deliver()-batch high-water mark so the
  /// steady state never allocates. The inbox pool is sized for two
  /// batches because an agent may leave one generation undrained while
  /// the next arrives (the runtime's UEs drain once per protocol round, so
  /// a delayed decision can sit through later deliveries). Also the growth
  /// license for the pool push/resize calls in the hot regions below.
  ///
  /// Call AFTER arming faults (set_faults): the fault pools are
  /// sized from the armed LinkFaults, not a guess. A duplicate copy parks
  /// in delayed_ for exactly one round, a delayed original for up to
  /// max_delay_rounds, so the worst-case parked population is one batch
  /// per armed duplicate class plus max_delay_rounds batches per armed
  /// delay class; the same parked messages can all come due alongside a
  /// fresh batch, which is the inbox headroom term. fates_ parallels
  /// pending_ (one fate per pending message), warmed so the first faulted
  /// deliver() does not resize it mid-hotpath.
  void reserve(std::size_t messages_per_deliver) {
    const bool dup_armed = fault_rng_.has_value() && faults_.duplicate_probability > 0.0;
    const bool delay_armed = fault_rng_.has_value() && faults_.delay_probability > 0.0;
    std::size_t parked = 0;
    if (dup_armed) parked += messages_per_deliver;
    if (delay_armed)
      parked += messages_per_deliver * static_cast<std::size_t>(faults_.max_delay_rounds);
    pending_.reserve(messages_per_deliver);
    fates_.reserve(messages_per_deliver);
    inbox_data_.reserve(2 * messages_per_deliver + parked);
    inbox_next_.reserve(2 * messages_per_deliver + parked);
    delayed_.reserve(parked + 16);
  }

  /// Queue a message for delivery at the next deliver() call. Always
  /// inlined, like take_inbox(): both run per message inside the engine's
  /// round loop, where GCC's growth cap for large functions otherwise
  /// leaves hot call sites out of line (up to 27% of the protocol's time).
  [[gnu::always_inline]] void send(AgentId from, AgentId to, Payload payload) {
    // dmra::hotpath begin(bus-send)
    DMRA_REQUIRE(from.idx() < num_agents_);
    DMRA_REQUIRE(to.idx() < num_agents_);
    pending_.push_back(Envelope<Payload>{from, to, round_, seq_++, std::move(payload)});
    stats_.messages_sent++;
    // dmra::hotpath end(bus-send)
  }

  /// Arm the link-fault model (loss + duplication + bounded delay),
  /// deterministic per seed. Must be called before the first deliver() —
  /// retroactively changing the fault model mid-run would make the draw
  /// sequence depend on when the caller flipped it, not just on the seed —
  /// and at most once (re-seeding would silently restart the streams).
  /// Drop draws come from a "bus-loss" child stream and duplicate/delay
  /// draws from a separate "bus-faults" stream, so arming duplication or
  /// delay never perturbs which messages drop. Channel reads draw from a
  /// third, "bus-reads" (see read()), so they perturb neither.
  void set_faults(const LinkFaults& faults, std::uint64_t seed) {
    DMRA_REQUIRE(faults.drop_probability >= 0.0 && faults.drop_probability < 1.0);
    DMRA_REQUIRE(faults.duplicate_probability >= 0.0 && faults.duplicate_probability < 1.0);
    DMRA_REQUIRE(faults.delay_probability >= 0.0 && faults.delay_probability < 1.0);
    DMRA_REQUIRE_MSG(round_ == 0, "set_faults must be called before the first deliver()");
    DMRA_REQUIRE_MSG(!loss_rng_.has_value(),
                     "set_faults may only be called once per bus");
    DMRA_REQUIRE_MSG(channels_.channels() == 0, "set_faults must precede open_channels()");
    if (faults.delay_probability > 0.0)
      DMRA_REQUIRE_MSG(faults.max_delay_rounds >= 1,
                       "delay faults need max_delay_rounds >= 1");
    faults_ = faults;
    loss_rng_.emplace("bus-loss", seed);
    if (faults.duplicate_probability > 0.0 || faults.delay_probability > 0.0)
      fault_rng_.emplace("bus-faults", seed);
    if (faults.drop_probability > 0.0 || faults.delay_probability > 0.0)
      read_rng_.emplace("bus-reads", seed);
  }

  /// Open `count` broadcast channels of `width`-word publications, once,
  /// after set_faults(): under delay faults each channel keeps
  /// max_delay_rounds publications besides its newest for delayed reads.
  void open_channels(std::size_t count, std::size_t width) {
    DMRA_REQUIRE_MSG(channels_.channels() == 0, "open_channels may only be called once per bus");
    const std::size_t depth =
        read_rng_.has_value() && faults_.delay_probability > 0.0 ? 1 + faults_.max_delay_rounds : 1;
    channels_ = SnapshotRing(count, width, depth);
  }

  /// Post the next publication on `channel`; the caller fills the words it
  /// returns. Counted once as sent and once as delivered (to the channel).
  [[gnu::always_inline]] std::span<std::uint32_t> publish(std::size_t channel) {
    stats_.messages_sent++;
    stats_.messages_delivered++;
    return channels_.publish(channel);
  }

  /// Stamp of `channel`'s newest publication; 0 before its first.
  std::uint32_t stamp(std::size_t channel) const { return channels_.latest(channel); }

  /// A read of `channel` by an agent holding stamp `held`: the words of a
  /// newer publication (and `held` moves to its stamp), or nullptr. Under
  /// link faults each read draws from "bus-reads", in call order: loss (a
  /// lost read returns nullptr), then for a read not lost delay, which
  /// makes it see the publication d in [1, max_delay_rounds] back from the
  /// newest, if there is one.
  [[gnu::always_inline]] const std::uint32_t* read(std::size_t channel, std::uint32_t& held) {
    // dmra::hotpath begin(bus-read)
    std::uint32_t stamp = channels_.latest(channel);
    if (read_rng_.has_value()) {
      if (faults_.drop_probability > 0.0 && read_rng_->bernoulli(faults_.drop_probability)) {
        stats_.reads_dropped++;
        return nullptr;
      }
      if (faults_.delay_probability > 0.0 && read_rng_->bernoulli(faults_.delay_probability)) {
        stats_.reads_delayed++;
        const auto d = static_cast<std::uint32_t>(read_rng_->uniform_int(
            1, static_cast<std::int64_t>(faults_.max_delay_rounds)));
        stamp = stamp > d ? stamp - d : 0;
      }
    }
    if (stamp <= held) return nullptr;
    held = stamp;
    return channels_.words(channel, stamp);
    // dmra::hotpath end(bus-read)
  }

  /// Move pending messages into recipient inbox segments and advance the
  /// round. Returns the number delivered (dropped messages are counted in
  /// stats().messages_dropped instead). Per fresh message the draw order
  /// is fixed — drop, then duplicate, then delay — so each fault class
  /// consumes its stream identically whether or not the others fire.
  /// Delayed messages (and duplicate copies) come due at a later deliver()
  /// call and are then delivered unconditionally, before that round's
  /// fresh messages, in send-sequence order.
  ///
  /// Batch mechanics: one fault pass over the pending pool fixes each
  /// message's fate and consumes the RNG streams in send order; a
  /// counting pass sizes per-agent segments [undrained carryover | due
  /// delayed | surviving fresh]; placement move-assigns into the spare
  /// pool at per-agent cursors; the pools swap. Per-agent order is
  /// exactly the append order of the historical per-agent vectors.
  std::size_t deliver() {
    // dmra::hotpath begin(bus-deliver)
    const std::size_t na = num_agents_;
    // Phase 1a: per-recipient counts, seeded with undrained carryover.
    for (std::size_t a = 0; a < na; ++a) write_pos_[a] = seg_end_[a] - cursor_[a];
    std::size_t due_count = 0;
    for (const Delayed& d : delayed_) {
      if (d.due <= round_) {
        ++write_pos_[d.env.to.idx()];
        ++due_count;
      }
    }
    // Phase 1b: fault draws in send order, one draw sequence per message
    // (drop, then duplicate, then delay), recording each fate. Duplicate
    // copies and delayed originals park in delayed_; they are not due
    // this round (due >= round_ + 1), so the counting above is complete.
    std::size_t fresh_kept = 0;
    const bool faulty = loss_rng_.has_value();
    if (faulty) {
      fates_.resize(pending_.size());
      for (std::size_t m = 0; m < pending_.size(); ++m) {
        Envelope<Payload>& env = pending_[m];
        if (faults_.drop_probability > 0.0 &&
            loss_rng_->bernoulli(faults_.drop_probability)) {
          stats_.messages_dropped++;
          fates_[m] = kDropped;
          continue;
        }
        if (fault_rng_.has_value()) {
          if (faults_.duplicate_probability > 0.0 &&
              fault_rng_->bernoulli(faults_.duplicate_probability)) {
            stats_.messages_duplicated++;
            delayed_.push_back(Delayed{round_ + 1, env});  // copy arrives next round
          }
          if (faults_.delay_probability > 0.0 &&
              fault_rng_->bernoulli(faults_.delay_probability)) {
            stats_.messages_delayed++;
            const auto d = static_cast<std::uint64_t>(fault_rng_->uniform_int(
                1, static_cast<std::int64_t>(faults_.max_delay_rounds)));
            delayed_.push_back(Delayed{round_ + d, std::move(env)});
            fates_[m] = kDelayedFate;
            continue;
          }
        }
        fates_[m] = kFresh;
        ++write_pos_[env.to.idx()];
        ++fresh_kept;
      }
    } else {
      for (const Envelope<Payload>& env : pending_) ++write_pos_[env.to.idx()];
      fresh_kept = pending_.size();
    }
    // Phase 2: prefix-sum the counts into segment offsets and size the
    // spare pool (grow-only; stale tail entries are never readable).
    std::size_t total = 0;
    for (std::size_t a = 0; a < na; ++a) {
      const std::size_t count = write_pos_[a];
      seg_begin_[a] = total;
      write_pos_[a] = total;  // becomes the placement cursor
      total += count;
    }
    if (inbox_next_.size() < total) inbox_next_.resize(total);
    // Phase 3a: undrained carryover, preserving per-agent order.
    for (std::size_t a = 0; a < na; ++a)
      for (std::size_t k = cursor_[a]; k < seg_end_[a]; ++k)
        inbox_next_[write_pos_[a]++] = std::move(inbox_data_[k]);
    // Phase 3b: due delayed messages in storage order, compacting the
    // survivors in place (entries appended by phase 1b sit at the tail
    // with due > round_, so they are all kept, in order).
    std::size_t kept = 0;
    for (std::size_t k = 0; k < delayed_.size(); ++k) {
      Delayed& d = delayed_[k];
      if (d.due <= round_) {
        inbox_next_[write_pos_[d.env.to.idx()]++] = std::move(d.env);
      } else {
        if (kept != k) delayed_[kept] = std::move(d);
        ++kept;
      }
    }
    delayed_.resize(kept);
    // Phase 3c: surviving fresh messages in send-sequence order.
    if (faulty) {
      for (std::size_t m = 0; m < pending_.size(); ++m)
        if (fates_[m] == kFresh)
          inbox_next_[write_pos_[pending_[m].to.idx()]++] = std::move(pending_[m]);
    } else {
      for (Envelope<Payload>& env : pending_)
        inbox_next_[write_pos_[env.to.idx()]++] = std::move(env);
    }
    inbox_data_.swap(inbox_next_);
    for (std::size_t a = 0; a < na; ++a) {
      cursor_[a] = seg_begin_[a];
      seg_end_[a] = write_pos_[a];
    }
    pending_.clear();
    ++round_;
    const std::size_t delivered = due_count + fresh_kept;
    stats_.rounds = round_;
    stats_.messages_delivered += delivered;
    return delivered;
    // dmra::hotpath end(bus-deliver)
  }

  /// Drain an agent's inbox (messages are in send order; the bus never
  /// reorders messages to the same recipient). Returns a non-owning view
  /// into the pooled segment — valid until the next deliver() — and
  /// marks the segment drained so the next deliver() reclaims it.
  [[gnu::always_inline]] InboxView<Payload> take_inbox(AgentId agent) {
    // dmra::hotpath begin(bus-take-inbox)
    DMRA_REQUIRE(agent.idx() < num_agents_);
    const std::size_t b = cursor_[agent.idx()];
    const std::size_t e = seg_end_[agent.idx()];
    cursor_[agent.idx()] = e;
    return InboxView<Payload>(inbox_data_.data() + b, e - b);
    // dmra::hotpath end(bus-take-inbox)
  }

  bool inbox_empty(AgentId agent) const {
    return cursor_[agent.idx()] == seg_end_[agent.idx()];
  }

  std::uint64_t round() const { return round_; }
  const BusStats& stats() const { return stats_; }

  /// Messages accepted by the bus but not yet delivered or dropped:
  /// pending sends plus delayed messages and duplicate copies still
  /// parked. Draining a faulted bus until this reaches zero delivers every
  /// surviving message exactly once per injected copy.
  std::size_t in_flight() const { return pending_.size() + delayed_.size(); }

 private:
  /// A message held back by a delay fault (or a duplicate copy), due for
  /// unconditional delivery at the deliver() call entered with round_ ==
  /// `due`.
  struct Delayed {
    std::uint64_t due = 0;
    Envelope<Payload> env;
  };

  /// Per-message outcome of the phase-1b fault pass.
  static constexpr std::uint8_t kFresh = 0;
  static constexpr std::uint8_t kDropped = 1;
  static constexpr std::uint8_t kDelayedFate = 2;

  std::size_t num_agents_ = 0;
  // Double-buffered envelope pool: inbox_data_ holds the live per-agent
  // segments [seg_begin_, seg_end_) with cursor_ marking the drained
  // prefix; inbox_next_ is the spare the next deliver() packs into.
  std::vector<Envelope<Payload>> inbox_data_;
  std::vector<Envelope<Payload>> inbox_next_;
  std::vector<std::size_t> seg_begin_;
  std::vector<std::size_t> cursor_;
  std::vector<std::size_t> seg_end_;
  std::vector<std::size_t> write_pos_;  ///< counts, then placement cursors
  std::vector<Envelope<Payload>> pending_;
  std::vector<std::uint8_t> fates_;
  std::vector<Delayed> delayed_;
  std::uint64_t round_ = 0;
  std::uint64_t seq_ = 0;
  BusStats stats_;
  LinkFaults faults_;
  std::optional<Rng> loss_rng_;
  std::optional<Rng> fault_rng_;
  std::optional<Rng> read_rng_;
  SnapshotRing channels_;
};

}  // namespace dmra
