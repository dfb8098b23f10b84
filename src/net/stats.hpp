// Message-bus traffic statistics, reported by the decentralized runtime
// (the coordination cost the paper's complexity analysis talks about).
#pragma once

#include <cstdint>
#include <string>

namespace dmra {

struct BusStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;     ///< lost by the lossy-network model
  std::uint64_t messages_duplicated = 0;  ///< extra copies injected by duplication faults
  std::uint64_t messages_delayed = 0;     ///< held back by delay faults
  std::uint64_t reads_dropped = 0;  ///< broadcast-channel reads lost by the lossy-network model
  std::uint64_t reads_delayed = 0;  ///< channel reads that saw an older publication
  // With duplication/delay faults armed, sent == delivered + dropped no
  // longer balances round-for-round: duplicate copies add deliveries that
  // were never sent, and delayed messages can still be in flight when the
  // run ends. A channel publication counts once as sent and once as
  // delivered; read faults are counted apart, per read.

  /// Field-wise sum, for merging the traffic of several buses.
  BusStats& operator+=(const BusStats& o) {
    rounds += o.rounds;
    messages_sent += o.messages_sent;
    messages_delivered += o.messages_delivered;
    messages_dropped += o.messages_dropped;
    messages_duplicated += o.messages_duplicated;
    messages_delayed += o.messages_delayed;
    reads_dropped += o.reads_dropped;
    reads_delayed += o.reads_delayed;
    return *this;
  }
};

/// One-line human-readable rendering.
std::string to_string(const BusStats& stats);

}  // namespace dmra
