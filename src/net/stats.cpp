#include "net/stats.hpp"

#include <sstream>

namespace dmra {

std::string to_string(const BusStats& stats) {
  std::ostringstream os;
  // Always emit every field (including dropped=0): parsers keying off the
  // log line get a fixed schema, not one that changes with the loss model.
  os << "rounds=" << stats.rounds << " sent=" << stats.messages_sent
     << " delivered=" << stats.messages_delivered << " dropped=" << stats.messages_dropped
     << " duplicated=" << stats.messages_duplicated
     << " delayed=" << stats.messages_delayed << " reads_dropped=" << stats.reads_dropped
     << " reads_delayed=" << stats.reads_delayed;
  return os.str();
}

}  // namespace dmra
