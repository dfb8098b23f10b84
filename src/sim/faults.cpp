#include "sim/faults.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace dmra {

namespace {

double parse_double(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double out = 0.0;
  try {
    out = std::stod(value, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("--faults: bad value for " + key + ": '" + value + "'");
  }
  if (used != value.size())
    throw std::invalid_argument("--faults: bad value for " + key + ": '" + value + "'");
  return out;
}

/// A probability: [0, 1), or [0, 1] when `one_ok` — the ranges
/// FaultPlan::validate requires, checked here so a bad spec is an error
/// rather than a contract violation.
double parse_fraction(const std::string& key, const std::string& value, bool one_ok) {
  const double p = parse_double(key, value);
  if (!(p >= 0.0 && (one_ok ? p <= 1.0 : p < 1.0)))
    throw std::invalid_argument("--faults: " + key + " takes a number >= 0 and " +
                                (one_ok ? "<= 1" : "< 1") + ", got '" + value + "'");
  return p;
}

std::uint64_t parse_uint(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  unsigned long long out = 0;
  // std::stoull accepts a sign and wraps "-1" to 2^64 - 1.
  if (value.find('-') != std::string::npos)
    throw std::invalid_argument("--faults: bad value for " + key + ": '" + value + "'");
  try {
    out = std::stoull(value, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("--faults: bad value for " + key + ": '" + value + "'");
  }
  if (used != value.size())
    throw std::invalid_argument("--faults: bad value for " + key + ": '" + value + "'");
  return static_cast<std::uint64_t>(out);
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("--faults: expected key=value, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "loss") {
      spec.loss = parse_fraction(key, value, false);
    } else if (key == "dup") {
      spec.duplicate = parse_fraction(key, value, false);
    } else if (key == "delay") {
      spec.delay = parse_fraction(key, value, false);
    } else if (key == "delay-max") {
      spec.max_delay_rounds = static_cast<std::size_t>(parse_uint(key, value));
    } else if (key == "crashes") {
      spec.crashes = static_cast<std::size_t>(parse_uint(key, value));
    } else if (key == "crash-round") {
      spec.crash_round = static_cast<std::size_t>(parse_uint(key, value));
    } else if (key == "down-rounds") {
      spec.down_rounds = static_cast<std::size_t>(parse_uint(key, value));
    } else if (key == "degrade") {
      spec.degradations = static_cast<std::size_t>(parse_uint(key, value));
    } else if (key == "degrade-factor") {
      spec.degrade_factor = parse_fraction(key, value, true);
    } else if (key == "degrade-round") {
      spec.degrade_round = static_cast<std::size_t>(parse_uint(key, value));
    } else if (key == "seed") {
      spec.seed = parse_uint(key, value);
    } else {
      throw std::invalid_argument("--faults: unknown key '" + key +
                                  "' (keys: loss dup delay delay-max crashes "
                                  "crash-round down-rounds degrade degrade-factor "
                                  "degrade-round seed)");
    }
  }
  if (spec.delay > 0.0 && spec.max_delay_rounds == 0)
    throw std::invalid_argument("--faults: delay needs delay-max >= 1");
  return spec;
}

FaultPlan make_fault_plan(const FaultSpec& spec, std::size_t num_bss) {
  FaultPlan plan;
  plan.link.drop_probability = spec.loss;
  plan.link.duplicate_probability = spec.duplicate;
  plan.link.delay_probability = spec.delay;
  plan.link.max_delay_rounds = spec.max_delay_rounds;

  // Seeded choice of victims; its own named stream so the pick never
  // interferes with the bus's per-message draws for the same seed.
  Rng rng("fault-plan", spec.seed);
  std::vector<BsId> ids(num_bss);
  for (std::size_t i = 0; i < num_bss; ++i) ids[i] = BsId{static_cast<std::uint32_t>(i)};
  rng.shuffle(ids);

  const std::size_t crashes = std::min(spec.crashes, num_bss);
  for (std::size_t k = 0; k < crashes; ++k) {
    BsOutage o;
    o.bs = ids[k];
    o.crash_round = spec.crash_round + k;  // staggered: one crash per round
    o.recover_round =
        spec.down_rounds == 0 ? kNeverRecovers : o.crash_round + spec.down_rounds;
    plan.outages.push_back(o);
  }
  const std::size_t degradations = std::min(spec.degradations, num_bss - crashes);
  for (std::size_t k = 0; k < degradations; ++k) {
    CapacityDegradation d;
    d.bs = ids[crashes + k];
    d.round = spec.degrade_round;
    d.cru_factor = spec.degrade_factor;
    d.rrb_factor = spec.degrade_factor;
    plan.degradations.push_back(d);
  }
  return plan;
}

DecentralizedResult FaultyDmraAllocator::run(const Scenario& scenario) const {
  const FaultPlan plan = make_fault_plan(spec_, scenario.num_bss());
  NetworkConditions net;
  net.seed = spec_.seed;
  net.faults = &plan;
  return run_decentralized_dmra(scenario, config_, net);
}

}  // namespace dmra
