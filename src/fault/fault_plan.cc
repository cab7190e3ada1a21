#include "fault/fault_plan.h"

namespace pr {
namespace {

// Salts separating the drop / dup / delay rolls for one message.
constexpr uint64_t kDropSalt = 0x64726f70ULL;   // "drop"
constexpr uint64_t kDupSalt = 0x647570ULL;      // "dup"
constexpr uint64_t kDelaySalt = 0x64656c61ULL;  // "dela"

}  // namespace

bool FaultPlan::enabled() const {
  return force_fault_tolerant || has_message_faults() ||
         !worker_events.empty() || has_controller_faults() ||
         has_partitions();
}

bool FaultPlan::has_controller_faults() const {
  return !controller_events.empty();
}

bool FaultPlan::has_partitions() const { return !partition_events.empty(); }

bool FaultPlan::has_message_faults() const {
  if (default_edge.active()) return true;
  for (const auto& [edge, spec] : edges) {
    (void)edge;
    if (spec.active()) return true;
  }
  return has_link_delays();
}

bool FaultPlan::has_link_delays() const {
  for (const auto& [edge, delay] : link_delay_seconds) {
    (void)edge;
    if (delay > 0.0) return true;
  }
  return false;
}

double FaultPlan::SlowdownFactor(int worker, size_t completed) const {
  double factor = 1.0;
  for (const WorkerFaultEvent& e : worker_events) {
    if (e.worker != worker || e.kind != WorkerFaultEvent::Kind::kSlowdown) {
      continue;
    }
    const size_t start = static_cast<size_t>(e.after_iterations);
    if (completed >= start &&
        (e.slowdown_iterations == 0 ||
         completed < start + static_cast<size_t>(e.slowdown_iterations))) {
      factor *= e.slowdown_factor;
    }
  }
  return factor;
}

const EdgeFaultSpec& FaultPlan::EdgeSpec(int from, int to) const {
  auto it = edges.find({from, to});
  return it != edges.end() ? it->second : default_edge;
}

double FaultPlan::LinkDelay(int from, int to) const {
  auto it = link_delay_seconds.find({from, to});
  return it != link_delay_seconds.end() ? it->second : 0.0;
}

uint64_t FaultHash(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  // SplitMix64 finalizer applied to a simple combine; the finalizer's
  // avalanche is what buys decision independence across (from, to, seq).
  uint64_t x = seed;
  x ^= a + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
  x ^= b + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
  x ^= c + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double FaultPlan::Roll(int from, int to, uint64_t seq, uint64_t salt) const {
  const uint64_t edge_key =
      (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
      static_cast<uint64_t>(static_cast<uint32_t>(to));
  const uint64_t h = FaultHash(seed ^ salt, edge_key, seq, salt);
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultPlan::RollDrop(int from, int to, uint64_t seq) const {
  const EdgeFaultSpec& spec = EdgeSpec(from, to);
  return spec.drop_prob > 0.0 &&
         Roll(from, to, seq, kDropSalt) < spec.drop_prob;
}

bool FaultPlan::RollDup(int from, int to, uint64_t seq) const {
  const EdgeFaultSpec& spec = EdgeSpec(from, to);
  return spec.dup_prob > 0.0 && Roll(from, to, seq, kDupSalt) < spec.dup_prob;
}

bool FaultPlan::RollDelay(int from, int to, uint64_t seq) const {
  const EdgeFaultSpec& spec = EdgeSpec(from, to);
  return spec.delay_prob > 0.0 &&
         Roll(from, to, seq, kDelaySalt) < spec.delay_prob;
}

FaultPlan MakeChaosPlan(uint64_t seed, int crash_worker,
                        int crash_after_iterations, double drop_prob) {
  FaultPlan plan;
  plan.seed = seed;
  plan.default_edge.drop_prob = drop_prob;
  WorkerFaultEvent crash;
  crash.worker = crash_worker;
  crash.kind = WorkerFaultEvent::Kind::kCrash;
  crash.after_iterations = crash_after_iterations;
  crash.in_group = true;
  plan.worker_events.push_back(crash);
  return plan;
}

FaultPlan MakeControllerCrashPlan(uint64_t seed, uint64_t after_groups,
                                  double drop_prob) {
  FaultPlan plan;
  plan.seed = seed;
  plan.default_edge.drop_prob = drop_prob;
  ControllerFaultEvent crash;
  crash.after_groups = after_groups;
  crash.restart = false;
  // A permanent outage ends with every worker exhausting its park budget;
  // keep that budget short enough for tests while leaving several
  // re-registration attempts before the give-up.
  plan.max_controller_outage_seconds = 1.0;
  plan.controller_events.push_back(crash);
  return plan;
}

FaultPlan MakeControllerRestartPlan(uint64_t seed, uint64_t after_groups,
                                    double down_seconds, double drop_prob) {
  FaultPlan plan;
  plan.seed = seed;
  plan.default_edge.drop_prob = drop_prob;
  ControllerFaultEvent crash;
  crash.after_groups = after_groups;
  crash.down_seconds = down_seconds;
  crash.restart = true;
  plan.controller_events.push_back(crash);
  return plan;
}

}  // namespace pr
