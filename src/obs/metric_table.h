#pragma once

#include <set>
#include <string>

#include "obs/metrics.h"

namespace pr {

/// \brief Every metric either engine or the training service publishes,
/// declared once: identifier, instrument, name, gate and (histograms only)
/// bucket function.
///
/// A run opens its gates at start (RegisterRunMetrics), registering every
/// entry they open, so its snapshot holds exactly ExpandMetricTable(gates,
/// N). Instrument sites fetch handles through the entries
/// (`shard->Get(metric::kRunUpdates)`) and get null for a closed gate.
/// MetricSchemaTest holds both engines to this table.
#define PR_METRIC_TABLE(X) \
  X(kRunUpdates, Counter, "run.updates", kAlways) \
  X(kRunWallSeconds, Gauge, "run.wall_seconds", kThreaded) \
  X(kRunSimSeconds, Gauge, "run.sim_seconds", kSim) \
  X(kEngineEventsProcessed, Counter, "engine.events_processed", kSim) \
  X(kWorkerIterations, Counter, "worker.<i>.iterations", kAlways) \
  X(kWorkerIdleSeconds, Counter, "worker.<i>.idle_seconds", kAlways) \
  X(kWorkerIdleFraction, Gauge, "worker.<i>.idle_fraction", kAlways) \
  X(kWorkerComputeSeconds, Counter, "worker.<i>.compute_seconds", kThreaded) \
  X(kWorkerCommSeconds, Counter, "worker.<i>.comm_seconds", kThreaded) \
  X(kWorkerStashHighWater, Gauge, "worker.<i>.stash_high_water", kThreaded) \
  X(kServiceStashHighWater, Gauge, "service.stash_high_water", kThreaded) \
  X(kTransportBytesSent, Counter, "transport.bytes_sent", kAlways) \
  X(kTransportBytesReceived, Counter, "transport.bytes_received", kAlways) \
  X(kTransportPayloadCopies, Counter, "transport.payload_copies", kAlways) \
  X(kTransportInterNodeBytes, Counter, "transport.inter_node_bytes", kAlways) \
  X(kTransportStashPurged, Counter, "transport.stash_purged", kAlways) \
  X(kTransportMessagesSent, Counter, "transport.messages_sent", kThreaded) \
  X(kTransportMessagesReceived, Counter, "transport.messages_received", \
    kThreaded) \
  X(kTransportStashHighWater, Gauge, "transport.stash_high_water", kThreaded) \
  X(kTransportRecvSpun, Counter, "transport.recv_spun", kThreaded) \
  X(kTransportRecvParked, Counter, "transport.recv_parked", kThreaded) \
  X(kControllerSignalsReceived, Counter, "controller.signals_received", \
    kController) \
  X(kControllerGroupsFormed, Counter, "controller.groups_formed", kController) \
  X(kControllerBridgedGroups, Counter, "controller.bridged_groups", \
    kController) \
  X(kControllerFrozenDetections, Counter, "controller.frozen_detections", \
    kController) \
  X(kControllerHolds, Counter, "controller.holds", kController) \
  X(kControllerPendingHighWater, Gauge, \
    "controller.pending_signals_high_water", kController) \
  X(kControllerDecisionLatency, Histogram, \
    "controller.decision_latency_seconds", kController, \
    DecisionLatencyBuckets) \
  X(kTopoCrossNodeGroups, Counter, "topo.cross_node_groups", kController) \
  X(kTopoIntraNodeGroups, Counter, "topo.intra_node_groups", kController) \
  X(kPsVersions, Counter, "ps.versions", kServer) \
  X(kPsWastedGradients, Counter, "ps.wasted_gradients", kServer) \
  X(kPsPushStaleness, Histogram, "ps.push_staleness", \
    kServer, StalenessBuckets) \
  X(kFaultInjectedDrops, Counter, "fault.injected_drops", kFault) \
  X(kFaultInjectedDups, Counter, "fault.injected_dups", kFault) \
  X(kFaultInjectedDelays, Counter, "fault.injected_delays", kFault) \
  X(kFaultSeveredDrops, Counter, "fault.severed_drops", kFault) \
  X(kFaultRetries, Counter, "fault.retries", kFault) \
  X(kFaultEvictions, Counter, "fault.evictions", kFault) \
  X(kFaultAbortedGroups, Counter, "fault.aborted_groups", kFault) \
  X(kFaultHeartbeats, Counter, "fault.heartbeats", kFault) \
  X(kControllerFailovers, Counter, "controller.failovers", kFault) \
  X(kControllerReregistrations, Counter, "controller.reregistrations", kFault) \
  X(kScenarioEventsTotal, Counter, "scenario.events_total", kScenario) \
  X(kScenarioDeparts, Counter, "scenario.departs", kScenario) \
  X(kScenarioArrives, Counter, "scenario.arrives", kScenario) \
  X(kScenarioSlowdowns, Counter, "scenario.slowdowns", kScenario) \
  X(kScenarioCrashes, Counter, "scenario.crashes", kScenario) \
  X(kScenarioHangs, Counter, "scenario.hangs", kScenario) \
  X(kScenarioPartitions, Counter, "scenario.partitions", kScenario) \
  X(kScenarioPartitionsApplied, Counter, "scenario.partitions_applied", \
    kScenario) \
  X(kScenarioScaleGrow, Counter, "scenario.scale.grow", kScenario) \
  X(kScenarioScaleShrink, Counter, "scenario.scale.shrink", kScenario) \
  X(kScenarioSmallGroups, Counter, "scenario.degrade.small_groups", kScenario) \
  X(kScenarioLocalSteps, Counter, "scenario.degrade.local_steps", kScenario) \
  X(kScenarioForcedCkpts, Counter, "scenario.degrade.forced_ckpts", kScenario) \
  X(kCkptManifestsWritten, Counter, "ckpt.manifests_written", kCkpt) \
  X(kCkptRestoreCount, Counter, "ckpt.restore_count", kCkpt) \
  X(kCkptSaveSeconds, Histogram, "ckpt.save_seconds", \
    kCkpt, CkptSaveSecondsBuckets) \
  X(kCompressBytesIn, Counter, "compress.bytes_in", kCompression) \
  X(kCompressBytesOut, Counter, "compress.bytes_out", kCompression) \
  X(kCompressRatio, Gauge, "compress.ratio", kCompression) \
  X(kServiceJobsSubmitted, Counter, "service.jobs_submitted", kService) \
  X(kServiceJobsByState, Counter, "service.jobs_<state>", kService) \
  X(kServiceTenantLeases, Counter, "service.tenant.<tenant>.leases", kService) \
  X(kServiceTenantJobs, Counter, "service.tenant.<tenant>.jobs", kService) \
  X(kServiceQueueDelay, Histogram, "service.queue_delay_seconds", \
    kService, QueueDelayBuckets) \
  X(kServiceScaleGrow, Counter, "service.scale.grow", kService) \
  X(kServiceScaleShrink, Counter, "service.scale.shrink", kService) \
  X(kServiceLeaseCap, Gauge, "service.scale.lease_cap", kService) \
  X(kServicePoolSize, Gauge, "service.pool.size", kService) \
  X(kServicePoolUtilization, Gauge, "service.pool.utilization", kService) \
  X(kServiceQueueLength, Gauge, "service.queue.length", kService) \
  X(kPoolStashHighWater, Gauge, "pool.<i>.stash_high_water", kService)

namespace metric {
#define PR_METRIC_DECLARE(id, Instrument, name, gate, ...) \
  inline constexpr MetricDef<Instrument> id{name, MetricGate::gate, \
                                            __VA_ARGS__};
PR_METRIC_TABLE(PR_METRIC_DECLARE)
#undef PR_METRIC_DECLARE
}  // namespace metric

/// \brief The instrument names a run with `gates` over `num_workers`
/// workers registers, by instrument kind.
struct MetricNames {
  std::set<std::string> counters;
  std::set<std::string> gauges;
  std::set<std::string> histograms;
};
MetricNames ExpandMetricTable(MetricGates gates, int num_workers);

}  // namespace pr
