// harness.hpp — the cluster-scale deterministic-simulation harness.
//
// Stands up hundreds of REAL StorageServer instances (each with its CE and
// kernel worker pool) plus the real rpc transport chain and the shared
// ActiveClient in one process, installs a VirtualClock, and replays a
// seed-deterministic traffic Schedule (traffic.hpp) against it — thousands
// of logical clients in seconds of wall time.
//
// The paper-rate calibration is what makes the numbers mean something:
// run_scale always builds the cluster with
//   * kernel execution paced at the paper rate table's S_{C,op}
//     (StorageServerConfig::pace_kernel_rates),
//   * client-side local kernels paced at the same table's C_{C,op}
//     (ActiveClientConfig::pace_compute_rates),
//   * one 118 MB/s TokenBucket per storage node in kReal mode
//     (ClusterConfig::network_per_node), whose sleeps are deterministic
//     jumps under the VirtualClock,
// so the REAL code paths — queueing, CE decisions, demotion, checkpoint
// hand-back — execute under the same timing assumptions as the calibrated
// DES models in core/sim_model.hpp. That is the sim/runtime merge: one
// code base, one timeline, paper-shaped contention at 100x the paper's
// node and client counts.
//
// Concurrency shape (see docs/SCALE.md). Every participant is a fiber of
// the run's VirtualClock on the calling thread, so a replay is a pure
// function of (scenario, schedule):
//   * ONE submitter (the caller) walks the schedule open-loop:
//     clock().sleep() to each arrival, read_ex_async(), push the pending
//     handle onto its completer's SPSC ring. It never blocks on
//     completions.
//   * N completers model the client-side compute pool, sharded by
//     CompleterAffinity (per target node, or per logical client for the
//     paper's one-CPU-per-client cost model): each pops a pending handle
//     and resolves it (wait() runs demoted/interrupted kernels on the
//     completer, paced at C — limited client CPUs queue exactly like the
//     cost model's z term says).
//   * Metrics and tracing are forced OFF during the run: quantile sketches
//     ingest in completion-scheduling order, which is not part of the
//     deterministic surface.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/scheme.hpp"
#include "fault/fault.hpp"
#include "scale/traffic.hpp"

namespace dosas::scale {

/// How requests map onto completers. Both are replayable: the completers
/// are fibers run by the VirtualClock's fixed run rule, so two completers
/// tied at one virtual instant reach a node's link in the same order on
/// every run (tests/dst/test_replay.cpp).
///
/// kNode (default; perfbench's contend names it): requests for storage
/// node n resolve on completer (n % pool). All client-side users of one
/// node's token bucket share one completer, which serializes client
/// compute for any one node's demotions — head-of-line blocking the paper
/// does not model.
///
/// kClient: requests from logical client c resolve on completer
/// (c % pool) — the faithful one-CPU-per-client model the paper's cost
/// terms assume (concurrent clients of one node compute in parallel).
enum class CompleterAffinity { kNode, kClient };

struct ScaleScenario {
  std::string name = "scale";
  std::uint32_t nodes = 200;
  core::SchemeKind scheme = core::SchemeKind::kDosas;
  /// Per-key object size; each key is one single-strip file placed whole
  /// on storage node (key % nodes).
  Bytes file_bytes = 256_KiB;
  Bytes chunk_size = 64_KiB;  ///< streaming/interruption granularity
  std::size_t completer_threads = 32;  ///< client-side compute pool
  CompleterAffinity affinity = CompleterAffinity::kNode;
  std::uint64_t seed = 1;
  TrafficConfig traffic;  ///< used by the generate-and-run overload
  std::shared_ptr<fault::FaultInjector> faults;  ///< optional, cluster-wide
};

/// Outcome of one scheduled request, in schedule order.
struct RequestRecord {
  Seconds arrival = 0.0;    ///< scheduled (open-loop) arrival
  Seconds submitted = 0.0;  ///< virtual time the submitter issued it
  Seconds completion = 0.0; ///< virtual time wait() resolved it
  std::uint64_t key = 0;
  std::uint32_t tenant = 0;
  bool ok = false;
  std::uint64_t result_hash = 0;  ///< FNV-1a of the result bytes (or error)
};

struct ScaleReport {
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::uint64_t completed_remote = 0;
  std::uint64_t demoted = 0;        ///< admission rejections finished locally
  std::uint64_t resumed_local = 0;  ///< interruptions finished locally
  std::uint64_t local_kernel_runs = 0;
  double demotion_rate = 0.0;       ///< (demoted + resumed_local) / requests
  Seconds virtual_makespan = 0.0;   ///< last completion - first arrival
  Seconds virtual_end = 0.0;        ///< clock reading at teardown
  Seconds wall_seconds = 0.0;       ///< physical cost of the run
  double throughput_rps = 0.0;      ///< requests per virtual second
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;  ///< e2e latency quantiles
  /// FNV-1a over the schedule, every record, the client counters and the
  /// final virtual time: two same-seed runs must produce equal values.
  std::uint64_t fingerprint = 0;
  std::vector<RequestRecord> records;  ///< schedule order
};

/// Replay `schedule` against a fresh cluster under a run-owned
/// VirtualClock. The calling thread is the submitter.
ScaleReport run_scale(const ScaleScenario& scenario, const Schedule& schedule);

/// Generate (scenario.traffic, scenario.seed) and replay it.
ScaleReport run_scale(const ScaleScenario& scenario);

/// Deterministic per-node burst schedule for the contention-crossover
/// scenario: node j receives `per_node` near-simultaneous tenant-0
/// requests on key j starting at j*window. Staggered windows keep the
/// in-flight count per instant ~per_node, so a bounded completer pool
/// never distorts the per-node contention the paper measures.
Schedule burst_schedule(std::uint32_t nodes, std::uint32_t per_node, Seconds window,
                        Seconds stagger = 1e-4);

/// Mean over nodes of (latest completion - earliest arrival) within each
/// node's burst — the per-node makespan a paper figure point reports.
/// Requires a burst_schedule-style run where key == node.
Seconds mean_node_makespan(const ScaleReport& report);

}  // namespace dosas::scale
