// storage_server.hpp — the Active Storage Server (ASS): one per storage
// node, wrapping that node's PFS data server.
//
// Composition per paper Fig. 3: the Active I/O Runtime (R) executes kernels
// against locally stored objects on a worker pool sized to the node's
// cores; the Contention Estimator (CE) turns probe data into scheduling
// policies; the ASS enforces them:
//
//   * an arriving active request the policy demotes is REJECTED (the
//     client serves it as normal I/O),
//   * a queued request the policy demotes is rejected before it starts,
//   * a RUNNING kernel the policy demotes is INTERRUPTED: it checkpoints
//     its variables and the response carries the checkpoint plus the
//     resume offset (paper §III-C's three cases).
//
// The dispatch surface is ASYNCHRONOUS — submit_active() registers the
// request and returns immediately; the completion callback fires exactly
// once from a worker (or the submitting thread, for synchronous outcomes
// such as rejection at arrival and cache hits). This is the
// Transport-facing interface the rpc layer drives.
//
// Every arrival takes one admission path, admit(): a single request is
// the one-element case of a collective batch. Per request it checks for
// an injected crash, serves a cache hit, coalesces onto an identical
// in-flight twin or registers a new entry; then it evaluates the policy
// ONCE over the combined queue and launches what stayed active.
//
// Identical in-flight requests — same (handle, extent, operation) — are
// COALESCED: the second submission attaches as an extra waiter on the
// first's entry and both receive the one kernel run's result. Repeated
// hot-object analytics from many clients cost one execution per wave.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/arena.hpp"
#include "common/clock.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "kernels/registry.hpp"
#include "pfs/file_system.hpp"
#include "server/contention_estimator.hpp"
#include "server/messages.hpp"

namespace dosas::server {

/// StorageServer construction options (namespace-scope so it is complete
/// where member declarations use it as a default argument).
struct StorageServerConfig {
  std::size_t cores = 2;        ///< worker pool size (paper: 2-core nodes)
  Bytes chunk_size = 4_MiB;     ///< kernel streaming granularity; also the
                                ///< interruption-check interval
  /// Interruption hysteresis: only interrupt a running kernel while more
  /// than this fraction of its input remains unprocessed (0 = the paper's
  /// unconditional behaviour; 1 = never interrupt). See the interruption
  /// ablation bench for why a nonzero value can pay off.
  double interrupt_min_remaining = 0.0;
  /// Active-result cache capacity in entries (0 disables). Completed
  /// (handle, extent, operation) results are cached and served instantly
  /// while the object version is unchanged — repeated analytics over cold
  /// data cost one kernel run. LRU eviction.
  std::size_t result_cache_entries = 0;
  /// Coalesce identical in-flight (handle, extent, operation) requests
  /// onto one kernel run. Off by default: coalescing changes what the
  /// scheduler sees (N twins become one queue entry), which contention
  /// experiments must not silently absorb. Opt in for serving workloads
  /// with hot-object fan-in.
  bool coalesce_identical = false;
  /// CE probe period in seconds (0 disables). When set, a timer thread
  /// calls probe() every interval on the injected clock — the paper's
  /// periodic Contention Estimator tick. Under a VirtualClock the ticks
  /// are deterministic jumps; tests may still call probe() directly.
  Seconds probe_interval = 0.0;
  /// Pace kernel execution at the rate table's S_{C,op} (the calibrated
  /// storage-side rate the CE schedules against): each streamed chunk
  /// sleeps chunk/S on the injected clock. Under a VirtualClock this makes
  /// the real runtime's kernel timing match the sim_model's assumptions —
  /// the scale harness's paper-rate cluster (see scale/harness.hpp).
  /// Operations without table rates run unpaced.
  bool pace_kernel_rates = false;
  /// Relative kernel-CPU capacity of this node, applied to the paced rate
  /// (effective rate = S_{C,op} × capacity_factor). 0.25 models a node
  /// whose kernel CPU runs at quarter speed — the real-runtime counterpart
  /// of the DES's MultiNodeConfig::node_capacity_factor straggler knob.
  /// Only meaningful with pace_kernel_rates; values <= 0 mean 1.0.
  double capacity_factor = 1.0;
};

class StorageServer {
 public:
  using Config = StorageServerConfig;

  /// Async completion hook: fires exactly once per accepted waiter, from a
  /// worker thread or the submitting thread. Must not block on this
  /// server's own completion paths.
  using ActiveCompletion = std::function<void(ActiveIoResponse)>;

  /// Handle for one async submission; pass to cancel_active(). id == 0
  /// means the request completed synchronously at submit (cache hit,
  /// crashed node, immediate rejection) and cannot be cancelled.
  struct ActiveTicket {
    sched::RequestId id = 0;
    std::uint64_t waiter = 0;
    bool coalesced = false;  ///< attached to an identical in-flight entry
  };

  struct Stats {
    std::uint64_t active_completed = 0;
    std::uint64_t active_rejected = 0;
    std::uint64_t active_interrupted = 0;
    std::uint64_t active_failed = 0;
    Bytes active_bytes_processed = 0;  ///< bytes streamed through kernels here
    Bytes normal_bytes_served = 0;     ///< bytes served as normal I/O reads
    Bytes normal_bytes_written = 0;    ///< bytes accepted as normal I/O writes
    std::uint64_t normal_requests = 0;
    std::uint64_t cache_hits = 0;      ///< active requests served from the result cache
    std::uint64_t cache_misses = 0;    ///< cache-enabled requests that ran a kernel
    std::uint64_t cache_evictions = 0;      ///< LRU victims displaced by inserts
    std::uint64_t cache_invalidations = 0;  ///< entries dropped: object version moved
    std::uint64_t active_timed_out = 0;   ///< requests abandoned at their deadline
    std::uint64_t active_cancelled = 0;   ///< waiters withdrawn before completion
    std::uint64_t active_coalesced = 0;   ///< submissions merged onto an in-flight twin
    std::uint64_t kernel_exceptions = 0;  ///< kernels that threw (caught -> kFailed)
    std::uint64_t pool_rejections = 0;    ///< submits refused (pool shut down)
    std::uint64_t crash_rejections = 0;   ///< active requests refused: node "crashed"
    std::uint64_t probe_ticks = 0;        ///< timer-driven CE probes fired
  };

  StorageServer(pfs::FileSystem& fs, pfs::ServerId server_id, kernels::Registry registry,
                ContentionEstimator::Config ce_config, RateTable rates, Config config = {});
  ~StorageServer();

  StorageServer(const StorageServer&) = delete;
  StorageServer& operator=(const StorageServer&) = delete;

  /// Normal I/O: read a byte extent of this server's object for `handle`.
  /// Returns a ref-counted view of the data server's arena slab — the
  /// bytes flow to the client without another owning copy. (Network byte
  /// charging is the transport's job — see rpc::NetChargeTransport — not
  /// this data path's.)
  Result<BufferRef> serve_normal(pfs::FileHandle handle, Bytes object_offset,
                                 Bytes length);

  /// Normal I/O: write a byte extent of this server's object for `handle`.
  /// `data` is a ref-counted view of the client's buffer; the data server's
  /// terminal store is the single copy on the write path.
  Status serve_write(pfs::FileHandle handle, Bytes object_offset, const BufferRef& data);

  /// Async active I/O: enqueue the request under the CE policy and return.
  /// `done` fires exactly once with the outcome (completion, rejection,
  /// interruption, or failure). Identical in-flight requests coalesce.
  /// The one-request case of submit_active_batch.
  ActiveTicket submit_active(ActiveIoRequest request, ActiveCompletion done);

  /// Async batch (collective) submission: every request is registered
  /// first, the scheduling policy is evaluated ONCE over the combined
  /// queue, then kernels launch. Avoids the admit-then-interrupt churn of
  /// per-arrival evaluation when many requests land together. `dones`
  /// aligns positionally with `requests`.
  std::vector<ActiveTicket> submit_active_batch(std::vector<ActiveIoRequest> requests,
                                                std::vector<ActiveCompletion> dones);

  /// Withdraw a waiter before its completion fires: a queued request whose
  /// waiters all cancel never starts; a running one is interrupted and its
  /// late result discarded. Returns false when the completion already
  /// fired (or is firing) — `done` ran or will run with the real outcome.
  /// After a true return, `done` will never be invoked. `reason` is
  /// counted as a timeout when its code is kTimedOut.
  bool cancel_active(const ActiveTicket& ticket, const Status& reason);

  /// Probe the node state into the CE and re-apply the scheduling policy
  /// to the current queue (the CE's periodic tick; tests call it directly).
  void probe();

  /// Attach a (usually cluster-shared) fault injector. While this node is
  /// marked crashed, submit_active fails with kUnavailable (the normal-I/O
  /// data path keeps serving, as in a PFS whose active runtime died);
  /// running kernels may be injected with throws, stalls, and checkpoint
  /// corruption per the injector's spec. Pass nullptr to detach.
  void set_fault_injector(std::shared_ptr<fault::FaultInjector> fi);

  pfs::ServerId server_id() const { return server_id_; }
  ContentionEstimator& estimator() { return ce_; }
  const kernels::Registry& registry() const { return registry_; }
  Stats stats() const;

  /// Contention counters of the worker pool's lock-free dispatch ring
  /// (snapshot; benches aggregate these into cas_retries_per_req).
  RingStats dispatch_ring_stats() const { return pool_.ring_stats(); }

  /// Current in-flight active request count (queued + running entries).
  std::size_t inflight() const;

 private:
  enum class EntryState { kQueued, kRunning, kDone };

  struct Waiter {
    std::uint64_t id = 0;
    ActiveCompletion done;
  };

  struct Entry {
    ActiveIoRequest request;
    EntryState state = EntryState::kQueued;
    bool reject_before_start = false;
    std::atomic<bool> interrupt{false};
    std::atomic<Bytes> progress{0};  ///< bytes processed so far
    std::vector<Waiter> waiters;
    Seconds enqueued_at = 0;  ///< clock().now() at registration (queue-wait stage)
  };

  /// The one admission path (paper §III-C's decision, taken once over a
  /// group). Per request, in order: crash check, cache hit, coalesce onto
  /// a twin, register. Then one evaluate_policy() over the combined queue,
  /// then launch. The spans align positionally; the caller provides the
  /// `entries` slots (left null where nothing was registered), so the
  /// one-request case allocates nothing for the group.
  void admit(std::span<ActiveIoRequest> requests, std::span<ActiveCompletion> dones,
             std::span<ActiveTicket> tickets, std::span<std::shared_ptr<Entry>> entries);

  /// Build the CE queue snapshot, run the scheduler per operation group,
  /// and apply demotions (reject queued / interrupt running). Caller must
  /// NOT hold mu_.
  void evaluate_policy();

  /// Under mu_: find an in-flight entry this request can coalesce onto.
  std::shared_ptr<Entry> find_coalesce_locked(const ActiveIoRequest& request);

  /// In one mu_ section: attach `done` to an identical in-flight twin
  /// (returns null) or move `request` and `done` into a new entry,
  /// assigning an id if it has none (returns the entry). Fills `ticket`
  /// either way.
  std::shared_ptr<Entry> coalesce_or_register(ActiveIoRequest& request, ActiveCompletion& done,
                                              ActiveTicket& ticket);

  /// If the entry was demoted before starting, complete its waiters with a
  /// rejection and return false; otherwise submit its kernel to the pool.
  bool launch_or_reject(sched::RequestId id, const std::shared_ptr<Entry>& entry);

  /// Remove the entry, count per-waiter outcome stats, and fire the
  /// completion callbacks (outside mu_). No-op if the entry was abandoned.
  void complete_entry(sched::RequestId id, const std::shared_ptr<Entry>& entry,
                      ActiveIoResponse response, Bytes processed);

  /// Count one waiter's outcome into stats_; caller holds mu_.
  void count_outcome_locked(const ActiveIoResponse& response);

  /// Result-cache lookup; nullopt on miss/disabled/stale. Updates stats
  /// (a hit counts as a completed request).
  std::optional<ActiveIoResponse> cache_lookup(const ActiveIoRequest& request);

  /// Insert a completed result if the object is still at `version`. The
  /// cache shares `result`'s slab (ref-counted); no owning copy is cut.
  void cache_insert(const ActiveIoRequest& request, std::uint64_t version,
                    const BufferRef& result);

  /// Worker-pool body for one request.
  void run_kernel(sched::RequestId id);

  /// h(d) for an operation, via a throwaway kernel instance (cached).
  Bytes result_size_for(const std::string& operation, Bytes input);

  /// Snapshot of the attached injector (nullable); takes mu_.
  std::shared_ptr<fault::FaultInjector> faults() const;

  /// Fail an un-launched request because this node is "crashed": a typed
  /// kFailed/kUnavailable response the client recovers from locally.
  static ActiveIoResponse crashed_response(pfs::ServerId server_id);

  /// Scheduling group for a "pipe" operation: the stage with the lowest
  /// storage rate (the chain's bottleneck), or "pipe" (no rates -> stays
  /// active under DOSAS) when any stage is unknown.
  std::string pipeline_rate_key(const kernels::OperationSpec& spec) const;

  SystemStatus snapshot_status_locked() const;

  /// Update the `server<id>.queue_depth` gauge/histogram; caller holds mu_.
  void obs_queue_depth_locked() const;

  pfs::FileSystem& fs_;
  const pfs::ServerId server_id_;
  kernels::Registry registry_;
  ContentionEstimator ce_;
  Config config_;
  const std::string obs_name_;  ///< metric prefix: "server<id>"

  mutable std::mutex mu_;
  std::map<sched::RequestId, std::shared_ptr<Entry>> entries_;
  sched::RequestId next_id_ = 1;
  std::uint64_t next_waiter_ = 1;
  Stats stats_;
  std::shared_ptr<fault::FaultInjector> faults_;
  std::size_t normal_inflight_ = 0;

  // Cache of h(d)-per-byte behaviour: operation -> (probe input, result).
  std::map<std::string, std::pair<Bytes, Bytes>> hsize_cache_;

  // Active-result cache (LRU by last_use tick).
  struct CacheKey {
    pfs::FileHandle handle;
    Bytes offset;
    Bytes length;
    std::string operation;
    auto operator<=>(const CacheKey&) const = default;
  };
  /// Slab-backed cache entry: `result` is a ref-counted view of the arena
  /// slab the kernel finalized into. Hits hand out another view of the
  /// same slab — a cache hit never copies the payload. `version` pins the
  /// per-object mutation counter (data_server.hpp) the result was computed
  /// at; a lookup observing a newer version drops the entry.
  struct CacheEntry {
    std::uint64_t version = 0;
    BufferRef result;
    std::uint64_t last_use = 0;
  };
  std::map<CacheKey, CacheEntry> result_cache_;
  std::uint64_t cache_tick_ = 0;

  /// Periodic CE probe tick (config_.probe_interval > 0): body of the
  /// probe timer thread.
  void probe_loop();

  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool probe_stop_ = false;

  ThreadPool pool_;     // workers joined by ~StorageServer via shutdown()
  Participant prober_;  // stopped and joined first in ~StorageServer
};

}  // namespace dosas::server
