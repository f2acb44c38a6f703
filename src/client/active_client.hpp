// active_client.hpp — the Active Storage Client (ASC).
//
// Paper §III-B: the ASC runs on compute nodes with two jobs: (1) the
// application-facing API for active I/O, and (2) finishing active I/O that
// storage nodes hand back — either rejected at arrival (the client reads
// the raw data and runs the kernel locally) or interrupted mid-kernel (the
// client restores the shipped checkpoint and processes only the remaining
// bytes). Both paths are transparent to the application: read_ex() always
// returns the finished kernel result.
//
// Every byte the ASC exchanges with a storage node — active RPCs AND
// normal-I/O object reads — travels through the rpc::Transport chain the
// client assembles over its servers, so retry, circuit breaking, fault
// injection, network byte charging, and tracing each exist exactly once,
// as transport interceptors (rpc/interceptors.hpp).
//
// Striped files: when the extent spans several storage nodes and the
// kernel is mergeable, the ASC fans the request out per node — submitted
// CONCURRENTLY through the async transport (read_ex_async) — and merges
// the partial results in stripe order (the striped-file support of Piernas
// et al. that the paper cites); non-mergeable kernels (gaussian2d) fall
// back to normal reads plus one local kernel pass.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/registry.hpp"
#include "kernels/stream.hpp"
#include "obs/trace.hpp"
#include "pfs/client.hpp"
#include "rpc/interceptors.hpp"
#include "server/storage_server.hpp"

namespace dosas::client {

/// ActiveClient construction options (namespace-scope so it is complete
/// where member declarations use it as a default argument).
struct ActiveClientConfig {
  Bytes chunk_size = 4_MiB;  ///< local kernel streaming granularity
  /// Cooperative resumption (extension): when a kernel is interrupted,
  /// resubmit it once WITH its checkpoint instead of finishing locally —
  /// useful when the client is compute-poor and the storage spike was
  /// transient. A second interruption/rejection falls back to local
  /// completion as usual.
  bool resubmit_interrupted = false;

  /// Pace local kernel execution at the C_{C,op} compute rate of the rate
  /// table the storage nodes' CEs schedule with: each chunk a client-side
  /// kernel consumes sleeps chunk/C on the injected clock. This is the
  /// client half of the calibrated-pacing seam (see
  /// StorageServerConfig::pace_kernel_rates); operations without table
  /// rates run unpaced.
  bool pace_compute_rates = false;

  /// The transport chain the client builds over its servers, handed to
  /// rpc::make_chain unchanged: remote retry with capped exponential
  /// backoff for transient active-RPC failures, the demote-to-local circuit
  /// breaker, injected network loss, and the per-node link model that
  /// charges every reply payload byte. All off by default.
  rpc::ChainOptions chain;

  /// Per-request deadline stamped on every active envelope (0 = wait
  /// forever): a request still unanswered after this many seconds is
  /// cancelled server-side, fails kTimedOut, and the client recovers
  /// locally.
  Seconds request_timeout = 0;

  /// Straggler-aware hedged striped reads: when a fan-out leg is still
  /// outstanding past a p99-derived delay, duplicate it down the
  /// demote-to-local path (normal I/O + local kernel — the replica-capable
  /// twin this architecture has) and race the two, cancelling the loser via
  /// PendingReply::cancel() so exactly one leg's bytes are charged. Legs
  /// are also resolved fastest-predicted-node first, so the hedge timer
  /// spends the wait budget on the straggler, not on legs that are already
  /// done. Off by default. A warm node's leg is hedged after
  /// max(kHedgeMinDelay, kHedgeP99Multiplier × its p99), at most
  /// kHedgeMaxPerRead times per read_ex (constants in active_client.cpp).
  bool hedge_reads = false;
  /// Per-node samples required before the p99 is trusted; colder nodes
  /// hedge after hedge_cold_delay instead (0 = never hedge a cold node).
  std::uint64_t hedge_min_samples = 8;
  Seconds hedge_cold_delay = 0;
};

class ActiveClient {
 private:
  struct ServerExtent {
    pfs::ServerId server = 0;
    Bytes object_offset = 0;
    Bytes length = 0;
  };

 public:
  using Config = ActiveClientConfig;

  /// This client's own counts. Retries and backoff are counted once, by the
  /// transport's retry interceptor: read them from transport_stats().
  struct Stats {
    std::uint64_t reads_ex = 0;             ///< read_ex() calls
    std::uint64_t completed_remote = 0;     ///< served fully on storage nodes
    std::uint64_t demoted = 0;              ///< rejected -> full local fallback
    std::uint64_t resumed_local = 0;        ///< interrupted -> checkpoint resume
    std::uint64_t local_kernel_runs = 0;    ///< kernels executed on this client
    std::uint64_t striped_fanouts = 0;      ///< multi-server merged requests
    std::uint64_t failed_remote_retries = 0;  ///< server failures retried locally
    std::uint64_t resubmitted = 0;            ///< interrupted kernels re-offloaded
    Bytes raw_bytes_read = 0;               ///< raw data pulled over "the network"
    Bytes raw_bytes_written = 0;            ///< raw data shipped via write()
    Bytes result_bytes_received = 0;        ///< kernel results/checkpoints received
    std::uint64_t timed_out = 0;            ///< responses that hit the deadline
    std::uint64_t node_down_demotes = 0;    ///< circuit open: straight to local compute
    std::uint64_t checkpoint_corrupt_restarts = 0;  ///< bad checkpoint -> clean local restart
    std::uint64_t hedges_fired = 0;         ///< legs duplicated past their hedge delay
    std::uint64_t hedges_won = 0;           ///< hedges whose local twin beat the RPC
    std::uint64_t hedges_wasted = 0;        ///< hedges where the remote leg won anyway
  };

  /// `servers[i]` must be the Active Storage Server wrapping PFS data
  /// server i of the same file system `pfs` operates on. The client builds
  /// its transport chain over them (rpc::make_chain) from config.chain.
  ActiveClient(pfs::Client& pfs, const kernels::Registry& registry,
               std::vector<server::StorageServer*> servers, Config config = {});

  /// Handle for one in-flight read_ex(): the per-extent active RPCs are
  /// already submitted (concurrent striped fan-out), wait() resolves the
  /// outcomes — rejection, interruption, failure — on the calling thread
  /// and returns the finished kernel result. Single consumer: wait() once.
  class PendingReadEx {
   public:
    PendingReadEx() = default;

    /// Dropping an unawaited handle must not leak: outstanding legs are
    /// cancelled (withdrawing queued/running server work) and the root span
    /// is closed, exactly as if the request had failed.
    ~PendingReadEx();
    PendingReadEx(PendingReadEx&& other) noexcept;
    PendingReadEx& operator=(PendingReadEx&& other) noexcept;
    PendingReadEx(const PendingReadEx&) = delete;
    PendingReadEx& operator=(const PendingReadEx&) = delete;

    /// Block for the remaining replies and finish any handed-back work.
    Result<std::vector<std::uint8_t>> wait();

   private:
    friend class ActiveClient;

    enum class Mode {
      kImmediate,  ///< resolved at submission (EOF, bad operation)
      kRemote,     ///< one or more in-flight per-extent active RPCs
      kLocalPass,  ///< non-mergeable striped extent: normal I/O + one kernel
    };

    struct Leg {
      ServerExtent ext;
      rpc::PendingReply reply;  ///< invalid: serve locally (circuit open)
      obs::TraceContext ctx;    ///< per-leg child of the request's root trace
      /// Absolute clock time after which this still-outstanding leg is
      /// hedged (0 = hedging off / node too cold). Stamped at submission.
      Seconds hedge_at = 0;
      /// Set by the planning step: the node exists and its circuit is
      /// closed, so the send step submits this leg's active RPC.
      bool send = false;
    };

    /// Resolve the result (wait() minus the root-span/e2e bookkeeping).
    Result<std::vector<std::uint8_t>> resolve();

    /// Cancel every leg whose RPC is still outstanding (a failed sibling or
    /// an abandoned handle must not leave storage nodes burning kernel time
    /// on a doomed request).
    void cancel_outstanding(const char* why);

    ActiveClient* client_ = nullptr;
    Mode mode_ = Mode::kImmediate;
    obs::TraceContext ctx_;  ///< causal root of this request's span tree
    double t0_us_ = 0.0;     ///< submission time, for the e2e span/histogram
    Result<std::vector<std::uint8_t>> immediate_{std::vector<std::uint8_t>{}};
    pfs::FileMeta meta_;
    std::string operation_;
    Bytes offset_ = 0;  ///< clamped extent (kLocalPass)
    Bytes length_ = 0;
    std::vector<Leg> legs_;
    bool fanout_ = false;  ///< merge per-leg partials in stripe order
    /// Leg indices in resolution order: fastest predicted node first, so
    /// the slowest node is waited on last with the hedge timer armed.
    std::vector<std::size_t> wait_order_;
    std::size_t hedge_budget_ = 0;  ///< hedges this read may still fire
    bool waited_ = false;           ///< wait() consumed this handle
  };

  /// The enhanced read: run `operation` over file bytes
  /// [offset, offset+length) and return the encoded kernel result.
  /// Equivalent to the paper's MPI_File_read_ex() with the ASC's
  /// completion duties folded in. Blocking form of read_ex_async().
  Result<std::vector<std::uint8_t>> read_ex(const pfs::FileMeta& meta, Bytes offset,
                                            Bytes length, const std::string& operation);

  /// Submit the active read and return without blocking: striped extents
  /// fan out as concurrent RPCs, so N pending reads pipeline across the
  /// storage nodes instead of serializing. Results are bit-identical to
  /// read_ex() (merge order is stripe order regardless of completion
  /// order).
  PendingReadEx read_ex_async(const pfs::FileMeta& meta, Bytes offset, Bytes length,
                              const std::string& operation);

  /// Normal read (the unmodified PFS path), assembled from per-server
  /// object reads issued through the transport. Materializes an owning
  /// vector (the copy lands in the data-bytes-copied ledger); hot callers
  /// use read_ref().
  Result<std::vector<std::uint8_t>> read(const pfs::FileMeta& meta, Bytes offset, Bytes length);

  /// Zero-copy form of read(): an extent on one strip returns the storage
  /// node's slab ref directly; only striped/sparse extents stage through a
  /// gather buffer (charged to the ledger's read_gather site).
  Result<BufferRef> read_ref(const pfs::FileMeta& meta, Bytes offset, Bytes length);

  /// Normal write through the transport: the extent fans out as one kWrite
  /// per storage node, each leg carrying a slice (shared slab view) of
  /// `data`, then the file is extended. The data servers' stores are the
  /// only copies; the link model charges each leg's request bytes exactly
  /// once (rpc::NetChargeTransport). Returns the refreshed metadata.
  Result<pfs::FileMeta> write(const pfs::FileMeta& meta, Bytes offset, const BufferRef& data);

  /// One active read in a batch.
  struct BatchItem {
    pfs::FileMeta meta;
    Bytes offset = 0;
    Bytes length = 0;
    std::string operation;
  };

  /// Collective active read: every item is planned like read_ex_async(),
  /// then all items' legs ride ONE transport batch submission, which hands
  /// each node its sub-group at once — so each node's CE makes ONE
  /// decision over the whole batch (no admit-then-interrupt churn). Each
  /// item then resolves like PendingReadEx::wait(). Results align
  /// positionally with `items`.
  std::vector<Result<std::vector<std::uint8_t>>> read_ex_batch(
      const std::vector<BatchItem>& items);

  Stats stats() const;

  /// Aggregated counters of the client's transport chain (in-flight HWM,
  /// batched/coalesced, latency quantiles, ...). Surfaced by
  /// `dosas_ctl runtime`.
  rpc::TransportStats transport_stats() const { return rpc::stats_of(*transport_); }

  /// The transport chain head (tests and tools may submit through it).
  rpc::Transport& transport() { return *transport_; }

  pfs::Client& pfs() { return pfs_; }
  const kernels::Registry& registry() const { return registry_; }

 private:
  /// Decompose a file extent into one contiguous object range per server.
  std::vector<ServerExtent> server_extents(const pfs::FileMeta& meta, Bytes offset,
                                           Bytes length) const;

  /// Build the kActiveIo envelope for one server extent, joined to `trace`.
  rpc::Envelope active_envelope(const pfs::FileMeta& meta, const ServerExtent& ext,
                                const std::string& operation,
                                const obs::TraceContext& trace) const;

  /// Planning step of read_ex_async(): trace root, EOF clamp, probe
  /// kernel, extent split and circuit check. Legs come back unsent (see
  /// Leg::send); a read resolved here (EOF, bad operation) or served by one
  /// local pass has no legs.
  PendingReadEx plan_read_ex(const pfs::FileMeta& meta, Bytes offset, Bytes length,
                             const std::string& operation);

  /// Send step, per leg: record the leg's submitted RPC and, with hedging
  /// on, stamp the clock time after which it is hedged — p99-derived for a
  /// warm node, the cold delay otherwise.
  void attach(PendingReadEx::Leg& leg, rpc::PendingReply reply);

  /// Last send step: order the legs for resolution, fastest predicted node
  /// first, so the predicted straggler is waited on last with the whole
  /// hedge budget.
  void order_legs(PendingReadEx& pending) const;

  /// EOF-clamped striped read assembled from per-server kRead RPCs (one
  /// batch submission; holes read as zeros). Single-strip extents return
  /// the server's view of the object version without staging. Sets
  /// `carried` to the bytes the kRead replies held — the zero-filled
  /// holes are not read from anywhere. No stats side effects.
  Result<BufferRef> assemble_read(const pfs::FileMeta& meta, Bytes offset, Bytes length,
                                  Bytes& carried);

  /// Run the kernel locally over a file extent (the TS path).
  Result<std::vector<std::uint8_t>> local_kernel(const pfs::FileMeta& meta, Bytes offset,
                                                 Bytes length, const std::string& operation);

  /// Resolve one leg of a pending read: wait for its reply (or serve it
  /// locally when the circuit was open) and finish any handed-back work.
  /// `hedge_budget` is decremented when the leg's hedge timer expires and
  /// a local twin is raced against the RPC; the loser is cancelled, so
  /// exactly one of the two becomes the leg's result.
  Result<std::vector<std::uint8_t>> resolve_leg(const pfs::FileMeta& meta,
                                                PendingReadEx::Leg& leg,
                                                const std::string& operation,
                                                std::size_t& hedge_budget);

  /// Wait for an active reply and count what it carried: a completion, the
  /// result or checkpoint bytes it brought over the link (each reply
  /// counted as it arrives, so a resubmitted leg counts both), or a
  /// deadline expiry.
  server::ActiveIoResponse take_reply(rpc::PendingReply& reply);

  /// Resolve an already-received server response for one leg: the
  /// completion / demotion / resume / resubmit / retry state machine.
  Result<std::vector<std::uint8_t>> resolve_response(const pfs::FileMeta& meta,
                                                     const PendingReadEx::Leg& leg,
                                                     const std::string& operation,
                                                     server::ActiveIoResponse resp);

  /// Why a leg's kernel runs on this client. Indexes the per-cause table
  /// in active_client.cpp: what each case counts and emits.
  enum class LocalCause { kRejected, kInterrupted, kFailed, kCircuitOpen, kHedge };

  /// The one path by which this client finishes handed-back work (paper
  /// §III-C): stream the leg's object bytes [from, extent end) through the
  /// node's normal-I/O path (a transport kRead per chunk) into a local
  /// kernel and finalize. A `checkpoint` is restored first (a corrupt one
  /// restarts cleanly from the extent start); a `stop` check that fires
  /// ends the stream early with kCancelled.
  Result<std::vector<std::uint8_t>> finish_leg_locally(
      const pfs::FileMeta& meta, const PendingReadEx::Leg& leg, const std::string& operation,
      LocalCause cause, Bytes from, const std::vector<std::uint8_t>* checkpoint = nullptr,
      const kernels::StopCheck& stop = nullptr);

  /// The rate table local kernels are paced with: the one the storage
  /// nodes' CEs schedule with (a Cluster gives every node the same
  /// table). Null when config_.pace_compute_rates is off.
  const server::RateTable* pace_rates() const {
    return config_.pace_compute_rates ? &servers_.front()->estimator().rates() : nullptr;
  }

  pfs::Client& pfs_;
  const kernels::Registry& registry_;
  std::vector<server::StorageServer*> servers_;
  Config config_;

  // The transport chain over servers_; destroyed before the servers (the
  // owner keeps them alive — see InProcessTransport).
  std::shared_ptr<rpc::Transport> transport_;
  std::shared_ptr<rpc::CircuitBreakerTransport> breaker_;  ///< null: no breaker

  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace dosas::client
