// inprocess.hpp — the in-process Transport backend: envelopes dispatch
// straight into the target StorageServer's async submit surface on the
// submitting thread, completions arrive from its worker pool.
//
// This is the innermost layer of the interceptor chain (transport.hpp). It
// owns the concerns a real wire would impose regardless of medium:
//
//   * routing (envelope.target -> StorageServer),
//   * per-request deadlines, enforced by a watchdog thread that cancels
//     the server-side work and fails the reply kTimedOut — the async
//     generalization of the old blocking timed wait,
//   * batch submission (one submit_active_batch per target node, so each
//     node's CE makes one decision over its sub-group). A single active
//     envelope is admitted by submit_active, the server's one-request case
//     of the same admission; both share one completion-and-ticket wiring
//     (completion_for + wire_ticket: coalesce count, canceller, deadline),
//   * the chain's ground-truth counters: in-flight + high-water mark,
//     per-active-RPC latency histograms (obs::Histogram, overall and per
//     target node), coalesced/batched counts.
#pragma once

#include <condition_variable>
#include <mutex>
#include <queue>
#include <vector>

#include "common/clock.hpp"
#include "obs/metrics.hpp"
#include "rpc/transport.hpp"
#include "server/storage_server.hpp"

namespace dosas::rpc {

class InProcessTransport : public Transport {
 public:
  /// `servers[i]` serves envelopes with target == i. Raw pointers: the
  /// caller (Cluster, tests) must keep the servers alive for the
  /// transport's lifetime.
  explicit InProcessTransport(std::vector<server::StorageServer*> servers);
  ~InProcessTransport() override;

  InProcessTransport(const InProcessTransport&) = delete;
  InProcessTransport& operator=(const InProcessTransport&) = delete;

  PendingReply submit(Envelope env) override;
  std::vector<PendingReply> submit_batch(std::vector<Envelope> envs) override;
  void collect_stats(TransportStats& out) const override;
  NodeLatency node_latency(std::uint32_t target) const override;

 private:
  /// Shared bookkeeping for one submission: started / finished / deadline.
  PendingReply track(const Envelope& env);

  /// The server completion that fulfils `reply` with the active response.
  static server::StorageServer::ActiveCompletion completion_for(PendingReply reply);

  /// After the server admitted an active envelope, single or batched:
  /// count a coalesce, install the canceller and arm the deadline.
  void wire_ticket(server::StorageServer& server,
                   const server::StorageServer::ActiveTicket& ticket, PendingReply& reply,
                   const Envelope& env);

  /// Dispatch one kActiveIo envelope into its server (single-submit path).
  void dispatch_active(Envelope& env, PendingReply& reply);

  /// Serve one kRead synchronously (the in-process "wire" has no queue for
  /// plain object reads; a socket backend would).
  void dispatch_read(Envelope& env, PendingReply& reply);

  /// Serve one kWrite synchronously. The envelope's BufferRef payload is
  /// consumed in place — the data server's terminal store is the only copy.
  void dispatch_write(Envelope& env, PendingReply& reply);

  /// Register `reply` for cancellation at now + env.deadline seconds.
  void arm_deadline(PendingReply reply, const Envelope& env);

  void watchdog_loop();

  const std::vector<server::StorageServer*> servers_;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;  ///< signalled when inflight_ hits 0
  std::uint64_t next_rpc_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t batched_ = 0;
  std::uint64_t coalesced_ = 0;
  std::size_t inflight_ = 0;
  std::size_t inflight_hwm_ = 0;

  /// Active-RPC latency in µs, every completion. Histograms are atomic:
  /// they need no mu_.
  obs::Histogram active_latency_;
  /// Per-target-node active-RPC latency in µs (the straggler signal),
  /// indexed by target. Cancelled/timed-out replies are excluded — their
  /// time-to-cancel would make a straggler look fast.
  std::vector<obs::Histogram> node_latency_;

  struct Expiry {
    Seconds when = 0;  ///< absolute clock time (clock().now() + deadline)
    PendingReply reply;
    Seconds deadline = 0;
    std::uint64_t trace_id = 0;  ///< causal trace of the armed request
    std::uint32_t target = 0;
    bool operator>(const Expiry& other) const { return when > other.when; }
  };
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<>> expiries_;
  bool shutdown_ = false;
  Participant watchdog_;  // last member: joined first
};

}  // namespace dosas::rpc
