// interceptors.hpp — the cross-cutting concerns of the ASC<->ASS request
// path, each implemented exactly once as a Transport decorator.
//
// Canonical chain, outermost first (Cluster wires it; tests compose their
// own subsets):
//
//   ObsTransport              every envelope gets a trace span + latency metric
//    └─ CircuitBreakerTransport  node-down fast-fail state (observes FINAL
//    │                           outcomes, i.e. after retries)
//    └─ RetryTransport           transient active-RPC failures re-sent with
//    │                           capped exponential backoff
//    └─ FaultTransport           injected network loss (per ATTEMPT — inside
//    │                           retry, so a retry can recover a lost RPC)
//    └─ NetChargeTransport       reply payload bytes charged to the sending
//    │                           node's link bucket (inside fault: a lost
//    │                           RPC moves no bytes)
//    └─ InProcessTransport       routing, deadlines, batching (inprocess.hpp)
//
// The ordering is behaviour, not style: the breaker must see one verdict
// per logical request (outside retry), fault injection must hit every
// attempt (inside retry), and byte charging must only see replies that
// "crossed the wire" (inside fault).
#pragma once

#include <memory>

#include "common/retry.hpp"
#include "common/token_bucket.hpp"
#include "fault/fault.hpp"
#include "rpc/transport.hpp"

namespace dosas::server {
class StorageServer;
}

namespace dosas::rpc {

/// Base decorator: forwards everything to `next`, including stats
/// collection down the chain. Subclasses override what they intercept.
class Filter : public Transport {
 public:
  explicit Filter(std::shared_ptr<Transport> next) : next_(std::move(next)) {}

  PendingReply submit(Envelope env) override { return next_->submit(std::move(env)); }
  std::vector<PendingReply> submit_batch(std::vector<Envelope> envs) override {
    return next_->submit_batch(std::move(envs));
  }
  void collect_stats(TransportStats& out) const override { next_->collect_stats(out); }
  NodeLatency node_latency(std::uint32_t target) const override {
    return next_->node_latency(target);
  }

 protected:
  const std::shared_ptr<Transport> next_;
};

/// Observability: stamps a default span name on unnamed envelopes, records
/// one trace event per RPC (submit -> completion, on the tracer's manual
/// async path), and a per-kind latency histogram. Costs two atomic loads
/// per RPC while tracing/metrics are off.
class ObsTransport : public Filter {
 public:
  using Filter::Filter;
  PendingReply submit(Envelope env) override;
  std::vector<PendingReply> submit_batch(std::vector<Envelope> envs) override;
};

/// Demote-to-local circuit breaker: after `threshold` consecutive
/// transport-level unavailabilities (kFailed + transient status) from one
/// node, the client should stop offloading to it. The breaker only
/// OBSERVES outcomes on the submit path; the decision surface is
/// should_short_circuit(), which the ASC consults before building an
/// envelope — the client, not the transport, owns the local-compute
/// fallback that replaces a skipped RPC. Every 4th skipped request is
/// allowed through as a re-probe so recovery is noticed.
class CircuitBreakerTransport : public Filter {
 public:
  CircuitBreakerTransport(std::shared_ptr<Transport> next, int threshold);

  PendingReply submit(Envelope env) override;
  std::vector<PendingReply> submit_batch(std::vector<Envelope> envs) override;
  void collect_stats(TransportStats& out) const override;

  /// True when the circuit for `target` is open and this request is not
  /// the periodic re-probe. Counts a fast-fail when true.
  bool should_short_circuit(std::uint32_t target);

  /// Is the circuit currently open (threshold consecutive failures)?
  bool is_open(std::uint32_t target) const;

 private:
  void note_outcome(std::uint32_t target, bool unavailable);
  void observe(std::uint32_t target, PendingReply& reply);

  const int threshold_;
  struct NodeState {
    int consecutive_unavailable = 0;
    std::uint64_t skips = 0;  ///< requests short-circuited while open
  };
  mutable std::mutex mu_;
  std::vector<NodeState> nodes_;  // grown on demand, indexed by target
  std::uint64_t fast_fails_ = 0;
};

/// Transient-failure retry for ACTIVE RPCs: a kFailed reply with a
/// transient status (kUnavailable/kTimedOut) is re-submitted with capped
/// exponential backoff, up to policy.max_attempts total tries. Plain reads
/// pass through untouched (their recovery story is the client's
/// hole/fallback handling, and retrying them would perturb the fault
/// injector's deterministic draw sequence).
///
/// Resubmission happens on the completing thread (a server worker for
/// async completions); with the default virtual backoff this is a few
/// arithmetic ops. policy.sleep_real sleeps on that thread — only sensible
/// for blocking callers.
class RetryTransport : public Filter {
 public:
  RetryTransport(std::shared_ptr<Transport> next, RetryPolicy policy, std::uint64_t seed);

  PendingReply submit(Envelope env) override;
  std::vector<PendingReply> submit_batch(std::vector<Envelope> envs) override;
  void collect_stats(TransportStats& out) const override;

 private:
  PendingReply submit_with_retry(Envelope env, PendingReply first_attempt);

  const RetryPolicy policy_;
  const std::uint64_t seed_;
  mutable std::mutex mu_;
  std::uint64_t seq_ = 0;  ///< distinct Backoff seed per retry sequence
  std::uint64_t retries_ = 0;
  std::uint64_t exhausted_ = 0;
  Seconds backoff_total_ = 0;
};

/// Injected network loss on the active RPC path: with probability
/// spec.net_error an envelope is "lost" before reaching the server and
/// fails kUnavailable immediately. Draws only on kActiveIo envelopes, one
/// draw per attempt, matching the injector's documented decision sites.
class FaultTransport : public Filter {
 public:
  FaultTransport(std::shared_ptr<Transport> next, std::shared_ptr<fault::FaultInjector> faults);

  PendingReply submit(Envelope env) override;
  std::vector<PendingReply> submit_batch(std::vector<Envelope> envs) override;
  void collect_stats(TransportStats& out) const override;

 private:
  bool lose(const Envelope& env);

  const std::shared_ptr<fault::FaultInjector> faults_;
  mutable std::mutex mu_;
  std::uint64_t injected_ = 0;
};

/// Network byte charging: every payload byte a reply carries back across
/// the "wire" — kernel results, shipped checkpoints, raw read data — is
/// acquired from the TokenBucket link model on completion. Sits innermost
/// (under fault injection) so lost RPCs charge nothing. `links[i]` charges
/// the bytes node i sends. A shared link (the original single-switch
/// model) is the same bucket in every slot; one bucket per node is each
/// node's own NIC/1GbE uplink — the scale harness's model, where 200 nodes
/// must not share one link's serialization.
class NetChargeTransport : public Filter {
 public:
  NetChargeTransport(std::shared_ptr<Transport> next,
                     std::vector<std::shared_ptr<TokenBucket>> links);

  PendingReply submit(Envelope env) override;
  std::vector<PendingReply> submit_batch(std::vector<Envelope> envs) override;
  void collect_stats(TransportStats& out) const override;

 private:
  /// The bucket charged for a reply from `target` (null = charge nothing).
  TokenBucket* bucket_for(std::uint32_t target) const;
  void charge(PendingReply& reply, std::uint32_t target);

  const std::vector<std::shared_ptr<TokenBucket>> links_;
  mutable std::mutex mu_;
  Bytes bytes_charged_ = 0;
};

/// The canonical full chain over a set of in-process servers (factory used
/// by ActiveClient, from ActiveClientConfig::chain, and by tests).
/// Null/zero options skip their layer entirely.
struct ChainOptions {
  RetryPolicy retry;                              ///< disabled unless max_attempts > 1
  std::uint64_t retry_seed = 1234;                ///< backoff jitter seed, per client
  int circuit_threshold = 0;                      ///< 0: no breaker layer
  std::shared_ptr<fault::FaultInjector> faults;   ///< null: no fault layer
  /// Link bucket per storage node id (see NetChargeTransport); empty: no
  /// charging layer.
  std::vector<std::shared_ptr<TokenBucket>> links;
};

struct Chain {
  std::shared_ptr<Transport> head;  ///< outermost layer; submit here
  std::shared_ptr<CircuitBreakerTransport> breaker;  ///< null when no breaker layer
};

Chain make_chain(std::vector<server::StorageServer*> servers, const ChainOptions& options);

}  // namespace dosas::rpc
