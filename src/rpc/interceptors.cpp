#include "rpc/interceptors.hpp"

#include <utility>

#include "common/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/inprocess.hpp"

namespace dosas::rpc {

namespace {

/// A kFailed active reply whose status a later attempt could fix — the
/// retry trigger AND the breaker's "node unavailable" verdict (matching
/// the old client: timeouts count toward opening the circuit too).
bool transient_active_failure(const Reply& r) {
  return r.kind == OpKind::kActiveIo &&
         r.active.outcome == server::ActiveOutcome::kFailed &&
         is_transient(r.active.status.code());
}

}  // namespace

// ---------------------------------------------------------------- ObsTransport

namespace {

void obs_annotate(Envelope& env) {
  if (env.span.empty()) {
    env.span = std::string("rpc.") + op_kind_name(env.kind) + ".s" + std::to_string(env.target);
  }
  // Every envelope travels with a causal context: the client pre-stamps
  // active legs; reads and bare submissions get a root here. Allocation is
  // one relaxed fetch_add, cheap enough to do unconditionally so the
  // always-on flight recorder has ids even with tracing off.
  if (!env.trace.valid()) env.trace = obs::Tracer::global().new_root();
  if (env.submitted_at < 0) env.submitted_at = clock().now();
  env.active.trace = env.trace;
  env.active.submitted_at = env.submitted_at;
}

/// Register the span/latency completion hook. Captures no transport state,
/// so it is safe regardless of interceptor lifetime.
void obs_observe(const Envelope& env, PendingReply& reply) {
  const bool tracing = obs::tracing_enabled();
  const bool metrics = obs::metrics_enabled();
  if (!tracing && !metrics) return;
  if (tracing) {
    // Flow start on the submitting thread; the server's queue span emits
    // the matching finish, drawing the cross-thread arrow in the viewer.
    obs::Tracer::global().flow_start(env.span, "flow", env.trace.span_id, env.trace);
  }
  std::string span = env.span;
  const char* kind = op_kind_name(env.kind);
  const obs::TraceContext ctx = env.trace;
  const double t0 = obs::Tracer::global().now_us();
  reply.on_complete([span = std::move(span), kind, t0, tracing, metrics, ctx](Reply&) {
    const double t1 = obs::Tracer::global().now_us();
    if (tracing) obs::Tracer::global().complete(span, "rpc", t0, t1 - t0, ctx);
    if (metrics) obs::observe(std::string("rpc.latency_us.") + kind, t1 - t0, ctx.trace_id);
  });
}

}  // namespace

PendingReply ObsTransport::submit(Envelope env) {
  obs_annotate(env);
  Envelope snapshot;  // the hook needs span/kind/trace after the move below
  snapshot.kind = env.kind;
  snapshot.span = env.span;
  snapshot.trace = env.trace;
  auto reply = next_->submit(std::move(env));
  obs_observe(snapshot, reply);
  return reply;
}

std::vector<PendingReply> ObsTransport::submit_batch(std::vector<Envelope> envs) {
  std::vector<Envelope> snapshots;
  snapshots.reserve(envs.size());
  for (auto& env : envs) {
    obs_annotate(env);
    Envelope s;
    s.kind = env.kind;
    s.span = env.span;
    s.trace = env.trace;
    snapshots.push_back(std::move(s));
  }
  auto replies = next_->submit_batch(std::move(envs));
  for (std::size_t i = 0; i < replies.size(); ++i) obs_observe(snapshots[i], replies[i]);
  return replies;
}

// ---------------------------------------------------- CircuitBreakerTransport

CircuitBreakerTransport::CircuitBreakerTransport(std::shared_ptr<Transport> next, int threshold)
    : Filter(std::move(next)), threshold_(threshold) {}

bool CircuitBreakerTransport::is_open(std::uint32_t target) const {
  if (threshold_ <= 0) return false;
  std::lock_guard lock(mu_);
  return target < nodes_.size() && nodes_[target].consecutive_unavailable >= threshold_;
}

bool CircuitBreakerTransport::should_short_circuit(std::uint32_t target) {
  if (threshold_ <= 0) return false;
  std::lock_guard lock(mu_);
  if (target >= nodes_.size()) return false;
  auto& node = nodes_[target];
  if (node.consecutive_unavailable < threshold_) return false;
  // Every 4th short-circuited request re-probes the node so the breaker
  // closes again once the node recovers.
  ++node.skips;
  const bool skip = node.skips % 4 != 0;
  if (skip) ++fast_fails_;
  return skip;
}

void CircuitBreakerTransport::note_outcome(std::uint32_t target, bool unavailable) {
  std::lock_guard lock(mu_);
  if (target >= nodes_.size()) nodes_.resize(target + 1);
  auto& node = nodes_[target];
  if (unavailable) {
    ++node.consecutive_unavailable;
    if (node.consecutive_unavailable == threshold_) {
      obs::flight_record(obs::FlightEventKind::kBreakerTrip, 0, target,
                         static_cast<std::uint64_t>(threshold_), "circuit opened");
    }
  } else {
    if (node.consecutive_unavailable >= threshold_ && threshold_ > 0) {
      obs::flight_record(obs::FlightEventKind::kBreakerTrip, 0, target, 0, "circuit closed");
    }
    node.consecutive_unavailable = 0;
    node.skips = 0;
  }
}

void CircuitBreakerTransport::observe(std::uint32_t target, PendingReply& reply) {
  // Sits OUTSIDE the retry layer, so this fires once per logical request
  // with the post-retry verdict — a recovered retry closes the circuit.
  // Captures `this`: the owner must not destroy the chain with RPCs
  // outstanding (see Filter).
  reply.on_complete([this, target](Reply& r) {
    if (r.kind == OpKind::kActiveIo) note_outcome(target, transient_active_failure(r));
  });
}

PendingReply CircuitBreakerTransport::submit(Envelope env) {
  const std::uint32_t target = env.target;
  const OpKind kind = env.kind;
  auto reply = next_->submit(std::move(env));
  if (threshold_ > 0 && kind == OpKind::kActiveIo) observe(target, reply);
  return reply;
}

std::vector<PendingReply> CircuitBreakerTransport::submit_batch(std::vector<Envelope> envs) {
  std::vector<std::pair<std::uint32_t, OpKind>> meta;
  meta.reserve(envs.size());
  for (const auto& env : envs) meta.emplace_back(env.target, env.kind);
  auto replies = next_->submit_batch(std::move(envs));
  if (threshold_ > 0) {
    for (std::size_t i = 0; i < replies.size(); ++i) {
      if (meta[i].second == OpKind::kActiveIo) observe(meta[i].first, replies[i]);
    }
  }
  return replies;
}

void CircuitBreakerTransport::collect_stats(TransportStats& out) const {
  {
    std::lock_guard lock(mu_);
    out.breaker_fast_fails += fast_fails_;
  }
  next_->collect_stats(out);
}

// ------------------------------------------------------------- RetryTransport

RetryTransport::RetryTransport(std::shared_ptr<Transport> next, RetryPolicy policy,
                               std::uint64_t seed)
    : Filter(std::move(next)), policy_(policy), seed_(seed) {}

PendingReply RetryTransport::submit(Envelope env) {
  if (!policy_.enabled() || env.kind != OpKind::kActiveIo) {
    return next_->submit(std::move(env));
  }
  Envelope copy = env;  // kept for resubmission
  auto first = next_->submit(std::move(env));
  return submit_with_retry(std::move(copy), std::move(first));
}

std::vector<PendingReply> RetryTransport::submit_batch(std::vector<Envelope> envs) {
  if (!policy_.enabled()) return next_->submit_batch(std::move(envs));
  // The batch rides down as one group for the initial attempts; failed
  // members retry individually (a re-sent straggler should not drag its
  // batch peers through another scheduling round).
  std::vector<Envelope> copies;
  copies.reserve(envs.size());
  for (const auto& env : envs) copies.push_back(env);
  auto firsts = next_->submit_batch(std::move(envs));
  std::vector<PendingReply> out;
  out.reserve(firsts.size());
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    if (copies[i].kind != OpKind::kActiveIo) {
      out.push_back(std::move(firsts[i]));
    } else {
      out.push_back(submit_with_retry(std::move(copies[i]), std::move(firsts[i])));
    }
  }
  return out;
}

PendingReply RetryTransport::submit_with_retry(Envelope env, PendingReply first_attempt) {
  auto outer = PendingReply::make(OpKind::kActiveIo);

  // One retry sequence. Kept alive by the attempt callbacks; `self` is a
  // raw pointer under the no-outstanding-RPCs-at-destruction contract.
  struct Session : std::enable_shared_from_this<Session> {
    RetryTransport* self = nullptr;
    Envelope env;
    PendingReply outer;
    std::mutex mu;
    PendingReply current;            // the in-flight attempt (cancel target)
    std::unique_ptr<Backoff> backoff;  // created on the first failure
    int attempt = 1;                 // attempts issued so far
    bool cancelled = false;

    void finish(Reply& r, bool transient) {
      if (backoff != nullptr) {
        std::lock_guard lock(self->mu_);
        self->backoff_total_ += backoff->total();
        if (transient) ++self->exhausted_;
      }
      if (backoff != nullptr && obs::metrics_enabled()) {
        obs::count(transient ? "rpc.retries_exhausted" : "rpc.retry_recovered");
      }
      // This callback is the inner reply's final consumer: take the
      // payload by move instead of copying result/checkpoint buffers.
      outer.complete(std::move(r));
    }

    void on_attempt_done(Reply& r) {
      const bool transient = transient_active_failure(r);
      bool stop;
      {
        std::lock_guard lock(mu);
        stop = cancelled || !transient || attempt >= self->policy_.max_attempts ||
               r.active.status.code() == ErrorCode::kCancelled;
      }
      if (stop) {
        finish(r, transient);
        return;
      }
      int failed_attempt;
      {
        std::lock_guard lock(mu);
        if (backoff == nullptr) {
          std::uint64_t seq;
          {
            std::lock_guard slock(self->mu_);
            seq = self->seq_++;
          }
          backoff = std::make_unique<Backoff>(self->policy_, self->seed_ + seq);
        }
        failed_attempt = attempt++;
      }
      backoff->next_delay(failed_attempt);
      {
        std::lock_guard slock(self->mu_);
        ++self->retries_;
      }
      if (obs::metrics_enabled()) obs::count("rpc.retries");
      obs::flight_record(obs::FlightEventKind::kRetry, env.trace.trace_id, env.target,
                         static_cast<std::uint64_t>(failed_attempt), "active rpc retry");
      if (obs::tracing_enabled()) {
        // Per-attempt instant with a derived child span, so retries show up
        // as marks inside the request's causal tree.
        obs::Tracer::global().instant(
            "rpc.retry", "rpc", env.trace.child("retry" + std::to_string(failed_attempt)));
      }
      auto next_attempt = self->next_->submit(env);  // env reused verbatim
      {
        std::lock_guard lock(mu);
        current = next_attempt;
      }
      auto session = shared_from_this();
      next_attempt.on_complete([session](Reply& r2) { session->on_attempt_done(r2); });
    }
  };

  auto session = std::make_shared<Session>();
  session->self = this;
  session->env = std::move(env);
  session->outer = outer;
  session->current = first_attempt;

  outer.set_canceller([session](const Status& reason) {
    PendingReply attempt;
    {
      std::lock_guard lock(session->mu);
      session->cancelled = true;
      attempt = session->current;
    }
    return attempt.valid() ? attempt.cancel(reason) : false;
  });
  first_attempt.on_complete([session](Reply& r) { session->on_attempt_done(r); });
  return outer;
}

void RetryTransport::collect_stats(TransportStats& out) const {
  {
    std::lock_guard lock(mu_);
    out.retries += retries_;
    out.retries_exhausted += exhausted_;
    out.backoff_total += backoff_total_;
  }
  next_->collect_stats(out);
}

// ------------------------------------------------------------- FaultTransport

FaultTransport::FaultTransport(std::shared_ptr<Transport> next,
                               std::shared_ptr<fault::FaultInjector> faults)
    : Filter(std::move(next)), faults_(std::move(faults)) {}

bool FaultTransport::lose(const Envelope& env) {
  // Only active RPCs draw, one draw per attempt — the injector's
  // documented decision site ("per RPC"), and the reason this layer sits
  // inside retry: a re-sent attempt rolls the dice again.
  if (env.kind != OpKind::kActiveIo || faults_ == nullptr) return false;
  if (!faults_->inject_net_error()) return false;
  {
    std::lock_guard lock(mu_);
    ++injected_;
  }
  return true;
}

PendingReply FaultTransport::submit(Envelope env) {
  if (lose(env)) {
    auto reply = PendingReply::make(env.kind);
    reply.complete(failure_reply(
        env.kind, error(ErrorCode::kUnavailable, "injected network error on active RPC")));
    return reply;
  }
  return next_->submit(std::move(env));
}

std::vector<PendingReply> FaultTransport::submit_batch(std::vector<Envelope> envs) {
  if (faults_ == nullptr) return next_->submit_batch(std::move(envs));
  std::vector<PendingReply> out(envs.size());
  std::vector<Envelope> pass;
  std::vector<std::size_t> pass_index;
  pass.reserve(envs.size());
  for (std::size_t i = 0; i < envs.size(); ++i) {
    if (lose(envs[i])) {
      out[i] = PendingReply::make(envs[i].kind);
      out[i].complete(failure_reply(
          envs[i].kind, error(ErrorCode::kUnavailable, "injected network error on active RPC")));
    } else {
      pass.push_back(std::move(envs[i]));
      pass_index.push_back(i);
    }
  }
  auto replies = next_->submit_batch(std::move(pass));
  for (std::size_t j = 0; j < replies.size(); ++j) out[pass_index[j]] = std::move(replies[j]);
  return out;
}

void FaultTransport::collect_stats(TransportStats& out) const {
  {
    std::lock_guard lock(mu_);
    out.net_faults_injected += injected_;
  }
  next_->collect_stats(out);
}

// --------------------------------------------------------- NetChargeTransport

NetChargeTransport::NetChargeTransport(std::shared_ptr<Transport> next,
                                       std::vector<std::shared_ptr<TokenBucket>> links)
    : Filter(std::move(next)), links_(std::move(links)) {}

TokenBucket* NetChargeTransport::bucket_for(std::uint32_t target) const {
  return target < links_.size() ? links_[target].get() : nullptr;
}

void NetChargeTransport::charge(PendingReply& reply, std::uint32_t target) {
  // Captures `this` (see Filter's lifetime contract). Charging happens on
  // the completing thread — in virtual TokenBucket mode a few arithmetic
  // ops; in real mode the sleep paces the worker exactly like a saturated
  // NIC would back-pressure the sender. The Reply carries no target, so
  // the node id is captured at submission.
  reply.on_complete([this, target](Reply& r) {
    Bytes payload = 0;
    if (r.kind == OpKind::kActiveIo) {
      switch (r.active.outcome) {
        case server::ActiveOutcome::kCompleted: payload = r.active.result.size(); break;
        case server::ActiveOutcome::kInterrupted: payload = r.active.checkpoint.size(); break;
        default: break;
      }
    } else if (r.kind == OpKind::kRead) {
      if (r.read.status.is_ok()) payload = r.read.data.size();
    } else if (r.write.status.is_ok()) {
      // Request-direction bytes: the extent the client shipped, echoed back
      // as `written`. Charged here — once, at the single completion — so a
      // striped write pays the link model exactly what the read path does.
      payload = r.write.written;
    }
    if (payload == 0) return;
    TokenBucket* bucket = bucket_for(target);
    if (bucket == nullptr) return;
    bucket->acquire(payload);
    std::lock_guard lock(mu_);
    bytes_charged_ += payload;
  });
}

PendingReply NetChargeTransport::submit(Envelope env) {
  const std::uint32_t target = env.target;
  auto reply = next_->submit(std::move(env));
  charge(reply, target);
  return reply;
}

std::vector<PendingReply> NetChargeTransport::submit_batch(std::vector<Envelope> envs) {
  std::vector<std::uint32_t> targets;
  targets.reserve(envs.size());
  for (const auto& env : envs) targets.push_back(env.target);
  auto replies = next_->submit_batch(std::move(envs));
  for (std::size_t i = 0; i < replies.size(); ++i) charge(replies[i], targets[i]);
  return replies;
}

void NetChargeTransport::collect_stats(TransportStats& out) const {
  {
    std::lock_guard lock(mu_);
    out.bytes_charged += bytes_charged_;
  }
  next_->collect_stats(out);
}

// ------------------------------------------------------------------ the chain

/// Backoff jitter seed of every chain's retry layer.
constexpr std::uint64_t kRetrySeed = 1234;

Chain make_chain(std::vector<server::StorageServer*> servers, const ChainOptions& options) {
  Chain chain;
  std::shared_ptr<Transport> t = std::make_shared<InProcessTransport>(std::move(servers));
  if (!options.links.empty()) {
    t = std::make_shared<NetChargeTransport>(std::move(t), options.links);
  }
  if (options.faults != nullptr) {
    t = std::make_shared<FaultTransport>(std::move(t), options.faults);
  }
  if (options.retry.enabled()) {
    t = std::make_shared<RetryTransport>(std::move(t), options.retry, kRetrySeed);
  }
  if (options.circuit_threshold > 0) {
    chain.breaker = std::make_shared<CircuitBreakerTransport>(std::move(t),
                                                              options.circuit_threshold);
    t = chain.breaker;
  }
  t = std::make_shared<ObsTransport>(std::move(t));
  chain.head = std::move(t);
  return chain;
}

}  // namespace dosas::rpc
