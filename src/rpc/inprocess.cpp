#include "rpc/inprocess.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace dosas::rpc {

InProcessTransport::InProcessTransport(std::vector<server::StorageServer*> servers)
    : servers_(std::move(servers)) {
  watchdog_ = clock().spawn([this] { watchdog_loop(); }, "rpc watchdog");
}

InProcessTransport::~InProcessTransport() {
  // Drain: the contract says callers must not destroy the chain with RPCs
  // outstanding, but completions briefly touch our counters (the track()
  // callback captures `this`), so wait for in-flight to hit zero as a
  // backstop before tearing anything down.
  {
    std::unique_lock lock(mu_);
    clock().wait(drained_cv_, lock, [&] { return inflight_ == 0; });
  }
  {
    std::lock_guard lock(watchdog_mu_);
    shutdown_ = true;
  }
  clock().wake_all(watchdog_cv_);
  watchdog_.join();
}

PendingReply InProcessTransport::track(const Envelope& env) {
  auto reply = PendingReply::make(env.kind);
  const Seconds t0 = clock().now();
  {
    std::lock_guard lock(mu_);
    ++submitted_;
    ++inflight_;
    inflight_hwm_ = std::max(inflight_hwm_, inflight_);
  }
  // First registered callback: the transport's own completion accounting.
  // Registration precedes dispatch, so it runs before any caller callback
  // and observes every completion path (server reply, deadline, cancel).
  const OpKind kind = env.kind;
  const std::uint32_t target = env.target;
  const std::uint64_t trace_id = env.trace.trace_id;
  reply.on_complete([this, t0, kind, target, trace_id](Reply& r) {
    const double us = (clock().now() - t0) * 1e6;
    const ErrorCode code = r.status().code();
    // A cancelled or watchdog-expired reply measures time-to-cancel, not the
    // node's service latency; feeding it to the per-node quantiles would
    // make a straggler look fast the moment hedging starts winning.
    const bool genuine = code != ErrorCode::kCancelled && code != ErrorCode::kTimedOut;
    bool drained;
    {
      std::lock_guard lock(mu_);
      ++completed_;
      --inflight_;
      drained = inflight_ == 0;
      if (kind == OpKind::kActiveIo) {
        active_p50_.add(us);
        active_p99_.add(us);
        if (genuine) {
          if (target >= node_latency_.size()) node_latency_.resize(target + 1);
          auto& nl = node_latency_[target];
          nl.p50.add(us);
          nl.p99.add(us);
          ++nl.samples;
        }
      }
      if (code == ErrorCode::kCancelled) ++cancelled_;
    }
    if (kind == OpKind::kActiveIo && genuine && obs::metrics_enabled()) {
      obs::observe("rpc.node_latency_us." + std::to_string(target), us, trace_id);
    }
    if (drained) clock().wake_all(drained_cv_);
  });
  return reply;
}

server::StorageServer::ActiveCompletion InProcessTransport::completion_for(PendingReply reply) {
  return [reply = std::move(reply)](server::ActiveIoResponse resp) mutable {
    Reply r;
    r.kind = OpKind::kActiveIo;
    r.active = std::move(resp);
    reply.complete(std::move(r));
  };
}

void InProcessTransport::wire_ticket(server::StorageServer& server,
                                     const server::StorageServer::ActiveTicket& ticket,
                                     PendingReply& reply, const Envelope& env) {
  if (ticket.coalesced) {
    std::lock_guard lock(mu_);
    ++coalesced_;
  }
  if (ticket.id != 0) {
    server::StorageServer* s = &server;
    reply.set_canceller(
        [s, ticket](const Status& reason) { return s->cancel_active(ticket, reason); });
  }
  if (env.deadline > 0.0 && !reply.ready()) arm_deadline(reply, env);
}

void InProcessTransport::dispatch_active(Envelope& env, PendingReply& reply) {
  server::StorageServer& server = *servers_.at(env.target);
  wire_ticket(server, server.submit_active(std::move(env.active), completion_for(reply)), reply,
              env);
}

void InProcessTransport::dispatch_read(Envelope& env, PendingReply& reply) {
  server::StorageServer& server = *servers_.at(env.target);
  Reply r;
  r.kind = OpKind::kRead;
  auto data = server.serve_normal(env.read.handle, env.read.object_offset, env.read.length);
  if (data.is_ok()) {
    r.read.data = std::move(data).value();
  } else {
    r.read.status = data.status();
  }
  reply.complete(std::move(r));
}

void InProcessTransport::dispatch_write(Envelope& env, PendingReply& reply) {
  server::StorageServer& server = *servers_.at(env.target);
  Reply r;
  r.kind = OpKind::kWrite;
  auto st =
      server.serve_write(env.write.handle, env.write.object_offset, env.write.data);
  if (st.is_ok()) {
    r.write.written = env.write.data.size();
  } else {
    r.write.status = std::move(st);
  }
  reply.complete(std::move(r));
}

PendingReply InProcessTransport::submit(Envelope env) {
  {
    std::lock_guard lock(mu_);
    env.rpc_id = next_rpc_id_++;
  }
  if (env.target >= servers_.size()) {
    auto reply = track(env);
    reply.complete(failure_reply(
        env.kind, error(ErrorCode::kInternal,
                        "no storage server for target " + std::to_string(env.target))));
    return reply;
  }
  auto reply = track(env);
  if (env.kind == OpKind::kActiveIo) {
    dispatch_active(env, reply);
  } else if (env.kind == OpKind::kRead) {
    dispatch_read(env, reply);
  } else {
    dispatch_write(env, reply);
  }
  return reply;
}

std::vector<PendingReply> InProcessTransport::submit_batch(std::vector<Envelope> envs) {
  // Group kActiveIo envelopes per target: each node's batch endpoint gives
  // its CE one decision over the whole sub-group. Reads and singletons take
  // the plain path.
  std::map<std::uint32_t, std::vector<std::size_t>> active_groups;
  for (std::size_t i = 0; i < envs.size(); ++i) {
    if (envs[i].kind == OpKind::kActiveIo && envs[i].target < servers_.size()) {
      active_groups[envs[i].target].push_back(i);
    }
  }

  std::vector<PendingReply> replies(envs.size());
  for (auto& [target, indices] : active_groups) {
    if (indices.size() < 2) continue;  // no batching benefit; plain path below
    server::StorageServer& server = *servers_.at(target);
    std::vector<server::ActiveIoRequest> requests;
    std::vector<server::StorageServer::ActiveCompletion> dones;
    requests.reserve(indices.size());
    dones.reserve(indices.size());
    for (std::size_t idx : indices) {
      {
        std::lock_guard lock(mu_);
        envs[idx].rpc_id = next_rpc_id_++;
      }
      replies[idx] = track(envs[idx]);
      requests.push_back(std::move(envs[idx].active));
      dones.push_back(completion_for(replies[idx]));
    }
    {
      std::lock_guard lock(mu_);
      batched_ += indices.size();
    }
    auto tickets = server.submit_active_batch(std::move(requests), std::move(dones));
    for (std::size_t j = 0; j < indices.size(); ++j) {
      wire_ticket(server, tickets[j], replies[indices[j]], envs[indices[j]]);
    }
  }

  for (std::size_t i = 0; i < envs.size(); ++i) {
    if (!replies[i].valid()) replies[i] = submit(std::move(envs[i]));
  }
  return replies;
}

void InProcessTransport::arm_deadline(PendingReply reply, const Envelope& env) {
  const Seconds when = clock().now() + env.deadline;
  {
    std::lock_guard lock(watchdog_mu_);
    if (shutdown_) return;
    expiries_.push(Expiry{when, std::move(reply), env.deadline, env.trace.trace_id, env.target});
  }
  clock().wake_all(watchdog_cv_);
}

void InProcessTransport::watchdog_loop() {
  // The watchdog is a clock participant: while it sleeps until the next
  // expiry, a VirtualClock may jump straight to that deadline.
  std::unique_lock lock(watchdog_mu_);
  while (true) {
    if (shutdown_) return;
    if (expiries_.empty()) {
      clock().wait(watchdog_cv_, lock, [&] { return shutdown_ || !expiries_.empty(); });
      continue;
    }
    const Seconds next = expiries_.top().when;
    if (clock().now() < next) {
      // Wake early if shut down or a sooner expiry was armed.
      clock().timed_wait(watchdog_cv_, lock, next, [&] {
        return shutdown_ || expiries_.empty() || expiries_.top().when < next;
      });
      continue;
    }
    Expiry expired = expiries_.top();
    expiries_.pop();
    lock.unlock();
    if (!expired.reply.ready()) {
      const bool cancelled = expired.reply.cancel(
          error(ErrorCode::kTimedOut, "active request exceeded its " +
                                          std::to_string(expired.deadline) + "s deadline"));
      if (cancelled) {
        {
          std::lock_guard slock(mu_);
          ++timed_out_;
        }
        // A deadline miss is exactly the post-hoc question the flight
        // recorder exists for: record it and dump the recent history.
        obs::flight_record(obs::FlightEventKind::kDeadlineMiss, expired.trace_id,
                           expired.target, 0, "watchdog cancelled past deadline");
        obs::FlightRecorder::global().trigger_dump(
            "active request exceeded its deadline", expired.trace_id);
      }
    }
    lock.lock();
  }
}

void InProcessTransport::collect_stats(TransportStats& out) const {
  std::lock_guard lock(mu_);
  out.submitted += submitted_;
  out.completed += completed_;
  out.cancelled += cancelled_;
  out.timed_out += timed_out_;
  out.batched += batched_;
  out.coalesced += coalesced_;
  out.inflight += inflight_;
  out.inflight_hwm = std::max(out.inflight_hwm, inflight_hwm_);
  out.active_latency_p50_us = active_p50_.value();
  out.active_latency_p99_us = active_p99_.value();
}

NodeLatency InProcessTransport::node_latency(std::uint32_t target) const {
  std::lock_guard lock(mu_);
  if (target >= node_latency_.size()) return {};
  const auto& nl = node_latency_[target];
  return NodeLatency{nl.p50.value(), nl.p99.value(), nl.samples};
}

}  // namespace dosas::rpc
