#include "server/storage_server.hpp"

#include <algorithm>
#include <cassert>
#include <exception>

#include "common/clock.hpp"
#include "common/logging.hpp"
#include "kernels/pipeline.hpp"
#include "kernels/stream.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dosas::server {

namespace {

/// Request class for the stage.* histograms: the kernel name, i.e. the
/// operation string up to its first parameter separator.
std::string stage_class(const std::string& operation) {
  return operation.substr(0, operation.find(':'));
}

}  // namespace

const char* outcome_name(ActiveOutcome o) {
  switch (o) {
    case ActiveOutcome::kCompleted: return "COMPLETED";
    case ActiveOutcome::kRejected: return "REJECTED";
    case ActiveOutcome::kInterrupted: return "INTERRUPTED";
    case ActiveOutcome::kFailed: return "FAILED";
  }
  return "?";
}

StorageServer::StorageServer(pfs::FileSystem& fs, pfs::ServerId server_id,
                             kernels::Registry registry, ContentionEstimator::Config ce_config,
                             RateTable rates, Config config)
    : fs_(fs),
      server_id_(server_id),
      registry_(std::move(registry)),
      ce_(std::move(ce_config), std::move(rates)),
      config_(config),
      obs_name_("server" + std::to_string(server_id)),
      pool_(config.cores, [this](std::exception_ptr) {
        // Backstop for exceptions escaping run_kernel itself (run_kernel
        // already converts kernel throws to kFailed responses): count and
        // keep the worker alive rather than letting the process die.
        {
          std::lock_guard lock(mu_);
          ++stats_.kernel_exceptions;
        }
        if (obs::metrics_enabled()) obs::count(obs_name_ + ".worker_exceptions");
      }) {
  if (config_.probe_interval > 0.0) {
    prober_ = clock().spawn([this] { probe_loop(); }, obs_name_ + " prober");
  }
}

void StorageServer::probe_loop() {
  // The probe timer is a clock participant: between ticks it sits in a
  // clock timed wait, so a VirtualClock jumps straight to the next tick.
  std::unique_lock lock(probe_mu_);
  Seconds next = clock().now() + config_.probe_interval;
  while (true) {
    const bool stopped =
        clock().timed_wait(probe_cv_, lock, next, [&] { return probe_stop_; });
    if (stopped) return;
    next = clock().now() + config_.probe_interval;
    lock.unlock();
    probe();
    {
      std::lock_guard slock(mu_);
      ++stats_.probe_ticks;
    }
    lock.lock();
  }
}

void StorageServer::set_fault_injector(std::shared_ptr<fault::FaultInjector> fi) {
  std::lock_guard lock(mu_);
  faults_ = std::move(fi);
}

void StorageServer::obs_queue_depth_locked() const {
  if (!obs::metrics_enabled()) return;
  const auto depth = static_cast<double>(entries_.size());
  obs::gauge_set(obs_name_ + ".queue_depth", depth);
  obs::observe(obs_name_ + ".queue_depth_samples", depth);
}

StorageServer::~StorageServer() {
  if (prober_.joinable()) {
    {
      std::lock_guard lock(probe_mu_);
      probe_stop_ = true;
    }
    clock().wake_all(probe_cv_);
    prober_.join();
  }
  // Interrupt anything still running so pool shutdown doesn't wait on long
  // kernels; then join. Workers still deliver their (interrupted)
  // completions on the way out, so no waiter callback is dropped.
  {
    std::lock_guard lock(mu_);
    for (auto& [id, entry] : entries_) {
      entry->reject_before_start = true;
      entry->interrupt.store(true);
    }
  }
  pool_.shutdown();
}

Result<BufferRef> StorageServer::serve_normal(pfs::FileHandle handle,
                                              Bytes object_offset, Bytes length) {
  {
    std::lock_guard lock(mu_);
    ++normal_inflight_;
    ++stats_.normal_requests;
  }
  if (obs::metrics_enabled()) obs::count(obs_name_ + ".normal_requests");
  auto data = fs_.data_server(server_id_).read_object_ref(handle, object_offset, length);
  {
    std::lock_guard lock(mu_);
    --normal_inflight_;
    if (data.is_ok()) stats_.normal_bytes_served += data.value().size();
  }
  return data;
}

Status StorageServer::serve_write(pfs::FileHandle handle, Bytes object_offset,
                                  const BufferRef& data) {
  {
    std::lock_guard lock(mu_);
    ++normal_inflight_;
    ++stats_.normal_requests;
  }
  if (obs::metrics_enabled()) obs::count(obs_name_ + ".normal_requests");
  // The data server's store is the write path's single copy; `data` is a
  // view of the client's buffer all the way down to here.
  Status st = fs_.data_server(server_id_).write_object(handle, object_offset, data.span());
  {
    std::lock_guard lock(mu_);
    --normal_inflight_;
    if (st.is_ok()) stats_.normal_bytes_written += data.size();
  }
  return st;
}

std::shared_ptr<StorageServer::Entry> StorageServer::find_coalesce_locked(
    const ActiveIoRequest& request) {
  if (!config_.coalesce_identical) return nullptr;
  // Resumptions carry kernel state and must run verbatim; only fresh
  // full-extent scans are safely shareable.
  if (request.is_resumption()) return nullptr;
  for (auto& [id, entry] : entries_) {
    if (entry->state == EntryState::kDone) continue;
    if (entry->reject_before_start || entry->interrupt.load()) continue;
    const auto& r = entry->request;
    if (r.is_resumption()) continue;
    if (r.handle == request.handle && r.object_offset == request.object_offset &&
        r.length == request.length && r.operation == request.operation) {
      return entry;
    }
  }
  return nullptr;
}

std::shared_ptr<StorageServer::Entry> StorageServer::coalesce_or_register(
    ActiveIoRequest& request, ActiveCompletion& done, ActiveTicket& ticket) {
  const Seconds now = clock().now();
  std::lock_guard lock(mu_);
  ticket.waiter = next_waiter_++;
  // Coalesce onto an identical in-flight request when possible: one kernel
  // run, many waiters.
  if (auto twin = find_coalesce_locked(request)) {
    ticket.id = twin->request.id;
    ticket.coalesced = true;
    twin->waiters.push_back(Waiter{ticket.waiter, std::move(done)});
    ++stats_.active_coalesced;
    if (obs::metrics_enabled()) obs::count(obs_name_ + ".coalesced");
    obs::flight_record(obs::FlightEventKind::kCoalesce, request.trace.trace_id, server_id_,
                       twin->request.id, "coalesced onto in-flight twin");
    if (obs::tracing_enabled() && request.trace.valid()) {
      obs::Tracer::global().instant(obs_name_ + ".coalesce", "server",
                                    request.trace.child("coalesce"));
    }
    return nullptr;
  }
  ticket.id = request.id != 0 ? request.id : next_id_++;
  auto entry = std::make_shared<Entry>();
  entry->request = std::move(request);
  entry->request.id = ticket.id;
  entry->waiters.push_back(Waiter{ticket.waiter, std::move(done)});
  entry->enqueued_at = now;
  entries_.emplace(ticket.id, entry);
  obs_queue_depth_locked();
  const ActiveIoRequest& queued = entry->request;
  obs::flight_record(obs::FlightEventKind::kStateTransition, queued.trace.trace_id, server_id_,
                     ticket.id, "active request queued");
  if (obs::metrics_enabled() && queued.submitted_at >= 0) {
    // Transport stage: client-side hand-off to server-side admission.
    obs::observe("stage.transport_us." + stage_class(queued.operation),
                 (now - queued.submitted_at) * 1e6, queued.trace.trace_id);
  }
  return entry;
}

std::shared_ptr<fault::FaultInjector> StorageServer::faults() const {
  std::lock_guard lock(mu_);
  return faults_;
}

ActiveIoResponse StorageServer::crashed_response(pfs::ServerId server_id) {
  ActiveIoResponse resp;
  resp.outcome = ActiveOutcome::kFailed;
  resp.status = error(ErrorCode::kUnavailable,
                      "storage node " + std::to_string(server_id) +
                          ": active runtime down (injected crash)");
  return resp;
}

void StorageServer::count_outcome_locked(const ActiveIoResponse& response) {
  switch (response.outcome) {
    case ActiveOutcome::kCompleted: ++stats_.active_completed; break;
    case ActiveOutcome::kRejected: ++stats_.active_rejected; break;
    case ActiveOutcome::kInterrupted: ++stats_.active_interrupted; break;
    case ActiveOutcome::kFailed: ++stats_.active_failed; break;
  }
  if (obs::metrics_enabled()) {
    switch (response.outcome) {
      case ActiveOutcome::kCompleted: obs::count(obs_name_ + ".completed"); break;
      case ActiveOutcome::kRejected: obs::count(obs_name_ + ".demoted"); break;
      case ActiveOutcome::kInterrupted:
        obs::count(obs_name_ + ".interrupted");
        obs::count(obs_name_ + ".checkpoint_bytes", response.checkpoint.size());
        break;
      case ActiveOutcome::kFailed: obs::count(obs_name_ + ".failed"); break;
    }
  }
}

void StorageServer::complete_entry(sched::RequestId id, const std::shared_ptr<Entry>& entry,
                                   ActiveIoResponse response, Bytes processed) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end() || it->second != entry) {
      // Abandoned: every waiter cancelled (or the request was superseded).
      // The late result is discarded; outcome stats were counted at cancel.
      return;
    }
    entry->state = EntryState::kDone;
    waiters.swap(entry->waiters);
    entries_.erase(it);
    stats_.active_bytes_processed += processed;
    for (std::size_t i = 0; i < waiters.size(); ++i) count_outcome_locked(response);
    obs_queue_depth_locked();
  }
  obs::flight_record(obs::FlightEventKind::kStateTransition, entry->request.trace.trace_id,
                     server_id_, id, outcome_name(response.outcome));
  // Deliver outside mu_: completions may submit follow-up work (the
  // client's cooperative resubmission path) or take unrelated locks. All
  // but the last waiter get a copy; the last takes the response by move.
  // Copying the response shares the result slab by reference — only the
  // checkpoint vector (interrupted runs) still duplicates per waiter.
  for (std::size_t i = 0; i + 1 < waiters.size(); ++i) {
    note_bytes_copied(response.checkpoint.size(), CopySite::kWaiterFanout);
    if (waiters[i].done) waiters[i].done(response);
  }
  if (!waiters.empty() && waiters.back().done) waiters.back().done(std::move(response));
}

bool StorageServer::launch_or_reject(sched::RequestId id, const std::shared_ptr<Entry>& entry) {
  {
    std::unique_lock lock(mu_);
    if (entry->reject_before_start) {
      lock.unlock();
      ActiveIoResponse resp;
      resp.outcome = ActiveOutcome::kRejected;
      resp.status = error(ErrorCode::kRejected, "demoted to normal I/O by scheduling policy");
      complete_entry(id, entry, std::move(resp), 0);
      return false;
    }
  }
  if (!pool_.submit([this, id] { run_kernel(id); })) {
    // Pool already shut down: without this the entry would sit in the
    // table forever and the waiters would never fire. Fail typed.
    {
      std::lock_guard lock(mu_);
      ++stats_.pool_rejections;
    }
    if (obs::metrics_enabled()) obs::count(obs_name_ + ".pool_rejections");
    ActiveIoResponse resp;
    resp.outcome = ActiveOutcome::kFailed;
    resp.status =
        error(ErrorCode::kUnavailable, "worker pool shut down; active request not scheduled");
    complete_entry(id, entry, std::move(resp), 0);
    return false;
  }
  return true;
}

std::optional<ActiveIoResponse> StorageServer::cache_lookup(const ActiveIoRequest& request) {
  if (config_.result_cache_entries == 0) return std::nullopt;
  const std::uint64_t version = fs_.data_server(server_id_).object_version(request.handle);
  std::lock_guard lock(mu_);
  auto it = result_cache_.find(
      CacheKey{request.handle, request.object_offset, request.length, request.operation});
  if (it == result_cache_.end()) {
    ++stats_.cache_misses;
    return std::nullopt;
  }
  if (it->second.version != version) {
    // The object mutated since the result was computed: the entry can
    // never hit again (versions are monotonic), so drop it now instead of
    // letting it squat in the LRU until eviction.
    result_cache_.erase(it);
    ++stats_.cache_invalidations;
    ++stats_.cache_misses;
    if (obs::metrics_enabled()) obs::count("arena.cache_invalidations");
    return std::nullopt;
  }
  it->second.last_use = ++cache_tick_;
  ++stats_.cache_hits;
  ++stats_.active_completed;
  if (obs::metrics_enabled()) obs::count("arena.cache_hits");
  ActiveIoResponse resp;
  resp.outcome = ActiveOutcome::kCompleted;
  resp.result = it->second.result;  // another view of the cached slab: no copy
  return resp;
}

void StorageServer::cache_insert(const ActiveIoRequest& request, std::uint64_t version,
                                 const BufferRef& result) {
  if (config_.result_cache_entries == 0) return;
  // Skip if the object changed while the kernel ran (stale result).
  if (fs_.data_server(server_id_).object_version(request.handle) != version) return;
  std::lock_guard lock(mu_);
  if (result_cache_.size() >= config_.result_cache_entries) {
    auto victim = result_cache_.begin();
    for (auto it = result_cache_.begin(); it != result_cache_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    result_cache_.erase(victim);
    ++stats_.cache_evictions;
    if (obs::metrics_enabled()) obs::count("arena.cache_evictions");
  }
  // The entry shares the response's slab (ref-counted view): inserting is
  // free, and the slab lives as long as any hit still holds a view.
  result_cache_[CacheKey{request.handle, request.object_offset, request.length,
                         request.operation}] = CacheEntry{version, result, ++cache_tick_};
}

StorageServer::ActiveTicket StorageServer::submit_active(ActiveIoRequest request,
                                                         ActiveCompletion done) {
  ActiveTicket ticket;
  std::shared_ptr<Entry> entry;
  admit({&request, 1}, {&done, 1}, {&ticket, 1}, {&entry, 1});
  return ticket;
}

std::vector<StorageServer::ActiveTicket> StorageServer::submit_active_batch(
    std::vector<ActiveIoRequest> requests, std::vector<ActiveCompletion> dones) {
  assert(requests.size() == dones.size());
  std::vector<ActiveTicket> tickets(requests.size());
  std::vector<std::shared_ptr<Entry>> entries(requests.size());
  admit(requests, dones, tickets, entries);
  return tickets;
}

void StorageServer::admit(std::span<ActiveIoRequest> requests, std::span<ActiveCompletion> dones,
                          std::span<ActiveTicket> tickets,
                          std::span<std::shared_ptr<Entry>> entries) {
  // Register everything first (serving refusals, cache hits and coalescing
  // inline), then evaluate the policy ONCE over the combined queue, then
  // launch: N requests landing together get one scheduling decision
  // instead of N admit-then-interrupt rounds.
  const auto fi = faults();
  bool registered = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (fi != nullptr && fi->node_crashed(server_id_, true)) {
      {
        std::lock_guard lock(mu_);
        ++stats_.active_failed;
        ++stats_.crash_rejections;
      }
      if (dones[i]) dones[i](crashed_response(server_id_));
    } else if (auto cached = cache_lookup(requests[i])) {
      if (obs::metrics_enabled()) obs::count(obs_name_ + ".completed");
      if (dones[i]) dones[i](std::move(*cached));
    } else {
      entries[i] = coalesce_or_register(requests[i], dones[i], tickets[i]);
      registered = registered || entries[i] != nullptr;
    }
  }
  if (!registered) return;
  evaluate_policy();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // A request the policy rejected before launch completed synchronously.
    if (entries[i] != nullptr && !launch_or_reject(tickets[i].id, entries[i])) tickets[i] = {};
  }
}

bool StorageServer::cancel_active(const ActiveTicket& ticket, const Status& reason) {
  if (ticket.id == 0) return false;  // completed synchronously at submit
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(ticket.id);
    if (it == entries_.end()) return false;  // already completed/abandoned
    entry = it->second;
    auto w = std::find_if(entry->waiters.begin(), entry->waiters.end(),
                          [&](const Waiter& x) { return x.id == ticket.waiter; });
    if (w == entry->waiters.end()) return false;  // this waiter already fired
    entry->waiters.erase(w);
    if (reason.code() == ErrorCode::kTimedOut) {
      // Preserve the historical accounting: a deadline expiry counts as
      // both a timeout and a failure for this waiter.
      ++stats_.active_timed_out;
      ++stats_.active_failed;
      if (obs::metrics_enabled()) obs::count(obs_name_ + ".timed_out");
    } else {
      ++stats_.active_cancelled;
      if (obs::metrics_enabled()) obs::count(obs_name_ + ".cancelled");
    }
    obs::flight_record(obs::FlightEventKind::kCancel, entry->request.trace.trace_id,
                       server_id_, ticket.id,
                       reason.code() == ErrorCode::kTimedOut ? "waiter timed out"
                                                             : "waiter cancelled");
    if (!entry->waiters.empty()) return true;  // twin waiters keep the run alive
    // Last waiter gone: abandon the request. A queued entry never starts; a
    // running kernel stops at its next chunk boundary and its late
    // completion finds no entry and is discarded.
    entry->reject_before_start = true;
    entry->interrupt.store(true);
    entries_.erase(it);
    obs_queue_depth_locked();
  }
  return true;
}

void StorageServer::probe() {
  SystemStatus status;
  {
    std::lock_guard lock(mu_);
    status = snapshot_status_locked();
  }
  if (obs::metrics_enabled()) obs::count(obs_name_ + ".probes");
  ce_.observe(status);
  evaluate_policy();
}

SystemStatus StorageServer::snapshot_status_locked() const {
  SystemStatus s;
  for (const auto& [id, entry] : entries_) {
    if (entry->state == EntryState::kQueued && !entry->reject_before_start) {
      ++s.queued_active;
      s.queued_bytes += entry->request.length;
    } else if (entry->state == EntryState::kRunning) {
      ++s.running_kernels;
      s.queued_bytes += entry->request.length;
    }
  }
  s.queued_normal = normal_inflight_;
  // CPU pressure reported to the CE is *external* to the kernels being
  // scheduled: normal-I/O service work (the PFS daemon's share of the
  // node). The kernels themselves are the variable under optimization.
  s.cpu_utilization =
      std::min(1.0, static_cast<double>(normal_inflight_) / static_cast<double>(config_.cores));
  return s;
}

std::string StorageServer::pipeline_rate_key(const kernels::OperationSpec& spec) const {
  const std::string ops = spec.get("ops", "");
  std::string bottleneck = "pipe";  // unknown unless every stage has rates
  BytesPerSec slowest = 0.0;
  std::size_t pos = 0;
  while (pos <= ops.size() && !ops.empty()) {
    auto bar = ops.find('|', pos);
    if (bar == std::string::npos) bar = ops.size();
    auto stage = kernels::PipelineKernel::parse_stage(ops.substr(pos, bar - pos));
    if (!stage.is_ok()) return "pipe";
    auto rates = ce_.rates().get(stage.value().kernel);
    if (!rates.is_ok()) return "pipe";
    if (slowest == 0.0 || rates.value().storage_max < slowest) {
      slowest = rates.value().storage_max;
      bottleneck = stage.value().kernel;
    }
    pos = bar + 1;
    if (bar == ops.size()) break;
  }
  return bottleneck;
}

Bytes StorageServer::result_size_for(const std::string& operation, Bytes input) {
  {
    std::lock_guard lock(mu_);
    auto it = hsize_cache_.find(operation);
    if (it != hsize_cache_.end() && it->second.first == input) return it->second.second;
  }
  auto kernel = registry_.create(operation);
  const Bytes h = kernel.is_ok() ? kernel.value()->result_size(input) : 0;
  {
    std::lock_guard lock(mu_);
    hsize_cache_[operation] = {input, h};
  }
  return h;
}

void StorageServer::evaluate_policy() {
  obs::ScopedTrace span(obs_name_ + ".evaluate_policy", "ce");
  // Snapshot the schedulable queue (queued + running, not yet demoted).
  struct Item {
    sched::RequestId id;
    std::string op;
    Bytes length;
  };
  std::vector<Item> items;
  {
    std::lock_guard lock(mu_);
    for (const auto& [id, entry] : entries_) {
      if (entry->state == EntryState::kDone || entry->reject_before_start) continue;
      if (entry->interrupt.load()) continue;  // already being interrupted
      items.push_back({id, entry->request.operation, entry->request.length});
    }
  }
  if (items.empty()) return;

  // Group by kernel name (the rate table is keyed by kernel, not by the
  // full parameterized operation string); the cost model is per-op
  // (paper §III-D). Pipelines are scheduled under their rate-table
  // bottleneck stage — the slowest stage dominates a streaming chain.
  std::map<std::string, std::vector<sched::ActiveRequest>> groups;
  for (const auto& item : items) {
    auto spec = kernels::OperationSpec::parse(item.op);
    std::string key = spec.is_ok() ? spec.value().kernel : item.op;
    if (spec.is_ok() && spec.value().kernel == "pipe") {
      key = pipeline_rate_key(spec.value());
    }
    groups[key].push_back(sched::ActiveRequest{
        item.id, item.length, result_size_for(item.op, item.length), item.op});
  }

  for (const auto& [op, requests] : groups) {
    auto policy = ce_.schedule(op, requests);
    if (!policy.is_ok()) {
      // No rates for this op: leave it active (never schedule blind
      // demotions) and note it once.
      DOSAS_LOG_DEBUG("no cost model for op '%s'; leaving %zu request(s) active", op.c_str(),
                      requests.size());
      continue;
    }
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (policy.value().active[i]) continue;
      auto it = entries_.find(requests[i].id);
      if (it == entries_.end()) continue;  // completed meanwhile
      auto& entry = *it->second;
      if (entry.state == EntryState::kQueued) {
        entry.reject_before_start = true;
        obs::flight_record(obs::FlightEventKind::kDemotion, entry.request.trace.trace_id,
                           server_id_, requests[i].id, "queued request demoted by policy");
        if (obs::tracing_enabled() && entry.request.trace.valid()) {
          obs::Tracer::global().instant(obs_name_ + ".demote", "ce",
                                        entry.request.trace.child("demote"));
        }
      } else if (entry.state == EntryState::kRunning) {
        // Hysteresis: nearly-finished kernels are cheaper to let complete
        // than to checkpoint, ship, and re-run remotely.
        const Bytes done = entry.progress.load(std::memory_order_relaxed);
        const Bytes total = entry.request.length;
        const Bytes remaining = total > done ? total - done : 0;
        if (static_cast<double>(remaining) >
            config_.interrupt_min_remaining * static_cast<double>(total)) {
          entry.interrupt.store(true);
          if (obs::metrics_enabled()) obs::count(obs_name_ + ".interrupts_signalled");
          obs::flight_record(obs::FlightEventKind::kInterrupt, entry.request.trace.trace_id,
                             server_id_, requests[i].id, "running kernel interrupt signalled");
          if (obs::tracing_enabled() && entry.request.trace.valid()) {
            obs::Tracer::global().instant(obs_name_ + ".interrupt", "ce",
                                          entry.request.trace.child("interrupt"));
          }
        }
      }
    }
  }
}

void StorageServer::run_kernel(sched::RequestId id) {
  std::shared_ptr<Entry> entry;
  ActiveIoRequest request;
  std::shared_ptr<fault::FaultInjector> fi;
  Seconds enqueued_at = 0;
  bool rejected = false;  // snapshot under mu_: cancel_active writes the flag
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return;  // every waiter cancelled before start
    entry = it->second;
    rejected = entry->reject_before_start;
    if (rejected) {
      // Completed via complete_entry below, outside mu_.
    } else {
      entry->state = EntryState::kRunning;
    }
    request = entry->request;
    enqueued_at = entry->enqueued_at;
    fi = faults_;
  }
  if (rejected) {
    ActiveIoResponse resp;
    resp.outcome = ActiveOutcome::kRejected;
    resp.status = error(ErrorCode::kRejected, "demoted to normal I/O before start");
    complete_entry(id, entry, std::move(resp), 0);
    return;
  }
  if (fi != nullptr) fi->note_kernel_start(server_id_);
  std::atomic<bool>& interrupt = entry->interrupt;
  std::atomic<Bytes>& progress = entry->progress;

  // Queue-wait stage: registration -> this launch, emitted as a span that
  // joins the request's causal tree and closes the client's flow arrow on
  // this worker thread.
  {
    const bool tracing = obs::tracing_enabled();
    const bool metrics = obs::metrics_enabled();
    if (tracing || metrics) {
      const double wait_us = (clock().now() - enqueued_at) * 1e6;
      if (tracing && request.trace.valid()) {
        auto& tracer = obs::Tracer::global();
        const auto qctx = request.trace.child("queue");
        tracer.complete(obs_name_ + ".queue_wait", "server", tracer.now_us() - wait_us,
                        wait_us, qctx);
        tracer.flow_finish(obs_name_ + ".queue_wait", "flow", request.trace.span_id, qctx);
      }
      if (metrics) {
        obs::observe("stage.queue_wait_us." + stage_class(request.operation), wait_us,
                     request.trace.trace_id);
      }
    }
  }
  obs::flight_record(obs::FlightEventKind::kStateTransition, request.trace.trace_id,
                     server_id_, id, "kernel launched");

  // Completion delivery is the LAST thing this worker does for the
  // request: the waiter it unblocks may immediately finish the run and
  // snapshot the trace/metrics, so every observable side effect — the
  // kernel span above all — must land first.
  ActiveIoResponse resp;
  Bytes done_bytes = 0;
  {
    obs::ScopedTrace span(request.operation, "kernel", request.trace.child("kernel"));
    const bool obs_on = obs::metrics_enabled();
    const double t0 = obs_on ? obs::now_us() : 0.0;

    [&] {
      auto kernel_or = registry_.create(request.operation);
      if (!kernel_or.is_ok()) {
        resp.outcome = ActiveOutcome::kFailed;
        resp.status = kernel_or.status();
        return;
      }
      auto kernel = std::move(kernel_or).value();
      try {
        kernel->reset();

        Bytes from = request.object_offset;
        const Bytes end = request.object_offset + request.length;
        if (request.is_resumption()) {
          // Cooperative resumption: adopt the shipped state and continue. A
          // corrupted checkpoint (kCorrupted) or one that does not fit the
          // kernel or the extent (kInvalidArgument) fails the request typed —
          // never a silent restart from zero state.
          if (Status st = kernels::resume(*kernel, request.resume_checkpoint,
                                          request.object_offset, end, request.resume_from);
              !st.is_ok()) {
            resp.outcome = ActiveOutcome::kFailed;
            resp.status = st;
            return;
          }
          from = request.resume_from;
        }

        const auto& ds = fs_.data_server(server_id_);
        // Version observed before the scan: the result is cacheable only if
        // the object is unchanged when the kernel finishes.
        const std::uint64_t version_at_start = ds.object_version(request.handle);

        // Why the kernel stopped, when it did: the stop check below folds the
        // scheduler's interrupt flag and the injected node crash into one
        // chunk-granular poll (paper §III-C's interruption-check interval).
        enum class StopCause { kNone, kInterrupt, kCrash };
        StopCause cause = StopCause::kNone;
        auto stop = [&]() -> bool {
          if (interrupt.load()) {
            cause = StopCause::kInterrupt;
            return true;
          }
          if (fi != nullptr && fi->node_crashed(server_id_)) {
            cause = StopCause::kCrash;
            return true;
          }
          if (fi != nullptr) {
            // Straggler injection: sleep in interruptible slices so a
            // timed-out (abandoned) request stops stalling the worker
            // promptly. Slices run on the injected clock — deterministic
            // jumps under DST.
            Seconds stall = fi->inject_stall(server_id_);
            while (stall > 0.0 && !interrupt.load()) {
              const Seconds slice = std::min(stall, 0.005);
              clock().sleep(slice);
              stall -= slice;
            }
            if (fi->inject_kernel_throw(server_id_)) {
              throw std::runtime_error("injected kernel fault");
            }
          }
          return false;
        };
        auto read = [&](Bytes pos, Bytes len) {
          return ds.read_object_ref(request.handle, pos, len);
        };
        // Calibrated pacing (config_.pace_kernel_rates): charge each chunk
        // its cost at the table's storage-side rate for this operation —
        // the same S_{C,op} the CE's cost model predicts with. On the
        // injected clock, so a VirtualClock turns the sleeps into
        // deterministic jumps.
        double pace_rate = 0.0;
        if (config_.pace_kernel_rates) {
          auto spec = kernels::OperationSpec::parse(request.operation);
          std::string rate_key = spec.is_ok() ? spec.value().kernel : request.operation;
          if (spec.is_ok() && spec.value().kernel == "pipe") {
            rate_key = pipeline_rate_key(spec.value());
          }
          if (auto rates = ce_.rates().get(rate_key); rates.is_ok()) {
            pace_rate = rates.value().storage_max;
            if (config_.capacity_factor > 0.0) pace_rate *= config_.capacity_factor;
          }
        }
        auto note_progress = [&](Bytes chunk, Bytes total) {
          progress.store(total, std::memory_order_relaxed);
          if (pace_rate > 0.0 && chunk > 0) {
            clock().sleep(static_cast<double>(chunk) / pace_rate);
          }
        };

        auto streamed = kernels::stream_extent(*kernel, from, end, config_.chunk_size, read,
                                               stop, note_progress);
        if (!streamed.is_ok()) {
          resp.outcome = ActiveOutcome::kFailed;
          resp.status = streamed.status();
          done_bytes = progress.load(std::memory_order_relaxed);
          return;
        }
        const Bytes processed = streamed.value().processed;

        if (streamed.value().stopped) {
          resp.outcome = ActiveOutcome::kInterrupted;
          resp.checkpoint = kernel->checkpoint().encode();
          if (fi != nullptr) fi->inject_checkpoint_corruption(resp.checkpoint);
          resp.resume_offset = streamed.value().position;
          resp.status =
              cause == StopCause::kCrash
                  ? error(ErrorCode::kUnavailable,
                          "storage node crashed mid-kernel; checkpoint flushed")
                  : error(ErrorCode::kInterrupted, "kernel interrupted by scheduling policy");
          done_bytes = processed;
          return;
        }

        resp.outcome = ActiveOutcome::kCompleted;
        resp.result = BufferRef::adopt(kernel->finalize());
        // Resumed results are not cacheable: part of the scan predates
        // version_at_start, so freshness cannot be vouched for.
        if (!request.is_resumption()) cache_insert(request, version_at_start, resp.result);
        if (obs_on && processed > 0) {
          const double secs = (obs::now_us() - t0) * 1e-6;
          if (secs > 0.0) {
            const std::string kernel_key =
                request.operation.substr(0, request.operation.find(':'));
            obs::observe(obs_name_ + ".kernel_mibps." + kernel_key,
                         static_cast<double>(processed) / (1024.0 * 1024.0) / secs);
          }
        }
        done_bytes = processed;
      } catch (const std::exception& e) {
        // A throwing kernel fails its own request, never the worker (and
        // never the process): surface a typed error and count it.
        {
          std::lock_guard lock(mu_);
          ++stats_.kernel_exceptions;
        }
        if (obs_on) obs::count(obs_name_ + ".kernel_exceptions");
        resp.outcome = ActiveOutcome::kFailed;
        resp.status = error(ErrorCode::kInternal, std::string("kernel threw: ") + e.what());
        done_bytes = 0;
      } catch (...) {
        {
          std::lock_guard lock(mu_);
          ++stats_.kernel_exceptions;
        }
        if (obs_on) obs::count(obs_name_ + ".kernel_exceptions");
        resp.outcome = ActiveOutcome::kFailed;
        resp.status = error(ErrorCode::kInternal, "kernel threw a non-std exception");
        done_bytes = 0;
      }
    }();
    if (obs_on) {
      obs::observe("stage.kernel_exec_us." + stage_class(request.operation),
                   obs::now_us() - t0, request.trace.trace_id);
    }
  }
  complete_entry(id, entry, std::move(resp), done_bytes);
}

StorageServer::Stats StorageServer::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t StorageServer::inflight() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry->state != EntryState::kDone) ++n;
  }
  return n;
}

}  // namespace dosas::server
