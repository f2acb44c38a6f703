#include "client/active_client.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <new>
#include <optional>
#include <utility>

#include "common/clock.hpp"
#include "common/logging.hpp"
#include "kernels/stream.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pfs/layout.hpp"

namespace dosas::client {

namespace {

/// Request class for per-stage latency histograms: the operation name up
/// to its first parameter (e.g. "grep:needle" -> "grep").
std::string stage_class(const std::string& operation) {
  return operation.substr(0, operation.find(':'));
}

/// Close out one request's observability: the causal root span plus the
/// end-to-end latency histogram (exemplared with the trace id).
void emit_request_e2e(const obs::TraceContext& root, double t0_us, const std::string& operation) {
  const double t1 = obs::now_us();
  if (obs::tracing_enabled() && root.valid()) {
    obs::Tracer::global().complete("client.read_ex", "client", t0_us, t1 - t0_us, root);
  }
  if (obs::metrics_enabled()) {
    obs::observe("stage.e2e_us." + stage_class(operation), t1 - t0_us, root.trace_id);
  }
}

/// Client-compute pacing (ActiveClientConfig::pace_compute_rates): the
/// progress hook that charges each locally-processed chunk its cost at the
/// table's C_{C,op} rate, on the injected clock. Null when pacing is off
/// or the operation has no table entry.
kernels::ProgressFn compute_pacer(const std::shared_ptr<const server::RateTable>& rates,
                                  const std::string& operation) {
  if (rates == nullptr) return nullptr;
  auto op_rates = rates->get(operation.substr(0, operation.find(':')));
  if (!op_rates.is_ok() || op_rates.value().compute <= 0.0) return nullptr;
  return [rate = op_rates.value().compute](Bytes chunk, Bytes) {
    if (chunk > 0) clock().sleep(static_cast<double>(chunk) / rate);
  };
}

}  // namespace

ActiveClient::ActiveClient(pfs::Client& pfs, const kernels::Registry& registry,
                           std::vector<server::StorageServer*> servers, Config config)
    : pfs_(pfs), registry_(registry), servers_(std::move(servers)), config_(config) {
  assert(!servers_.empty());
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    assert(servers_[i] != nullptr);
    assert(servers_[i]->server_id() == i && "servers must be indexed by data-server id");
  }
  rpc::ChainOptions options;
  options.retry = config_.retry;
  options.retry_seed = config_.retry_seed;
  options.circuit_threshold = config_.circuit_threshold;
  options.faults = config_.faults;
  options.network = config_.network;
  options.network_per_node = config_.network_per_node;
  auto chain = rpc::make_chain(servers_, options);
  transport_ = std::move(chain.head);
  breaker_ = std::move(chain.breaker);
}

bool ActiveClient::circuit_open(pfs::ServerId server) {
  return breaker_ != nullptr && breaker_->should_short_circuit(server);
}

void ActiveClient::note_timed_out(const server::ActiveIoResponse& resp) {
  if (resp.outcome == server::ActiveOutcome::kFailed &&
      resp.status.code() == ErrorCode::kTimedOut) {
    std::lock_guard lock(mu_);
    ++stats_.timed_out;
  }
}

rpc::Envelope ActiveClient::active_envelope(const pfs::FileMeta& meta, const ServerExtent& ext,
                                            const std::string& operation) const {
  rpc::Envelope env;
  env.target = ext.server;
  env.kind = rpc::OpKind::kActiveIo;
  env.active.handle = meta.handle;
  env.active.object_offset = ext.object_offset;
  env.active.length = ext.length;
  env.active.operation = operation;
  env.deadline = config_.request_timeout;
  return env;
}

Result<BufferRef> ActiveClient::remote_read(pfs::ServerId target,
                                            pfs::FileHandle handle,
                                            Bytes object_offset, Bytes length,
                                            const obs::TraceContext& ctx) {
  rpc::Envelope env;
  env.target = target;
  env.kind = rpc::OpKind::kRead;
  env.read.handle = handle;
  env.read.object_offset = object_offset;
  env.read.length = length;
  env.trace = ctx;  // invalid: the transport starts a fresh root trace
  auto reply = transport_->submit(std::move(env)).wait();
  if (!reply.read.status.is_ok()) return reply.read.status;
  return std::move(reply.read.data);
}

Result<std::vector<std::uint8_t>> ActiveClient::serve_extent_locally(
    const pfs::FileMeta& meta, const ServerExtent& ext, const std::string& operation,
    const obs::TraceContext& ctx) {
  {
    std::lock_guard lock(mu_);
    ++stats_.node_down_demotes;
    ++stats_.local_kernel_runs;
  }
  if (obs::metrics_enabled()) obs::count("client.node_down_demotes");
  obs::flight_record(obs::FlightEventKind::kDemotion, ctx.trace_id,
                     static_cast<std::uint32_t>(ext.server), 0,
                     "circuit open: serving via normal I/O");
  if (obs::tracing_enabled() && ctx.valid()) {
    obs::Tracer::global().instant("client.node_down_demote", "client", ctx.child("node_down"));
  }
  auto kernel = registry_.create(operation);
  if (!kernel.is_ok()) return kernel.status();
  kernel.value()->reset();
  return finish_locally(meta, ext, ext.object_offset, *kernel.value(), ctx);
}

std::vector<ActiveClient::ServerExtent> ActiveClient::server_extents(const pfs::FileMeta& meta,
                                                                     Bytes offset,
                                                                     Bytes length) const {
  const pfs::Layout layout(meta.striping);
  std::map<pfs::ServerId, ServerExtent> per_server;
  for (const auto& seg : layout.map_extent(offset, length)) {
    auto [it, inserted] = per_server.try_emplace(
        seg.server, ServerExtent{seg.server, seg.object_offset, seg.length});
    if (!inserted) {
      // Object strips of one file extent are dense per server, so the
      // union stays contiguous: just extend.
      assert(seg.object_offset == it->second.object_offset + it->second.length);
      it->second.length += seg.length;
    }
  }
  std::vector<ServerExtent> out;
  out.reserve(per_server.size());
  for (auto& [server, ext] : per_server) out.push_back(ext);
  return out;
}

Result<BufferRef> ActiveClient::assemble_read(const pfs::FileMeta& meta, Bytes offset,
                                              Bytes length, Bytes& carried) {
  carried = 0;
  // Refresh size so concurrent extenders are visible, then clamp at EOF.
  auto fresh = pfs_.file_system().meta().lookup_handle(meta.handle);
  if (!fresh.is_ok()) return fresh.status();
  const Bytes size = fresh.value().size;
  if (offset >= size) return BufferRef{};
  length = std::min(length, size - offset);

  const pfs::Layout layout(meta.striping);
  const auto segments = layout.map_extent(offset, length);
  std::vector<rpc::Envelope> envs;
  envs.reserve(segments.size());
  for (const auto& seg : segments) {
    rpc::Envelope env;
    env.target = seg.server;
    env.kind = rpc::OpKind::kRead;
    env.read.handle = meta.handle;
    env.read.object_offset = seg.object_offset;
    env.read.length = seg.length;
    envs.push_back(std::move(env));
  }
  auto replies = transport_->submit_batch(std::move(envs));

  // Single-segment full reads — every chunk of a demoted/local kernel run
  // whose chunk fits one strip — are the hot case: the server's view of
  // the object version IS the result, no staging buffer and no copy.
  if (segments.size() == 1) {
    auto r = replies[0].wait();
    if (!r.read.status.is_ok()) {
      if (r.read.status.code() != ErrorCode::kNotFound) return r.read.status;
      return BufferRef::adopt(std::vector<std::uint8_t>(length, 0));  // hole: zeros
    }
    carried = r.read.data.size();
    if (r.read.data.size() == length) return std::move(r.read.data);
    // Short read (sparse tail): stage with the zero fill below.
    std::vector<std::uint8_t> out(length);
    note_bytes_copied(r.read.data.size(), CopySite::kReadGather);
    std::copy(r.read.data.begin(), r.read.data.end(), out.begin());
    return BufferRef::adopt(std::move(out));
  }

  std::vector<std::uint8_t> out(length);  // holes/short reads stay zero
  for (std::size_t i = 0; i < segments.size(); ++i) {
    auto r = replies[i].wait();
    if (!r.read.status.is_ok()) {
      // A server with no object for this handle is a hole in a sparse
      // file: reads as zeros (already in place in `out`).
      if (r.read.status.code() == ErrorCode::kNotFound) continue;
      return r.read.status;
    }
    // Gather into the contiguous staging buffer: the one owning copy a
    // striped whole-extent read cannot avoid (and the ledger records it).
    carried += r.read.data.size();
    note_bytes_copied(r.read.data.size(), CopySite::kReadGather);
    std::copy(r.read.data.begin(), r.read.data.end(),
              out.begin() + static_cast<std::ptrdiff_t>(segments[i].logical_offset - offset));
  }
  return BufferRef::adopt(std::move(out));
}

Result<BufferRef> ActiveClient::read_ref(const pfs::FileMeta& meta, Bytes offset,
                                         Bytes length) {
  Bytes carried = 0;
  auto data = assemble_read(meta, offset, length, carried);
  if (data.is_ok()) {
    std::lock_guard lock(mu_);
    stats_.raw_bytes_read += carried;
  }
  return data;
}

Result<std::vector<std::uint8_t>> ActiveClient::read(const pfs::FileMeta& meta, Bytes offset,
                                                     Bytes length) {
  auto data = read_ref(meta, offset, length);
  if (!data.is_ok()) return data.status();
  return data.value().to_vector();
}

Result<std::vector<std::uint8_t>> ActiveClient::read_ex(const pfs::FileMeta& meta, Bytes offset,
                                                        Bytes length,
                                                        const std::string& operation) {
  // The causal root span ("client.read_ex") is emitted by wait() so the
  // async form is covered identically.
  return read_ex_async(meta, offset, length, operation).wait();
}

ActiveClient::PendingReadEx ActiveClient::read_ex_async(const pfs::FileMeta& meta, Bytes offset,
                                                        Bytes length,
                                                        const std::string& operation) {
  PendingReadEx pending;
  pending.client_ = this;
  pending.meta_ = meta;
  pending.operation_ = operation;
  // Root of this request's causal tree, allocated on the issuing thread so
  // trace ids are assigned in deterministic submission order under DST.
  pending.ctx_ = obs::Tracer::global().new_root();
  pending.t0_us_ = obs::now_us();
  {
    std::lock_guard lock(mu_);
    ++stats_.reads_ex;
  }

  // Clamp at EOF like a normal read.
  auto fresh = pfs_.file_system().meta().lookup_handle(meta.handle);
  if (!fresh.is_ok()) {
    pending.immediate_ = fresh.status();
    return pending;
  }
  const Bytes size = fresh.value().size;
  if (offset >= size) length = 0;
  length = std::min(length, size > offset ? size - offset : 0);

  auto probe = registry_.create(operation);
  if (!probe.is_ok()) {
    pending.immediate_ = probe.status();
    return pending;
  }

  if (length == 0) {
    probe.value()->reset();
    pending.immediate_ = probe.value()->finalize();
    return pending;
  }

  auto extents = server_extents(meta, offset, length);
  if (extents.empty()) {
    // A non-empty clamped range must map to at least one server; reaching
    // here means the layout math is broken. A typed error beats UB straight
    // into legs_[0] in release builds.
    pending.immediate_ = Result<std::vector<std::uint8_t>>(
        error(ErrorCode::kInternal, "layout mapped a non-empty extent to no servers"));
    return pending;
  }

  // Multi-server extents need fan-out + merge; when the kernel cannot
  // merge (gaussian2d) or item boundaries misalign with strips, the bytes
  // must flow in logical file order: one local pass (the TS path).
  const bool aligned = meta.striping.strip_size % sizeof(double) == 0 &&
                       offset % sizeof(double) == 0;
  if (extents.size() > 1 &&
      !(config_.allow_striped_fanout && probe.value()->mergeable() && aligned)) {
    pending.mode_ = PendingReadEx::Mode::kLocalPass;
    pending.offset_ = offset;
    pending.length_ = length;
    return pending;
  }

  if (extents.size() > 1) {
    std::lock_guard lock(mu_);
    ++stats_.striped_fanouts;
  }

  // Submit every extent's active RPC before waiting on any: a striped
  // request keeps all its storage nodes busy concurrently, and N pending
  // read_ex_async() calls pipeline across the cluster.
  pending.mode_ = PendingReadEx::Mode::kRemote;
  pending.fanout_ = extents.size() > 1;
  pending.hedge_budget_ = config_.hedge_reads ? config_.hedge_max_per_read : 0;
  pending.legs_.reserve(extents.size());
  for (auto& ext : extents) {
    PendingReadEx::Leg leg;
    leg.ext = ext;
    leg.ctx = pending.ctx_.child("s" + std::to_string(ext.server));
    if (ext.server < servers_.size() && !circuit_open(ext.server)) {
      auto env = active_envelope(meta, ext, operation);
      env.trace = leg.ctx;
      leg.reply = transport_->submit(std::move(env));
      if (config_.hedge_reads && leg.reply.valid()) {
        const Seconds delay = hedge_delay_for(ext.server);
        if (delay > 0) leg.hedge_at = clock().now() + delay;
      }
    }
    pending.legs_.push_back(std::move(leg));
  }

  // Resolution order: fastest predicted node first (submission above stays
  // in stripe order, so per-node arrival order is unchanged). The predicted
  // straggler is then waited on LAST, with the whole hedge budget and the
  // fast legs' results already in hand.
  pending.wait_order_.resize(pending.legs_.size());
  for (std::size_t i = 0; i < pending.wait_order_.size(); ++i) pending.wait_order_[i] = i;
  if (config_.hedge_reads && pending.legs_.size() > 1) {
    std::vector<double> predicted(pending.legs_.size());
    for (std::size_t i = 0; i < pending.legs_.size(); ++i) {
      predicted[i] =
          transport_->node_latency(static_cast<std::uint32_t>(pending.legs_[i].ext.server))
              .p50_us;
    }
    std::stable_sort(pending.wait_order_.begin(), pending.wait_order_.end(),
                     [&](std::size_t a, std::size_t b) { return predicted[a] < predicted[b]; });
  }
  return pending;
}

ActiveClient::PendingReadEx::~PendingReadEx() {
  if (client_ == nullptr || waited_) return;
  // Abandoned without wait(): withdraw the server-side work (a queued leg
  // never starts, a running one is interrupted) and close the root span so
  // the causal tree is not left dangling.
  cancel_outstanding("read_ex handle dropped before wait()");
  if (ctx_.valid()) emit_request_e2e(ctx_, t0_us_, operation_);
}

ActiveClient::PendingReadEx::PendingReadEx(PendingReadEx&& other) noexcept
    : client_(std::exchange(other.client_, nullptr)),
      mode_(other.mode_),
      ctx_(other.ctx_),
      t0_us_(other.t0_us_),
      immediate_(std::move(other.immediate_)),
      meta_(other.meta_),
      operation_(std::move(other.operation_)),
      offset_(other.offset_),
      length_(other.length_),
      legs_(std::move(other.legs_)),
      fanout_(other.fanout_),
      wait_order_(std::move(other.wait_order_)),
      hedge_budget_(other.hedge_budget_),
      waited_(other.waited_) {}

ActiveClient::PendingReadEx& ActiveClient::PendingReadEx::operator=(
    PendingReadEx&& other) noexcept {
  if (this != &other) {
    this->~PendingReadEx();
    new (this) PendingReadEx(std::move(other));
  }
  return *this;
}

void ActiveClient::PendingReadEx::cancel_outstanding(const char* why) {
  for (auto& leg : legs_) {
    if (!leg.reply.valid() || leg.reply.ready()) continue;
    if (leg.reply.cancel(error(ErrorCode::kCancelled, why))) {
      obs::flight_record(obs::FlightEventKind::kCancel, leg.ctx.trace_id,
                         static_cast<std::uint32_t>(leg.ext.server), 0, why);
    }
  }
}

Result<std::vector<std::uint8_t>> ActiveClient::PendingReadEx::wait() {
  waited_ = true;
  auto result = resolve();
  // The root span of the causal tree: every transport/server/kernel span
  // of this request is a descendant of ctx_.
  if (client_ != nullptr && ctx_.valid()) emit_request_e2e(ctx_, t0_us_, operation_);
  return result;
}

Result<std::vector<std::uint8_t>> ActiveClient::PendingReadEx::resolve() {
  switch (mode_) {
    case Mode::kImmediate:
      return std::move(immediate_);
    case Mode::kLocalPass:
      return client_->local_kernel(meta_, offset_, length_, operation_);
    case Mode::kRemote:
      break;
  }

  if (!fanout_) return client_->resolve_leg(meta_, legs_[0], operation_, &hedge_budget_);

  auto master = client_->registry_.create(operation_);
  if (!master.is_ok()) {
    cancel_outstanding("fan-out merge kernel unavailable");
    return master.status();
  }
  master.value()->reset();
  // Resolve legs fastest-predicted-node first (wait_order_), buffering the
  // partials; the merge below runs in stripe order regardless of
  // resolution or completion order, so the result is bit-identical to the
  // sequential path.
  std::vector<std::optional<Result<std::vector<std::uint8_t>>>> partials(legs_.size());
  for (std::size_t idx : wait_order_) {
    auto partial = client_->resolve_leg(meta_, legs_[idx], operation_, &hedge_budget_);
    if (!partial.is_ok()) {
      // One failed leg dooms the whole read: withdraw every sibling still
      // in flight BEFORE propagating, or the storage nodes keep burning
      // queue slots and kernel time on a request nobody will merge.
      cancel_outstanding("sibling fan-out leg failed");
      return partial.status();
    }
    partials[idx] = std::move(partial);
  }
  for (std::size_t i = 0; i < legs_.size(); ++i) {
    Status st = master.value()->merge(partials[i]->value());
    if (!st.is_ok()) return st;
  }
  return master.value()->finalize();
}

Result<std::vector<std::uint8_t>> ActiveClient::resolve_leg(const pfs::FileMeta& meta,
                                                            PendingReadEx::Leg& leg,
                                                            const std::string& operation,
                                                            std::size_t* hedge_budget) {
  if (leg.ext.server >= servers_.size()) {
    return error(ErrorCode::kInternal, "no storage server for data server id " +
                                           std::to_string(leg.ext.server));
  }
  // Open circuit: the node's active runtime has stopped responding, so the
  // doomed remote attempt was skipped entirely at submission — normal I/O
  // + local kernel (the node's data path survives an active-runtime
  // crash).
  if (!leg.reply.valid()) {
    return serve_extent_locally(meta, leg.ext, operation, leg.ctx);
  }
  // Hedge timer: give the RPC until its p99-derived deadline, then race a
  // local twin against it instead of waiting out the straggler.
  if (leg.hedge_at > 0 && hedge_budget != nullptr && *hedge_budget > 0 &&
      !leg.reply.wait_until_ready(leg.hedge_at)) {
    --*hedge_budget;
    return hedge_leg(meta, leg, operation);
  }
  auto reply = leg.reply.wait();
  note_timed_out(reply.active);
  return resolve_response(meta, leg.ext, operation, std::move(reply.active),
                          /*allow_resubmit=*/true, leg.ctx);
}

Seconds ActiveClient::hedge_delay_for(pfs::ServerId server) const {
  if (!config_.hedge_reads) return 0;
  const auto nl = transport_->node_latency(static_cast<std::uint32_t>(server));
  if (nl.samples < config_.hedge_min_samples) return config_.hedge_cold_delay;
  return std::max(config_.hedge_min_delay, config_.hedge_p99_multiplier * nl.p99_us * 1e-6);
}

Result<std::vector<std::uint8_t>> ActiveClient::hedge_leg(const pfs::FileMeta& meta,
                                                          PendingReadEx::Leg& leg,
                                                          const std::string& operation) {
  {
    std::lock_guard lock(mu_);
    ++stats_.hedges_fired;
  }
  if (obs::metrics_enabled()) obs::count("client.hedges_fired");
  obs::flight_record(obs::FlightEventKind::kHedge, leg.ctx.trace_id,
                     static_cast<std::uint32_t>(leg.ext.server), 0,
                     "leg past hedge delay: racing a local twin");
  // The hedge branch of the causal tree: the twin's chunk reads hang off
  // this child, so the trace shows the race explicitly.
  const obs::TraceContext hedge_ctx = leg.ctx.child("hedge");
  if (obs::tracing_enabled() && leg.ctx.valid()) {
    obs::Tracer::global().instant("client.hedge", "client", hedge_ctx);
  }

  auto kernel = registry_.create(operation);
  if (!kernel.is_ok()) {
    // No local twin possible; fall back to waiting out the remote leg.
    auto reply = leg.reply.wait();
    note_timed_out(reply.active);
    return resolve_response(meta, leg.ext, operation, std::move(reply.active),
                            /*allow_resubmit=*/true, leg.ctx);
  }
  kernel.value()->reset();

  // The local twin: this architecture has no remote replica to re-issue the
  // active RPC to, so the replica-capable path IS demote-to-local — normal
  // I/O chunks through the node's still-live data path, kernel on this
  // client. The stop check ends the twin at chunk granularity the moment
  // the remote reply lands.
  auto streamed = kernels::stream_extent(
      *kernel.value(), leg.ext.object_offset, leg.ext.object_offset + leg.ext.length,
      config_.chunk_size,
      [&](Bytes pos, Bytes len) -> Result<BufferRef> {
        auto chunk = remote_read(leg.ext.server, meta.handle, pos, len,
                                 hedge_ctx.child("read@" + std::to_string(pos)));
        if (chunk.is_ok()) {
          std::lock_guard lock(mu_);
          stats_.raw_bytes_read += chunk.value().size();
        }
        return chunk;
      },
      /*stop=*/[&] { return leg.reply.ready(); },
      compute_pacer(config_.pace_compute_rates, operation));

  // Arbitration: the twin only wins if it finished AND the remote leg can
  // still be withdrawn. cancel() is the atomic arbiter — when it returns
  // true the RPC completes kCancelled (its server work withdrawn, no bytes
  // charged); when false the real reply already landed and stands.
  const bool twin_finished = streamed.is_ok() && !streamed.value().stopped;
  if (twin_finished &&
      leg.reply.cancel(error(ErrorCode::kCancelled, "hedged leg lost: local twin finished first"))) {
    {
      std::lock_guard lock(mu_);
      ++stats_.hedges_won;
      ++stats_.local_kernel_runs;
    }
    if (obs::metrics_enabled()) obs::count("client.hedges_won");
    obs::flight_record(obs::FlightEventKind::kHedge, leg.ctx.trace_id,
                       static_cast<std::uint32_t>(leg.ext.server), 0,
                       "hedge won: remote leg cancelled");
    return kernel.value()->finalize();
  }

  // The remote reply won the race (or the twin's read failed): the twin's
  // partial work is the hedge's waste, the reply is the leg's result —
  // resolved through the normal completion/demotion/resume state machine.
  {
    std::lock_guard lock(mu_);
    ++stats_.hedges_wasted;
  }
  if (obs::metrics_enabled()) obs::count("client.hedges_wasted");
  obs::flight_record(obs::FlightEventKind::kHedge, leg.ctx.trace_id,
                     static_cast<std::uint32_t>(leg.ext.server), 0,
                     "hedge wasted: remote reply stands");
  auto reply = leg.reply.wait();
  note_timed_out(reply.active);
  return resolve_response(meta, leg.ext, operation, std::move(reply.active),
                          /*allow_resubmit=*/true, leg.ctx);
}

Result<std::vector<std::uint8_t>> ActiveClient::resolve_response(
    const pfs::FileMeta& meta, const ServerExtent& ext, const std::string& operation,
    server::ActiveIoResponse resp, bool allow_resubmit, const obs::TraceContext& ctx) {
  switch (resp.outcome) {
    case server::ActiveOutcome::kCompleted: {
      {
        std::lock_guard lock(mu_);
        ++stats_.completed_remote;
        stats_.result_bytes_received += resp.result.size();
      }
      // Materialize the h(d)-sized result for the owning API; the charge
      // is the result's bytes, not the extent's.
      return resp.result.to_vector();
    }

    case server::ActiveOutcome::kRejected: {
      // Paper §III-C case 1: "For new arrival active I/O requests, R just
      // set completed argument to 0 ... The request is now changed to be a
      // normal I/O and will be processed by ASC."
      {
        std::lock_guard lock(mu_);
        ++stats_.demoted;
        ++stats_.local_kernel_runs;
      }
      obs::flight_record(obs::FlightEventKind::kDemotion, ctx.trace_id,
                         static_cast<std::uint32_t>(ext.server), 0,
                         "rejected at admission: finishing locally");
      if (obs::tracing_enabled() && ctx.valid()) {
        obs::Tracer::global().instant("client.demote", "client", ctx.child("client_demote"));
      }
      auto kernel = registry_.create(operation);
      if (!kernel.is_ok()) return kernel.status();
      kernel.value()->reset();
      // Client-side compute time for a demoted kernel: the cost the CE's
      // y_i + z terms predict the client pays instead of the server.
      const bool obs_on = obs::metrics_enabled();
      const double t0 = obs_on ? obs::now_us() : 0.0;
      auto result = finish_locally(meta, ext, ext.object_offset, *kernel.value(), ctx);
      if (obs_on) {
        obs::count("client.demoted");
        obs::observe("client.demoted_compute_us", obs::now_us() - t0);
      }
      return result;
    }

    case server::ActiveOutcome::kInterrupted: {
      // Extension: offer the checkpoint back to the storage node once (the
      // spike that caused the interruption may have passed). Whatever the
      // second round returns, accumulated kernel progress is never lost:
      // every fallback resumes from the freshest checkpoint.
      if (config_.resubmit_interrupted && allow_resubmit) {
        {
          std::lock_guard lock(mu_);
          ++stats_.resubmitted;
        }
        obs::flight_record(obs::FlightEventKind::kStateTransition, ctx.trace_id,
                           static_cast<std::uint32_t>(ext.server), resp.resume_offset,
                           "resubmitting interrupted kernel with checkpoint");
        auto env = active_envelope(meta, ext, operation);
        env.active.resume_checkpoint = resp.checkpoint;
        env.active.resume_from = resp.resume_offset;
        env.trace = ctx.child("resubmit");
        auto second_reply = transport_->submit(std::move(env)).wait();
        note_timed_out(second_reply.active);
        auto second = std::move(second_reply.active);
        if (second.outcome == server::ActiveOutcome::kCompleted) {
          {
            std::lock_guard lock(mu_);
            ++stats_.completed_remote;
            stats_.result_bytes_received += second.result.size();
          }
          return second.result.to_vector();
        }
        // Rejected (no progress since the first checkpoint) keeps the
        // original state; a second interruption carries fresher state.
        if (second.outcome == server::ActiveOutcome::kInterrupted) {
          resp = std::move(second);
        }
        // Fall through to local completion from resp's checkpoint.
      }
      // Paper §III-C case 2: restore the shipped variable dump and finish
      // the remaining bytes locally.
      {
        std::lock_guard lock(mu_);
        ++stats_.resumed_local;
        ++stats_.local_kernel_runs;
        stats_.result_bytes_received += resp.checkpoint.size();
      }
      auto kernel = registry_.create(operation);
      if (!kernel.is_ok()) return kernel.status();
      Bytes resume_from = resp.resume_offset;
      auto decoded = Checkpoint::decode(resp.checkpoint);
      Status st = decoded.is_ok() ? kernel.value()->restore(decoded.value()) : decoded.status();
      if (!st.is_ok()) {
        // A dropped/corrupted checkpoint (checksum mismatch -> kCorrupted)
        // loses the server's progress but never correctness: restart the
        // kernel cleanly over the whole extent instead of resuming from
        // garbage — and never from silently-defaulted state.
        {
          std::lock_guard lock(mu_);
          ++stats_.checkpoint_corrupt_restarts;
        }
        if (obs::metrics_enabled()) obs::count("client.ckpt_corrupt_restarts");
        obs::flight_record(obs::FlightEventKind::kStateTransition, ctx.trace_id,
                           static_cast<std::uint32_t>(ext.server), 0,
                           "checkpoint corrupt: clean local restart");
        kernel.value()->reset();
        resume_from = ext.object_offset;
      }
      obs::flight_record(obs::FlightEventKind::kResume, ctx.trace_id,
                         static_cast<std::uint32_t>(ext.server), resume_from,
                         "restoring checkpoint, finishing locally");
      if (obs::tracing_enabled() && ctx.valid()) {
        obs::Tracer::global().instant("client.resume", "client", ctx.child("client_resume"));
      }
      const bool obs_on = obs::metrics_enabled();
      const double t0 = obs_on ? obs::now_us() : 0.0;
      auto result = finish_locally(meta, ext, resume_from, *kernel.value(), ctx);
      if (obs_on) {
        obs::count("client.resumed");
        obs::observe("client.resume_compute_us", obs::now_us() - t0);
      }
      return result;
    }

    case server::ActiveOutcome::kFailed: {
      // Resilience: a transient server-side failure (e.g. a data-server
      // brownout mid-kernel) is retried once as plain normal I/O + a local
      // kernel. A persistent fault will fail that retry and propagate.
      if (resp.status.code() == ErrorCode::kNotFound ||
          resp.status.code() == ErrorCode::kInvalidArgument) {
        return resp.status;  // not transient: bad operation or missing file
      }
      {
        std::lock_guard lock(mu_);
        ++stats_.failed_remote_retries;
        ++stats_.local_kernel_runs;
      }
      obs::flight_record(obs::FlightEventKind::kStateTransition, ctx.trace_id,
                         static_cast<std::uint32_t>(ext.server), 0,
                         "remote active I/O failed: local fallback");
      auto kernel = registry_.create(operation);
      if (!kernel.is_ok()) return kernel.status();
      kernel.value()->reset();
      auto retried = finish_locally(meta, ext, ext.object_offset, *kernel.value(), ctx);
      if (!retried.is_ok()) return resp.status;  // persistent: surface the original error
      return retried;
    }
  }
  return error(ErrorCode::kInternal, "unreachable active outcome");
}

std::vector<Result<std::vector<std::uint8_t>>> ActiveClient::read_ex_batch(
    const std::vector<BatchItem>& items) {
  std::vector<std::optional<Result<std::vector<std::uint8_t>>>> results(items.size());

  struct PendingItem {
    std::size_t index;
    ServerExtent ext;
    obs::TraceContext ctx;      ///< root of the item's causal tree
    obs::TraceContext leg_ctx;  ///< per-server child stamped on the envelope
    double t0_us = 0.0;
  };
  std::vector<PendingItem> pending;

  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& item = items[i];
    {
      std::lock_guard lock(mu_);
      ++stats_.reads_ex;
    }
    auto fresh = pfs_.file_system().meta().lookup_handle(item.meta.handle);
    if (!fresh.is_ok()) {
      results[i] = fresh.status();
      continue;
    }
    const Bytes size = fresh.value().size;
    Bytes length = item.length;
    if (item.offset >= size) length = 0;
    length = std::min(length, size > item.offset ? size - item.offset : 0);

    auto probe = registry_.create(item.operation);
    if (!probe.is_ok()) {
      results[i] = probe.status();
      continue;
    }
    if (length == 0) {
      probe.value()->reset();
      results[i] = probe.value()->finalize();
      continue;
    }
    const auto extents = server_extents(item.meta, item.offset, length);
    if (extents.size() == 1) {
      if (extents[0].server >= servers_.size()) {
        results[i] = Result<std::vector<std::uint8_t>>(
            error(ErrorCode::kInternal, "no storage server for data server id " +
                                            std::to_string(extents[0].server)));
      } else if (circuit_open(extents[0].server)) {
        const obs::TraceContext root = obs::Tracer::global().new_root();
        const double t0 = obs::now_us();
        results[i] = serve_extent_locally(
            item.meta, extents[0], item.operation,
            root.child("s" + std::to_string(extents[0].server)));
        emit_request_e2e(root, t0, item.operation);
      } else {
        PendingItem p;
        p.index = i;
        p.ext = extents[0];
        p.ctx = obs::Tracer::global().new_root();
        p.leg_ctx = p.ctx.child("s" + std::to_string(extents[0].server));
        p.t0_us = obs::now_us();
        pending.push_back(std::move(p));
      }
    } else {
      // Striped items take the individual path (fan-out + merge). Undo the
      // double-counted reads_ex bump from read_ex itself.
      {
        std::lock_guard lock(mu_);
        --stats_.reads_ex;
      }
      results[i] = read_ex(item.meta, item.offset, length, item.operation);
    }
  }

  // One transport batch over all single-node items: the transport hands
  // each storage node its sub-group in one submit_active_batch, so the
  // node's CE decides over the whole group at once.
  std::vector<rpc::Envelope> envs;
  envs.reserve(pending.size());
  for (const auto& p : pending) {
    envs.push_back(active_envelope(items[p.index].meta, p.ext, items[p.index].operation));
    envs.back().trace = p.leg_ctx;
  }
  auto replies = transport_->submit_batch(std::move(envs));
  for (std::size_t j = 0; j < pending.size(); ++j) {
    const auto& p = pending[j];
    auto reply = replies[j].wait();
    note_timed_out(reply.active);
    results[p.index] = resolve_response(items[p.index].meta, p.ext, items[p.index].operation,
                                        std::move(reply.active), /*allow_resubmit=*/true,
                                        p.leg_ctx);
    emit_request_e2e(p.ctx, p.t0_us, items[p.index].operation);
  }

  std::vector<Result<std::vector<std::uint8_t>>> out;
  out.reserve(items.size());
  for (auto& r : results) {
    out.push_back(r.has_value() ? std::move(*r)
                                : Result<std::vector<std::uint8_t>>(
                                      error(ErrorCode::kInternal, "batch item unresolved")));
  }
  return out;
}

Result<std::vector<std::uint8_t>> ActiveClient::finish_locally(const pfs::FileMeta& meta,
                                                               const ServerExtent& ext,
                                                               Bytes from,
                                                               kernels::Kernel& kernel,
                                                               const obs::TraceContext& ctx) {
  auto streamed = kernels::stream_extent(
      kernel, from, ext.object_offset + ext.length, config_.chunk_size,
      [&](Bytes pos, Bytes len) -> Result<BufferRef> {
        // Each chunk read joins the request's causal tree (distinct salt
        // per offset, so spans stay unique).
        auto chunk = remote_read(ext.server, meta.handle, pos, len,
                                 ctx.child("read@" + std::to_string(pos)));
        if (chunk.is_ok()) {
          std::lock_guard lock(mu_);
          stats_.raw_bytes_read += chunk.value().size();
        }
        return chunk;
      },
      /*stop=*/nullptr, compute_pacer(config_.pace_compute_rates, kernel.name()));
  if (!streamed.is_ok()) return streamed.status();
  return kernel.finalize();
}

Result<std::vector<std::uint8_t>> ActiveClient::local_kernel(const pfs::FileMeta& meta,
                                                             Bytes offset, Bytes length,
                                                             const std::string& operation) {
  obs::ScopedTrace span("client.local_kernel", "client");
  const bool obs_on = obs::metrics_enabled();
  const double t0 = obs_on ? obs::now_us() : 0.0;
  {
    std::lock_guard lock(mu_);
    ++stats_.local_kernel_runs;
  }
  auto kernel = registry_.create(operation);
  if (!kernel.is_ok()) return kernel.status();
  kernel.value()->reset();
  auto streamed = kernels::stream_extent(
      *kernel.value(), offset, offset + length, config_.chunk_size,
      // read_ref() clamps each chunk at EOF and counts raw_bytes_read
      // itself; a chunk on one strip crosses the ChunkReader boundary as
      // the server's own slab ref — no staging copy.
      [&](Bytes pos, Bytes len) -> Result<BufferRef> { return read_ref(meta, pos, len); },
      /*stop=*/nullptr, compute_pacer(config_.pace_compute_rates, operation));
  if (!streamed.is_ok()) return streamed.status();
  auto result = kernel.value()->finalize();
  if (obs_on) obs::observe("client.local_kernel_us", obs::now_us() - t0);
  return result;
}

Result<pfs::FileMeta> ActiveClient::write(const pfs::FileMeta& meta, Bytes offset,
                                          const BufferRef& data) {
  obs::ScopedTrace span("client.write", "client");
  const pfs::Layout layout(meta.striping);
  std::vector<rpc::Envelope> envs;
  for (const auto& seg : layout.map_extent(offset, data.size())) {
    rpc::Envelope env;
    env.target = seg.server;
    env.kind = rpc::OpKind::kWrite;
    env.write.handle = meta.handle;
    env.write.object_offset = seg.object_offset;
    // slice() shares the caller's slab — the striped fan-out ships N views
    // of one buffer; each data server's store is that leg's only copy.
    env.write.data = data.slice(seg.logical_offset - offset, seg.length);
    envs.push_back(std::move(env));
  }
  auto replies = transport_->submit_batch(std::move(envs));
  Status failed = Status::ok();
  for (auto& reply : replies) {
    auto r = reply.wait();
    // Drain every leg before propagating a failure: siblings already hit
    // their data servers, and abandoning their replies would strand the
    // transport's in-flight accounting.
    if (!r.write.status.is_ok() && failed.is_ok()) failed = r.write.status;
  }
  if (!failed.is_ok()) return failed;
  {
    std::lock_guard lock(mu_);
    stats_.raw_bytes_written += data.size();
  }
  Status st = pfs_.file_system().meta().extend(meta.handle, offset + data.size());
  if (!st.is_ok()) return st;
  return pfs_.file_system().meta().lookup_handle(meta.handle);
}

ActiveClient::Stats ActiveClient::stats() const {
  Stats s;
  {
    std::lock_guard lock(mu_);
    s = stats_;
  }
  // Retry accounting lives in the transport's retry interceptor now.
  const auto t = rpc::stats_of(*transport_);
  s.remote_retries = t.retries;
  s.exhausted_retries = t.retries_exhausted;
  s.backoff_total = t.backoff_total;
  return s;
}

}  // namespace dosas::client
