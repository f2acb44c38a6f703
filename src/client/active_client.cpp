#include "client/active_client.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
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

/// Hedging policy (ActiveClientConfig::hedge_reads). A warm node's leg is
/// hedged after max(kHedgeMinDelay, kHedgeP99Multiplier × its p99): the
/// floor keeps a node whose history is microseconds from hedging on
/// scheduling noise. kHedgeMaxPerRead bounds the hedges one read_ex (all
/// its fan-out legs together) may fire, and so the extra bytes a fully
/// stalled cluster could cost.
constexpr double kHedgeP99Multiplier = 3.0;
constexpr Seconds kHedgeMinDelay = 0.002;
constexpr std::size_t kHedgeMaxPerRead = 1;

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
/// (no table) or the operation has no table entry.
kernels::ProgressFn compute_pacer(const server::RateTable* rates, const std::string& operation) {
  if (rates == nullptr) return nullptr;
  auto op_rates = rates->get(operation.substr(0, operation.find(':')));
  if (!op_rates.is_ok() || op_rates.value().compute <= 0.0) return nullptr;
  return [rate = op_rates.value().compute](Bytes chunk, Bytes) {
    if (chunk > 0) clock().sleep(static_cast<double>(chunk) / rate);
  };
}

/// What one cause of a local finish counts and emits (the table behind
/// ActiveClient::finish_leg_locally). Names and salts are part of the
/// observable surface: dashboards and the DST fingerprints key on them.
struct LocalCauseInfo {
  std::uint64_t ActiveClient::Stats::*counter;  ///< bumped when the finish starts
  bool local_run;  ///< counts as a local kernel run at start (a hedge twin: only if it wins)
  const char* compute_metric;  ///< client compute-time histogram (null: none)
  obs::FlightEventKind flight;
  const char* flight_msg;
  const char* instant;  ///< trace instant on leg.ctx.child(salt) (null: none)
  const char* salt;
  bool reads_under_salt;  ///< chunk reads hang off the salted span, not the leg's
};

/// Indexed by ActiveClient::LocalCause.
constexpr LocalCauseInfo kLocalCauses[] = {
    // kRejected — paper §III-C case 1: demoted at arrival, full local run.
    {&ActiveClient::Stats::demoted, true, "client.demoted_compute_us",
     obs::FlightEventKind::kDemotion, "rejected at admission: finishing locally",
     "client.demote", "client_demote", false},
    // kInterrupted — paper §III-C case 2: resume from the shipped checkpoint.
    {&ActiveClient::Stats::resumed_local, true, "client.resume_compute_us",
     obs::FlightEventKind::kResume, "restoring checkpoint, finishing locally", "client.resume",
     "client_resume", false},
    // kFailed — a transient server-side failure retried as normal I/O.
    {&ActiveClient::Stats::failed_remote_retries, true, nullptr,
     obs::FlightEventKind::kStateTransition, "remote active I/O failed: local fallback",
     nullptr, nullptr, false},
    // kCircuitOpen — the node's active runtime stopped answering.
    {&ActiveClient::Stats::node_down_demotes, true, nullptr,
     obs::FlightEventKind::kDemotion, "circuit open: serving via normal I/O",
     "client.node_down_demote", "node_down", false},
    // kHedge — the local twin raced against a straggling leg.
    {&ActiveClient::Stats::hedges_fired, false, nullptr,
     obs::FlightEventKind::kHedge, "leg past hedge delay: racing a local twin", "client.hedge",
     "hedge", true},
};

}  // namespace

ActiveClient::ActiveClient(pfs::Client& pfs, const kernels::Registry& registry,
                           std::vector<server::StorageServer*> servers, Config config)
    : pfs_(pfs), registry_(registry), servers_(std::move(servers)), config_(config) {
  assert(!servers_.empty());
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    assert(servers_[i] != nullptr);
    assert(servers_[i]->server_id() == i && "servers must be indexed by data-server id");
  }
  auto chain = rpc::make_chain(servers_, config_.chain);
  transport_ = std::move(chain.head);
  breaker_ = std::move(chain.breaker);
}

rpc::Envelope ActiveClient::active_envelope(const pfs::FileMeta& meta, const ServerExtent& ext,
                                            const std::string& operation,
                                            const obs::TraceContext& trace) const {
  rpc::Envelope env;
  env.target = ext.server;
  env.kind = rpc::OpKind::kActiveIo;
  env.active.handle = meta.handle;
  env.active.object_offset = ext.object_offset;
  env.active.length = ext.length;
  env.active.operation = operation;
  env.deadline = config_.request_timeout;
  env.trace = trace;
  return env;
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
  PendingReadEx pending = plan_read_ex(meta, offset, length, operation);
  // Submit every extent's active RPC before waiting on any: a striped
  // request keeps all its storage nodes busy concurrently, and N pending
  // read_ex_async() calls pipeline across the cluster.
  for (auto& leg : pending.legs_) {
    if (leg.send) attach(leg, transport_->submit(active_envelope(meta, leg.ext, operation, leg.ctx)));
  }
  order_legs(pending);
  return pending;
}

ActiveClient::PendingReadEx ActiveClient::plan_read_ex(const pfs::FileMeta& meta, Bytes offset,
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
  if (extents.size() > 1 && !(probe.value()->mergeable() && aligned)) {
    pending.mode_ = PendingReadEx::Mode::kLocalPass;
    pending.offset_ = offset;
    pending.length_ = length;
    return pending;
  }

  if (extents.size() > 1) {
    std::lock_guard lock(mu_);
    ++stats_.striped_fanouts;
  }

  pending.mode_ = PendingReadEx::Mode::kRemote;
  pending.fanout_ = extents.size() > 1;
  pending.hedge_budget_ = config_.hedge_reads ? kHedgeMaxPerRead : 0;
  pending.legs_.reserve(extents.size());
  for (auto& ext : extents) {
    PendingReadEx::Leg leg;
    leg.ext = ext;
    leg.ctx = pending.ctx_.child("s" + std::to_string(ext.server));
    // An open circuit (too many consecutive kUnavailable, and this request
    // is not a re-probe) skips the doomed RPC: the leg finishes locally at
    // wait().
    leg.send = ext.server < servers_.size() &&
               !(breaker_ != nullptr && breaker_->should_short_circuit(ext.server));
    pending.legs_.push_back(std::move(leg));
  }
  return pending;
}

void ActiveClient::attach(PendingReadEx::Leg& leg, rpc::PendingReply reply) {
  leg.reply = std::move(reply);
  if (!config_.hedge_reads || !leg.reply.valid()) return;
  // A cold node hedges after the cold delay (0: never).
  const auto nl = transport_->node_latency(static_cast<std::uint32_t>(leg.ext.server));
  const Seconds delay = nl.samples < config_.hedge_min_samples
                            ? config_.hedge_cold_delay
                            : std::max(kHedgeMinDelay, kHedgeP99Multiplier * nl.p99_us * 1e-6);
  if (delay > 0) leg.hedge_at = clock().now() + delay;
}

void ActiveClient::order_legs(PendingReadEx& pending) const {
  // Submission stays in stripe order, so per-node arrival order is
  // unchanged; only the resolution order moves.
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

  if (!fanout_) return client_->resolve_leg(meta_, legs_[0], operation_, hedge_budget_);

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
    auto partial = client_->resolve_leg(meta_, legs_[idx], operation_, hedge_budget_);
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
                                                            std::size_t& hedge_budget) {
  if (leg.ext.server >= servers_.size()) {
    return error(ErrorCode::kInternal, "no storage server for data server id " +
                                           std::to_string(leg.ext.server));
  }
  // Open circuit: the node's active runtime has stopped responding, so the
  // doomed remote attempt was skipped entirely at submission — normal I/O
  // + local kernel (the node's data path survives an active-runtime
  // crash).
  if (!leg.reply.valid()) {
    return finish_leg_locally(meta, leg, operation, LocalCause::kCircuitOpen,
                              leg.ext.object_offset);
  }
  // Hedge timer: give the RPC until its p99-derived deadline, then race a
  // local twin against it instead of waiting out the straggler.
  if (leg.hedge_at > 0 && hedge_budget > 0 && !leg.reply.wait_until_ready(leg.hedge_at)) {
    --hedge_budget;
    // The local twin: this architecture has no remote replica to re-issue
    // the active RPC to, so the replica-capable path IS demote-to-local.
    // The stop check ends the twin at chunk granularity the moment the
    // remote reply lands.
    auto twin = finish_leg_locally(meta, leg, operation, LocalCause::kHedge,
                                   leg.ext.object_offset, nullptr,
                                   [&] { return leg.reply.ready(); });
    // Arbitration: the twin only wins if it finished AND the remote leg can
    // still be withdrawn. cancel() is the atomic arbiter — when it returns
    // true the RPC completes kCancelled (its server work withdrawn, no bytes
    // charged); when false the real reply already landed and stands.
    if (twin.is_ok() &&
        leg.reply.cancel(error(ErrorCode::kCancelled, "hedged leg lost: local twin finished first"))) {
      {
        std::lock_guard lock(mu_);
        ++stats_.hedges_won;
        ++stats_.local_kernel_runs;
      }
      obs::flight_record(obs::FlightEventKind::kHedge, leg.ctx.trace_id,
                         static_cast<std::uint32_t>(leg.ext.server), 0,
                         "hedge won: remote leg cancelled");
      return twin;
    }
    // The remote reply won the race (or the twin's read failed): the twin's
    // partial work is the hedge's waste, the reply is the leg's result.
    {
      std::lock_guard lock(mu_);
      ++stats_.hedges_wasted;
    }
    obs::flight_record(obs::FlightEventKind::kHedge, leg.ctx.trace_id,
                       static_cast<std::uint32_t>(leg.ext.server), 0,
                       "hedge wasted: remote reply stands");
  }
  return resolve_response(meta, leg, operation, take_reply(leg.reply));
}

server::ActiveIoResponse ActiveClient::take_reply(rpc::PendingReply& reply) {
  server::ActiveIoResponse resp = reply.wait().active;
  switch (resp.outcome) {
    case server::ActiveOutcome::kCompleted: {
      std::lock_guard lock(mu_);
      ++stats_.completed_remote;
      stats_.result_bytes_received += resp.result.size();
      break;
    }
    case server::ActiveOutcome::kInterrupted: {
      std::lock_guard lock(mu_);
      stats_.result_bytes_received += resp.checkpoint.size();
      break;
    }
    case server::ActiveOutcome::kFailed:
      if (resp.status.code() == ErrorCode::kTimedOut) {
        std::lock_guard lock(mu_);
        ++stats_.timed_out;
      }
      break;
    case server::ActiveOutcome::kRejected:
      break;
  }
  return resp;
}

Result<std::vector<std::uint8_t>> ActiveClient::resolve_response(
    const pfs::FileMeta& meta, const PendingReadEx::Leg& leg, const std::string& operation,
    server::ActiveIoResponse resp) {
  switch (resp.outcome) {
    case server::ActiveOutcome::kCompleted:
      // Materialize the h(d)-sized result for the owning API; the charge
      // is the result's bytes, not the extent's.
      return resp.result.to_vector();

    case server::ActiveOutcome::kRejected:
      // Paper §III-C case 1: "For new arrival active I/O requests, R just
      // set completed argument to 0 ... The request is now changed to be a
      // normal I/O and will be processed by ASC."
      return finish_leg_locally(meta, leg, operation, LocalCause::kRejected,
                                leg.ext.object_offset);

    case server::ActiveOutcome::kInterrupted: {
      // Extension: offer the checkpoint back to the storage node once (the
      // spike that caused the interruption may have passed). Whatever the
      // second round returns, accumulated kernel progress is never lost:
      // every fallback resumes from the freshest checkpoint.
      if (config_.resubmit_interrupted) {
        {
          std::lock_guard lock(mu_);
          ++stats_.resubmitted;
        }
        obs::flight_record(obs::FlightEventKind::kStateTransition, leg.ctx.trace_id,
                           static_cast<std::uint32_t>(leg.ext.server), resp.resume_offset,
                           "resubmitting interrupted kernel with checkpoint");
        auto env = active_envelope(meta, leg.ext, operation, leg.ctx.child("resubmit"));
        env.active.resume_checkpoint = resp.checkpoint;
        env.active.resume_from = resp.resume_offset;
        auto resubmitted = transport_->submit(std::move(env));
        auto second = take_reply(resubmitted);
        if (second.outcome == server::ActiveOutcome::kCompleted) {
          return second.result.to_vector();
        }
        // Rejected (no progress since the first checkpoint) keeps the
        // original state; a second interruption carries fresher state.
        if (second.outcome == server::ActiveOutcome::kInterrupted) {
          resp = std::move(second);
        }
      }
      // Paper §III-C case 2: restore the shipped variable dump and finish
      // the remaining bytes locally.
      return finish_leg_locally(meta, leg, operation, LocalCause::kInterrupted,
                                resp.resume_offset, &resp.checkpoint);
    }

    case server::ActiveOutcome::kFailed: {
      // Resilience: a transient server-side failure (e.g. a data-server
      // brownout mid-kernel) is retried once as plain normal I/O + a local
      // kernel. A persistent fault will fail that retry and propagate.
      if (resp.status.code() == ErrorCode::kNotFound ||
          resp.status.code() == ErrorCode::kInvalidArgument) {
        return resp.status;  // not transient: bad operation or missing file
      }
      auto retried = finish_leg_locally(meta, leg, operation, LocalCause::kFailed,
                                        leg.ext.object_offset);
      if (!retried.is_ok()) return resp.status;  // persistent: surface the original error
      return retried;
    }
  }
  return error(ErrorCode::kInternal, "unreachable active outcome");
}

Result<std::vector<std::uint8_t>> ActiveClient::finish_leg_locally(
    const pfs::FileMeta& meta, const PendingReadEx::Leg& leg, const std::string& operation,
    LocalCause cause, Bytes from, const std::vector<std::uint8_t>* checkpoint,
    const kernels::StopCheck& stop) {
  static_assert(std::size(kLocalCauses) == static_cast<std::size_t>(LocalCause::kHedge) + 1,
                "one kLocalCauses row per LocalCause");
  const LocalCauseInfo& info = kLocalCauses[static_cast<std::size_t>(cause)];
  const auto server = static_cast<std::uint32_t>(leg.ext.server);
  {
    std::lock_guard lock(mu_);
    ++(stats_.*info.counter);
    if (info.local_run) ++stats_.local_kernel_runs;
  }
  auto created = registry_.create(operation);
  if (!created.is_ok()) return created.status();
  kernels::Kernel& kernel = *created.value();
  kernel.reset();
  if (checkpoint != nullptr &&
      !kernels::resume(kernel, *checkpoint, leg.ext.object_offset,
                       leg.ext.object_offset + leg.ext.length, from)
           .is_ok()) {
    // A corrupted checkpoint (kCorrupted) or one that does not fit the
    // kernel or the extent (kInvalidArgument) loses the server's progress
    // but never correctness: resume() left the kernel reset, so it restarts
    // cleanly over the whole extent — never from silently-defaulted state.
    {
      std::lock_guard lock(mu_);
      ++stats_.checkpoint_corrupt_restarts;
    }
    obs::flight_record(obs::FlightEventKind::kStateTransition, leg.ctx.trace_id, server, 0,
                       "checkpoint refused: clean local restart");
    from = leg.ext.object_offset;
  }
  obs::flight_record(info.flight, leg.ctx.trace_id, server, checkpoint != nullptr ? from : 0,
                     info.flight_msg);
  const obs::TraceContext salted = info.salt != nullptr ? leg.ctx.child(info.salt) : leg.ctx;
  if (info.instant != nullptr && obs::tracing_enabled() && leg.ctx.valid()) {
    obs::Tracer::global().instant(info.instant, "client", salted);
  }
  const obs::TraceContext& reads = info.reads_under_salt ? salted : leg.ctx;

  // Client-side compute time: the cost the CE's y_i + z terms predict the
  // client pays instead of the server.
  const bool timed = info.compute_metric != nullptr && obs::metrics_enabled();
  const double t0 = timed ? obs::now_us() : 0.0;
  auto streamed = kernels::stream_extent(
      kernel, from, leg.ext.object_offset + leg.ext.length, config_.chunk_size,
      [&](Bytes pos, Bytes len) -> Result<BufferRef> {
        rpc::Envelope env;
        env.target = leg.ext.server;
        env.kind = rpc::OpKind::kRead;
        env.read.handle = meta.handle;
        env.read.object_offset = pos;
        env.read.length = len;
        // Each chunk read joins the request's causal tree (distinct salt
        // per offset, so spans stay unique).
        env.trace = reads.child("read@" + std::to_string(pos));
        auto reply = transport_->submit(std::move(env)).wait();
        if (!reply.read.status.is_ok()) return reply.read.status;
        {
          std::lock_guard lock(mu_);
          stats_.raw_bytes_read += reply.read.data.size();
        }
        return std::move(reply.read.data);
      },
      stop, compute_pacer(pace_rates(), operation));
  auto result = [&]() -> Result<std::vector<std::uint8_t>> {
    if (!streamed.is_ok()) return streamed.status();
    if (streamed.value().stopped) return error(ErrorCode::kCancelled, "local finish stopped early");
    return kernel.finalize();
  }();
  if (timed) obs::observe(info.compute_metric, obs::now_us() - t0);
  return result;
}

std::vector<Result<std::vector<std::uint8_t>>> ActiveClient::read_ex_batch(
    const std::vector<BatchItem>& items) {
  std::vector<PendingReadEx> pending;
  pending.reserve(items.size());
  std::vector<rpc::Envelope> envs;
  for (const auto& item : items) {
    pending.push_back(plan_read_ex(item.meta, item.offset, item.length, item.operation));
    for (const auto& leg : pending.back().legs_) {
      if (leg.send) envs.push_back(active_envelope(item.meta, leg.ext, item.operation, leg.ctx));
    }
  }
  // One transport batch over every item's legs: the transport hands each
  // storage node its sub-group in one submit_active_batch, so the node's
  // CE decides over the whole group at once.
  auto replies = transport_->submit_batch(std::move(envs));
  std::size_t next = 0;
  for (auto& p : pending) {
    for (auto& leg : p.legs_) {
      if (leg.send) attach(leg, std::move(replies[next++]));
    }
    order_legs(p);
  }
  std::vector<Result<std::vector<std::uint8_t>>> out;
  out.reserve(items.size());
  for (auto& p : pending) out.push_back(p.wait());
  return out;
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
      /*stop=*/nullptr, compute_pacer(pace_rates(), operation));
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
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace dosas::client
