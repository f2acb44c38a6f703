// probes.cpp — the per-layer probes of the traced run, plus the span and
// metric printers. Each probe times the benchmark's own calls into one
// layer's public functions on an idle cluster, after the workload's timed
// phases have ended.
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <string_view>

#include "perf.hpp"
#include "rpc/transport.hpp"
#include "sched/optimizer.hpp"
#include "server/contention_estimator.hpp"

namespace perf {

using namespace dosas;

namespace {

/// Median wall microseconds per call of `fn`, timing batches long enough
/// (>= 1 ms) that the clock's resolution does not matter.
template <typename Fn>
double per_call_us(Fn&& fn, double min_seconds) {
  std::size_t batch = 1;
  for (;;) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (now_s() - t0 >= 1e-3 || batch >= (1u << 20)) break;
    batch *= 4;
  }
  const auto reps = time_reps(
      [&] {
        for (std::size_t i = 0; i < batch; ++i) fn();
      },
      min_seconds);
  return median(reps) / static_cast<double>(batch) * 1e6;
}

std::unique_ptr<kernels::Kernel> make_kernel(const kernels::Registry& registry,
                                             const std::string& operation) {
  auto k = registry.create(operation);
  if (!k.is_ok()) {
    std::fprintf(stderr, "perfbench: cannot create kernel %s\n", operation.c_str());
    std::abort();
  }
  return std::move(k.value());
}

/// The storage node holding object offset 0 of `file`.
std::uint32_t first_node(const pfs::FileMeta& file) {
  return file.striping.base_server + file.striping.first_server;
}

void probe_kernels(const ProbeTarget& t, SpanLog& log, Metrics& out) {
  const kernels::Registry& registry = t.cluster->registry();
  const std::pair<const char*, const char*> ops[] = {
      {"sum", "kernels.sum.ns_per_byte"},
      {"minmax", "kernels.minmax.ns_per_byte"},
      {"gaussian2d:width=128", "kernels.gaussian2d.ns_per_byte"}};
  for (const auto& [op, name] : ops) {
    const double t0 = now_us();
    auto reps = time_reps(
        [&] {
          auto kernel = make_kernel(registry, op);
          kernel->consume(t.data);
          auto result = kernel->finalize();
          if (result.empty()) std::abort();
        },
        0.15);
    log.add("probe.kernels", 0, 0, t0, now_us());
    out.add(name, median(reps) * 1e9 / static_cast<double>(t.data.size()), "ns/B",
            std::to_string(reps.size()) + " runs over " + std::to_string(t.data.size()) + " B");
  }

  // Merge: one partial per storage node, folded in stripe order — the
  // client-side tail of every striped read_ex.
  const std::size_t nodes = t.cluster->storage_node_count();
  const std::size_t piece = t.data.size() / nodes / sizeof(double) * sizeof(double);
  std::vector<std::vector<std::uint8_t>> partials;
  for (std::size_t n = 0; n < nodes; ++n) {
    partials.push_back(local_result(registry, "sum", t.data.subspan(n * piece, piece)));
  }
  const double t0 = now_us();
  const double merge_us = per_call_us(
      [&] {
        auto master = make_kernel(registry, "sum");
        for (const auto& p : partials) {
          if (!master->merge(p).is_ok()) std::abort();
        }
        if (master->finalize().empty()) std::abort();
      },
      0.1);
  log.add("probe.kernels.merge", 0, 0, t0, now_us());
  out.add("kernels.merge_us", merge_us, "us", std::to_string(nodes) + " partials");
}

void probe_pfs(const ProbeTarget& t, SpanLog& log, Metrics& out) {
  pfs::Client& pfs = t.cluster->pfs_client();
  double t0 = now_us();
  auto reads = time_reps(
      [&] {
        auto r = pfs.read_ref(t.file, 0, t.file.size);
        if (!r.is_ok() || r.value().size() != t.file.size) std::abort();
      },
      0.15);
  log.add("probe.pfs.read_ref", 0, 0, t0, now_us());
  out.add("pfs.read_ref.ns_per_byte", median(reads) * 1e9 / static_cast<double>(t.file.size),
          "ns/B", std::to_string(reads.size()) + " reads of " + std::to_string(t.file.size) + " B");

  auto probe = pfs.create("/perfbench/probe-write", t.file.striping);
  if (!probe.is_ok()) std::abort();
  t0 = now_us();
  auto writes = time_reps(
      [&] {
        if (!pfs.write(probe.value(), 0, t.data).is_ok()) std::abort();
      },
      0.15);
  log.add("probe.pfs.write", 0, 0, t0, now_us());
  out.add("pfs.write.ns_per_byte", median(writes) * 1e9 / static_cast<double>(t.data.size()),
          "ns/B", std::to_string(writes.size()) + " writes of " + std::to_string(t.data.size()) + " B");
  (void)pfs.unlink("/perfbench/probe-write");
}

void probe_rpc(const ProbeTarget& t, SpanLog& log, Metrics& out) {
  constexpr std::size_t kReads = 2000;
  constexpr Bytes kLen = 4_KiB;
  std::vector<double> rtt;
  rtt.reserve(kReads);
  const double p0 = now_us();
  for (std::size_t i = 0; i < kReads; ++i) {
    rpc::Envelope env;
    env.target = first_node(t.file);
    env.kind = rpc::OpKind::kRead;
    env.read.handle = t.file.handle;
    env.read.object_offset = 0;
    env.read.length = kLen;
    const double t0 = now_us();
    rpc::Reply reply = t.cluster->asc().transport().submit(std::move(env)).wait();
    const double t1 = now_us();
    if (!reply.read.status.is_ok() || reply.read.data.size() != kLen) std::abort();
    rtt.push_back(t1 - t0);
  }
  log.add("probe.rpc.kread", 0, 0, p0, now_us());
  const std::string n = std::to_string(rtt.size()) + " samples";
  out.add("rpc.kread_rtt_us.p50", percentile(rtt, 50), "us", n);
  out.add("rpc.kread_rtt_us.p99", percentile(rtt, 99), "us", n);
}

void probe_submit_active(const ProbeTarget& t, SpanLog& log, Metrics& out) {
  constexpr std::size_t kCalls = 1000;
  constexpr Bytes kLen = 4_KiB;
  const std::uint32_t node = first_node(t.file);
  server::StorageServer& server = t.cluster->storage_server(node);
  // Distinct offsets, cycled over more slots than any result cache holds,
  // so every call runs a kernel instead of hitting the cache.
  const Bytes object_bytes = std::min<Bytes>(t.file.size, t.file.striping.strip_size);
  const std::size_t slots = std::max<std::size_t>(1, std::min<std::size_t>(256, object_bytes / kLen));
  std::vector<double> lat;
  lat.reserve(kCalls);
  const double p0 = now_us();
  for (std::size_t i = 0; i < kCalls; ++i) {
    server::ActiveIoRequest req;
    req.handle = t.file.handle;
    req.object_offset = (i % slots) * kLen;
    req.length = kLen;
    req.operation = "sum";
    std::promise<server::ActiveOutcome> done;
    auto outcome = done.get_future();
    const double t0 = now_us();
    server.submit_active(std::move(req), [&done](server::ActiveIoResponse resp) {
      done.set_value(resp.outcome);
    });
    const server::ActiveOutcome o = outcome.get();
    lat.push_back(now_us() - t0);
    if (o != server::ActiveOutcome::kCompleted) std::abort();
  }
  log.add("probe.server.submit_active", 0, 0, p0, now_us());
  out.add("server.submit_active_us", percentile(lat, 50), "us",
          std::to_string(lat.size()) + " samples, node " + std::to_string(node) + " idle");
}

void probe_optimizer(const ProbeTarget& t, SpanLog& log, Metrics& out) {
  server::ContentionEstimator::Config cfg;
  cfg.optimizer = t.optimizer;
  server::ContentionEstimator ce(cfg, server::RateTable::paper_rates());
  const std::string op = t.contended_op.substr(0, t.contended_op.find(':'));
  auto model = ce.model_for(op);
  auto solver = sched::make_optimizer(t.optimizer);
  if (!model.is_ok() || solver == nullptr) std::abort();
  const auto kernel = make_kernel(t.cluster->registry(), t.contended_op);
  for (const std::size_t k : {4u, 8u, 16u}) {
    std::vector<sched::ActiveRequest> queue(k);
    for (std::size_t i = 0; i < k; ++i) {
      queue[i].id = i + 1;
      queue[i].size = t.contended_bytes;
      queue[i].result_size = kernel->result_size(t.contended_bytes);
      queue[i].operation = t.contended_op;
    }
    const double t0 = now_us();
    const double us = per_call_us(
        [&] {
          const sched::Policy p = solver->optimize(model.value(), queue);
          if (p.active.size() != k) std::abort();
        },
        0.05);
    const std::string name = "sched.optimize_us.k" + std::to_string(k);
    log.add("probe.sched.optimize", 0, 0, t0, now_us());
    out.add(name, us, "us", t.optimizer + " over " + std::to_string(k) + " x " + op);
  }
}

void json_escape(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

std::vector<std::uint8_t> local_result(const kernels::Registry& registry,
                                       const std::string& operation,
                                       std::span<const std::uint8_t> bytes) {
  auto kernel = make_kernel(registry, operation);
  kernel->consume(bytes);
  return kernel->finalize();
}

void run_probes(const ProbeTarget& target, SpanLog& log, Metrics& out) {
  probe_kernels(target, log, out);
  probe_pfs(target, log, out);
  probe_rpc(target, log, out);
  probe_submit_active(target, log, out);
  probe_optimizer(target, log, out);
}

std::size_t report_spans(const std::vector<Span>& spans, const std::string& path) {
  // Self time: a span's duration minus its direct children's durations.
  std::map<std::uint64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent_id != 0) child_us[s.parent_id] += s.t1_us - s.t0_us;
  }
  struct Agg {
    std::size_t count = 0;
    double total_us = 0.0, self_us = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const Span& s : spans) {
    Agg& a = by_name[s.name];
    const double dur = s.t1_us - s.t0_us;
    ++a.count;
    a.total_us += dur;
    const auto it = child_us.find(s.span_id);
    a.self_us += dur - (it != child_us.end() ? it->second : 0.0);
  }
  std::printf("\nspans (benchmark-side, %zu recorded)\n", spans.size());
  std::printf("  %-28s %10s %14s %14s\n", "name", "count", "total ms", "self ms");
  for (const auto& [name, a] : by_name) {
    std::printf("  %-28s %10zu %14.3f %14.3f\n", name.c_str(), a.count, a.total_us / 1e3,
                a.self_us / 1e3);
  }

  if (!path.empty()) {
    // The file keeps the first kMaxFileSpans workload spans plus every
    // probe span (the summary above covers all of them), so a busy
    // workload's trace stays small enough to open.
    constexpr std::size_t kMaxFileSpans = 100000;
    std::ofstream f(path);
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (i >= kMaxFileSpans && std::string_view(s.name).substr(0, 6) != "probe.") continue;
      std::string name;
      json_escape(name, s.name);
      f << (first ? "" : ",") << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << std::fixed << s.t0_us << ",\"dur\":" << (s.t1_us - s.t0_us)
        << ",\"args\":{\"trace_id\":" << s.trace_id << ",\"span_id\":" << s.span_id
        << ",\"parent_span_id\":" << s.parent_id << "}}";
      first = false;
    }
    f << "]}\n";
    std::printf("  wrote %s\n", path.c_str());
  }
  return spans.size();
}

void Metrics::print(const char* title) const {
  std::printf("\n%s\n", title);
  for (const Metric& m : items_) {
    std::printf("  %-44s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : ("(" + m.note + ")").c_str());
  }
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const Metric& m = items_[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i ? ", \"" : "\"");
    json_escape(out, m.name);
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    json_escape(out, m.unit);
    out += "\"}";
  }
  return out + "}";
}

}  // namespace perf
