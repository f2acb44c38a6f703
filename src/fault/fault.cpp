#include "fault/fault.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "obs/flight_recorder.hpp"

namespace dosas::fault {

namespace {

// Site ids for the per-(site, node) decision streams.
constexpr int kSiteRead = 1;
constexpr int kSiteThrow = 2;
constexpr int kSiteStall = 3;

Result<double> parse_prob(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    return error(ErrorCode::kInvalidArgument,
                 "fault spec: " + key + "=" + value + " is not a probability in [0,1]");
  }
  return p;
}

}  // namespace

Result<FaultSpec> FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      return error(ErrorCode::kInvalidArgument, "fault spec: '" + item + "' is not key=value");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      spec.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "read_fault" || key == "kernel_throw" || key == "corrupt_ckpt" ||
               key == "net_error" || key == "stall") {
      auto p = parse_prob(key, value);
      if (!p.is_ok()) return p.status();
      if (key == "read_fault") spec.read_fault = p.value();
      if (key == "kernel_throw") spec.kernel_throw = p.value();
      if (key == "corrupt_ckpt") spec.corrupt_ckpt = p.value();
      if (key == "net_error") spec.net_error = p.value();
      if (key == "stall") spec.stall = p.value();
    } else if (key == "stall_ms") {
      spec.stall_delay = std::strtod(value.c_str(), nullptr) / 1000.0;
    } else if (key == "crash") {
      Crash c;
      const auto at = value.find('@');
      c.node = static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
      if (at != std::string::npos) {
        c.after_kernels = std::strtoull(value.c_str() + at + 1, nullptr, 10);
      }
      spec.crashes.push_back(c);
    } else {
      return error(ErrorCode::kInvalidArgument, "fault spec: unknown key '" + key + "'");
    }
  }
  return spec;
}

std::string FaultSpec::to_string() const {
  std::ostringstream out;
  out << "seed=" << seed;
  if (read_fault > 0) out << ",read_fault=" << read_fault;
  if (kernel_throw > 0) out << ",kernel_throw=" << kernel_throw;
  if (corrupt_ckpt > 0) out << ",corrupt_ckpt=" << corrupt_ckpt;
  if (net_error > 0) out << ",net_error=" << net_error;
  if (stall > 0) out << ",stall=" << stall << ",stall_ms=" << stall_delay * 1000.0;
  for (const auto& c : crashes) {
    out << ",crash=" << c.node;
    if (c.after_kernels > 0) out << "@" << c.after_kernels;
  }
  return out.str();
}

FaultInjector::FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {
  // Independent stream per fault kind: the decision sequence at one site
  // does not shift when another site's call count changes.
  Rng root(spec_.seed);
  corrupt_rng_ = root.fork();
  net_rng_ = root.fork();
  for (const auto& c : spec_.crashes) {
    if (c.after_kernels == 0) {
      crashed_nodes_.push_back(c.node);
    } else {
      pending_crashes_.push_back(c);
    }
  }
}

bool FaultInjector::draw(Rng& rng, double p) {
  return p > 0.0 && rng.chance(p);
}

Rng& FaultInjector::node_stream_locked(int site, std::uint32_t node) {
  const auto key = std::make_pair(site, node);
  auto it = node_rngs_.find(key);
  if (it == node_rngs_.end()) {
    // Seed derived from (root seed, site, node) only — creation order
    // across threads cannot shift any stream.
    const std::uint64_t derived =
        spec_.seed ^ (0x9E3779B97F4A7C15ULL *
                      (static_cast<std::uint64_t>(site) * 1000003ULL + node + 1ULL));
    it = node_rngs_.emplace(key, Rng(derived)).first;
  }
  return it->second;
}

bool FaultInjector::inject_read_fault(std::uint32_t server) {
  std::lock_guard lock(mu_);
  if (!draw(node_stream_locked(kSiteRead, server), spec_.read_fault)) return false;
  ++stats_.read_faults;
  obs::flight_record(obs::FlightEventKind::kFaultInjected, 0, server, 0, "read fault");
  return true;
}

bool FaultInjector::inject_kernel_throw(std::uint32_t node) {
  std::lock_guard lock(mu_);
  if (!draw(node_stream_locked(kSiteThrow, node), spec_.kernel_throw)) return false;
  ++stats_.kernel_throws;
  obs::flight_record(obs::FlightEventKind::kFaultInjected, 0, node, 0, "kernel throw");
  return true;
}

bool FaultInjector::inject_checkpoint_corruption(std::vector<std::uint8_t>& payload) {
  std::lock_guard lock(mu_);
  if (payload.empty() || !draw(corrupt_rng_, spec_.corrupt_ckpt)) return false;
  // Size-preserving garble: flip a handful of bytes spread over the
  // payload. The Checkpoint checksum must catch this downstream.
  const std::size_t flips = std::max<std::size_t>(1, payload.size() / 64);
  for (std::size_t i = 0; i < flips; ++i) {
    payload[corrupt_rng_.uniform_index(payload.size())] ^= 0xA5;
  }
  ++stats_.checkpoints_corrupted;
  obs::flight_record(obs::FlightEventKind::kFaultInjected, 0, 0, payload.size(),
                     "checkpoint corrupted");
  return true;
}

bool FaultInjector::inject_net_error() {
  std::lock_guard lock(mu_);
  if (!draw(net_rng_, spec_.net_error)) return false;
  ++stats_.net_errors;
  obs::flight_record(obs::FlightEventKind::kFaultInjected, 0, 0, 0, "net error");
  return true;
}

Seconds FaultInjector::inject_stall(std::uint32_t node) {
  std::lock_guard lock(mu_);
  if (spec_.stall_delay <= 0.0 || !draw(node_stream_locked(kSiteStall, node), spec_.stall)) {
    return 0.0;
  }
  ++stats_.stalls;
  obs::flight_record(obs::FlightEventKind::kFaultInjected, 0, node, 0, "stall");
  return spec_.stall_delay;
}

void FaultInjector::note_kernel_start(std::uint32_t node) {
  std::lock_guard lock(mu_);
  auto it = std::find_if(kernel_starts_.begin(), kernel_starts_.end(),
                         [&](const auto& kv) { return kv.first == node; });
  if (it == kernel_starts_.end()) {
    kernel_starts_.emplace_back(node, 1);
    it = kernel_starts_.end() - 1;
  } else {
    ++it->second;
  }
  for (const auto& c : pending_crashes_) {
    if (c.node == node && it->second >= c.after_kernels &&
        std::find(crashed_nodes_.begin(), crashed_nodes_.end(), node) ==
            crashed_nodes_.end()) {
      crashed_nodes_.push_back(node);
      obs::flight_record(obs::FlightEventKind::kFaultInjected, 0, node, it->second,
                         "node crashed (armed)");
      obs::FlightRecorder::global().trigger_dump(
          "injected crash of node " + std::to_string(node));
    }
  }
}

void FaultInjector::crash_node(std::uint32_t node) {
  std::lock_guard lock(mu_);
  if (std::find(crashed_nodes_.begin(), crashed_nodes_.end(), node) ==
      crashed_nodes_.end()) {
    crashed_nodes_.push_back(node);
    obs::flight_record(obs::FlightEventKind::kFaultInjected, 0, node, 0, "node crashed");
    obs::FlightRecorder::global().trigger_dump("injected crash of node " +
                                               std::to_string(node));
  }
}

void FaultInjector::restore_node(std::uint32_t node) {
  std::lock_guard lock(mu_);
  crashed_nodes_.erase(std::remove(crashed_nodes_.begin(), crashed_nodes_.end(), node),
                       crashed_nodes_.end());
}

bool FaultInjector::node_crashed(std::uint32_t node, bool count_rejection) {
  std::lock_guard lock(mu_);
  const bool down = std::find(crashed_nodes_.begin(), crashed_nodes_.end(), node) !=
                    crashed_nodes_.end();
  if (down && count_rejection) ++stats_.crash_rejections;
  return down;
}

FaultInjector::Stats FaultInjector::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace dosas::fault
