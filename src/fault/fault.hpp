// fault.hpp — deterministic, seed-driven fault injection for the real
// runtime (the chaos layer the recovery machinery is tested against).
//
// The paper's claim (§III-E, Figs. 7–9) is that DOSAS degrades gracefully
// under pressure; resilient-staging follow-ups treat storage-node failure
// and slow-node stragglers as the common case. This library makes those
// faults injectable on demand so tests and benches can *prove* recovery
// ("N faults injected, N recovered, 0 lost requests") instead of asserting
// it:
//
//   * read faults        — a PFS data server's read_object fails kUnavailable
//                          (transient brownout / I/O timeout under load);
//   * kernel throws      — a storage-side kernel throws mid-stream (the bug
//                          class that used to std::terminate the node);
//   * checkpoint corruption — a shipped checkpoint payload is garbled in
//                          flight (detected by the Checkpoint checksum);
//   * network errors     — an active RPC is lost before reaching the server
//                          (client sees kUnavailable, retries with backoff);
//   * stragglers         — a storage node stalls between kernel chunks
//                          (wall-clock; what per-request timeouts catch);
//   * node crashes       — a storage node's *active* runtime goes down, at
//                          once or after serving N kernels; the PFS daemon
//                          keeps serving normal I/O, so clients demote to
//                          local compute (the paper's TS path) and recover.
//
// Every decision draws from a per-(site, node) stream derived purely from
// one seed, so each node's decision sequence is exactly repeatable even
// when many worker threads interleave their draws; every injected fault is
// counted once, in Stats, and recorded as a flight-recorder event.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace dosas::fault {

/// What to inject, parsed from a --fault-spec string:
///
///   "seed=7,read_fault=0.05,kernel_throw=0.1,corrupt_ckpt=1,
///    net_error=0.2,stall=0.5,stall_ms=20,crash=1@5,crash=2"
///
/// Probabilities are per decision site (per chunk read, per kernel launch,
/// per shipped checkpoint, per RPC, per chunk boundary). `crash=N@K` takes
/// node N's active runtime down after it has *started* K kernels; `crash=N`
/// crashes it from the outset.
struct FaultSpec {
  std::uint64_t seed = 2012;
  double read_fault = 0.0;      ///< P(data-server read fails kUnavailable)
  double kernel_throw = 0.0;    ///< P(kernel throws, per launch)
  double corrupt_ckpt = 0.0;    ///< P(shipped checkpoint garbled)
  double net_error = 0.0;       ///< P(active RPC lost, per attempt)
  double stall = 0.0;           ///< P(straggler stall, per kernel chunk)
  Seconds stall_delay = 0.0;    ///< stall length (really slept; keep small)

  struct Crash {
    std::uint32_t node = 0;
    std::uint64_t after_kernels = 0;  ///< 0 = down from the start
  };
  std::vector<Crash> crashes;

  bool any() const {
    return read_fault > 0 || kernel_throw > 0 || corrupt_ckpt > 0 ||
           net_error > 0 || stall > 0 || !crashes.empty();
  }

  static Result<FaultSpec> parse(const std::string& text);
  std::string to_string() const;
};

/// Thread-safe injection oracle shared by the PFS data servers, the storage
/// servers' kernel paths, and the client's RPC path.
class FaultInjector {
 public:
  struct Stats {
    std::uint64_t read_faults = 0;
    std::uint64_t kernel_throws = 0;
    std::uint64_t checkpoints_corrupted = 0;
    std::uint64_t net_errors = 0;
    std::uint64_t stalls = 0;
    std::uint64_t crash_rejections = 0;  ///< requests refused by a down node

    std::uint64_t total() const {
      return read_faults + kernel_throws + checkpoints_corrupted + net_errors +
             stalls + crash_rejections;
    }
  };

  explicit FaultInjector(FaultSpec spec);

  const FaultSpec& spec() const { return spec_; }

  /// PFS data server `server`: should this read_object call fail?
  bool inject_read_fault(std::uint32_t server);

  /// Storage server `node`: should this kernel launch throw mid-stream?
  bool inject_kernel_throw(std::uint32_t node);

  /// Garble `payload` in place (size-preserving). Returns true if corrupted.
  bool inject_checkpoint_corruption(std::vector<std::uint8_t>& payload);

  /// Client RPC path: is this request/response lost in the network?
  bool inject_net_error();

  /// Straggler on `node`: stall to insert before the next kernel chunk
  /// (0 = none).
  Seconds inject_stall(std::uint32_t node);

  /// Called by a storage server when it *starts* a kernel; arms crash=N@K.
  void note_kernel_start(std::uint32_t node);

  /// Manual crash control (tests; also used by crash=N@K internally).
  void crash_node(std::uint32_t node);
  void restore_node(std::uint32_t node);

  /// Is node's active runtime down? Counts a crash_rejection when
  /// `count_rejection` (the serve path passes true; probes pass false).
  bool node_crashed(std::uint32_t node, bool count_rejection = false);

  Stats stats() const;

 private:
  bool draw(Rng& rng, double p);

  /// Per-(site, node) decision stream, derived purely from the seed and
  /// the coordinates — NOT from fork order — so each node's sequence is
  /// reproducible no matter how draws interleave across worker threads.
  Rng& node_stream_locked(int site, std::uint32_t node);

  const FaultSpec spec_;
  mutable std::mutex mu_;
  Rng corrupt_rng_, net_rng_;
  std::map<std::pair<int, std::uint32_t>, Rng> node_rngs_;
  std::vector<std::uint32_t> crashed_nodes_;
  std::vector<FaultSpec::Crash> pending_crashes_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> kernel_starts_;
  Stats stats_;
};

}  // namespace dosas::fault
