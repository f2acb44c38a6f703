// messages.hpp — the active-I/O request/response protocol between the
// Active Storage Client and the Active Storage Server.
//
// Mirrors the paper's Table I semantics: the response's `outcome` plays the
// role of the `completed` flag in `struct result`; an interrupted response
// carries the kernel checkpoint (the paper's variable dump) plus the object
// offset at which processing stopped (the paper's `long offset`), so the
// ASC can resume without re-reading what the server already processed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"
#include "pfs/data_server.hpp"
#include "sched/request.hpp"

namespace dosas::server {

struct ActiveIoRequest {
  sched::RequestId id = 0;        ///< 0 = let the server assign one
  pfs::FileHandle handle = 0;
  Bytes object_offset = 0;        ///< start within this server's object
  Bytes length = 0;               ///< bytes of the object to process
  std::string operation;          ///< kernel operation string

  /// Cooperative resumption (extension): a checkpoint from a previously
  /// interrupted run of this extent. The server restores it and continues
  /// from `resume_from` instead of starting over — the reverse direction
  /// of the paper's storage->client migration.
  std::vector<std::uint8_t> resume_checkpoint;
  Bytes resume_from = 0;  ///< object offset to continue from (with checkpoint)

  /// Causal trace context carried over from the rpc envelope, so the
  /// server-side queue/kernel spans join the client's request tree.
  obs::TraceContext trace;
  /// Envelope submission time (clock().now() seconds, negative = unknown)
  /// — feeds the server's stage.transport_us histogram.
  Seconds submitted_at = -1;

  bool is_resumption() const { return !resume_checkpoint.empty(); }
};

enum class ActiveOutcome {
  kCompleted,    ///< kernel ran to completion; `result` holds the payload
  kRejected,     ///< demoted at arrival; client must do normal I/O + local kernel
  kInterrupted,  ///< kernel interrupted mid-run; `checkpoint` + `resume_offset` set
  kFailed,       ///< server-side error; see `status`
};

const char* outcome_name(ActiveOutcome o);

struct ActiveIoResponse {
  ActiveOutcome outcome = ActiveOutcome::kFailed;
  /// kCompleted: encoded kernel result, as a ref-counted view of the slab
  /// the server finalized into. Copying the response (coalesced-waiter
  /// fan-out, retry layers, the result cache) shares the slab; decode call
  /// sites consume it through BufferRef's span conversion.
  BufferRef result;
  std::vector<std::uint8_t> checkpoint;  ///< kInterrupted: encoded Checkpoint
  Bytes resume_offset = 0;               ///< kInterrupted: object offset to continue from
  Status status;                         ///< kFailed: the error
};

}  // namespace dosas::server
