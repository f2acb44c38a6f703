// envelope.hpp — the typed message unit of the ASC <-> ASS transport.
//
// Every request the Active Storage Client sends a storage node — an active
// I/O (kernel offload) or a normal-I/O object read — travels as an
// Envelope and comes back as a Reply. The envelope carries the routing
// target (storage-node id), the per-request deadline, and the trace-span
// name the observability interceptor stamps on the wire, so cross-cutting
// concerns (retry, fault injection, byte charging, tracing) can act on the
// message without knowing which layer produced it.
//
// The payload is deliberately a set of plain members rather than a
// variant: exactly three operations cross this boundary today (paper
// Fig. 3: active I/O and the unmodified PFS read/write path), and call
// sites switch on `kind` the same way the server switches on the wire
// opcode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"
#include "server/messages.hpp"

namespace dosas::rpc {

/// Which operation an envelope carries.
enum class OpKind {
  kActiveIo,  ///< run a kernel server-side (ActiveIoRequest -> ActiveIoResponse)
  kRead,      ///< normal I/O: read a server-local object extent
  kWrite,     ///< normal I/O: write a server-local object extent
};

const char* op_kind_name(OpKind k);

/// Normal-I/O read of one contiguous extent of the target server's object.
struct ReadRequest {
  pfs::FileHandle handle = 0;
  Bytes object_offset = 0;
  Bytes length = 0;
};

/// Reply payload for OpKind::kRead. `data` is a ref-counted view of the
/// PFS data server's object version — copying the reply (retry
/// layers, multi-waiter delivery) shares the slab instead of duplicating
/// the extent. TokenBucket byte charging reads data.size() exactly once
/// per completed RPC regardless of how many refs exist.
struct ReadResponse {
  Status status;    ///< OK iff `data` is valid
  BufferRef data;   ///< may be short / empty at object end
};

/// Normal-I/O write of one contiguous extent of the target server's
/// object. `data` is a ref-counted view of the caller's buffer (usually a
/// slice of one slab covering the whole striped write), so the fan-out to
/// N servers shares the payload instead of cutting N owning copies. The
/// bytes are copied exactly once, by the data server's terminal store.
struct WriteRequest {
  pfs::FileHandle handle = 0;
  Bytes object_offset = 0;
  BufferRef data;
};

/// Reply payload for OpKind::kWrite.
struct WriteResponse {
  Status status;       ///< OK iff the extent was stored
  Bytes written = 0;   ///< bytes accepted (== request data.size() on OK)
};

/// One request on the wire.
struct Envelope {
  std::uint64_t rpc_id = 0;   ///< assigned by the transport at submission
  std::uint32_t target = 0;   ///< storage-node id
  OpKind kind = OpKind::kActiveIo;
  server::ActiveIoRequest active;  ///< kActiveIo payload
  ReadRequest read;                ///< kRead payload
  WriteRequest write;              ///< kWrite payload
  /// Per-request deadline in seconds (0 = none). Enforced by the
  /// transport: an unanswered request is cancelled server-side and fails
  /// kTimedOut, whether the caller is blocked in wait() or purely async.
  Seconds deadline = 0;
  /// Trace-span name; the observability interceptor fills a default
  /// ("rpc.active.s<target>") when empty. Every envelope gets a span.
  std::string span;
  /// Causal trace context. The client stamps a per-leg context before
  /// submission (the observability interceptor allocates a root when the
  /// caller didn't), and the transport copies it into the server-side
  /// request so every span a request produces joins one tree.
  obs::TraceContext trace;
  /// clock().now() when the caller handed the envelope to the outermost
  /// transport layer (negative = unknown; a VirtualClock legitimately
  /// starts at 0). The server-side admission path uses it for the
  /// stage.transport_us histogram.
  Seconds submitted_at = -1;
};

/// One response. `kind` mirrors the envelope.
struct Reply {
  OpKind kind = OpKind::kActiveIo;
  server::ActiveIoResponse active;  ///< kActiveIo payload
  ReadResponse read;                ///< kRead payload
  WriteResponse write;              ///< kWrite payload

  /// The failure/OK status regardless of kind (kActiveIo: the response
  /// status; kRead/kWrite: the operation status).
  const Status& status() const {
    switch (kind) {
      case OpKind::kActiveIo: return active.status;
      case OpKind::kRead: return read.status;
      case OpKind::kWrite: return write.status;
    }
    return active.status;
  }
};

/// A typed failure reply for `kind` (kActiveIo -> ActiveOutcome::kFailed).
Reply failure_reply(OpKind kind, Status status);

}  // namespace dosas::rpc
