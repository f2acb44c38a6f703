// data_server.hpp — a PFS data server's object store.
//
// Each data server owns one "datafile" object per file handle (as PVFS2
// does) and serves byte-extent reads/writes against it. The store is
// in-memory; I/O counters feed the contention estimator and the metrics
// layer. Thread-safe: the real runtime hits a data server from several
// compute-node client threads at once.
//
// An object's bytes live in a *version*: one slab from the server's
// BufferArena. A read returns a BufferRef view of the current version —
// no copy — and the view pins that version. A write changes the version
// in place only when no view of it is outstanding and the result fits
// the slab; otherwise it copies on write into a fresh slab and swaps
// that in, so every view keeps seeing the bytes it was handed until it
// drops. The old slab then returns to the pool, or to the allocator
// when it is above the arena's pooled size cap (as big objects are).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"
#include "pfs/layout.hpp"

namespace dosas::pfs {

/// Opaque file identifier handed out by the metadata server.
using FileHandle = std::uint64_t;

class DataServer {
 public:
  explicit DataServer(ServerId id) : id_(id) {}

  ServerId id() const { return id_; }

  /// Fault injection (tests/failure drills): the next `count` read_object
  /// calls fail with kUnavailable, then service recovers. Models a
  /// transient data-server brownout (I/O timeouts under load).
  void fail_next_reads(std::size_t count);

  /// Reads injected-failed so far (monotonic; both fail_next_reads and the
  /// probabilistic injector count here).
  std::size_t injected_failures() const;

  /// Attach a (usually cluster-shared) probabilistic fault injector: each
  /// read_object call may fail kUnavailable per its read_fault rate. Pass
  /// nullptr to detach.
  void set_fault_injector(std::shared_ptr<fault::FaultInjector> fi);

  /// Write `data` at `offset` within the object for `fh`, growing it
  /// (zero-filled) as needed. In place when no view of the current
  /// version is outstanding and the result fits its slab; otherwise a
  /// copy-on-write into a fresh slab, whose carried-over old bytes are
  /// charged to the ledger's `other` site (a whole-object overwrite
  /// carries none).
  Status write_object(FileHandle fh, Bytes offset, std::span<const std::uint8_t> data);

  /// Read up to `length` bytes at `offset`; reads past the object end are
  /// truncated (short read), reads entirely past it return empty.
  ///
  /// read_object_ref is the hot path: the returned BufferRef is a view of
  /// the object's current version — nothing is copied — and flows by
  /// reference through rpc → server → kernels → client; later writes
  /// never change the bytes it shows. read_object is the legacy owning
  /// form for cold callers; it materializes a vector from the view (and
  /// that copy lands in the data-bytes-copied ledger).
  Result<BufferRef> read_object_ref(FileHandle fh, Bytes offset, Bytes length) const;
  Result<std::vector<std::uint8_t>> read_object(FileHandle fh, Bytes offset, Bytes length) const;

  /// Slab/recycle counters for this server's arena: one slab per object
  /// version (live, or still pinned by a view).
  BufferArena::Stats arena_stats() const { return arena_.stats(); }

  /// Current size of the object (0 if absent).
  Bytes object_size(FileHandle fh) const;

  /// Monotonic per-object mutation counter: bumped by every write_object
  /// and remove_object. Lets caches of derived results (the ASS's active
  /// result cache) validate entries cheaply. 0 for never-written objects.
  std::uint64_t object_version(FileHandle fh) const;

  /// Drop the object for `fh`. OK even if absent.
  Status remove_object(FileHandle fh);

  bool has_object(FileHandle fh) const;
  std::size_t object_count() const;

  /// Cumulative served bytes (monotonic; used for utilization probes).
  Bytes bytes_read() const;
  Bytes bytes_written() const;

 private:
  /// One version of an object's bytes. `views` counts the read_object_ref
  /// results still pinning it; each drops with a release decrement, and
  /// the writer's in-place check is the acquire load that pairs with it,
  /// so a reader's last access happens-before any in-place write.
  struct Version {
    BufferArena::Slab bytes;
    std::atomic<std::uint64_t> views{0};
  };
  struct View;

  const ServerId id_;
  mutable std::mutex mu_;
  BufferArena arena_;  // version slabs
  std::unordered_map<FileHandle, std::shared_ptr<Version>> objects_;
  mutable Bytes bytes_read_ = 0;  // served-bytes counter bumped on (const) reads
  Bytes bytes_written_ = 0;
  mutable std::size_t fail_reads_ = 0;       // remaining injected read failures
  mutable std::size_t injected_failures_ = 0;
  std::shared_ptr<fault::FaultInjector> faults_;
  std::unordered_map<FileHandle, std::uint64_t> versions_;
};

}  // namespace dosas::pfs
