// arena.hpp — slab/arena extent-buffer allocator and ref-counted views.
//
// Before this existed, an extent payload was copied at every layer
// boundary: pfs/data_server copied the object bytes into a fresh vector,
// rpc::Envelope copied it into the reply, the server queue copied it
// again, and stream_extent handed kernels yet another copy. The arena
// inverts that: the PFS data server keeps each object's bytes as a
// version in an arena slab, a read hands out a BufferRef view of that
// version without copying, and the view flows by reference through
// rpc → server → kernels → client with zero owning copies. A write
// that would change bytes a view can still see copies the object into
// a fresh slab instead (copy-on-write; pfs/data_server.hpp).
//
//   * BufferArena keeps per-size-class free lists of slabs (power-of-two
//     classes, 4 KiB minimum, up to kMaxPooledSlabBytes) so steady-state
//     version churn recycles buffers instead of hitting the allocator;
//     larger slabs are freed on release, so unlinking big objects gives
//     their memory back;
//   * BufferRef is a cheap ref-counted view (keepalive + pointer/length);
//     slicing shares the storage. When the last owner of a slab drops,
//     the slab returns to its arena's free list — or is simply freed if
//     the arena (and the server that owned it) is already gone, so a
//     BufferRef safely outlives its server;
//   * every remaining owning copy on the data path is accounted into the
//     process-wide data-bytes-copied ledger (note_bytes_copied), whose
//     per-request delta the benches assert trends to ~0 on the hot path.
//
// The arena's free-list lock uses the Snippet-1 trylock probe (fast vs
// contended counts). Stats are schedule-dependent and therefore exposed
// only as snapshots (BufferArena::Stats); they never enter the metrics
// registry, so DST fingerprints stay bit-identical.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dosas {

/// Where an owning copy happened, for the per-site breakdown of the
/// data-bytes-copied ledger. A site is a *class* of call site, not a code
/// location: the ledger's job is to say which mechanism still copies, so
/// a regression report reads "gather" or "fan-out", not a line number.
enum class CopySite : std::uint8_t {
  kToVector,     // BufferRef::to_vector() escape hatch
  kReadGather,   // multi-segment read reassembly (pfs client / ASC)
  kWaiterFanout, // coalesced active result fanned out to extra waiters
  kKernelStage,  // kernel staged a misaligned extent through scratch
  kOther,        // uncategorized, incl. bytes a copy-on-write carries over
  kCount,
};

inline const char* copy_site_name(CopySite site) {
  switch (site) {
    case CopySite::kToVector: return "to_vector";
    case CopySite::kReadGather: return "read_gather";
    case CopySite::kWaiterFanout: return "waiter_fanout";
    case CopySite::kKernelStage: return "kernel_stage";
    case CopySite::kOther: return "other";
    case CopySite::kCount: break;
  }
  return "?";
}

/// Process-wide ledger of owning data copies on the extent path. Relaxed
/// monotone counters; benches, tests and `dosas_ctl runtime` read them
/// (data_bytes_copied) directly, as deltas around a measured phase.
struct CopyLedger {
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> by_site[static_cast<std::size_t>(CopySite::kCount)]{};
};

inline CopyLedger& copy_ledger() {
  static CopyLedger ledger;
  return ledger;
}

inline void note_bytes_copied(std::size_t n, CopySite site = CopySite::kOther) {
  auto& ledger = copy_ledger();
  ledger.total.fetch_add(n, std::memory_order_relaxed);
  ledger.by_site[static_cast<std::size_t>(site)].fetch_add(
      n, std::memory_order_relaxed);
}

inline std::uint64_t data_bytes_copied() {
  return copy_ledger().total.load(std::memory_order_relaxed);
}

inline std::uint64_t data_bytes_copied(CopySite site) {
  return copy_ledger()
      .by_site[static_cast<std::size_t>(site)]
      .load(std::memory_order_relaxed);
}

/// Immutable, ref-counted view of extent bytes: a (pointer, size) pair
/// plus a type-erased keepalive that pins whatever owns the storage — an
/// arena slab, an adopted vector, or nothing at all for borrow()ed spans.
/// Copying/slicing a BufferRef shares the storage; only to_vector()
/// materializes an owning copy (and charges the bytes-copied ledger).
class BufferRef {
 public:
  BufferRef() = default;

  /// Wrap an already-owned vector without copying (one move). Used where
  /// bytes are produced locally (e.g. a client-side PFS read feeding a
  /// local kernel, a finalized kernel result) and only need to cross an
  /// rpc/cache boundary.
  static BufferRef adopt(std::vector<std::uint8_t> bytes) {
    auto owner =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
    return view(owner, *owner);
  }

  /// View `bytes`, which `keepalive` keeps alive for as long as any copy
  /// of the returned ref (or a slice of it) exists. No copy; this is how
  /// the data server hands out views of an arena-held object version.
  static BufferRef view(std::shared_ptr<const void> keepalive,
                        std::span<const std::uint8_t> bytes) {
    BufferRef ref;
    ref.data_ = bytes.data();
    ref.size_ = bytes.size();
    ref.keepalive_ = std::move(keepalive);
    return ref;
  }

  /// Wrap caller-owned bytes WITHOUT taking a reference. The caller
  /// guarantees the bytes outlive every copy of the returned ref — use
  /// only for synchronous call chains (e.g. handing a client's write
  /// payload down a blocking submit), never for anything queued.
  static BufferRef borrow(std::span<const std::uint8_t> bytes) {
    return view(nullptr, bytes);
  }

  std::span<const std::uint8_t> span() const {
    return std::span<const std::uint8_t>(data_, size_);
  }

  /// A BufferRef reads as a span anywhere one is expected (kernel
  /// consume/merge/decode, serializers), so result payloads can change
  /// type without touching every consumer.
  operator std::span<const std::uint8_t>() const { return span(); }

  const std::uint8_t* data() const { return data_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  auto begin() const { return span().begin(); }
  auto end() const { return span().end(); }

  /// Materialize an owning copy. This is the escape hatch for cold paths
  /// (tests, legacy callers) — it charges the data-bytes-copied ledger.
  std::vector<std::uint8_t> to_vector() const {
    note_bytes_copied(size_, CopySite::kToVector);
    const auto s = span();
    return std::vector<std::uint8_t>(s.begin(), s.end());
  }

  /// Content equality (no copy, no ledger charge).
  friend bool operator==(const BufferRef& a, const BufferRef& b) {
    const auto sa = a.span();
    const auto sb = b.span();
    return std::equal(sa.begin(), sa.end(), sb.begin(), sb.end());
  }
  friend bool operator==(const BufferRef& a,
                         const std::vector<std::uint8_t>& b) {
    const auto sa = a.span();
    return std::equal(sa.begin(), sa.end(), b.begin(), b.end());
  }
  friend bool operator==(const std::vector<std::uint8_t>& a,
                         const BufferRef& b) {
    return b == a;
  }

  /// Shared sub-view [offset, offset+length) clamped to this ref's size.
  BufferRef slice(std::size_t offset, std::size_t length) const {
    BufferRef ref;
    if (offset >= size_) return ref;
    ref.data_ = data_ + offset;
    ref.size_ = std::min(length, size_ - offset);
    ref.keepalive_ = keepalive_;
    return ref;
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::shared_ptr<const void> keepalive_;
};

/// BufferArena construction options (namespace-scope so it is complete
/// where a constructor default argument uses it).
struct BufferArenaOptions {
  std::size_t min_slab_bytes = 4096;     // smallest size class
  std::size_t max_free_per_class = 32;   // recycle-list depth bound
};

/// Slab allocator with per-size-class recycling. Thread-safe. Releases
/// may arrive from any thread at any time — including after the arena
/// itself is destroyed (the slab deleter holds only a weak_ptr to the
/// arena state, so late releases degrade to a plain free).
class BufferArena {
 public:
  using Options = BufferArenaOptions;

  /// Largest size class that is pooled. Versions of objects up to 1 MiB
  /// are the ones overwrites churn, and they recycle. Larger slabs are
  /// growth steps of big objects or versions dropped by an unlink, which
  /// nothing reuses soon, so they are freed on release. Pooled memory per
  /// arena is therefore at most
  /// max_free_per_class × (2 × kMaxPooledSlabBytes − min_slab_bytes),
  /// about 64 MiB with the default options.
  static constexpr std::size_t kMaxPooledSlabBytes = std::size_t{1} << 20;

  /// A checked-out slab: an empty vector whose capacity covers its size
  /// class. The holder writes into it — never past capacity(), or the
  /// vector would reallocate outside the arena — and shares it like any
  /// shared_ptr; when the last owner drops, the slab returns to the free
  /// list.
  using Slab = std::shared_ptr<std::vector<std::uint8_t>>;

  struct Stats {
    std::uint64_t slabs_created = 0;    // allocator hits
    std::uint64_t slabs_recycled = 0;   // acquires served from the free list
    std::uint64_t slabs_returned = 0;   // releases that re-entered a list
    std::uint64_t slabs_in_use = 0;     // gauge: checked-out slabs
    std::uint64_t slabs_free = 0;       // gauge: pooled slabs
    std::uint64_t bytes_in_use = 0;     // gauge: size-class bytes checked out
    std::uint64_t lock_fast = 0;        // free-list trylock probe
    std::uint64_t lock_contended = 0;
  };

  explicit BufferArena(Options opts = {})
      : state_(std::make_shared<State>(opts)) {}

  /// Check out an empty slab with room for `bytes` bytes: a pooled slab
  /// of the matching size class when one is free, else a fresh
  /// allocation. Checking out copies nothing; the bytes the holder
  /// writes are its own business (and, if they duplicate bytes that
  /// already exist elsewhere, its own ledger charge).
  Slab acquire(std::size_t bytes) {
    State& st = *state_;
    const std::size_t cls = size_class(st.opts.min_slab_bytes, bytes);
    std::unique_ptr<std::vector<std::uint8_t>> slab;
    {
      ProbedLock lock(st);
      auto& pool = st.free[cls];
      if (!pool.empty()) {
        slab = std::move(pool.back());
        pool.pop_back();
        st.slabs_free--;
        st.slabs_recycled++;
      } else {
        st.slabs_created++;
      }
      st.slabs_in_use++;
      st.bytes_in_use += cls;
    }
    if (!slab) {
      slab = std::make_unique<std::vector<std::uint8_t>>();
      slab->reserve(cls);
    }
    std::weak_ptr<State> weak = state_;
    return Slab(slab.release(), [weak, cls](std::vector<std::uint8_t>* v) {
      release_slab(weak, cls, v);
    });
  }

  Stats stats() const {
    State& st = *state_;
    std::lock_guard lock(st.mu);
    Stats s;
    s.slabs_created = st.slabs_created;
    s.slabs_recycled = st.slabs_recycled;
    s.slabs_returned = st.slabs_returned;
    s.slabs_in_use = st.slabs_in_use;
    s.slabs_free = st.slabs_free;
    s.bytes_in_use = st.bytes_in_use;
    s.lock_fast = st.lock_fast.load(std::memory_order_relaxed);
    s.lock_contended = st.lock_contended.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct State {
    explicit State(Options o) : opts(o) {}
    const Options opts;
    std::mutex mu;
    std::unordered_map<std::size_t,
                       std::vector<std::unique_ptr<std::vector<std::uint8_t>>>>
        free;
    std::uint64_t slabs_created = 0;
    std::uint64_t slabs_recycled = 0;
    std::uint64_t slabs_returned = 0;
    std::uint64_t slabs_in_use = 0;
    std::uint64_t slabs_free = 0;
    std::uint64_t bytes_in_use = 0;
    std::atomic<std::uint64_t> lock_fast{0};
    std::atomic<std::uint64_t> lock_contended{0};
  };

  /// Snippet-1 trylock probe: count uncontended vs contended acquires.
  struct ProbedLock {
    explicit ProbedLock(State& st) : mu(st.mu) {
      if (mu.try_lock()) {
        st.lock_fast.fetch_add(1, std::memory_order_relaxed);
      } else {
        st.lock_contended.fetch_add(1, std::memory_order_relaxed);
        mu.lock();
      }
    }
    ~ProbedLock() { mu.unlock(); }
    std::mutex& mu;
  };

  static std::size_t size_class(std::size_t min_slab, std::size_t n) {
    std::size_t cls = min_slab;
    while (cls < n) cls <<= 1;
    return cls;
  }

  static void release_slab(const std::weak_ptr<State>& weak, std::size_t cls,
                           std::vector<std::uint8_t>* v) {
    std::unique_ptr<std::vector<std::uint8_t>> slab(v);
    auto st = weak.lock();
    if (!st) return;  // arena/server already gone: plain free
    ProbedLock lock(*st);
    st->slabs_in_use--;
    st->bytes_in_use -= cls;
    if (cls > kMaxPooledSlabBytes) return;
    auto& pool = st->free[cls];
    if (pool.size() < st->opts.max_free_per_class) {
      slab->clear();
      pool.push_back(std::move(slab));
      st->slabs_free++;
      st->slabs_returned++;
    }
  }

  std::shared_ptr<State> state_;
};

}  // namespace dosas
