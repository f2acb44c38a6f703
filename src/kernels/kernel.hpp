// kernel.hpp — the Processing Kernel (PK) framework.
//
// Paper §III-E: PKs are "a collection of predefined analysis kernels that
// are widely used in data-intensive applications", deployed on BOTH storage
// nodes and compute nodes, and required to support interruption: on a
// terminating signal a kernel dumps its variables (<name, type, value>) so
// the peer side can resume it. That contract is this interface:
//
//   * streaming: data arrives in arbitrary chunk boundaries via consume();
//   * restartable: checkpoint() captures complete state, restore() resumes
//     on a *different* Kernel instance (e.g. client-side after a demotion).
//     Both run the one state declaration each kernel writes, fields()
//     (fields.hpp), so no restore trusts a checkpoint that does not fit;
//   * mergeable (optional): partial results from different stripes of a
//     striped file can be combined (the Piernas-style striped-file
//     extension the paper lists as related work).
//
// Kernels interpret input as a stream of little-endian doubles ("data
// items" in the paper's Table III) unless documented otherwise.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "kernels/fields.hpp"

namespace dosas::kernels {

class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Registry name, e.g. "sum", "gaussian2d".
  virtual std::string name() const = 0;

  /// Clear all state; the next consume() starts a fresh run.
  virtual void reset() = 0;

  /// Feed the next chunk of the input stream. Chunks may split items.
  virtual void consume(std::span<const std::uint8_t> chunk) = 0;

  /// Total bytes consumed since reset()/restore().
  virtual Bytes consumed() const = 0;

  /// Produce the encoded result for everything consumed so far. The kernel
  /// remains valid; finalize() is idempotent.
  virtual std::vector<std::uint8_t> finalize() const = 0;

  /// h(x) of the cost model: encoded result size for `input` bytes of data.
  virtual Bytes result_size(Bytes input) const = 0;

  /// Serialize complete execution state (paper's variable dump): the
  /// declared fields, under the kernel's name.
  Checkpoint checkpoint() const { return Fields::save(*this); }

  /// Adopt the state in `ck`; subsequent consume() calls continue the
  /// interrupted run. kInvalidArgument, with the kernel unchanged, unless
  /// every declared field fits (fields.hpp).
  Status restore(const Checkpoint& ck) { return Fields::load(*this, ck); }

  /// The kernel's state, declared once: config, counters, arrays, stages.
  virtual void fields(Fields& f) = 0;

  /// Whether partial results can be combined across stripes.
  virtual bool mergeable() const { return false; }

  /// Fold another instance's finalize() output into this kernel's state.
  /// Only valid when mergeable().
  virtual Status merge(std::span<const std::uint8_t> other_result) {
    (void)other_result;
    return error(ErrorCode::kInvalidArgument, name() + " is not mergeable");
  }

  /// Whether the kernel produces a byte STREAM as it consumes (a
  /// transformer usable as a non-final pipeline stage), as opposed to only
  /// an aggregate at finalize().
  virtual bool streams_output() const { return false; }

  /// Take the output bytes produced since the last drain (empty unless
  /// streams_output()). PipelineKernel pumps these into the next stage
  /// after every consume() call.
  virtual std::vector<std::uint8_t> drain_stream() { return {}; }
};

/// Base for kernels that process a stream of 8-byte doubles: handles items
/// split across chunk boundaries and the consumed-bytes counter; subclasses
/// implement process_items() over whole items.
class ItemwiseKernel : public Kernel {
 public:
  void reset() override {
    consumed_ = 0;
    carry_.clear();
    reset_state();
  }

  void consume(std::span<const std::uint8_t> chunk) override;

  Bytes consumed() const override { return consumed_; }

  /// The shared stream state; subclasses declare theirs after it.
  void fields(Fields& f) override {
    f.counter("itemwise.consumed", consumed_);
    f.array("itemwise.carry", carry_, {.max = sizeof(double) - 1});
  }

 protected:
  /// Subclass state hooks.
  virtual void reset_state() = 0;
  virtual void process_items(std::span<const double> items) = 0;

 private:
  Bytes consumed_ = 0;
  std::vector<std::uint8_t> carry_;  // a partial item's bytes
};

}  // namespace dosas::kernels
