// fields.hpp — the one checkpoint codec: each kernel declares its state
// once, in fields(Fields&), and Kernel::checkpoint() and restore() run that
// declaration in one of two directions.
//
// Paper §III-E's variable dump is a set of <name, type, value> records.
// Writing, each declared field becomes one record of the Checkpoint.
// Reading, every record is checked against the kernel before any field is
// assigned, so a checkpoint that does not fit the kernel — another
// kernel's, another configuration's, or one whose arrays would overrun the
// kernel's buffers — is refused with kInvalidArgument and leaves the
// kernel as it was. A record the kernel does not declare is refused too.
// The four kinds of field:
//
//   * config: an operation parameter (k, width, threshold, ...). Read, it
//     must equal the kernel's own value (f64 bit for bit); it is never
//     assigned.
//   * counter: an unsigned count, stored as i64 (negative is refused), or
//     an f64 accumulator (any value).
//   * array / bytes: a blob of whole elements whose count lies within a
//     Bound stated against config.
//   * stages: a pipeline's stage checkpoints, each checked as its own
//     kernel's before any stage is assigned.
//
// require() and commit() serve the state no field form fits (a row
// window's rows, a generator's words): a cross-field rule checked when
// reading, and an assignment run only once every check has passed.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/serialize.hpp"
#include "common/status.hpp"

namespace dosas::kernels {

class Kernel;

/// How many elements an array field (bytes, for bytes()) may hold: from
/// `min` to `max`, in whole multiples of `step`.
struct Bound {
  std::size_t min = 0;
  std::size_t max = SIZE_MAX;
  std::size_t step = 1;
};

class Fields {
 public:
  /// The kernel's declared fields, under its name.
  static Checkpoint save(const Kernel& kernel);
  /// Check every declared field of `ck` against `kernel`, then assign them
  /// all; on a refusal (kInvalidArgument) assign none.
  static Status load(Kernel& kernel, const Checkpoint& ck);

  bool reading() const { return in_ != nullptr; }

  void config(const char* name, std::uint64_t own);
  void config(const char* name, double own);
  void config(const char* name, std::string_view own);

  /// Each returns the value read (or, writing, the value written).
  std::uint64_t counter(const char* name, std::uint64_t& value);
  double counter(const char* name, double& value);

  template <class T>
  void array(const char* name, std::vector<T>& values, Bound count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
    const Bound size{count.min * sizeof(T),
                     count.max == SIZE_MAX ? SIZE_MAX : count.max * sizeof(T),
                     count.step * sizeof(T)};
    const auto raw = bytes(name, {p, values.size() * sizeof(T)}, size);
    commit([&values, raw] {
      values.resize(raw.size() / sizeof(T));
      if (!raw.empty()) std::memcpy(values.data(), raw.data(), raw.size());
    });
  }

  /// Returns the bytes read, which stay valid until the commits have run
  /// (or, writing, `now`).
  std::span<const std::uint8_t> bytes(const char* name, std::span<const std::uint8_t> now,
                                      Bound size);

  /// The blobs `stage0`, `stage1`, ...: one encoded checkpoint per stage.
  void stages(std::vector<std::unique_ptr<Kernel>>& stages);

  /// Reading: refuse the checkpoint unless `ok`. Writing: nothing.
  void require(bool ok, const char* what);
  /// Reading: run `assign` once every field has passed. Writing: nothing.
  void commit(std::function<void()> assign);

 private:
  Fields(Fields* root, Checkpoint* out, const Checkpoint* in, std::string kernel);
  void visit(Kernel& kernel);
  /// Reading: counts one declared field; refuses the checkpoint if absent.
  bool present(bool found, const char* name);
  void fail(const std::string& what);

  Fields* root_;           // holds the commits and decoded stages of a whole load
  Checkpoint* out_;        // writing
  const Checkpoint* in_;   // reading
  std::string kernel_;
  std::size_t declared_ = 0;
  Status status_;
  std::vector<std::function<void()>> commits_;
  std::list<Checkpoint> stage_checkpoints_;  // decoded stages the commits read from
};

}  // namespace dosas::kernels
