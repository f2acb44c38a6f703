// pipeline.hpp — streaming kernel composition (extension).
//
// The original active-disk programming model (Acharya et al.) composes
// *streamlets*: filter stages feeding aggregation stages, all running at
// the disk. PipelineKernel brings that to DOSAS: every stage except the
// last must be a transformer (`streams_output()`); after each consume()
// the stages are pumped — stage i's drained output becomes stage i+1's
// input — and finalize() is the last stage's result. Classic use:
//
//   pipe:ops=scale;a=1.8;b=32|thresholdcount;t=100
//   pipe:ops=gaussian2d;width=256;mode=full|minmax
//
// Operation syntax (inside the single `ops=` value): stages separated by
// '|', each stage "name[;key=val...]" — ';' plays ','/':' because those
// delimit the outer operation string.
//
// Checkpoints compose: each stage's checkpoint rides as one blob, so an
// interrupted pipeline resumes mid-stream on either side of the network
// exactly like a single kernel.
#pragma once

#include <memory>
#include <vector>

#include "kernels/kernel.hpp"
#include "kernels/operation.hpp"
#include "kernels/registry.hpp"

namespace dosas::kernels {

class PipelineKernel final : public Kernel {
 public:
  /// Stages run in order; all but the last must stream output. Asserts on
  /// an empty stage list (use from_spec for validated construction).
  explicit PipelineKernel(std::vector<std::unique_ptr<Kernel>> stages);

  /// Parse "pipe:ops=<stage>|<stage>..." resolving stage names against
  /// `registry`.
  static Result<std::unique_ptr<Kernel>> from_spec(const OperationSpec& spec,
                                                   const Registry& registry);

  /// Parse one stage string "name[;k=v...]" into an OperationSpec.
  static Result<OperationSpec> parse_stage(const std::string& text);

  std::string name() const override { return "pipe"; }
  void reset() override;
  void consume(std::span<const std::uint8_t> chunk) override;
  Bytes consumed() const override { return consumed_; }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  void fields(Fields& f) override {
    f.config("stages", stages_.size());
    f.counter("consumed", consumed_);
    f.stages(stages_);
  }

  std::size_t stage_count() const { return stages_.size(); }
  const Kernel& stage(std::size_t i) const { return *stages_[i]; }

 private:
  /// Move drained bytes down the chain.
  void pump();

  std::vector<std::unique_ptr<Kernel>> stages_;
  Bytes consumed_ = 0;
};

}  // namespace dosas::kernels
