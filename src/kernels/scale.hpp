// scale.hpp — affine transform kernel, y = a*x + b (extension).
//
// A pure streaming transformer (unit conversion, normalization): consumes
// doubles, emits doubles. Exists chiefly as a pipeline stage — e.g.
// convert raw sensor counts to physical units before aggregating — and as
// the minimal example of a streams_output() kernel.
#pragma once

#include "kernels/kernel.hpp"
#include "kernels/operation.hpp"

namespace dosas::kernels {

class ScaleKernel final : public ItemwiseKernel {
 public:
  explicit ScaleKernel(double a = 1.0, double b = 0.0) : a_(a), b_(b) {}

  /// "scale:a=1.8,b=32"
  static Result<std::unique_ptr<Kernel>> from_spec(const OperationSpec& spec);

  std::string name() const override { return "scale"; }

  /// Raw transformed doubles not yet drained (a transformer's "result" is
  /// its output stream).
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override { return input; }
  void fields(Fields& f) override {
    ItemwiseKernel::fields(f);
    f.config("a", a_);
    f.config("b", b_);
    f.array("out", out_, {});
  }

  bool streams_output() const override { return true; }
  std::vector<std::uint8_t> drain_stream() override;

  double a() const { return a_; }
  double b() const { return b_; }

 protected:
  void reset_state() override { out_.clear(); }
  void process_items(std::span<const double> items) override {
    out_.reserve(out_.size() + items.size());
    for (double v : items) out_.push_back(a_ * v + b_);
  }

 private:
  double a_;
  double b_;
  std::vector<double> out_;  // produced but not yet drained
};

}  // namespace dosas::kernels
