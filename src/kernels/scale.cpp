#include "kernels/scale.hpp"

#include <cstring>

namespace dosas::kernels {

Result<std::unique_ptr<Kernel>> ScaleKernel::from_spec(const OperationSpec& spec) {
  return std::unique_ptr<Kernel>(
      std::make_unique<ScaleKernel>(spec.get_double("a", 1.0), spec.get_double("b", 0.0)));
}

std::vector<std::uint8_t> ScaleKernel::finalize() const {
  std::vector<std::uint8_t> bytes(out_.size() * sizeof(double));
  if (!out_.empty()) std::memcpy(bytes.data(), out_.data(), bytes.size());
  return bytes;
}

std::vector<std::uint8_t> ScaleKernel::drain_stream() {
  auto bytes = finalize();
  out_.clear();
  return bytes;
}

}  // namespace dosas::kernels
