#include "kernels/pipeline.hpp"

#include <cassert>

namespace dosas::kernels {

PipelineKernel::PipelineKernel(std::vector<std::unique_ptr<Kernel>> stages)
    : stages_(std::move(stages)) {
  assert(!stages_.empty());
  for (std::size_t i = 0; i + 1 < stages_.size(); ++i) {
    assert(stages_[i]->streams_output() && "non-final pipeline stage must stream");
  }
}

Result<OperationSpec> PipelineKernel::parse_stage(const std::string& text) {
  // "name[;k=v...]": rewrite into the standard "name[:k=v,...]" form.
  std::string standard;
  const auto semi = text.find(';');
  standard = text.substr(0, semi);
  if (semi != std::string::npos) {
    standard += ':';
    std::string rest = text.substr(semi + 1);
    for (char& c : rest) {
      if (c == ';') c = ',';
    }
    standard += rest;
  }
  return OperationSpec::parse(standard);
}

Result<std::unique_ptr<Kernel>> PipelineKernel::from_spec(const OperationSpec& spec,
                                                          const Registry& registry) {
  const std::string ops = spec.get("ops", "");
  if (ops.empty()) {
    return error(ErrorCode::kInvalidArgument, "pipe: missing ops= stage list");
  }
  std::vector<std::unique_ptr<Kernel>> stages;
  std::size_t pos = 0;
  while (pos <= ops.size()) {
    auto bar = ops.find('|', pos);
    if (bar == std::string::npos) bar = ops.size();
    const std::string stage_text = ops.substr(pos, bar - pos);
    auto stage_spec = parse_stage(stage_text);
    if (!stage_spec.is_ok()) return stage_spec.status();
    auto kernel = registry.create(stage_spec.value());
    if (!kernel.is_ok()) return kernel.status();
    stages.push_back(std::move(kernel).value());
    pos = bar + 1;
    if (bar == ops.size()) break;
  }
  if (stages.empty()) return error(ErrorCode::kInvalidArgument, "pipe: no stages");
  for (std::size_t i = 0; i + 1 < stages.size(); ++i) {
    if (!stages[i]->streams_output()) {
      return error(ErrorCode::kInvalidArgument,
                   "pipe: stage '" + stages[i]->name() +
                       "' does not stream output and cannot feed the next stage");
    }
  }
  return std::unique_ptr<Kernel>(std::make_unique<PipelineKernel>(std::move(stages)));
}

void PipelineKernel::reset() {
  consumed_ = 0;
  for (auto& stage : stages_) stage->reset();
}

void PipelineKernel::pump() {
  for (std::size_t i = 0; i + 1 < stages_.size(); ++i) {
    const auto bytes = stages_[i]->drain_stream();
    if (!bytes.empty()) stages_[i + 1]->consume(bytes);
  }
}

void PipelineKernel::consume(std::span<const std::uint8_t> chunk) {
  consumed_ += chunk.size();
  stages_.front()->consume(chunk);
  pump();
}

std::vector<std::uint8_t> PipelineKernel::finalize() const {
  // pump() after every consume keeps intermediate streams empty, so the
  // last stage already holds everything producible from the input seen.
  return stages_.back()->finalize();
}

Bytes PipelineKernel::result_size(Bytes input) const {
  Bytes size = input;
  for (const auto& stage : stages_) size = stage->result_size(size);
  return size;
}

}  // namespace dosas::kernels
