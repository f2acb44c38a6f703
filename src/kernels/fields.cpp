#include "kernels/fields.hpp"

#include <bit>

#include "kernels/kernel.hpp"

namespace dosas::kernels {

Fields::Fields(Fields* root, Checkpoint* out, const Checkpoint* in, std::string kernel)
    : root_(root == nullptr ? this : root), out_(out), in_(in), kernel_(std::move(kernel)) {}

Checkpoint Fields::save(const Kernel& kernel) {
  Checkpoint ck;
  Fields out(nullptr, &ck, nullptr, kernel.name());
  // Writing only reads the fields, so the declaration may run on a const kernel.
  out.visit(const_cast<Kernel&>(kernel));
  return ck;
}

Status Fields::load(Kernel& kernel, const Checkpoint& ck) {
  Fields in(nullptr, nullptr, &ck, kernel.name());
  in.visit(kernel);
  if (!in.status_.is_ok()) return in.status_;
  for (auto& assign : in.commits_) assign();
  return Status::ok();
}

void Fields::visit(Kernel& kernel) {
  config("kernel", kernel_);
  kernel.fields(*this);
  if (reading() && declared_ != in_->field_count()) fail("checkpoint has undeclared fields");
}

bool Fields::present(bool found, const char* name) {
  ++declared_;
  if (!found) fail(std::string("checkpoint lacks '") + name + "'");
  return found;
}

void Fields::fail(const std::string& what) {
  if (status_.is_ok()) status_ = error(ErrorCode::kInvalidArgument, kernel_ + ": " + what);
}

void Fields::config(const char* name, std::uint64_t own) {
  const auto v = static_cast<std::int64_t>(own);
  if (!reading()) {
    out_->set_i64(name, v);
    return;
  }
  if (present(in_->has_i64(name), name) && in_->get_i64(name) != v) {
    fail(std::string("checkpoint '") + name + "' is not the kernel's");
  }
}

void Fields::config(const char* name, double own) {
  if (!reading()) {
    out_->set_f64(name, own);
    return;
  }
  if (present(in_->has_f64(name), name) &&
      std::bit_cast<std::uint64_t>(in_->get_f64(name)) != std::bit_cast<std::uint64_t>(own)) {
    fail(std::string("checkpoint '") + name + "' is not the kernel's");
  }
}

void Fields::config(const char* name, std::string_view own) {
  if (!reading()) {
    out_->set_string(name, std::string(own));
    return;
  }
  if (present(in_->has_string(name), name) && in_->get_string(name) != own) {
    fail(std::string("checkpoint '") + name + "' is not the kernel's");
  }
}

std::uint64_t Fields::counter(const char* name, std::uint64_t& value) {
  if (!reading()) {
    out_->set_i64(name, static_cast<std::int64_t>(value));
    return value;
  }
  if (!present(in_->has_i64(name), name)) return 0;
  const std::int64_t v = in_->get_i64(name);
  if (v < 0) {
    fail(std::string("checkpoint '") + name + "' is negative");
    return 0;
  }
  commit([&value, v] { value = static_cast<std::uint64_t>(v); });
  return static_cast<std::uint64_t>(v);
}

double Fields::counter(const char* name, double& value) {
  if (!reading()) {
    out_->set_f64(name, value);
    return value;
  }
  if (!present(in_->has_f64(name), name)) return 0.0;
  const double v = in_->get_f64(name);
  commit([&value, v] { value = v; });
  return v;
}

std::span<const std::uint8_t> Fields::bytes(const char* name, std::span<const std::uint8_t> now,
                                            Bound size) {
  if (!reading()) {
    out_->set_blob(name, std::vector<std::uint8_t>(now.begin(), now.end()));
    return now;
  }
  const auto* blob = in_->get_blob(name);
  if (!present(blob != nullptr, name)) return {};
  const std::size_t n = blob->size();
  if (n < size.min || n > size.max || n % size.step != 0) {
    fail(std::string("checkpoint '") + name + "' is out of bounds");
    return {};
  }
  return *blob;
}

void Fields::stages(std::vector<std::unique_ptr<Kernel>>& stages) {
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const std::string name = "stage" + std::to_string(i);
    if (!reading()) {
      out_->set_blob(name, stages[i]->checkpoint().encode());
      continue;
    }
    const auto* blob = in_->get_blob(name);
    if (!present(blob != nullptr, name.c_str())) return;
    auto decoded = Checkpoint::decode(*blob);
    if (!decoded.is_ok()) {
      fail(name + ": " + decoded.status().message());
      return;
    }
    Fields stage(root_, nullptr, &root_->stage_checkpoints_.emplace_back(std::move(decoded).value()),
                 stages[i]->name());
    stage.visit(*stages[i]);
    if (!stage.status_.is_ok()) {
      fail(name + ": " + stage.status_.message());
      return;
    }
  }
}

void Fields::require(bool ok, const char* what) {
  if (reading() && !ok) fail(std::string("checkpoint ") + what);
}

void Fields::commit(std::function<void()> assign) {
  if (reading()) root_->commits_.push_back(std::move(assign));
}

}  // namespace dosas::kernels
