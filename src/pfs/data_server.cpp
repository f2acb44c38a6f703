#include "pfs/data_server.hpp"

#include <algorithm>
#include <cstring>

namespace dosas::pfs {

/// The keepalive behind one read_object_ref result (shared by its
/// slices): holds the version and, on the last drop, releases its view.
struct DataServer::View {
  explicit View(std::shared_ptr<Version> v) : version(std::move(v)) {}
  ~View() { version->views.fetch_sub(1, std::memory_order_release); }
  View(const View&) = delete;
  View& operator=(const View&) = delete;
  std::shared_ptr<Version> version;
};

Status DataServer::write_object(FileHandle fh, Bytes offset, std::span<const std::uint8_t> data) {
  std::lock_guard lock(mu_);
  const auto it = objects_.find(fh);
  Version* const cur = it != objects_.end() ? it->second.get() : nullptr;
  const Bytes end = offset + data.size();
  const Bytes old_size = cur != nullptr ? cur->bytes->size() : 0;
  const Bytes new_size = std::max(old_size, end);
  if (cur != nullptr && new_size <= cur->bytes->capacity() &&
      cur->views.load(std::memory_order_acquire) == 0) {
    // No reader can see this version: write in place.
    auto& obj = *cur->bytes;
    if (obj.size() < end) obj.resize(end, 0);
    if (!data.empty()) std::memcpy(obj.data() + offset, data.data(), data.size());
  } else {
    // Copy-on-write: the old bytes before the write, any zero gap, the
    // new bytes, and the old bytes after them, into a fresh slab. Views
    // of the old version keep it (and its slab) until they drop.
    const std::span<const std::uint8_t> old =
        cur != nullptr ? std::span<const std::uint8_t>(*cur->bytes)
                       : std::span<const std::uint8_t>();
    const auto head = old.first(std::min(offset, old_size));
    const auto tail = end < old_size ? old.subspan(end) : std::span<const std::uint8_t>();
    auto next = std::make_shared<Version>();
    next->bytes = arena_.acquire(new_size);
    auto& obj = *next->bytes;
    obj.assign(head.begin(), head.end());
    obj.resize(offset, 0);
    obj.insert(obj.end(), data.begin(), data.end());
    obj.insert(obj.end(), tail.begin(), tail.end());
    if (const Bytes carried = head.size() + tail.size(); carried > 0) {
      note_bytes_copied(carried, CopySite::kOther);
    }
    objects_[fh] = std::move(next);
  }
  bytes_written_ += data.size();
  ++versions_[fh];
  return Status::ok();
}

void DataServer::fail_next_reads(std::size_t count) {
  std::lock_guard lock(mu_);
  fail_reads_ = count;
}

std::size_t DataServer::injected_failures() const {
  std::lock_guard lock(mu_);
  return injected_failures_;
}

void DataServer::set_fault_injector(std::shared_ptr<fault::FaultInjector> fi) {
  std::lock_guard lock(mu_);
  faults_ = std::move(fi);
}

Result<BufferRef> DataServer::read_object_ref(FileHandle fh, Bytes offset,
                                              Bytes length) const {
  std::shared_ptr<Version> version;
  std::span<const std::uint8_t> bytes;
  {
    std::lock_guard lock(mu_);
    if (fail_reads_ > 0) {
      --fail_reads_;
      ++injected_failures_;
      return error(ErrorCode::kUnavailable,
                   "data server " + std::to_string(id_) + ": injected read fault");
    }
    if (faults_ != nullptr && faults_->inject_read_fault(id_)) {
      ++injected_failures_;
      return error(ErrorCode::kUnavailable,
                   "data server " + std::to_string(id_) + ": injected read fault");
    }
    auto it = objects_.find(fh);
    if (it == objects_.end()) {
      return error(ErrorCode::kNotFound, "data server " + std::to_string(id_) +
                                             ": no object for handle " + std::to_string(fh));
    }
    const auto& obj = *it->second->bytes;
    if (offset >= obj.size()) return BufferRef{};
    const Bytes n = std::min(length, obj.size() - offset);
    bytes = std::span<const std::uint8_t>(obj.data() + offset, n);
    version = it->second;
    // Taken under mu_, so no writer can check the count between the
    // lookup and this pin.
    version->views.fetch_add(1, std::memory_order_relaxed);
    bytes_read_ += n;
  }
  // No copy: the view pins the version, which no write changes while
  // the view lives.
  return BufferRef::view(std::make_shared<View>(std::move(version)), bytes);
}

Result<std::vector<std::uint8_t>> DataServer::read_object(FileHandle fh, Bytes offset,
                                                          Bytes length) const {
  auto ref = read_object_ref(fh, offset, length);
  if (!ref.is_ok()) return ref.status();
  return ref.value().to_vector();
}

Bytes DataServer::object_size(FileHandle fh) const {
  std::lock_guard lock(mu_);
  auto it = objects_.find(fh);
  return it == objects_.end() ? 0 : it->second->bytes->size();
}

Status DataServer::remove_object(FileHandle fh) {
  std::lock_guard lock(mu_);
  if (objects_.erase(fh) > 0) ++versions_[fh];
  return Status::ok();
}

std::uint64_t DataServer::object_version(FileHandle fh) const {
  std::lock_guard lock(mu_);
  auto it = versions_.find(fh);
  return it == versions_.end() ? 0 : it->second;
}

bool DataServer::has_object(FileHandle fh) const {
  std::lock_guard lock(mu_);
  return objects_.count(fh) != 0;
}

std::size_t DataServer::object_count() const {
  std::lock_guard lock(mu_);
  return objects_.size();
}

Bytes DataServer::bytes_read() const {
  std::lock_guard lock(mu_);
  return bytes_read_;
}

Bytes DataServer::bytes_written() const {
  std::lock_guard lock(mu_);
  return bytes_written_;
}

}  // namespace dosas::pfs
