#include "engine/window.h"

#include <algorithm>
#include <cstring>

#include "store/crc32c.h"

namespace prompt {

namespace {

constexpr uint32_t kWindowMagic = 0x50524d58;  // "PRMX"

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}
void PutF64(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(bits, out);
}
bool GetU64(const std::string& in, size_t* off, uint64_t* v) {
  if (*off + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *off, 8);
  *off += 8;
  return true;
}
bool GetF64(const std::string& in, size_t* off, double* v) {
  uint64_t bits;
  if (!GetU64(in, off, &bits)) return false;
  std::memcpy(v, &bits, 8);
  return true;
}

uint64_t WindowChecksum(const std::string& bytes, size_t from) {
  return Crc32c(bytes.data() + from, bytes.size() - from);
}

}  // namespace

std::vector<KV> WindowState::TopK(size_t k) const {
  std::vector<KV> all;
  all.reserve(result_.size());
  for (const auto& [key, value] : result_) all.push_back(KV{key, value});
  size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + n, all.end(),
                    [](const KV& a, const KV& b) {
                      return a.value != b.value ? a.value > b.value
                                                : a.key < b.key;
                    });
  all.resize(n);
  return all;
}

std::string WindowState::Checkpoint() const {
  std::string payload;
  PutU64(window_batches_, &payload);
  PutU64(history_.size(), &payload);
  for (const auto& batch : history_) {
    PutU64(batch.size(), &payload);
    for (const KV& kv : batch) {
      PutU64(kv.key, &payload);
      PutF64(kv.value, &payload);
    }
  }
  std::string out;
  uint32_t magic = kWindowMagic;
  out.append(reinterpret_cast<const char*>(&magic), 4);
  PutU64(WindowChecksum(payload, 0), &out);
  out += payload;
  return out;
}

Status WindowState::Restore(const std::string& bytes) {
  size_t off = 0;
  if (bytes.size() < 12) return Status::Invalid("truncated checkpoint");
  uint32_t magic;
  std::memcpy(&magic, bytes.data(), 4);
  off = 4;
  if (magic != kWindowMagic) return Status::Invalid("bad checkpoint magic");
  uint64_t checksum;
  if (!GetU64(bytes, &off, &checksum) ||
      checksum != WindowChecksum(bytes, off)) {
    return Status::Invalid("checkpoint checksum mismatch");
  }
  uint64_t window_batches, num_batches;
  if (!GetU64(bytes, &off, &window_batches) ||
      !GetU64(bytes, &off, &num_batches)) {
    return Status::Invalid("truncated checkpoint header");
  }
  if (window_batches != window_batches_) {
    return Status::Invalid("checkpoint window geometry mismatch");
  }
  if (num_batches > window_batches) {
    return Status::Invalid("checkpoint holds more batches than the window");
  }
  std::deque<std::vector<KV>> history;
  for (uint64_t b = 0; b < num_batches; ++b) {
    uint64_t n;
    if (!GetU64(bytes, &off, &n)) {
      return Status::Invalid("truncated checkpoint batch");
    }
    if (n * 16 > bytes.size() - off) {
      return Status::Invalid("checkpoint batch size inconsistent");
    }
    std::vector<KV> batch;
    batch.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      KV kv;
      if (!GetU64(bytes, &off, &kv.key) || !GetF64(bytes, &off, &kv.value)) {
        return Status::Invalid("truncated checkpoint entry");
      }
      batch.push_back(kv);
    }
    history.push_back(std::move(batch));
  }
  if (off != bytes.size()) {
    return Status::Invalid("trailing bytes in checkpoint");
  }
  // Rebuild the derived result map by replaying the retained outputs.
  history_.clear();
  result_.clear();
  for (auto& batch : history) AddBatch(std::move(batch));
  return Status::OK();
}

}  // namespace prompt
