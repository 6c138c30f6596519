#include "oss/mem_oss.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/crc32.h"

namespace scalla::oss {
namespace {

// Both kinds of chunk stay under 64 KiB, the proxy's block size, so a
// proxy disk tier kept in a MemOss allocates block-sized buffers only for
// block content (pcache_alloc_test counts them).
constexpr std::uint32_t kRecordsPerChunk = 1024;
constexpr std::size_t kGranule = 8;  // path bytes are placed in 8-byte granules
constexpr std::uint32_t kKeyChunkGranules = 4096;
constexpr std::size_t kMinSlots = 16;

std::uint32_t Granules(std::size_t len) {
  return static_cast<std::uint32_t>(std::max<std::size_t>(1, (len + kGranule - 1) / kGranule));
}

}  // namespace

std::size_t MemOss::Home(std::uint32_t hash) const {
  return static_cast<std::uint32_t>(hash * 0x9E3779B9u) >> shift_;  // Fibonacci hashing
}

MemOss::File& MemOss::RecordAt(std::uint32_t record) const {
  static_assert(sizeof(File) * kRecordsPerChunk < 64 * 1024);
  return records_[record / kRecordsPerChunk][record % kRecordsPerChunk];
}

MemOss::File& MemOss::RecordIn(std::uint64_t word) const {
  return RecordAt(static_cast<std::uint32_t>(word) - 1);
}

char* MemOss::KeyAt(std::uint32_t granule) const {
  return keys_[granule / kKeyChunkGranules].get() + granule % kKeyChunkGranules * kGranule;
}

std::string_view MemOss::KeyOf(const File& f) const { return {KeyAt(f.key), f.keyLen}; }

std::size_t MemOss::SlotOf(std::string_view path, std::uint32_t hash) const {
  if (slots_.empty()) return 0;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = Home(hash);; i = (i + 1) & mask) {
    const std::uint64_t word = slots_[i];
    if (word == 0) return slots_.size();
    if (word >> 32 == hash && KeyOf(RecordIn(word)) == path) return i;
  }
}

MemOss::File* MemOss::FindLocked(std::string_view path) const {
  const std::size_t slot = SlotOf(path, util::Crc32(path));
  return slot == slots_.size() ? nullptr : &RecordIn(slots_[slot]);
}

void MemOss::GrowSlots() {
  std::vector<std::uint64_t> old(std::max(kMinSlots, slots_.size() * 2));
  old.swap(slots_);
  shift_ = 32 - std::countr_zero(slots_.size());
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint64_t word : old) {
    if (word == 0) continue;
    std::size_t i = Home(static_cast<std::uint32_t>(word >> 32));
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = word;
  }
}

std::uint32_t MemOss::NewKey(std::size_t len) {
  const std::uint32_t granules = Granules(len);
  if (granules < freeKeys_.size() && freeKeys_[granules] != kNone) {
    const std::uint32_t at = freeKeys_[granules];
    std::memcpy(&freeKeys_[granules], KeyAt(at), sizeof(std::uint32_t));
    return at;
  }
  const auto chunkEnd = [this] {
    return static_cast<std::uint32_t>(keys_.size()) * kKeyChunkGranules;
  };
  if (granules > kKeyChunkGranules) {
    // A path longer than a chunk gets a chunk of its own; the next path
    // starts a fresh one.
    keys_.push_back(std::make_unique_for_overwrite<char[]>(granules * kGranule));
    keyTop_ = chunkEnd();
    return keyTop_ - kKeyChunkGranules;
  }
  if (keyTop_ + granules > chunkEnd()) {
    keys_.push_back(std::make_unique_for_overwrite<char[]>(kKeyChunkGranules * kGranule));
    keyTop_ = chunkEnd() - kKeyChunkGranules;
  }
  const std::uint32_t at = keyTop_;
  keyTop_ += granules;
  return at;
}

void MemOss::FreeKey(std::uint32_t granule, std::size_t len) {
  const std::uint32_t granules = Granules(len);
  if (granules > kKeyChunkGranules) {
    keys_[granule / kKeyChunkGranules].reset();  // the chunk held this path alone
    return;
  }
  // A free block's first four bytes link it to the next of its size.
  if (freeKeys_.size() <= granules) freeKeys_.resize(granules + 1, kNone);
  std::memcpy(KeyAt(granule), &freeKeys_[granules], sizeof(std::uint32_t));
  freeKeys_[granules] = granule;
}

MemOss::File& MemOss::Insert(std::string_view path, std::uint32_t hash) {
  if ((count_ + 1) * 4 > slots_.size() * 3) GrowSlots();
  std::uint32_t record = freeRecord_;
  if (record != kNone) {
    freeRecord_ = RecordAt(record).key;
  } else {
    if (recordTop_ % kRecordsPerChunk == 0) {
      records_.push_back(std::make_unique<File[]>(kRecordsPerChunk));
    }
    record = recordTop_++;
  }
  File& f = RecordAt(record);
  f.key = NewKey(path.size());
  f.keyLen = static_cast<std::uint32_t>(path.size());
  std::memcpy(KeyAt(f.key), path.data(), path.size());
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Home(hash);
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = std::uint64_t{hash} << 32 | (record + 1);
  ++count_;
  return f;
}

void MemOss::Erase(std::size_t slot) {
  const auto record = static_cast<std::uint32_t>(slots_[slot]) - 1;
  File& f = RecordAt(record);
  bytes_ -= f.data.size();
  std::string().swap(f.data);
  FreeKey(f.key, f.keyLen);
  f.key = freeRecord_;
  freeRecord_ = record;
  --count_;
  // Backward shift: a later word of the run moves into the hole when the
  // hole lies on its probe path, and the hole moves to where it was.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (slot + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    const std::size_t home = Home(static_cast<std::uint32_t>(slots_[j] >> 32));
    if (((j - home) & mask) >= ((j - slot) & mask)) {
      slots_[slot] = slots_[j];
      slot = j;
    }
  }
  slots_[slot] = 0;
}

void MemOss::SetLocked(std::string_view path, std::string data) {
  const std::uint32_t hash = util::Crc32(path);
  const std::size_t slot = SlotOf(path, hash);
  File& f = slot == slots_.size() ? Insert(path, hash) : RecordIn(slots_[slot]);
  bytes_ = bytes_ - f.data.size() + data.size();
  f.data = std::move(data);
  f.mtime = clock_.Now();
}

FileState MemOss::StateOf(const std::string& path) {
  std::lock_guard lock(mu_);
  return FindLocked(path) != nullptr ? FileState::kOnline : FileState::kAbsent;
}

Result<void> MemOss::Create(const std::string& path) {
  std::lock_guard lock(mu_);
  const std::uint32_t hash = util::Crc32(path);
  if (SlotOf(path, hash) != slots_.size()) {
    return Result<void>::Err(proto::XrdErr::kExists, "create '" + path + "': exists");
  }
  if (capacity_ != 0 && bytes_ >= capacity_) {
    return Result<void>::Err(proto::XrdErr::kNoSpace, "create '" + path + "': no space");
  }
  Insert(path, hash).mtime = clock_.Now();
  return Result<void>::Ok();
}

Result<void> MemOss::Write(const std::string& path, std::uint64_t offset,
                           std::string_view data) {
  std::lock_guard lock(mu_);
  File* f = FindLocked(path);
  if (f == nullptr) {
    return Result<void>::Err(proto::XrdErr::kNotFound, "write '" + path + "': not found");
  }
  std::uint64_t growth = 0;
  if (offset + data.size() > f->data.size()) {
    growth = offset + data.size() - f->data.size();
    if (capacity_ != 0 && bytes_ + growth > capacity_) {
      return Result<void>::Err(proto::XrdErr::kNoSpace, "write '" + path + "': no space");
    }
    // Zero-fill only the gap a write past EOF leaves; the write itself
    // supplies every byte after it.
    if (offset > f->data.size()) f->data.resize(static_cast<std::size_t>(offset), '\0');
  }
  // Overwrites what lies under the write and appends the rest, each byte once.
  const auto at = static_cast<std::size_t>(offset);
  f->data.replace(at, std::min(data.size(), f->data.size() - at), data);
  bytes_ += growth;
  f->mtime = clock_.Now();
  return Result<void>::Ok();
}

Result<std::string> MemOss::Read(const std::string& path, std::uint64_t offset,
                                 std::uint32_t length) {
  std::lock_guard lock(mu_);
  const File* f = FindLocked(path);
  if (f == nullptr) {
    return Result<std::string>::Err(proto::XrdErr::kNotFound,
                                    "read '" + path + "': not found");
  }
  if (offset >= f->data.size()) return std::string();  // EOF: empty read
  const std::size_t n = std::min<std::size_t>(length, f->data.size() - offset);
  return f->data.substr(offset, n);
}

std::optional<StatInfo> MemOss::Stat(const std::string& path) {
  std::lock_guard lock(mu_);
  const File* f = FindLocked(path);
  if (f == nullptr) return std::nullopt;
  return StatInfo{f->data.size(), f->mtime};
}

Result<void> MemOss::Unlink(const std::string& path) {
  std::lock_guard lock(mu_);
  const std::size_t slot = SlotOf(path, util::Crc32(path));
  if (slot == slots_.size()) {
    return Result<void>::Err(proto::XrdErr::kNotFound, "unlink '" + path + "': not found");
  }
  Erase(slot);
  return Result<void>::Ok();
}

std::vector<std::string> MemOss::List(const std::string& prefix) {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  for (const std::uint64_t word : slots_) {
    if (word == 0) continue;
    const std::string_view path = KeyOf(RecordIn(word));
    if (path.starts_with(prefix)) out.emplace_back(path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void MemOss::Put(const std::string& path, std::string data) {
  std::lock_guard lock(mu_);
  SetLocked(path, std::move(data));
}

std::size_t MemOss::FileCount() const {
  std::lock_guard lock(mu_);
  return count_;
}

std::uint64_t MemOss::TotalBytes() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

}  // namespace scalla::oss
