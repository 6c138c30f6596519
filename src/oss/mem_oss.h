// In-memory storage backend. The query flood asks every leaf about every
// file its head has not cached, so a lookup here is one hashed probe, not
// a tree descent:
//  - Slots: a power-of-two array of 64-bit words, each holding a path's
//    CRC32 beside its record number (0 = empty). Probing is linear, a
//    delete shifts later words back, and a resize moves words alone, so
//    none of them reads another path's record.
//  - Records (content, mtime, where the path's bytes are) and path bytes
//    live in fixed-size chunks that never move: growth copies nothing,
//    and a file costs no heap block of its own beyond its content.
//    Freed records and freed path space are reused.
//  - A running byte total answers TotalBytes/UsedBytes and the capacity
//    checks without a scan.
// List scans every file and sorts its result; only tests call it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "oss/oss.h"
#include "util/clock.h"

namespace scalla::oss {

class MemOss : public Oss {
 public:
  /// `capacityBytes` caps stored data (0 = unlimited): at/over capacity,
  /// Create fails with kNoSpace and Write refuses to grow files — the
  /// condition that drives placement away from full servers.
  explicit MemOss(util::Clock& clock, std::uint64_t capacityBytes = 0)
      : clock_(clock), capacity_(capacityBytes) {}

  FileState StateOf(const std::string& path) override;
  Result<void> Create(const std::string& path) override;
  Result<void> Write(const std::string& path, std::uint64_t offset,
                     std::string_view data) override;
  Result<std::string> Read(const std::string& path, std::uint64_t offset,
                           std::uint32_t length) override;
  std::optional<StatInfo> Stat(const std::string& path) override;
  Result<void> Unlink(const std::string& path) override;
  std::vector<std::string> List(const std::string& prefix) override;

  /// Seeds a file with content (test/workload setup).
  void Put(const std::string& path, std::string data);

  std::optional<std::uint64_t> UsedBytes() override { return TotalBytes(); }

  std::size_t FileCount() const;
  std::uint64_t TotalBytes() const;

 protected:
  struct File {
    std::string data;
    TimePoint mtime{};
    std::uint32_t key = 0;     // first granule of the path's bytes; a free
                               // record's next free record
    std::uint32_t keyLen = 0;
  };

  /// The file at `path`, or nullptr. The caller holds mu_.
  File* FindLocked(std::string_view path) const;
  /// Makes `data` the whole content of `path`, creating the file if it is
  /// absent. The caller holds mu_.
  void SetLocked(std::string_view path, std::string data);

  util::Clock& clock_;
  mutable std::mutex mu_;

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  std::size_t SlotOf(std::string_view path, std::uint32_t hash) const;
  std::size_t Home(std::uint32_t hash) const;
  File& RecordAt(std::uint32_t record) const;
  File& RecordIn(std::uint64_t word) const;
  char* KeyAt(std::uint32_t granule) const;
  std::string_view KeyOf(const File& f) const;
  File& Insert(std::string_view path, std::uint32_t hash);
  void Erase(std::size_t slot);
  void GrowSlots();
  std::uint32_t NewKey(std::size_t len);
  void FreeKey(std::uint32_t granule, std::size_t len);

  std::uint64_t capacity_ = 0;
  std::uint64_t bytes_ = 0;  // sum of every file's size
  std::size_t count_ = 0;
  std::vector<std::uint64_t> slots_;  // (CRC32 << 32) | (record + 1)
  int shift_ = 32;                    // 32 - log2(slots_.size())
  std::vector<std::unique_ptr<File[]>> records_;
  std::uint32_t recordTop_ = 0;       // records ever handed out
  std::uint32_t freeRecord_ = kNone;
  std::vector<std::unique_ptr<char[]>> keys_;
  std::uint32_t keyTop_ = 0;          // next unused granule of the last chunk
  std::vector<std::uint32_t> freeKeys_;  // granule count -> first free block
};

}  // namespace scalla::oss
