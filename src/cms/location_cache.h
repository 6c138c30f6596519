// The cmsd file-location cache (paper section III-A) — the component
// "largely responsible for very low client redirection latency".
//
// Structure (Figure 2), rebuilt as a contiguous arena in the djbdns
// cache.c style:
//  - Location records hold the V_h/V_p/V_q server-set vectors plus the C_n
//    correction snapshot, the T_a add-window, a processing deadline, and
//    loosely-coupled fast-response-queue references.
//  - All records live in ONE contiguous slab of fixed 128-byte slots.
//    Every link — hash-bucket chain, eviction-window chain, free list,
//    key-extension chain — is a 32-bit slot index, not a 64-bit pointer,
//    so the whole structure stays compact and survives slab growth
//    (indices are stable where pointers would dangle).
//  - Key bytes are stored inline in the record; names longer than the
//    inline capacity chain additional slots from the same arena, so the
//    hot path never touches the heap.
//  - Records are keyed by CRC32(file name) into an index-linked hash
//    table; the bucket count is always a Fibonacci number and grows to
//    the next Fibonacci number at 80% *live* load.
//  - Records are simultaneously chained into one of 64 eviction windows.
//    A window tick (every L_t/64) *hides* the expiring window's entries by
//    zeroing their key length — O(window) and invisible to look-ups — and
//    hands back a background job that physically unlinks and recycles them
//    and performs the *deferred re-chaining* of refreshed objects
//    (section III-C1).
//  - Records are never deallocated; their slots recycle through an
//    index-linked free list (O(1) push/pop). A LocRef carries the slot
//    index plus an authenticator counter so stale references are detected
//    with one comparison (section III-B1).
//  - `cms.cachebytes` (CmsConfig::cacheBytes) puts a hard byte budget on
//    the arena + bucket storage. Under budget pressure the cache
//    force-expires the window closest to its natural expiry (hide +
//    inline purge) instead of allocating past the cap.
//
// Thread safety: all public methods are safe to call concurrently; a
// single internal mutex guards the table (the paper's "avoid locks" claim
// is about not holding locks *across* protocol steps, which the
// LocRef/authenticator design provides: no lock is held between Lookup and
// the later BeginQuery/AddLocation calls).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cms/correction_state.h"
#include "cms/types.h"
#include "obs/snapshot.h"
#include "util/clock.h"

namespace scalla::cms {

/// Reference to a fast-response-queue anchor: index plus epoch. The epoch
/// makes the cache<->queue coupling loose: either side can invalidate
/// without touching the other (section III-B).
struct RespSlotRef {
  std::int32_t slot = -1;
  std::uint32_t epoch = 0;
  bool IsSet() const { return slot >= 0; }
};

/// Sentinel for "no slot" in every 32-bit index link of the cache arena.
inline constexpr std::uint32_t kNullCacheIndex = 0xFFFFFFFFu;

/// Authenticated reference to a location record: the record's arena slot
/// index plus the authenticator it carried when the reference was minted.
/// Valid while the record has not been hidden/recycled since.
struct LocRef {
  std::uint32_t index = kNullCacheIndex;
  std::uint32_t auth = 0;
  explicit operator bool() const { return index != kNullCacheIndex; }
};

class LocationCache {
 public:
  /// Fixed size of one arena slot; a location record occupies exactly one
  /// slot, a long key chains additional slots. Exposed for bench/tests.
  static constexpr std::size_t kRecordBytes = 128;

  LocationCache(const CmsConfig& config, util::Clock& clock, CorrectionState& corrections);
  ~LocationCache();

  LocationCache(const LocationCache&) = delete;
  LocationCache& operator=(const LocationCache&) = delete;

  enum class AddPolicy { kFindOnly, kCreate };

  struct FetchResult {
    LocRef ref;                    // null when not found and kFindOnly
    LocInfo info;                  // corrected per Figure 3
    bool found = false;
    bool created = false;          // object cached by this call
    bool deadlineActive = false;   // some thread is (likely) querying
    Duration deadlineRemaining{};  // valid when deadlineActive
  };

  /// Cache look-up (resolution step 1). `vm` is the export-table V_m for
  /// the path; `offline` is the membership's currently-offline set, whose
  /// members holding the file are shifted into V_q (section III-A4 case 1).
  /// Empty paths are rejected (never found, never created): a zero-length
  /// key is the "hidden" marker and must not be able to match one.
  /// kCreate can also come back not-found when the byte budget is
  /// exhausted and nothing could be force-expired.
  FetchResult Lookup(std::string_view path, ServerSet vm, ServerSet offline,
                     AddPolicy policy);

  /// Marks `queried` servers as asked (clears them from V_q — resolution
  /// step 6 records only servers that could NOT be queried) and arms the
  /// processing deadline. Returns false on a stale reference.
  bool BeginQuery(const LocRef& ref, ServerSet queried, TimePoint deadline);

  /// Applies a server's positive response (it has / is preparing the
  /// file). Returns the fast-response references to release, already
  /// cleared from the object, mirroring the paper's update method. The
  /// precomputed `hash` is passed along with the name, eliminating
  /// re-hashing on the response path (section III-B1).
  struct UpdateResult {
    bool found = false;
    LocInfo info;
    RespSlotRef releaseRead;
    RespSlotRef releaseWrite;
  };
  UpdateResult AddLocation(std::string_view path, std::uint32_t hash, ServerSlot server,
                           bool pending, bool allowWrite);

  /// Clears a server from V_h/V_p for a path (server reported the file
  /// gone, or an I/O error was confirmed). When the last holder goes and
  /// nothing is left to query the entry is hidden, so the next look-up
  /// re-creates and re-queries instead of hitting an all-empty record.
  void RemoveLocation(std::string_view path, ServerSlot server);

  /// Refresh (section III-C1): treat as new un-cached request — requery
  /// all eligible servers, reset vectors, update T_a to the current window
  /// WITHOUT re-chaining (deferred to the purge job). Returns false on a
  /// stale reference.
  bool Refresh(const LocRef& ref, ServerSet vm, TimePoint deadline);

  /// Fast-response-queue association accessors (all validate the ref).
  RespSlotRef GetRespSlot(const LocRef& ref, AccessMode mode) const;
  bool SetRespSlot(const LocRef& ref, AccessMode mode, RespSlotRef slot);

  /// Re-reads the (corrected) state of a referenced object. Returns false
  /// on a stale reference.
  bool ReadInfo(const LocRef& ref, ServerSet vm, ServerSet offline, LocInfo* out);

  /// Advances the window clock T_w: hides every expiring entry in the new
  /// window (key length = 0) and returns the background purge job that
  /// physically recycles them and re-chains refreshed objects. The caller
  /// schedules the job (executor/thread); it may also run it inline.
  /// Returns an empty function when the expiring window was empty.
  std::function<void()> OnWindowTick();

  /// CRC32 of a path — the protocol forwards this alongside file names.
  static std::uint32_t HashOf(std::string_view path);

  struct Stats {
    std::size_t buckets = 0;
    std::size_t liveObjects = 0;     // visible entries
    std::size_t hiddenObjects = 0;   // hidden, awaiting purge
    std::size_t allocatedObjects = 0;  // arena slots (records + extensions)
    std::size_t freeObjects = 0;       // slots on the free list
    std::size_t rehashes = 0;
    std::size_t lookups = 0;
    std::size_t hits = 0;
    std::size_t creates = 0;
    std::size_t corrections = 0;        // Figure-3 applications
    std::size_t correctionMemoHits = 0; // served from the window's V_wc
    std::size_t probes = 0;             // chain links walked across lookups
    std::size_t recycled = 0;           // objects purged & freed
    std::size_t rechained = 0;          // deferred re-chains performed
    std::uint64_t windowTicks = 0;
    std::size_t approxBytes = 0;        // arenaBytes + bucketBytes
    // Arena accounting (new with the index-linked layout):
    std::size_t arenaBytes = 0;         // slot storage, kRecordBytes each
    std::size_t bucketBytes = 0;        // 4 bytes per bucket link
    std::size_t budgetBytes = 0;        // cms.cachebytes (0 = unbounded)
    std::size_t extensionSlots = 0;     // slots holding overflow key bytes
    std::size_t budgetEvictions = 0;    // entries force-expired by budget
    std::size_t createFailures = 0;     // kCreate refused (budget exhausted)
  };
  Stats GetStats() const;
  /// Writes the cache.* metrics (lookups, hits, arena occupancy, ...).
  void ExportMetrics(obs::MetricsSnapshot& snap) const;

  /// Test hook: window index objects added "now" would get.
  int CurrentWindow() const;

 private:
  struct Record;   // one 128-byte arena slot; defined in location_cache.cc
  struct ExtSlot;  // overlay for key-extension slots

  struct Window {
    std::uint32_t head = kNullCacheIndex;
    // Per-window correction memo (V_wc / C_wn, section III-A4): objects in
    // this window that share a C_n snapshot reuse one computed V_c. The
    // memo is applicable only while N_c is unchanged, so it records both
    // the snapshot it corrects from and the epoch it corrects to.
    std::uint64_t memoCn = ~std::uint64_t{0};
    std::uint64_t memoNc = ~std::uint64_t{0};
    ServerSet memoVc;
    std::size_t size = 0;
  };

  Record* At(std::uint32_t index) const;
  ExtSlot* ExtAt(std::uint32_t index) const;
  std::uint32_t FindLocked(std::string_view path, std::uint32_t hash) const;
  bool KeyEqualsLocked(const Record* rec, std::string_view path) const;
  std::uint32_t AllocateSlotLocked();
  bool GrowArenaLocked();
  std::size_t EmergencyEvictLocked();
  bool InsertLocked(std::uint32_t index, std::string_view path, std::uint32_t hash,
                    ServerSet vm);
  // Index-based on purpose: allocating extension slots may move the arena,
  // so the record is re-resolved from its slot index after each allocation.
  bool StoreKeyLocked(std::uint32_t recIndex, std::string_view path);
  void FreeKeyChainLocked(Record* rec);
  void FreeSlotLocked(std::uint32_t index);
  void MaybeGrowLocked();
  void ApplyCorrectionsLocked(Record* rec, ServerSet vm, ServerSet offline);
  bool ValidLocked(const LocRef& ref) const;
  void HideLocked(Record* rec);
  void UnlinkFromHashLocked(std::uint32_t index);
  // Recycles a hidden record (1) or re-chains a visible one (0).
  std::size_t RecycleOrRechainLocked(std::uint32_t index, int window);
  std::size_t PurgeWindow(int window, std::size_t maxBatch);  // takes mu_ in batches
  LocInfo InfoOf(const Record* rec) const;

  const CmsConfig config_;
  util::Clock& clock_;
  CorrectionState& corrections_;

  mutable std::mutex mu_;
  std::vector<std::uint32_t> buckets_;  // 32-bit index links, kNullCacheIndex empty
  std::array<Window, kMaxServersPerSet> windows_;
  std::uint64_t tw_ = 0;  // window clock T_w (monotonic tick count)

  // The arena: one contiguous slab of kRecordBytes slots. Growth doubles
  // the slab (bounded by cacheBytes) and memcpy-moves it — safe because
  // every link is an index. Fresh slots are handed out by advancing
  // bumpNext_ (slots past it are never touched, so capacity overshoot
  // stays virtual); recycled slots return through freeHead_, an intrusive
  // index-linked free list threaded through Record::hashNext.
  std::unique_ptr<std::byte[]> arena_;
  std::uint32_t slotCapacity_ = 0;
  std::uint32_t bumpNext_ = 0;
  std::uint32_t freeHead_ = kNullCacheIndex;
  std::size_t freeCount_ = 0;

  mutable Stats stats_;
};

}  // namespace scalla::cms
