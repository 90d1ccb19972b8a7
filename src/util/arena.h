// Allocation infrastructure for the simulation hot paths. A million-request
// replay schedules tens of millions of events and cold runs; allocating each
// one from the global heap (and never recycling the bookkeeping) dominated
// the critical-path profile of the sim core. Three building blocks fix that:
//
//   Arena      — chunked bump allocator. Allocation is a pointer bump; memory
//                is released all at once (Reset or destruction). For
//                trivially-destructible payloads and as the backing store of
//                ObjectPool.
//   SlotPool   — generation-checked slot map. Alloc returns a dense index
//                whose slot is recycled after Free, plus a generation counter
//                so stale handles can never alias a recycled slot. This is
//                the event "arena": live events occupy O(max outstanding)
//                slots regardless of how many events a run schedules.
//   ObjectPool — free-list of reusable objects constructed in an Arena.
//                Acquire reuses a released object (retaining its internal
//                vector/string capacity, which is the point: a cold run's
//                bookkeeping keeps its buffers across runs).
//
// Concurrency contract: none of these are thread-safe, by design rather than
// omission — every simulator owns its own instances, matching the
// one-simulator-per-thread architecture of SweepRunner, and slot/handle
// recycling order feeds deterministic event ids, so a shared locked pool
// would trade a data race for timing-dependent allocation order. Keep pools
// thread-confined; hand results across threads via SweepRunner's task-index
// slots (see src/util/thread_annotations.h for the regime split).
#ifndef SRC_UTIL_ARENA_H_
#define SRC_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace deepplan {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `bytes` of storage aligned to `align` (a power of two). Never
  // returns nullptr; allocations larger than the chunk size get a dedicated
  // chunk.
  void* Allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  // Constructs a T inside the arena. T must be trivially destructible: the
  // arena never runs destructors. (ObjectPool layers destructor handling on
  // top for the non-trivial case.)
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::New requires trivially destructible T");
    return ::new (Allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  // Rewinds the arena: all previously returned pointers become invalid, but
  // the chunks are retained for reuse.
  void Reset();

  std::size_t bytes_allocated() const { return bytes_allocated_; }
  std::size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;  // chunk being bumped (chunks_.size() when none)
  std::size_t offset_ = 0;   // bump position inside chunks_[current_]
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
};

// Generation-checked slot map. Handles are (index, generation) pairs; Free
// bumps the slot's generation so a stale handle is detectably dead. Payloads
// stay constructed for the lifetime of the pool (Free resets them to a
// default-constructed state via assignment only when requested by the
// caller), so payload-internal capacity is retained across reuse.
template <typename T>
class SlotPool {
 public:
  using Index = std::uint32_t;
  using Generation = std::uint32_t;

  struct Handle {
    Index index = 0;
    Generation generation = 0;

    // As one u64, generation in the high half (event ids, Action args).
    std::uint64_t Pack() const {
      return (static_cast<std::uint64_t>(generation) << 32) | index;
    }
    static Handle Unpack(std::uint64_t packed) {
      return {static_cast<Index>(packed & 0xffffffffu), static_cast<Generation>(packed >> 32)};
    }
  };

  // Allocates a slot (recycling a freed one when available).
  Handle Alloc() {
    Index index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<Index>(slots_.size());
      slots_.emplace_back();
    }
    slots_[index].live = true;
    ++live_count_;
    return Handle{index, slots_[index].generation};
  }

  // True when the handle names a currently-live slot.
  bool Alive(Handle h) const {
    return h.index < slots_.size() && slots_[h.index].live &&
           slots_[h.index].generation == h.generation;
  }

  // Payload access; the handle must be alive.
  T& Get(Handle h) { return slots_[h.index].value; }
  const T& Get(Handle h) const { return slots_[h.index].value; }

  // Releases the slot. Stale or double frees are detected and refused.
  bool Free(Handle h) {
    if (!Alive(h)) {
      return false;
    }
    Slot& s = slots_[h.index];
    s.live = false;
    ++s.generation;
    free_.push_back(h.index);
    --live_count_;
    return true;
  }

  std::size_t live_count() const { return live_count_; }
  // High-water slot count: memory is bounded by the max number of
  // simultaneously live slots, not by the total ever allocated.
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    T value{};
    Generation generation = 0;
    bool live = false;
  };

  std::vector<Slot> slots_;
  std::vector<Index> free_;
  std::size_t live_count_ = 0;
};

// Free-list pool of reusable T objects, constructed inside an Arena. T's
// destructor runs only when the pool itself is destroyed; Release returns the
// object to the free list *without* destroying it, so internal buffers keep
// their capacity for the next Acquire. Callers reset reused state themselves
// (the pool cannot know which fields carry over safely).
template <typename T>
class ObjectPool {
 public:
  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  ~ObjectPool() {
    for (T* obj : constructed_) {
      obj->~T();
    }
  }

  // Returns a reusable object: a previously released one when available,
  // otherwise a fresh default-constructed T in the arena.
  T* Acquire() {
    if (!free_.empty()) {
      T* obj = free_.back();
      free_.pop_back();
      return obj;
    }
    T* obj = ::new (arena_.Allocate(sizeof(T), alignof(T))) T();
    constructed_.push_back(obj);
    return obj;
  }

  // Returns `obj` (previously Acquired from this pool) to the free list.
  void Release(T* obj) { free_.push_back(obj); }

  std::size_t constructed_count() const { return constructed_.size(); }
  std::size_t free_count() const { return free_.size(); }

 private:
  Arena arena_;
  std::vector<T*> constructed_;
  std::vector<T*> free_;
};

}  // namespace deepplan

#endif  // SRC_UTIL_ARENA_H_
