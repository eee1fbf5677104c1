// Bump-pointer arena for detector hot state (DESIGN.md §15).
//
// The dependency index builds large, same-lifetime structures out of many
// small arrays: per-thread and per-(thread, lock) prefix sequences.
// Allocating each through the global heap costs an allocation per key and
// scatters the arrays across the address space — exactly the pattern the
// InnoDB deadlock checker avoids with its preallocated stack. An Arena
// carves all of them out of a few large chunks instead: allocation is a
// pointer bump, locality follows construction order, and teardown is
// freeing a handful of chunks.
//
// Rules:
//   * only trivially-destructible element types (enforced at compile
//     time) — the arena never runs destructors;
//   * alloc_array value-initializes (arrays come back zeroed);
//   * pointers stay valid until reset() or destruction — the arena grows
//     by adding chunks, never by moving old ones;
//   * single-threaded while allocating: one arena per owner; what it hands
//     out may be read concurrently once construction is done.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace wolf::support {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = std::size_t{1} << 20)
      : chunk_bytes_(chunk_bytes < kMinChunk ? kMinChunk : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Allocates a zeroed array of `n` T. n == 0 returns a non-null aligned
  // pointer (so empty slices need no special case).
  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is never destructed");
    const std::size_t bytes = n * sizeof(T);
    void* p = raw_alloc(bytes, alignof(T));
    if (bytes != 0) std::memset(p, 0, bytes);
    return static_cast<T*>(p);
  }

  template <typename T>
  T* alloc() {
    return alloc_array<T>(1);
  }

  // Releases every chunk. All pointers handed out become dangling.
  void reset() {
    chunks_.clear();
    cur_ = nullptr;
    cur_end_ = nullptr;
    allocated_ = 0;
    reserved_ = 0;
  }

  std::size_t bytes_allocated() const { return allocated_; }
  std::size_t bytes_reserved() const { return reserved_; }

 private:
  static constexpr std::size_t kMinChunk = 4096;

  void* raw_alloc(std::size_t bytes, std::size_t align) {
    std::uintptr_t p = reinterpret_cast<std::uintptr_t>(cur_);
    std::uintptr_t aligned = (p + (align - 1)) & ~std::uintptr_t(align - 1);
    if (cur_ == nullptr || aligned + bytes >
                               reinterpret_cast<std::uintptr_t>(cur_end_)) {
      // An oversized request gets a dedicated chunk; the current bump chunk
      // (if any) stays live for subsequent small allocations.
      const std::size_t want = bytes + align;
      const std::size_t size = want > chunk_bytes_ ? want : chunk_bytes_;
      // new char[size] (not make_unique) deliberately skips value-init:
      // alloc_array zeroes exactly the bytes handed out, so zero-filling
      // the whole chunk up front would pay for the slack twice.
      chunks_.push_back(std::unique_ptr<char[]>(new char[size]));
      reserved_ += size;
      char* base = chunks_.back().get();
      if (size == chunk_bytes_) {
        cur_ = base;
        cur_end_ = base + size;
        p = reinterpret_cast<std::uintptr_t>(cur_);
        aligned = (p + (align - 1)) & ~std::uintptr_t(align - 1);
      } else {
        // Dedicated chunk: align inside it and leave the bump state alone.
        std::uintptr_t b = reinterpret_cast<std::uintptr_t>(base);
        std::uintptr_t a = (b + (align - 1)) & ~std::uintptr_t(align - 1);
        allocated_ += bytes;
        return reinterpret_cast<void*>(a);
      }
    }
    cur_ = reinterpret_cast<char*>(aligned + bytes);
    allocated_ += bytes;
    return reinterpret_cast<void*>(aligned);
  }

  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cur_ = nullptr;
  char* cur_end_ = nullptr;
  std::size_t allocated_ = 0;
  std::size_t reserved_ = 0;
};

}  // namespace wolf::support
