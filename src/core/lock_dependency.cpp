#include "core/lock_dependency.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "obs/counters.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace wolf {

namespace {

const obs::Counter kTuplesCounter("detector.tuples");

constexpr std::uint64_t kStackSeed = 0x6c0c4ed5a1f3b2e7ULL;
constexpr std::uint32_t kNone = ~std::uint32_t{0};
constexpr std::size_t kArenaChunk = std::size_t{64} << 10;

std::uint64_t pack(std::int32_t hi, std::int32_t lo) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32) |
         static_cast<std::uint32_t>(lo);
}

// Running hash of a held stack after pushing (lock, site) onto `below`.
std::uint64_t push_hash(std::uint64_t below, LockId lock, SiteId site) {
  return mix64(below ^ pack(lock, site));
}

// A shape's hash: its thread's held-stack hash plus the acquisition itself.
std::uint64_t shape_hash(std::uint64_t stack, ThreadId thread, LockId lock,
                         SiteId site) {
  return mix64(stack ^ pack(lock, site) ^
               (static_cast<std::uint64_t>(static_cast<std::uint32_t>(thread)) *
                0x9e3779b97f4a7c15ULL));
}

std::uint64_t key_hash(ThreadId thread, LockId lock, const SiteId* sites,
                       std::size_t n) {
  std::uint64_t h = mix64(pack(thread, lock));
  for (std::size_t i = 0; i < n; ++i)
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sites[i])) +
                   0x9e3779b97f4a7c15ULL));
  return h;
}

constexpr std::uint64_t kTagMask = ~std::uint64_t{0} << 32;

std::uint64_t slot_of(std::uint64_t hash, std::size_t id) {
  return (hash & kTagMask) | (id + 1);
}

// Linear probing over a power-of-two table of slot_of() values (0 = empty):
// returns the slot holding the id `match` accepts, or the empty slot where
// it belongs. The hash half of a slot skips most mismatches without
// touching the entry. Entries are never removed one by one, so no
// tombstones.
template <typename Match>
std::uint64_t& probe(std::vector<std::uint64_t>& slots, std::uint64_t hash,
                     Match match) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = static_cast<std::size_t>(hash) & mask;;
       i = (i + 1) & mask) {
    std::uint64_t& slot = slots[i];
    if (slot == 0) return slot;
    if ((slot & kTagMask) == (hash & kTagMask) &&
        match(static_cast<std::uint32_t>(slot) - 1))
      return slot;
  }
}

// Keeps room for one more entry at load <= 1/2, re-slotting every entry by
// its stored hash when the table grows.
template <typename Entry>
void reserve_slot(std::vector<std::uint64_t>& slots,
                  const std::vector<Entry>& entries) {
  const std::size_t want = 2 * (entries.size() + 1);
  if (want <= slots.size()) return;
  std::size_t size = 16;
  while (size < want) size *= 2;
  slots.assign(size, 0);
  const std::size_t mask = size - 1;
  for (std::size_t id = 0; id < entries.size(); ++id) {
    std::size_t i = static_cast<std::size_t>(entries[id].hash) & mask;
    while (slots[i] != 0) i = (i + 1) & mask;
    slots[i] = slot_of(entries[id].hash, id);
  }
}

}  // namespace

ExecIndex LockTuple::mu(LockId l) const {
  if (l == lock) return context.back();
  for (std::size_t i = 0; i < lockset.size(); ++i)
    if (lockset[i] == l) return context[i];
  WOLF_CHECK_MSG(false, "µ: lock " << l << " not in tuple " << to_string());
  return {};
}

bool LockTuple::holds(LockId l) const {
  return std::find(lockset.begin(), lockset.end(), l) != lockset.end();
}

std::string LockTuple::to_string() const {
  std::ostringstream os;
  os << "(t" << thread << ", {";
  for (std::size_t i = 0; i < lockset.size(); ++i) {
    if (i != 0) os << ",";
    os << "l" << lockset[i];
  }
  os << "}, l" << lock << ", {";
  for (std::size_t i = 0; i < context.size(); ++i) {
    if (i != 0) os << ",";
    os << context[i].to_string();
  }
  os << "}, " << tau << ")";
  return os.str();
}

LockDependencyBuilder::HeldStack& LockDependencyBuilder::held_stack(
    ThreadId thread) {
  const auto i = static_cast<std::size_t>(thread);
  if (i >= held_.size()) held_.resize(i + 1);
  return held_[i];
}

void LockDependencyBuilder::add(const Event& e) {
  const std::size_t pos = pos_++;
  clocks_.apply(e);
  switch (e.kind) {
    case EventKind::kLockAcquire: {
      HeldStack& stack = held_stack(e.thread);
      const std::uint64_t below =
          stack.empty() ? kStackSeed : stack.back().hash;
      const std::uint32_t id = intern_shape(
          e, stack, shape_hash(below, e.thread, e.lock, e.site));
      Shape& shape = shapes_[id];
      std::uint8_t& canonical = key_canonical_[shape.key];
      Row row;
      row.shape = id;
      row.canonical = canonical ? 0 : 1;
      if (!canonical) keys_[shape.key].row = rows_.size();
      row.tau = clocks_.timestamp(e.thread);
      row.trace_pos = pos;
      row.occ = occ_.size();
      for (const Held& h : stack) occ_.push_back(h.occurrence);
      occ_.push_back(e.occurrence);
      rows_.push_back(row);
      canonical = 1;
      ++shape.live;
      kTuplesCounter.add();
      stack.push_back(
          Held{e.lock, e.site, e.occurrence, push_hash(below, e.lock, e.site)});
      break;
    }
    case EventKind::kLockRelease: {
      HeldStack& stack = held_stack(e.thread);
      auto it = std::find_if(stack.rbegin(), stack.rend(),
                             [&](const Held& h) { return h.lock == e.lock; });
      WOLF_CHECK_MSG(it != stack.rend(),
                     "trace releases lock " << e.lock << " not held by t"
                                            << e.thread);
      auto i = static_cast<std::size_t>(std::next(it).base() - stack.begin());
      stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i));
      // A non-LIFO release shifts the entries above it down a slot: their
      // running hashes no longer describe their prefixes.
      for (; i < stack.size(); ++i)
        stack[i].hash = push_hash(i == 0 ? kStackSeed : stack[i - 1].hash,
                                  stack[i].lock, stack[i].site);
      break;
    }
    default:
      break;
  }
}

std::uint32_t LockDependencyBuilder::intern_shape(const Event& e,
                                                  const HeldStack& stack,
                                                  std::uint64_t hash) {
  reserve_slot(shape_slots_, shapes_);
  const auto depth = static_cast<std::uint32_t>(stack.size());
  std::uint64_t& slot = probe(shape_slots_, hash, [&](std::uint32_t id) {
    const Shape& s = shapes_[id];
    if (s.hash != hash || s.thread != e.thread || s.lock != e.lock ||
        s.depth != depth || s.sites[depth] != e.site)
      return false;
    for (std::uint32_t i = 0; i < depth; ++i)
      if (s.held[i] != stack[i].lock || s.sites[i] != stack[i].site)
        return false;
    return true;
  });
  if (slot != 0) return static_cast<std::uint32_t>(slot) - 1;

  WOLF_CHECK_MSG(shapes_.size() < (std::size_t{1} << 31),
                 "D_σ store: more than 2^31 distinct acquisition shapes");
  if (!arena_) arena_ = std::make_unique<support::Arena>(kArenaChunk);
  LockId* held = arena_->alloc_array<LockId>(depth);
  SiteId* sites = arena_->alloc_array<SiteId>(depth + 1);
  for (std::uint32_t i = 0; i < depth; ++i) {
    held[i] = stack[i].lock;
    sites[i] = stack[i].site;
  }
  sites[depth] = e.site;
  Shape shape;
  shape.thread = e.thread;
  shape.lock = e.lock;
  shape.depth = depth;
  shape.hash = hash;
  shape.held = held;
  shape.sites = sites;
  shape.key = intern_key(shape);
  const auto id = static_cast<std::uint32_t>(shapes_.size());
  shapes_.push_back(shape);
  slot = slot_of(hash, id);
  return id;
}

std::uint32_t LockDependencyBuilder::intern_key(const Shape& shape) {
  reserve_slot(key_slots_, keys_);
  const std::size_t n = shape.depth + 1;
  const std::uint64_t hash = key_hash(shape.thread, shape.lock, shape.sites, n);
  std::uint64_t& slot = probe(key_slots_, hash, [&](std::uint32_t id) {
    const Key& k = keys_[id];
    return k.hash == hash && k.thread == shape.thread &&
           k.lock == shape.lock && k.depth == shape.depth &&
           std::equal(shape.sites, shape.sites + n, k.sites);
  });
  if (slot != 0) return static_cast<std::uint32_t>(slot) - 1;
  Key key;
  key.thread = shape.thread;
  key.lock = shape.lock;
  key.depth = shape.depth;
  key.hash = hash;
  key.sites = shape.sites;
  const auto id = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(key);
  key_canonical_.push_back(0);
  keys_by_lock_[key.lock].push_back(id);
  slot = slot_of(hash, id);
  return id;
}

void LockDependencyBuilder::fill_tuple(const Row& row, LockTuple& t) const {
  const Shape& s = shapes_[row.shape];
  t.thread = s.thread;
  t.lock = s.lock;
  t.tau = row.tau;
  t.trace_pos = row.trace_pos;
  t.lockset.assign(s.held, s.held + s.depth);
  t.context.resize(s.depth + 1);
  for (std::size_t j = 0; j <= s.depth; ++j)
    t.context[j] = ExecIndex{s.thread, s.sites[j], occ_[row.occ + j]};
}

LockDependency LockDependencyBuilder::snapshot_dependency() const {
  LockDependency dep;
  dep.tuples.resize(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    fill_tuple(rows_[i], dep.tuples[i]);
    if (rows_[i].canonical) dep.unique.push_back(i);
  }
  return dep;
}

std::vector<std::size_t> LockDependencyBuilder::canonical_rows(
    std::span<const LockId> locks) const {
  std::vector<std::size_t> out;
  for (LockId lock : locks) {
    auto it = keys_by_lock_.find(lock);
    if (it == keys_by_lock_.end()) continue;
    for (std::uint32_t key : it->second)
      if (key_canonical_[key]) out.push_back(keys_[key].row);
  }
  std::sort(out.begin(), out.end());
  return out;
}

LockDependency LockDependencyBuilder::take_dependency() {
  LockDependency dep = snapshot_dependency();
  reset_store();
  return dep;
}

LockDependency LockDependencyBuilder::snapshot_subset(
    const std::vector<std::size_t>& indices) const {
  // The first occurrence of each key *within the subset*: a subset that
  // leaves out a key's canonical row promotes its first member instead.
  LockDependency sub;
  sub.tuples.resize(indices.size());
  std::unordered_set<std::uint32_t> seen;
  seen.reserve(indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    const Row& row = rows_[indices[j]];
    fill_tuple(row, sub.tuples[j]);
    if (seen.insert(shapes_[row.shape].key).second) sub.unique.push_back(j);
  }
  return sub;
}

template <typename Keep>
std::size_t LockDependencyBuilder::filter_rows(const ExpiryHook& on_expire,
                                               Keep keep) {
  std::size_t kept = 0;
  std::size_t occ_end = 0;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    Row row = rows_[i];
    Shape& shape = shapes_[row.shape];
    if (!keep(i, row)) {
      if (--shape.live == 0 && on_expire) on_expire(shape);
      continue;
    }
    const std::size_t n = shape.depth + 1;
    if (occ_end != row.occ)
      std::copy_n(occ_.begin() + static_cast<std::ptrdiff_t>(row.occ), n,
                  occ_.begin() + static_cast<std::ptrdiff_t>(occ_end));
    row.occ = occ_end;
    occ_end += n;
    if (row.canonical) keys_[shape.key].row = kept;
    rows_[kept++] = row;
  }
  const std::size_t removed = rows_.size() - kept;
  rows_.resize(kept);
  rows_.shrink_to_fit();
  occ_.resize(occ_end);
  occ_.shrink_to_fit();
  return removed;
}

std::size_t LockDependencyBuilder::compact(const ExpiryHook& on_expire) {
  const std::size_t removed = filter_rows(
      on_expire, [](std::size_t, const Row& row) { return row.canonical != 0; });
  collect_dead_shapes();
  return removed;
}

std::size_t LockDependencyBuilder::evict_oldest(std::size_t max_tuples,
                                                const ExpiryHook& on_expire) {
  if (rows_.size() <= max_tuples) return 0;
  const std::size_t evicted = rows_.size() - max_tuples;
  // Rows are in trace order, so the oldest are the front.
  bool orphaned = false;
  for (std::size_t i = 0; i < evicted; ++i) {
    if (!rows_[i].canonical) continue;
    key_canonical_[shapes_[rows_[i].shape].key] = 0;
    orphaned = true;
  }
  filter_rows(on_expire,
              [&](std::size_t i, const Row&) { return i >= evicted; });
  // A key whose canonical row went flags its first retained occurrence.
  if (orphaned) {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const std::uint32_t key = shapes_[rows_[i].shape].key;
      if (key_canonical_[key]) continue;
      rows_[i].canonical = 1;
      key_canonical_[key] = 1;
      keys_[key].row = i;
    }
  }
  collect_dead_shapes();
  return evicted;
}

void LockDependencyBuilder::collect_dead_shapes() {
  std::size_t live = 0;
  for (const Shape& s : shapes_) live += s.live > 0 ? 1 : 0;
  if (2 * live >= shapes_.size()) return;

  auto arena = std::make_unique<support::Arena>(kArenaChunk);
  std::vector<std::uint32_t> shape_id(shapes_.size(), kNone);
  std::vector<std::uint32_t> key_id(keys_.size(), kNone);
  std::vector<Shape> shapes;
  std::vector<Key> keys;
  std::vector<std::uint8_t> key_canonical;
  shapes.reserve(live);
  for (std::size_t id = 0; id < shapes_.size(); ++id) {
    Shape s = shapes_[id];
    if (s.live == 0) continue;
    LockId* held = arena->alloc_array<LockId>(s.depth);
    SiteId* sites = arena->alloc_array<SiteId>(s.depth + 1);
    std::copy_n(s.held, s.depth, held);
    std::copy_n(s.sites, s.depth + 1, sites);
    s.held = held;
    s.sites = sites;
    std::uint32_t& k = key_id[s.key];
    if (k == kNone) {
      Key key = keys_[s.key];
      key.sites = sites;
      k = static_cast<std::uint32_t>(keys.size());
      keys.push_back(key);
      key_canonical.push_back(key_canonical_[s.key]);
    }
    s.key = k;
    shape_id[id] = static_cast<std::uint32_t>(shapes.size());
    shapes.push_back(s);
  }
  for (Row& row : rows_) row.shape = shape_id[row.shape];
  shapes_ = std::move(shapes);
  keys_ = std::move(keys);
  key_canonical_ = std::move(key_canonical);
  arena_ = std::move(arena);
  keys_by_lock_.clear();
  for (std::size_t id = 0; id < keys_.size(); ++id)
    keys_by_lock_[keys_[id].lock].push_back(static_cast<std::uint32_t>(id));
  shape_slots_.clear();
  key_slots_.clear();
  reserve_slot(shape_slots_, shapes_);
  reserve_slot(key_slots_, keys_);
}

void LockDependencyBuilder::reset_store() {
  rows_ = {};
  occ_ = {};
  shapes_ = {};
  keys_ = {};
  key_canonical_ = {};
  keys_by_lock_ = {};
  shape_slots_ = {};
  key_slots_ = {};
  arena_.reset();
}

void LockDependencyBuilder::clear() {
  reset_store();
  clocks_ = ClockTracker{};
  held_.clear();
  pos_ = 0;
}

LockDependency LockDependency::from_trace(const Trace& trace) {
  LockDependencyBuilder builder;
  for (const Event& e : trace.events) builder.add(e);
  return builder.take_dependency();
}

std::vector<std::size_t> LockDependency::thread_prefix(
    ThreadId thread, std::size_t last_pos) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (tuples[i].thread != thread) continue;
    if (tuples[i].trace_pos > last_pos) break;
    out.push_back(i);
  }
  return out;
}

DependencyIndex DependencyIndex::build(const LockDependency& dep) {
  DependencyIndex index;
  index.dep_ = &dep;
  index.arena_ = std::make_unique<support::Arena>();
  const std::size_t n = dep.tuples.size();

  // Count pass: each tuple lands once in its thread's sequence and once in
  // its (thread, lock) sequence, so the pool is exactly 2n entries.
  for (const LockTuple& t : dep.tuples) {
    ++index.by_thread_[t.thread].length;
    ++index.by_thread_lock_[key(t.thread, t.lock)].length;
  }
  std::size_t* pool = index.arena_->alloc_array<std::size_t>(2 * n);
  index.pool_ = pool;

  // Offsets in first-appearance (trace) order, then the fill. Tuples are in
  // trace order, so each sequence comes out sorted by trace_pos for free.
  std::uint32_t next = 0;
  auto place = [&](Range& r, std::size_t i) {
    if (!r.assigned) {
      r.offset = next;
      next += r.length;
      r.assigned = true;
    }
    pool[r.offset + r.filled++] = i;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const LockTuple& t = dep.tuples[i];
    place(index.by_thread_[t.thread], i);
    place(index.by_thread_lock_[key(t.thread, t.lock)], i);
  }
  return index;
}

std::span<const std::size_t> DependencyIndex::prefix_of(
    const Range* range, std::size_t last_pos) const {
  if (range == nullptr) return {};
  const std::size_t* first = pool_ + range->offset;
  const std::size_t* last = first + range->length;
  auto end = std::upper_bound(
      first, last, last_pos,
      [&](std::size_t pos, std::size_t i) { return pos < dep_->tuples[i].trace_pos; });
  return {first, static_cast<std::size_t>(end - first)};
}

std::span<const std::size_t> DependencyIndex::thread_prefix(
    ThreadId thread, std::size_t last_pos) const {
  auto it = by_thread_.find(thread);
  return prefix_of(it == by_thread_.end() ? nullptr : &it->second, last_pos);
}

std::span<const std::size_t> DependencyIndex::thread_lock_prefix(
    ThreadId thread, LockId lock, std::size_t last_pos) const {
  auto it = by_thread_lock_.find(key(thread, lock));
  return prefix_of(it == by_thread_lock_.end() ? nullptr : &it->second,
                   last_pos);
}

}  // namespace wolf
