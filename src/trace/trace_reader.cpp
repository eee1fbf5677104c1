#include "trace/trace_reader.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>

#include "obs/counters.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"
#include "trace/wire.hpp"

namespace wolf {

namespace {

const obs::Counter kBlocksRead("trace.blocks");
const obs::Counter kEventsRead("trace.events");
const obs::Counter kSalvageRepairs("trace.salvage_repairs");
// Which open path fires depends on --jobs (and on whether mmap succeeded on
// this machine), so these are scheduling artifacts, not pipeline semantics —
// excluded from the byte-stable metrics report.
const obs::Counter kMmapOpens("trace.mmap_opens", /*stable=*/false);
const obs::Counter kIndexedOpens("trace.indexed_opens", /*stable=*/false);

constexpr int kEof = std::istream::traits_type::eof();

// Block-size cap accepted by the reader. Writers emit wire::kBlockEvents;
// anything a reader could not sanely buffer is structural corruption.
constexpr std::uint64_t kMaxBlockEvents = 1u << 24;

// A defect in the region after the 'E' footer (the optional block index).
// Worded to name both the footer boundary and the index, because tests and
// users probing a truncated file search for either.
const char kBadIndexMsg[] =
    "malformed data after wolf-trace v3 footer (block index)";

// Decodes one block's payload against its stored checksum. Returns the
// defect message ("" on success); `out` holds the decoded events (partial
// on failure — callers discard it then). Shared by the buffered, mmap'd,
// and parallel decode paths so their diagnostics can never diverge.
std::string decode_block_events(std::string_view payload, std::uint64_t count,
                                std::uint64_t stored_checksum,
                                const std::string& label,
                                std::vector<Event>& out) {
  wire::ByteReader r(payload);
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  std::uint64_t block_checksum = wire::kChecksumSeed;
  std::uint64_t prev = 0;
  for (std::uint64_t j = 0; j < count; ++j) {
    Event e;
    if (!wire::get_event(r, j == 0, prev, e))
      return label + ": malformed event";
    prev = e.seq;
    block_checksum = wire::checksum_event(block_checksum, e);
    out.push_back(e);
  }
  if (r.remaining() != 0) return label + ": trailing bytes in payload";
  if (block_checksum != stored_checksum) return label + ": checksum mismatch";
  return {};
}

// Byte-cursor reads over a mapped file.

bool mem_u8(std::string_view d, std::size_t& pos, std::uint8_t& out) {
  if (pos >= d.size()) return false;
  out = static_cast<std::uint8_t>(d[pos++]);
  return true;
}

bool mem_varint(std::string_view d, std::size_t& pos, std::uint64_t& out) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= d.size()) return false;
    const auto byte = static_cast<std::uint8_t>(d[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      out = v;
      return true;
    }
  }
  return false;
}

bool mem_u64le(std::string_view d, std::size_t& pos, std::uint64_t& out) {
  if (d.size() - pos < 8 || pos > d.size()) return false;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(d[pos++]))
         << (8 * i);
  out = v;
  return true;
}

// Reads a varint byte-by-byte off the stream; false on EOF or overlong runs.
bool stream_varint(std::istream& is, std::uint64_t& out) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const int c = is.get();
    if (c == kEof) return false;
    v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) {
      out = v;
      return true;
    }
  }
  return false;
}

bool stream_u64le(std::istream& is, std::uint64_t& out) {
  char buf[8];
  if (!is.read(buf, sizeof buf)) return false;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  out = v;
  return true;
}

}  // namespace

bool VectorTraceReader::next_block(std::vector<Event>& out) {
  out.clear();
  if (pos_ >= trace_->events.size()) return false;
  const std::size_t n =
      std::min(wire::kBlockEvents, trace_->events.size() - pos_);
  out.assign(trace_->events.begin() + static_cast<std::ptrdiff_t>(pos_),
             trace_->events.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  kBlocksRead.add();
  kEventsRead.add(n);
  return true;
}

// One block decoded off the index, ready for in-order delivery.
struct StreamTraceReader::DecodedBlock {
  std::vector<Event> events;
  std::string defect;       // non-empty: the block is damaged
  std::uint64_t count = 0;  // header-claimed events (drop accounting)
  std::size_t end = 0;      // file offset just past the block's checksum
};

StreamTraceReader::StreamTraceReader(std::istream& is, Mode mode)
    : is_(&is), mode_(mode), checksum_(wire::kChecksumSeed) {}

StreamTraceReader::StreamTraceReader(const std::string& path, Mode mode,
                                     Options options)
    : path_(path), mode_(mode), options_(options),
      checksum_(wire::kChecksumSeed) {}

StreamTraceReader::~StreamTraceReader() = default;

void StreamTraceReader::defect(std::string msg) {
  if (mode_ == Mode::kStrict) {
    if (error_.empty()) error_ = std::move(msg);
    stage_ = Stage::kDone;
    return;
  }
  kSalvageRepairs.add();
  if (diagnostics_.size() < wire::kMaxDiagnostics)
    diagnostics_.push_back(std::move(msg));
}

bool StreamTraceReader::next_block(std::vector<Event>& out) {
  out.clear();
  bool more = false;
  if (stage_ == Stage::kStart && !start()) return false;
  if (stage_ == Stage::kText)
    more = next_text(out);
  else if (stage_ == Stage::kBinary)
    more = next_binary(out);
  else if (stage_ == Stage::kBinaryMem)
    more = next_binary_mem(out);
  else if (stage_ == Stage::kBinaryIndexed)
    more = next_binary_indexed(out);
  if (more) {
    kBlocksRead.add();
    kEventsRead.add(out.size());
  }
  return more;
}

bool StreamTraceReader::open_memory_v3() {
  if (path_.empty() || !options_.allow_mmap) return false;
  map_ = support::MmapFile::open(path_);
  if (!map_) return false;
  data_ = map_->bytes();
  if (data_.size() < sizeof wire::kMagicV3 ||
      std::memcmp(data_.data(), wire::kMagicV3, sizeof wire::kMagicV3) != 0) {
    // Text trace, or a damaged magic: the buffered path owns both cases so
    // defect messages stay identical with and without mmap.
    map_.reset();
    data_ = {};
    return false;
  }
  kMmapOpens.add();
  mem_mode_ = true;
  version_ = 3;
  pos_ = sizeof wire::kMagicV3;
  return true;
}

bool StreamTraceReader::load_index() {
  if (!options_.use_index) return false;
  if (data_.size() < sizeof wire::kMagicV3 + wire::kIndexTrailerBytes)
    return false;
  const std::size_t trailer = data_.size() - wire::kIndexTrailerBytes;
  if (std::memcmp(data_.data() + trailer + 8, wire::kIndexMagic,
                  sizeof wire::kIndexMagic) != 0)
    return false;
  index_present_ = true;  // trailer magic found; the rest is validation
  std::size_t tpos = trailer;
  std::uint64_t offset = 0;
  mem_u64le(data_, tpos, offset);
  if (offset < sizeof wire::kMagicV3 || offset >= trailer) return false;
  if (data_[offset] != wire::kIndexTag) return false;
  wire::ByteReader r(
      data_.substr(offset + 1, trailer - static_cast<std::size_t>(offset) - 1));
  if (!wire::get_index_entries(r, index_)) {
    index_.clear();
    return false;
  }
  // Semantic validation: offsets and seq ranges must be strictly ordered
  // and in bounds, counts sane. An index failing any of these is discarded
  // and the sequential scan takes over.
  std::uint64_t prev_off = 0, prev_last = 0;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    const wire::IndexEntry& e = index_[i];
    const bool bad =
        (i == 0 && e.offset != sizeof wire::kMagicV3) ||
        (i > 0 && e.offset <= prev_off) || e.offset >= offset ||
        e.count == 0 || e.count > kMaxBlockEvents ||
        e.last_seq < e.first_seq || (i > 0 && e.first_seq <= prev_last);
    if (bad) {
      index_.clear();
      return false;
    }
    prev_off = e.offset;
    prev_last = e.last_seq;
  }
  index_offset_ = static_cast<std::size_t>(offset);
  return true;
}

bool StreamTraceReader::start() {
  if (!path_.empty() && is_ == nullptr) {
    if (open_memory_v3()) {
      // jobs <= 0 means "auto" repo-wide (thread_pool.hpp); resolve it here
      // so CLI callers can forward their shared --jobs flag untouched.
      const int jobs = options_.jobs <= 0 ? ThreadPool::hardware_jobs()
                                          : options_.jobs;
      if (load_index() && jobs > 1) {
        kIndexedOpens.add();
        pool_ = std::make_unique<ThreadPool>(jobs);
        last_block_end_ = sizeof wire::kMagicV3;
        stage_ = Stage::kBinaryIndexed;
      } else {
        stage_ = Stage::kBinaryMem;
      }
      return true;
    }
    auto file = std::make_unique<std::ifstream>(path_, std::ios::binary);
    if (!*file) {
      defect("cannot open trace file '" + path_ + "'");
      stage_ = Stage::kDone;
      return false;
    }
    file_ = std::move(file);
    is_ = file_.get();
  }
  const int first = is_->peek();
  if (first == kEof) {
    defect(mode_ == Mode::kStrict ? "missing wolf-trace header"
                                  : "empty input");
    stage_ = Stage::kDone;
    return false;
  }
  if (first == (wire::kMagicV3[0] & 0xff)) {
    char magic[8];
    if (!is_->read(magic, 8) ||
        std::memcmp(magic, wire::kMagicV3, sizeof magic) != 0) {
      defect("bad wolf-trace v3 magic");
      stage_ = Stage::kDone;
      return false;
    }
    version_ = 3;
    stage_ = Stage::kBinary;
    return true;
  }
  std::string line;
  std::getline(*is_, line);
  lineno_ = 1;
  const auto header = trim(line);
  if (header == wire::kHeaderV1) {
    version_ = 1;
  } else if (header == wire::kHeaderV2) {
    version_ = 2;
  } else {
    defect("missing wolf-trace header");
    if (mode_ == Mode::kStrict) return false;  // defect() ended the stream
    // Maybe only the header was lost: reparse line 1 as an event.
    pending_first_line_ = std::string(header);
    reparse_first_ = true;
  }
  stage_ = Stage::kText;
  return true;
}

// ----------------------------------------------------------------- text ----

bool StreamTraceReader::consume_text_line(std::string_view text,
                                          std::vector<Event>& out) {
  if (text.empty()) return false;
  if (text.front() == '#') {
    // Footer lines matter for v2 and for headerless input (which may be a
    // v2 trace whose first line was lost); under v1 they are comments.
    if (version_ != 1 && starts_with(text, wire::kFooterPrefix)) {
      if (footer_seen_) {
        defect("duplicate wolf-trace footer at line " +
               std::to_string(lineno_));
        return false;
      }
      if (!wire::parse_footer(text, footer_count_, footer_checksum_)) {
        defect("malformed wolf-trace footer at line " +
               std::to_string(lineno_));
        return false;
      }
      footer_seen_ = true;
    }
    return false;
  }
  if (!prefix_open_ || footer_seen_) {
    if (footer_seen_ && prefix_open_)
      defect("event after wolf-trace footer at line " +
             std::to_string(lineno_));
    if (mode_ == Mode::kStrict) return false;
    prefix_open_ = false;
    ++events_dropped_;
    return false;
  }
  Event e;
  std::string err;
  if (!wire::parse_event_line(text, lineno_, e, err)) {
    defect(std::move(err));
    prefix_open_ = false;
    ++events_dropped_;
    return false;
  }
  if (have_prev_ && e.seq <= prev_seq_) {
    defect("non-monotonic sequence number at line " + std::to_string(lineno_));
    prefix_open_ = false;
    ++events_dropped_;
    return false;
  }
  prev_seq_ = e.seq;
  have_prev_ = true;
  checksum_ = wire::checksum_event(checksum_, e);
  ++count_;
  out.push_back(e);
  return true;
}

bool StreamTraceReader::next_text(std::vector<Event>& out) {
  if (reparse_first_) {
    reparse_first_ = false;
    consume_text_line(pending_first_line_, out);
  }
  std::string line;
  while (stage_ == Stage::kText && out.size() < wire::kBlockEvents &&
         std::getline(*is_, line)) {
    ++lineno_;
    consume_text_line(trim(line), out);
  }
  if (stage_ == Stage::kDone) {  // strict defect mid-stream
    out.clear();
    return false;
  }
  if (out.size() >= wire::kBlockEvents) return true;
  // End of input: run the footer checks, then deliver the final partial
  // block (unless a strict check just failed).
  if (version_ == 2 && !footer_seen_) {
    defect("missing wolf-trace footer (truncated trace?)");
  } else if (footer_seen_) {
    if (footer_count_ != count_) {
      defect("footer event count mismatch (footer says " +
             std::to_string(footer_count_) + ", " +
             (mode_ == Mode::kStrict ? "trace has " : "salvaged ") +
             std::to_string(count_) + ")");
    } else if (footer_checksum_ != checksum_) {
      defect("trace checksum mismatch");
    }
  }
  const bool failed = stage_ == Stage::kDone;  // strict footer defect
  stage_ = Stage::kDone;
  if (failed || out.empty()) {
    out.clear();
    return false;
  }
  return true;
}

// ------------------------------------------------------ binary (stream) ----

bool StreamTraceReader::next_binary(std::vector<Event>& out) {
  while (stage_ == Stage::kBinary) {
    const int tag = is_->get();
    if (tag == kEof) {
      if (!footer_seen_)
        defect("missing wolf-trace v3 footer (truncated trace?)");
      else
        finish_footer_checks(events_dropped_ > 0);
      stage_ = Stage::kDone;
      break;
    }
    if (footer_seen_) {
      if (tag == wire::kIndexTag) {
        consume_index_section_stream();
        continue;
      }
      defect("data after wolf-trace v3 footer");
      stage_ = Stage::kDone;
      break;
    }
    if (tag == wire::kFooterTag) {
      if (!stream_varint(*is_, footer_count_) ||
          !stream_u64le(*is_, footer_checksum_)) {
        defect("malformed wolf-trace v3 footer");
        stage_ = Stage::kDone;
        break;
      }
      footer_seen_ = true;
      continue;
    }
    if (tag != wire::kBlockTag) {
      defect("bad wolf-trace v3 block tag (block " +
             std::to_string(next_block_index_) + ")");
      stage_ = Stage::kDone;
      break;
    }

    const std::string label = "block " + std::to_string(next_block_index_++);
    std::uint64_t count = 0, payload_size = 0;
    if (!stream_varint(*is_, count) || !stream_varint(*is_, payload_size)) {
      defect(label + ": truncated header");
      stage_ = Stage::kDone;
      break;
    }
    if (count == 0 || count > kMaxBlockEvents ||
        payload_size < count * wire::kMinEventBytes ||
        payload_size > count * wire::kMaxEventBytes) {
      defect(label + ": malformed header");
      stage_ = Stage::kDone;
      break;
    }
    std::string payload(static_cast<std::size_t>(payload_size), '\0');
    if (!is_->read(payload.data(),
                   static_cast<std::streamsize>(payload_size))) {
      defect(label + ": truncated payload");
      events_dropped_ += count;
      stage_ = Stage::kDone;
      break;
    }
    std::uint64_t stored_checksum = 0;
    if (!stream_u64le(*is_, stored_checksum)) {
      defect(label + ": truncated checksum");
      events_dropped_ += count;
      stage_ = Stage::kDone;
      break;
    }

    // Framing is intact from here on, so in salvage mode a defect drops
    // only this block and the loop moves on to the next one.
    std::string bad =
        decode_block_events(payload, count, stored_checksum, label, out);
    if (bad.empty() && have_prev_ && out.front().seq <= prev_seq_)
      bad = label + ": non-monotonic sequence number";
    if (!bad.empty()) {
      defect(std::move(bad));
      events_dropped_ += count;
      continue;  // salvage: skip this block; strict: stage_ is kDone
    }
    for (const Event& e : out) checksum_ = wire::checksum_event(checksum_, e);
    prev_seq_ = out.back().seq;
    have_prev_ = true;
    count_ += count;
    return true;
  }
  out.clear();
  return false;
}

void StreamTraceReader::consume_index_section_stream() {
  // The index is the last section of the file; slurp the remainder (it is
  // small — ~14 bytes per 512-event block) and validate it wholesale.
  std::string rest{std::istreambuf_iterator<char>(*is_),
                   std::istreambuf_iterator<char>()};
  bool ok = rest.size() >= wire::kIndexTrailerBytes;
  std::vector<wire::IndexEntry> entries;
  if (ok) {
    const std::size_t trailer = rest.size() - wire::kIndexTrailerBytes;
    ok = std::memcmp(rest.data() + trailer + 8, wire::kIndexMagic,
                     sizeof wire::kIndexMagic) == 0;
    if (ok) {
      wire::ByteReader r(std::string_view(rest).substr(0, trailer));
      ok = wire::get_index_entries(r, entries);
    }
  }
  if (ok) ok = entries.size() == next_block_index_;
  if (!ok) {
    defect(kBadIndexMsg);
    return;  // salvage: nothing after the index region is deliverable
  }
  index_present_ = true;
}

// -------------------------------------------------------- binary (mmap) ----

bool StreamTraceReader::next_binary_mem(std::vector<Event>& out) {
  while (stage_ == Stage::kBinaryMem) {
    if (pos_ >= data_.size()) {
      if (!footer_seen_)
        defect("missing wolf-trace v3 footer (truncated trace?)");
      else
        finish_footer_checks(events_dropped_ > 0);
      stage_ = Stage::kDone;
      break;
    }
    const auto tag = static_cast<std::uint8_t>(data_[pos_]);
    ++pos_;
    if (footer_seen_) {
      if (tag == static_cast<std::uint8_t>(wire::kIndexTag)) {
        consume_index_section_mem();
        continue;
      }
      defect("data after wolf-trace v3 footer");
      stage_ = Stage::kDone;
      break;
    }
    if (tag == static_cast<std::uint8_t>(wire::kFooterTag)) {
      if (!mem_varint(data_, pos_, footer_count_) ||
          !mem_u64le(data_, pos_, footer_checksum_)) {
        defect("malformed wolf-trace v3 footer");
        stage_ = Stage::kDone;
        break;
      }
      footer_seen_ = true;
      continue;
    }
    if (tag != static_cast<std::uint8_t>(wire::kBlockTag)) {
      defect("bad wolf-trace v3 block tag (block " +
             std::to_string(next_block_index_) + ")");
      stage_ = Stage::kDone;
      break;
    }

    const std::string label = "block " + std::to_string(next_block_index_++);
    std::uint64_t count = 0, payload_size = 0;
    if (!mem_varint(data_, pos_, count) ||
        !mem_varint(data_, pos_, payload_size)) {
      defect(label + ": truncated header");
      stage_ = Stage::kDone;
      break;
    }
    if (count == 0 || count > kMaxBlockEvents ||
        payload_size < count * wire::kMinEventBytes ||
        payload_size > count * wire::kMaxEventBytes) {
      defect(label + ": malformed header");
      stage_ = Stage::kDone;
      break;
    }
    if (payload_size > data_.size() - pos_) {
      defect(label + ": truncated payload");
      events_dropped_ += count;
      stage_ = Stage::kDone;
      break;
    }
    const std::string_view payload =
        data_.substr(pos_, static_cast<std::size_t>(payload_size));
    pos_ += static_cast<std::size_t>(payload_size);
    std::uint64_t stored_checksum = 0;
    if (!mem_u64le(data_, pos_, stored_checksum)) {
      defect(label + ": truncated checksum");
      events_dropped_ += count;
      stage_ = Stage::kDone;
      break;
    }

    std::string bad =
        decode_block_events(payload, count, stored_checksum, label, out);
    if (bad.empty() && have_prev_ && out.front().seq <= prev_seq_)
      bad = label + ": non-monotonic sequence number";
    if (!bad.empty()) {
      defect(std::move(bad));
      events_dropped_ += count;
      continue;  // salvage: skip this block; strict: stage_ is kDone
    }
    for (const Event& e : out) checksum_ = wire::checksum_event(checksum_, e);
    prev_seq_ = out.back().seq;
    have_prev_ = true;
    count_ += count;
    return true;
  }
  out.clear();
  return false;
}

void StreamTraceReader::consume_index_section_mem() {
  // pos_ is just past the 'I' tag; the section must run to exactly 16
  // bytes before EOF, and the trailer must point back at the tag.
  const std::size_t size = data_.size();
  const std::size_t tag_at = pos_ - 1;
  bool ok = size - pos_ >= wire::kIndexTrailerBytes;
  std::vector<wire::IndexEntry> entries;
  if (ok) {
    const std::size_t trailer = size - wire::kIndexTrailerBytes;
    ok = std::memcmp(data_.data() + trailer + 8, wire::kIndexMagic,
                     sizeof wire::kIndexMagic) == 0;
    if (ok) {
      wire::ByteReader r(data_.substr(pos_, trailer - pos_));
      ok = wire::get_index_entries(r, entries);
    }
    if (ok) {
      std::size_t tpos = trailer;
      std::uint64_t offset = 0;
      mem_u64le(data_, tpos, offset);
      ok = offset == tag_at;
    }
  }
  if (ok) ok = entries.size() == next_block_index_;
  if (!ok) {
    defect(kBadIndexMsg);
    pos_ = size;  // salvage: skip the damaged tail; strict: stage_ is kDone
    return;
  }
  index_present_ = true;
  pos_ = size;
}

// ---------------------------------------------- binary (mmap + indexed) ----

void StreamTraceReader::decode_batch() {
  const std::size_t width =
      std::max<std::size_t>(16, static_cast<std::size_t>(pool_->jobs()) * 4);
  const std::size_t n = std::min(width, index_.size() - next_entry_);
  batch_.clear();
  batch_.resize(n);
  const std::size_t base = next_entry_;
  pool_->parallel_for_each(n, [&](std::size_t k) {
    const std::size_t bi = base + k;
    const wire::IndexEntry& entry = index_[bi];
    DecodedBlock& slot = batch_[k];
    slot.count = entry.count;
    const std::string label = "block " + std::to_string(bi);
    // Blocks and the footer live in [8, index_offset_): bound all reads by
    // the index section so a lying entry cannot walk into it.
    const std::string_view region = data_.substr(0, index_offset_);
    std::size_t pos = static_cast<std::size_t>(entry.offset);
    std::uint8_t tag = 0;
    if (!mem_u8(region, pos, tag) ||
        tag != static_cast<std::uint8_t>(wire::kBlockTag)) {
      slot.defect = "bad wolf-trace v3 block tag (" + label + ")";
      return;
    }
    std::uint64_t count = 0, payload_size = 0;
    if (!mem_varint(region, pos, count) ||
        !mem_varint(region, pos, payload_size)) {
      slot.defect = label + ": truncated header";
      return;
    }
    if (count == 0 || count > kMaxBlockEvents || count != entry.count ||
        payload_size < count * wire::kMinEventBytes ||
        payload_size > count * wire::kMaxEventBytes) {
      slot.defect = label + ": malformed header";
      return;
    }
    if (payload_size > region.size() - pos) {
      slot.defect = label + ": truncated payload";
      return;
    }
    const std::string_view payload =
        region.substr(pos, static_cast<std::size_t>(payload_size));
    pos += static_cast<std::size_t>(payload_size);
    std::uint64_t stored_checksum = 0;
    if (!mem_u64le(region, pos, stored_checksum)) {
      slot.defect = label + ": truncated checksum";
      return;
    }
    slot.end = pos;
    slot.defect = decode_block_events(payload, count, stored_checksum, label,
                                      slot.events);
    if (!slot.defect.empty()) return;
    // The entry must agree with what the block decodes to, and chaining
    // this block's events onto the previous entry's running checksum must
    // land on this entry's — which is how the whole-trace checksum gets
    // verified in parallel without replaying the prefix.
    std::uint64_t chain = bi == 0 ? wire::kChecksumSeed : index_[bi - 1].chain;
    for (const Event& e : slot.events)
      chain = wire::checksum_event(chain, e);
    if (slot.events.front().seq != entry.first_seq ||
        slot.events.back().seq != entry.last_seq || chain != entry.chain)
      slot.defect = label + ": footer index mismatch";
  });
  next_entry_ += n;
  batch_pos_ = 0;
}

bool StreamTraceReader::next_binary_indexed(std::vector<Event>& out) {
  while (stage_ == Stage::kBinaryIndexed) {
    if (batch_pos_ >= batch_.size()) {
      if (next_entry_ >= index_.size()) {
        finish_indexed();
        break;
      }
      decode_batch();
    }
    DecodedBlock& block = batch_[batch_pos_++];
    const std::size_t bi = next_block_index_++;
    // Contiguity: each block must start exactly where the previous one
    // ended (the sequential scan gets this for free). Only checkable when
    // the previous block's framing was intact.
    if (last_block_end_ != 0 && index_[bi].offset != last_block_end_) {
      defect("bad wolf-trace v3 block tag (block " + std::to_string(bi) +
             ")");
      stage_ = Stage::kDone;  // desync: same stop the sequential scan makes
      break;
    }
    last_block_end_ = block.defect.empty() ? block.end : 0;
    std::string bad = std::move(block.defect);
    if (bad.empty() && have_prev_ && block.events.front().seq <= prev_seq_)
      bad = "block " + std::to_string(bi) + ": non-monotonic sequence number";
    if (!bad.empty()) {
      defect(std::move(bad));
      events_dropped_ += block.count;
      continue;  // salvage: drop this block; strict: stage_ is kDone
    }
    out = std::move(block.events);
    checksum_ = index_[bi].chain;  // verified against the events in-worker
    prev_seq_ = out.back().seq;
    have_prev_ = true;
    count_ += out.size();
    return true;
  }
  out.clear();
  return false;
}

bool StreamTraceReader::finish_indexed() {
  // Every indexed block is delivered (or dropped by name); what remains is
  // [last_block_end_, index_offset_), which must be exactly the footer.
  stage_ = Stage::kDone;
  if (last_block_end_ == 0) return false;  // tail block had broken framing
  std::size_t pos = last_block_end_;
  std::uint8_t tag = 0;
  const std::string_view region = data_.substr(0, index_offset_);
  if (!mem_u8(region, pos, tag)) {
    defect("missing wolf-trace v3 footer (truncated trace?)");
    return false;
  }
  if (tag != static_cast<std::uint8_t>(wire::kFooterTag)) {
    defect("bad wolf-trace v3 block tag (block " +
           std::to_string(next_block_index_) + ")");
    return false;
  }
  if (!mem_varint(region, pos, footer_count_) ||
      !mem_u64le(region, pos, footer_checksum_)) {
    defect("malformed wolf-trace v3 footer");
    return false;
  }
  footer_seen_ = true;
  if (pos != index_offset_) {
    defect("data after wolf-trace v3 footer");
    return false;
  }
  finish_footer_checks(events_dropped_ > 0);
  return true;
}

void StreamTraceReader::finish_footer_checks(bool dropped_any) {
  // With blocks dropped the totals necessarily disagree — the per-block
  // diagnostics already explain why, so only intact salvages (and strict
  // reads) compare against the footer.
  if (mode_ == Mode::kSalvage && dropped_any) return;
  if (footer_count_ != count_) {
    defect("footer event count mismatch (footer says " +
           std::to_string(footer_count_) + ", " +
           (mode_ == Mode::kStrict ? "trace has " : "salvaged ") +
           std::to_string(count_) + ")");
  } else if (footer_checksum_ != checksum_) {
    defect("trace checksum mismatch");
  }
}

PipelinedTraceReader::PipelinedTraceReader(TraceReader& source,
                                           std::size_t depth)
    : source_(&source), queue_(depth == 0 ? 2 : depth) {
  producer_ = std::thread([this] { produce(); });
}

PipelinedTraceReader::~PipelinedTraceReader() {
  // Unblocks a producer stalled on a full ring; it observes the close,
  // stops reading the source, and exits.
  queue_.close();
  join();
  // Early destruction (consumer abandoned the stream before draining to
  // false) can leave a producer exception nobody will ever rethrow. A
  // destructor cannot surface it, but it must not vanish either: count it.
  // Unstable — whether a consumer bails before seeing the error is a
  // scheduling artifact, not pipeline semantics.
  if (producer_error_ && !error_delivered_) {
    static const obs::Counter abandoned("trace.pipeline_abandoned_errors",
                                        /*stable=*/false);
    abandoned.add();
  }
}

void PipelinedTraceReader::produce() {
  try {
    std::vector<Event> block;
    for (;;) {
      if (!source_->next_block(block)) break;
      if (!queue_.push(std::move(block))) break;  // consumer gone
      block.clear();  // moved-from: restore a known state for reuse
    }
  } catch (...) {
    producer_error_ = std::current_exception();
  }
  queue_.close();
}

void PipelinedTraceReader::join() {
  if (joined_) return;
  joined_ = true;
  if (producer_.joinable()) producer_.join();
}

bool PipelinedTraceReader::next_block(std::vector<Event>& out) {
  if (queue_.pop(out)) return true;
  out.clear();
  // Closed and drained: the producer is done (or dying) — join it so the
  // source's error state is fully published, then surface its exception.
  join();
  if (producer_error_) {
    error_delivered_ = true;
    std::rethrow_exception(producer_error_);
  }
  return false;
}

}  // namespace wolf
