// Pull-based streaming trace readers.
//
// A TraceReader hands out a recorded trace block-by-block, so consumers —
// detection via detect_reader(), `wolf analyze` on file input — process
// traces of any length without materializing the whole std::vector<Event>.
// Producers:
//
//   * VectorTraceReader — adapter over an in-memory Trace (borrowed);
//   * StreamTraceReader — incremental reader over an std::istream or a
//     file path, in any on-disk format (text v1/v2 or binary v3,
//     auto-detected), the streaming equivalent of read_trace /
//     read_trace_salvage. All three batch readers in serialize.cpp are
//     thin drains over this class, so streaming and batch consumption can
//     never diverge.
//
// Usage:
//
//   StreamTraceReader reader(file);           // strict by default
//   std::vector<Event> block;
//   while (reader.next_block(block)) consume(block);
//   if (!reader.ok()) complain(reader.error());
//
// In kStrict mode the first defect stops the stream with error() set; in
// kSalvage mode defects become diagnostics() and the reader keeps going —
// recovering the longest valid prefix of a text trace, and every intact
// block of a v3 trace (a damaged block is skipped by name while the blocks
// after it still load).
//
// The path constructor unlocks the 10^8-event fast path (DESIGN.md §15):
// a v3 file is mmap'd (support/mmap_file) and decoded zero-copy, and when
// it carries the footer block index and Options.jobs > 1, blocks are
// decoded in parallel on a support/thread_pool — with bit-identical event
// delivery, defect messages, and salvage accounting at every jobs level.
// Every acceleration degrades gracefully: no mmap → buffered reads, no
// index → sequential scan, no parallelism → serial decode.
#pragma once

#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "support/mmap_file.hpp"
#include "support/ring_queue.hpp"
#include "trace/event.hpp"
#include "trace/wire.hpp"

namespace wolf {

class ThreadPool;

class TraceReader {
 public:
  virtual ~TraceReader() = default;

  // Replaces `out` with the next block of events. Returns false when the
  // stream is exhausted (or, for StreamTraceReader in strict mode, on the
  // first defect); `out` is empty after a false return.
  virtual bool next_block(std::vector<Event>& out) = 0;
};

// Streams an in-memory trace in fixed-size blocks. Borrows the trace; the
// caller keeps it alive while reading.
class VectorTraceReader final : public TraceReader {
 public:
  explicit VectorTraceReader(const Trace& trace) : trace_(&trace) {}
  bool next_block(std::vector<Event>& out) override;

 private:
  const Trace* trace_;
  std::size_t pos_ = 0;
};

class StreamTraceReader final : public TraceReader {
 public:
  enum class Mode { kStrict, kSalvage };

  struct Options {
    // Try to mmap v3 files opened by path; failure silently falls back to
    // buffered stream reads.
    bool allow_mmap = true;
    // Decode indexed v3 blocks on this many threads (<= 1: serial). Only
    // effective with mmap and a valid footer index; delivery order, event
    // bytes, and diagnostics are identical at every level.
    int jobs = 1;
    // Ignore a footer index even when present (forces the sequential
    // scan; used by tests and honesty-mode benchmarks).
    bool use_index = true;
  };

  // Borrows `is`; the caller keeps the stream alive while reading. v3
  // streams must be opened in binary mode.
  explicit StreamTraceReader(std::istream& is, Mode mode = Mode::kStrict);
  // Opens `path` itself; enables the mmap / indexed-parallel fast paths.
  explicit StreamTraceReader(const std::string& path,
                             Mode mode = Mode::kStrict)
      : StreamTraceReader(path, mode, Options{}) {}
  StreamTraceReader(const std::string& path, Mode mode, Options options);
  ~StreamTraceReader();

  bool next_block(std::vector<Event>& out) override;

  // Valid once next_block has returned false.
  bool ok() const { return error_.empty(); }        // strict: no defect
  const std::string& error() const { return error_; }

  // Salvage-mode accounting (mirrors SalvageReport).
  int version() const { return version_; }
  bool complete() const {
    return diagnostics_.empty() && events_dropped_ == 0;
  }
  std::size_t events_dropped() const { return events_dropped_; }
  const std::vector<std::string>& diagnostics() const { return diagnostics_; }
  std::uint64_t events_read() const { return count_; }

  // Fast-path introspection (perf_trace_io records these in its JSON).
  bool mmap_used() const { return mem_mode_; }
  bool index_present() const { return index_present_; }
  bool parallel_decode() const { return !index_.empty() && pool_ != nullptr; }

 private:
  enum class Stage { kStart, kText, kBinary, kBinaryMem, kBinaryIndexed,
                     kDone };

  // Records a defect: strict mode sets error_ and ends the stream; salvage
  // mode appends a (capped) diagnostic and leaves the stage alone.
  void defect(std::string msg);
  bool start();
  bool open_memory_v3();  // true when the mmap path is usable
  bool load_index();      // true when a valid footer index was adopted
  bool next_text(std::vector<Event>& out);
  bool next_binary(std::vector<Event>& out);
  bool next_binary_mem(std::vector<Event>& out);
  bool next_binary_indexed(std::vector<Event>& out);
  void decode_batch();    // indexed mode: decode the next run of blocks
  bool finish_indexed();  // indexed mode: footer + tail checks
  // One parsed text line; returns true when an event was appended to `out`.
  bool consume_text_line(std::string_view text, std::vector<Event>& out);
  void finish_footer_checks(bool dropped_any);
  // Consumes the index section (tag already consumed) from the sequential
  // position `cursor` to end-of-data; defects on any damage.
  void consume_index_section_mem();
  void consume_index_section_stream();

  std::istream* is_ = nullptr;           // borrowed or owned (file_)
  std::unique_ptr<std::istream> file_;   // path-mode buffered fallback
  std::string path_;                     // empty for the istream ctor
  Mode mode_;
  Options options_;
  Stage stage_ = Stage::kStart;
  int version_ = 0;
  std::string error_;
  std::vector<std::string> diagnostics_;
  std::size_t events_dropped_ = 0;

  // Shared event-stream state.
  std::uint64_t count_ = 0;
  std::uint64_t checksum_;
  bool have_prev_ = false;
  std::uint64_t prev_seq_ = 0;
  bool footer_seen_ = false;
  std::uint64_t footer_count_ = 0;
  std::uint64_t footer_checksum_ = 0;

  // Text state.
  int lineno_ = 0;
  bool prefix_open_ = true;
  std::string pending_first_line_;  // headerless salvage: reparse line 1
  bool reparse_first_ = false;

  // Binary state.
  std::size_t next_block_index_ = 0;

  // Memory-mode (mmap) state.
  std::optional<support::MmapFile> map_;
  std::string_view data_;       // whole file when mem_mode_
  std::size_t pos_ = 0;         // sequential cursor into data_
  bool mem_mode_ = false;
  std::size_t data_end_ = 0;    // end of block+footer region (before index)

  // Footer-index state.
  bool index_present_ = false;
  std::uint64_t index_offset_ = 0;  // file offset of the 'I' section
  std::vector<wire::IndexEntry> index_;
  std::size_t next_entry_ = 0;      // next index entry to decode
  std::unique_ptr<ThreadPool> pool_;
  struct DecodedBlock;
  std::vector<DecodedBlock> batch_;
  std::size_t batch_pos_ = 0;
  // File offset just past the last delivered block (0: framing broken, the
  // next block's start cannot be cross-checked).
  std::size_t last_block_end_ = 0;
};

// Stage-pipelining adapter (DESIGN.md §17), used by the serve sidecar to
// decode each session's socket bytes: moves a source reader's block
// production onto a dedicated producer thread, handing decoded blocks to the
// caller through a bounded SPSC ring. The consumer (detection ingest) and
// the producer (decode) then overlap instead of serializing turn-by-turn.
//
// Delivery is trivially bit-identical to draining the source directly: the
// ring preserves block order and block contents, and next_block() returns
// false only after the producer exhausted the source. Backpressure is the
// ring's fixed depth — decode can run at most `depth` blocks ahead of
// ingestion, so a slow consumer bounds the pipeline's memory, not the trace
// length. A producer-side exception is captured and rethrown from the
// consumer's next next_block() call, after the producer has been joined.
//
// The source reader is borrowed and must outlive this adapter. While the
// adapter is alive the producer thread owns the source: do not touch it from
// the consumer side until next_block() has returned false (or the adapter is
// destroyed) — after either, the source's error/salvage accessors are safe
// again and reflect the whole stream.
class PipelinedTraceReader final : public TraceReader {
 public:
  PipelinedTraceReader(TraceReader& source, std::size_t depth);
  ~PipelinedTraceReader() override;

  PipelinedTraceReader(const PipelinedTraceReader&) = delete;
  PipelinedTraceReader& operator=(const PipelinedTraceReader&) = delete;

  bool next_block(std::vector<Event>& out) override;

 private:
  void produce();
  void join();

  TraceReader* source_;
  RingQueue<std::vector<Event>> queue_;
  std::thread producer_;
  bool joined_ = false;
  // Written by the producer before it closes the queue; read by the
  // consumer only after pop() has observed the close (which synchronizes).
  // A consumer that destroys the adapter before draining to false never
  // sees the exception — the destructor cannot throw, so that case is
  // counted on the "trace.pipeline_abandoned_errors" obs counter instead
  // of being silently swallowed (error_delivered_ tells the two apart).
  std::exception_ptr producer_error_;
  bool error_delivered_ = false;
};

}  // namespace wolf
