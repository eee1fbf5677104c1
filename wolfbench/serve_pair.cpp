// serve-pair: an in-process `wolf serve` on a unix socket and two
// closed-loop clients, each streaming the ingest-dedup bytes through its own
// governed, live session; a client's next session starts only after both
// sessions of the pair got their verdicts.
//
// The clients speak the protocol through serve/net and serve/protocol (the
// functions emit_trace_bytes is built from) rather than through
// emit_trace_bytes itself, because that call hands back the server's lines
// only after the exchange ends: the hello reply and the verdict line must
// be timestamped as they arrive.
#include <istream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "checks.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "streams.hpp"
#include "workload.hpp"

namespace wolfbench {

namespace {

constexpr std::uint64_t kEvents = 1 << 19;
constexpr int kClients = 2;
constexpr std::size_t kChunkBytes = 64 * 1024;

// 1024-event windows give a session 512 windows, so the server's
// per-session p99 window latency is not simply its slowest window.
const std::map<std::string, std::string> kParams = {
    {"window", "1024"}, {"budget-mb", "4"}, {"live", "1"}, {"jobs", "1"}};

struct ClientResult {
  std::string error;
  double handshake_s = 0;  // connect → hello reply
  double upload_s = 0;     // first → last trace byte written
  double lag_s = 0;        // last byte written → verdict line read
  double wall_s = 0;
  wolf::serve::VerdictFields verdict;
  std::set<std::string> live;
};

using Clock = std::chrono::steady_clock;

ClientResult run_client(const std::string& socket, const std::string& name,
                        std::string_view bytes, Tracer& tr) {
  namespace serve = wolf::serve;
  ClientResult r;
  const auto session = tr.span("serve.session");
  const auto t0 = Clock::now();
  std::string err;
  serve::Fd fd = serve::unix_connect(socket, &err);
  if (!fd.valid()) {
    r.error = "connect: " + err;
    return r;
  }
  serve::FdInBuf inbuf(fd.get());
  std::istream in(&inbuf);
  {
    const auto sp = tr.span("serve.handshake");
    const std::string hello = serve::format_hello(name, kParams) + "\n";
    std::string reply;
    if (!serve::write_all(fd.get(), hello) || !std::getline(in, reply) ||
        serve::line_type(reply) != "hello") {
      r.error = "no hello reply: " + reply;
      return r;
    }
  }
  r.handshake_s = since_s(t0);

  // Drains the server's lines while the upload runs (live lines arrive
  // mid-stream), timestamping the verdict line.
  std::string verdict_line;
  bool done = false;
  Clock::time_point verdict_at;
  std::thread reader([&] {
    try {
      std::string line;
      while (std::getline(in, line)) {
        const std::string type = serve::line_type(line);
        if (type == "verdict") {
          verdict_at = Clock::now();
          verdict_line = line;
        } else if (type == "live") {
          wolf::SessionCycle c;
          if (serve::parse_live_line(line, c)) r.live.insert(c.description);
        } else if (type == "done") {
          done = true;
        } else if (type == "error") {
          serve::parse_error_line(line, r.error);
        }
      }
    } catch (const std::exception& e) {
      r.error = std::string("reader threw: ") + e.what();
    }
  });
  const auto u0 = Clock::now();
  bool sent = true;
  Clock::time_point last_byte;
  try {
    {
      const auto sp = tr.span("serve.upload");
      for (std::size_t off = 0; off < bytes.size() && sent;
           off += kChunkBytes)
        sent = serve::write_all(fd.get(), bytes.substr(off, kChunkBytes));
    }
    last_byte = Clock::now();
    serve::shutdown_write(fd.get());
    const auto sp = tr.span("serve.verdict_wait");
    reader.join();
  } catch (...) {
    // The reader ends once the server closes; join before unwinding.
    serve::shutdown_write(fd.get());
    reader.join();
    throw;
  }
  r.upload_s = std::chrono::duration<double>(last_byte - u0).count();
  r.wall_s = since_s(t0);
  if (!sent && r.error.empty()) r.error = "upload failed";
  if (!done && r.error.empty()) r.error = "no done line";
  if (verdict_line.empty() ||
      !serve::parse_verdict_line(verdict_line, r.verdict)) {
    if (r.error.empty()) r.error = "no verdict line";
    return r;
  }
  r.lag_s = std::chrono::duration<double>(verdict_at - last_byte).count();
  return r;
}

// The answer every served session must give: the in-process session's
// final cycles, themselves checked against the generator's cycle set.
struct Reference {
  std::vector<std::string> cycles;
  std::string error;
};

Reference reference_session(const StreamInput& in, const wolf::Config& cfg) {
  TraceRun off(false, "");
  Tracer quiet(off);
  SessionPass p = run_session_pass(in.bytes, cfg, quiet, nullptr);
  Reference ref;
  ref.error = p.error;
  if (ref.error.empty())
    ref.error = check_stream_verdict(p.verdict.detection,
                                     p.verdict.governor.coverage_complete,
                                     p.live, in.cycles);
  for (const wolf::PotentialDeadlock& c : p.verdict.detection.cycles)
    ref.cycles.push_back(c.to_string(p.verdict.detection.dep));
  return ref;
}

std::string check_client(const ClientResult& c, const Reference& ref) {
  if (!c.error.empty()) return c.error;
  if (!c.verdict.complete) return "verdict incomplete: " + c.verdict.summary;
  if (c.verdict.events != kEvents) return "server saw a different event count";
  if (c.verdict.cycles != ref.cycles)
    return "served cycles differ from the reference session's";
  for (const std::string& cycle : c.verdict.cycles)
    if (c.live.count(cycle) == 0) return "cycle not streamed live: " + cycle;
  return "";
}

bool final_state(wolf::serve::SessionState s) {
  using wolf::serve::SessionState;
  return s != SessionState::kHandshake && s != SessionState::kStreaming &&
         s != SessionState::kFinishing;
}

// The server records a session's statistics just after writing its
// verdict; waits (bounded) until both of this pair's entries are final.
std::vector<wolf::serve::SessionStats> pair_stats(
    const wolf::serve::Server& server, const std::vector<std::string>& names) {
  std::vector<wolf::serve::SessionStats> out;
  const auto t0 = Clock::now();
  while (since_s(t0) < 5) {
    out.clear();
    for (const wolf::serve::SessionStats& s : server.sessions())
      for (const std::string& n : names)
        if (s.name == n && final_state(s.state)) out.push_back(s);
    if (out.size() == names.size()) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return out;
}

}  // namespace

WorkloadResult run_serve_pair(const RunOptions& opts, TraceRun& run) {
  WorkloadResult r;
  StreamInput input;
  const double setup_s =
      timed_setup([&] { input = make_dedup_stream(kEvents, opts.seed); });
  {
    std::ostringstream os;
    os << "input: " << kClients << " sessions x " << input.events
       << " events, " << input.bytes.size() << " v3 bytes each";
    r.input.push_back(os.str());
  }

  wolf::serve::ServeOptions options;
  options.socket_path =
      opts.work_dir + "/wolfbench-" + std::to_string(::getpid()) + ".sock";
  std::string err;
  wolf::Config session_cfg = options.session;
  if (!wolf::serve::apply_params(kParams, session_cfg, err)) {
    ++r.attempted;
    r.fail("session parameters: " + err);
    return r;
  }
  const Reference ref = reference_session(input, session_cfg);
  if (!ref.error.empty()) {
    ++r.attempted;
    r.fail("reference session: " + ref.error);
    return r;
  }

  wolf::serve::Server server(options);
  if (!server.start(&err)) {
    ++r.attempted;
    r.fail("server start: " + err);
    return r;
  }

  TraceRun off(false, run.run_id());
  LayerCounts counts;
  std::vector<double> mev, lag, window_ms, wall, cps;
  const int min_ops = opts.trace ? kMinTracedOps : 2;
  const std::uint64_t rss_growth = run_for(opts.seconds, min_ops, [&](int i) {
    // As in the ingest workloads, a traced run alternates traced and
    // untraced pairs, each followed by the same traced in-process probe.
    const bool traced = opts.trace && i % 2 == 1;
    std::vector<ClientResult> results(kClients);
    std::vector<std::string> names;
    for (int c = 0; c < kClients; ++c)
      names.push_back("op" + std::to_string(i) + "-c" + std::to_string(c));
    const auto t0 = Clock::now();
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
          const auto slot = static_cast<std::size_t>(c);
          try {
            Tracer tr(traced ? run : off, static_cast<std::uint32_t>(c));
            tr.set_op(static_cast<std::uint32_t>(i));
            results[slot] =
                run_client(options.socket_path, names[slot], input.bytes, tr);
          } catch (const std::exception& e) {
            results[slot].error = std::string("client threw: ") + e.what();
          }
        });
      for (std::thread& t : clients) t.join();
    }
    const double pair_wall = since_s(t0);
    double cycles = 0, fastest = 1e300, slowest = 0;
    for (const ClientResult& c : results) {
      ++r.attempted;
      const std::string error = check_client(c, ref);
      if (!error.empty()) r.fail("op " + std::to_string(i) + ": " + error);
      cycles += static_cast<double>(c.verdict.cycles.size());
      fastest = std::min(fastest, c.wall_s);
      slowest = std::max(slowest, c.wall_s);
      lag.push_back(c.lag_s * 1e3);
      if (traced) {
        counts.handshake_ms.push_back(c.handshake_s * 1e3);
        counts.upload_bytes += input.bytes.size();
        counts.upload_s += c.upload_s;
      }
    }
    for (const wolf::serve::SessionStats& s : pair_stats(server, names))
      window_ms.push_back(s.p99_window_seconds * 1e3);
    if (opts.trace) {
      if (traced && fastest > 0)
        counts.session_skew.push_back(slowest / fastest);
      // The same bytes through the detector's layers in-process, so the
      // decode and builder costs behind the served sessions are split out.
      Tracer tr(run);
      tr.set_op(static_cast<std::uint32_t>(i));
      const wolf::Detection det =
          run_builder_probe(input.bytes, session_cfg.detector, tr, counts);
      if (cycle_shapes(det) != input.cycles)
        r.fail("builder probe found a different cycle set");
      if (i >= 2)  // the first pair warms the allocator
        (traced ? counts.op_traced_s : counts.op_untraced_s)
            .push_back(pair_wall);
      return;
    }
    mev.push_back(static_cast<double>(kClients) *
                  static_cast<double>(input.events) / pair_wall / 1e6);
    wall.push_back(pair_wall);
    cps.push_back(cycles / pair_wall);
  });
  server.stop();

  if (opts.trace) {
    r.metrics = layer_metrics(run.spans(), counts, r.lines);
    return r;
  }
  r.lines.push_back(describe_timing(
      "window (server-reported per-session p99 detect)", window_ms, "ms"));
  r.lines.push_back(describe_timing("verdict_lag (last byte -> verdict line)",
                                    lag, "ms"));
  r.lines.push_back(describe_timing("pair wall", wall, "s"));
  r.metrics = {
      {"setup_s", setup_s, "s"},
      {"ingest_mev_s", median(mev), "Mev/s"},
      {"window_p99_ms", median(window_ms), "ms"},
      {"verdict_lag_ms", median(lag), "ms"},
      {"rss_per_session_mb",
       static_cast<double>(rss_growth) / (1 << 20) / kClients,
       "MiB"},
      {"analyze_s", median(wall), "s"},
      {"cycles_per_s", median(cps), "1/s"},
  };
  return r;
}

}  // namespace wolfbench
