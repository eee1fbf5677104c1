// Small statistics and /proc helpers shared by every workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wolfbench {

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
// empty.
double percentile(std::vector<double> values, double p);
double median(const std::vector<double>& values);

// The tail percentile a timing may honestly be quoted at: the highest of
// p99.9 / p99 / p90 / p50 that still leaves at least ten samples beyond it.
struct Tail {
  double p = 0;             // the percentile chosen (0 when no sample)
  double value = 0;         // its value
  std::size_t samples = 0;  // sample count it was computed from
  std::size_t beyond = 0;   // samples strictly above the percentile rank
};
Tail tail_percentile(const std::vector<double>& values);
// Whether `p` leaves at least ten of `samples` beyond it.
bool tail_supported(double p, std::size_t samples);

// "<name>: median <m> <unit>, p<tail> <v> <unit> (n=<samples>, <k> beyond)".
std::string describe_timing(const std::string& name,
                            const std::vector<double>& values,
                            const std::string& unit);

// Parses the value of a "<key>:  <n> kB" line out of /proc/<pid>/status
// text, in bytes. nullopt when the key is missing or malformed.
std::optional<std::uint64_t> proc_status_bytes(std::string_view status,
                                            std::string_view key);
// Current process memory from /proc/self/status, in bytes (0 when
// unavailable): the resident high-water mark and the resident size now.
std::uint64_t vm_hwm_bytes();
std::uint64_t vm_rss_bytes();

}  // namespace wolfbench
