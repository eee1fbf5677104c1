#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace wolfbench {

namespace {

// Nearest rank (1-based) of percentile p in a sample of n: the smallest rank
// with at least p% of the sample at or below it. The epsilon keeps exact
// products such as 99.9% of 10000 from rounding up a rank.
std::size_t nearest_rank(double p, std::size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const auto r = static_cast<std::size_t>(std::max(rank, 1.0));
  return std::min(r, std::max<std::size_t>(n, 1));
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(p, values.size()) - 1];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

// Samples strictly above the nearest-rank position of percentile p.
std::size_t beyond_rank(double p, std::size_t samples) {
  return samples - std::min(samples, nearest_rank(p, samples));
}

}  // namespace

bool tail_supported(double p, std::size_t samples) {
  return beyond_rank(p, samples) >= 10;
}

Tail tail_percentile(const std::vector<double>& values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  t.p = 50;
  for (double p : {99.9, 99.0, 90.0}) {
    if (tail_supported(p, values.size())) {
      t.p = p;
      break;
    }
  }
  t.value = percentile(values, t.p);
  t.beyond = beyond_rank(t.p, values.size());
  return t;
}

std::string describe_timing(const std::string& name,
                            const std::vector<double>& values,
                            const std::string& unit) {
  const Tail tail = tail_percentile(values);
  std::ostringstream os;
  os << name << ": median " << median(values) << ' ' << unit << ", p"
     << tail.p << ' ' << tail.value << ' ' << unit << " (n=" << tail.samples
     << ", " << tail.beyond << " beyond)";
  return os.str();
}

std::optional<std::uint64_t> proc_status_bytes(std::string_view status,
                                            std::string_view key) {
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t end = status.find('\n', pos);
    if (end == std::string_view::npos) end = status.size();
    const std::string_view line = status.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
        line[key.size()] != ':')
      continue;
    std::string_view rest = line.substr(key.size() + 1);
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t'))
      rest.remove_prefix(1);
    std::uint64_t kb = 0;
    std::size_t digits = 0;
    while (digits < rest.size() && rest[digits] >= '0' && rest[digits] <= '9') {
      kb = kb * 10 + static_cast<std::uint64_t>(rest[digits] - '0');
      ++digits;
    }
    if (digits == 0 || digits > 15) return std::nullopt;
    rest.remove_prefix(digits);
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (rest != "kB") return std::nullopt;
    return kb * 1024;
  }
  return std::nullopt;
}

namespace {

std::uint64_t self_status(std::string_view key) {
  std::ifstream is("/proc/self/status");
  std::stringstream buf;
  buf << is.rdbuf();
  return proc_status_bytes(buf.str(), key).value_or(0);
}

}  // namespace

std::uint64_t vm_hwm_bytes() { return self_status("VmHWM"); }
std::uint64_t vm_rss_bytes() { return self_status("VmRSS"); }

}  // namespace wolfbench
