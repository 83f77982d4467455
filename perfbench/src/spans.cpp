#include "spans.hpp"

#include <atomic>
#include <fstream>

#include "util/error.hpp"

namespace pb {

namespace {

int thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

}  // namespace

SpanLog::SpanLog() : origin_(Clock::now()) {}

int SpanLog::begin(const char* name, int parent) {
  Span s;
  s.name = name;
  s.t0 = seconds_since(origin_);
  s.parent = parent;
  s.thread = thread_id();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id, std::int64_t count) {
  const double t1 = seconds_since(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.t1 = t1;
  s.count = count;
}

double SpanLog::busy_s(const std::string& name) const {
  double sum = 0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

std::int64_t SpanLog::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t sum = 0;
  for (const Span& s : spans_)
    if (s.t1 >= 0 && name == s.name) sum += s.count;
  return sum;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.t1 >= 0 && name == s.name) out.push_back(s.t1 - s.t0);
  return out;
}

double SpanLog::duration(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return s.t1 >= 0 ? s.t1 - s.t0 : 0.0;
}

double SpanLog::children_s(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0;
  for (const Span& s : spans_)
    if (s.parent == id && s.t1 >= 0) sum += s.t1 - s.t0;
  return sum;
}

void SpanLog::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  os.precision(12);
  os << "{\"otherData\": {\"host\": " << host_json() << "},\n\"traceEvents\": [";
  const char* sep = "\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t1 < 0) continue;
    os << sep << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
       << ", \"ts\": " << s.t0 * 1e6 << ", \"dur\": " << (s.t1 - s.t0) * 1e6
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"count\": " << s.count << "}}";
    sep = ",\n";
  }
  os << "\n]}\n";
  XP_REQUIRE(os.good(), "cannot write span log " + path);
}

}  // namespace pb
