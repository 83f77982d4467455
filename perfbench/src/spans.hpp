// In-memory span log for the traced run.
//
// The benchmark opens a span around each public library call it makes
// (rt::measure, core::translate, CompiledTrace::compile, core::predict,
// metrics/fit, serve::Client verbs) and around the stages that contain
// them.  Spans live in memory while the run executes and are written out as
// Chrome trace-event JSON when it ends; the per-layer metrics are derived
// from them.  Untraced runs never construct a span.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    double t0 = 0;  ///< seconds since the log was created
    double t1 = -1;
    int parent = -1;  ///< index of the enclosing span, -1 for none
    int thread = 0;   ///< small per-OS-thread id
    std::int64_t count = 0;  ///< work counted at the boundary (events, ...)
  };

  SpanLog();

  /// Open a span; returns its index.  Thread-safe.
  int begin(const char* name, int parent = -1);
  /// Close span `id`, attaching a work count.  Thread-safe.
  void end(int id, std::int64_t count = 0);

  /// Summed duration (seconds) and count of every closed span named `name`.
  double busy_s(const std::string& name) const;
  std::int64_t count(const std::string& name) const;
  /// Durations (seconds) of the spans named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Duration of span `id`, and the summed duration of its direct children.
  double duration(int id) const;
  double children_s(int id) const;

  /// Chrome trace-event JSON ("X" events, microseconds), with the host
  /// fingerprint in the metadata.
  void write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens in the constructor, closes in the destructor.  A null
/// log makes it a no-op, so one code path serves traced and untraced runs.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent = -1)
      : log_(log), id_(log ? log->begin(name, parent) : -1) {}
  ~Scope() {
    if (log_) log_->end(id_, count_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }
  void set_count(std::int64_t c) { count_ = c; }

 private:
  SpanLog* log_;
  int id_;
  std::int64_t count_ = 0;
};

}  // namespace pb
