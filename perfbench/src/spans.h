#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.h"

/// \file spans.h
/// In-memory span log of the traced run.  The benchmark records a span
/// around each call it makes into a layer (a request, a cold bind, a
/// kernel or fork/join probe); spans of one request share its id and name
/// their parent span.  Nothing is written until write_jsonl, after the
/// run.

namespace perfbench {

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;   ///< 0 for a root span
  std::int64_t request = 0;  ///< shared by every span of one request
  std::string name;          ///< "<layer>.<call>", e.g. "engine.solve"
  double start_s = 0.0;      ///< seconds since the recorder was created
  double end_s = 0.0;
  pbmg::Json attrs;          ///< optional object of per-span facts
};

/// Thread-safe append-only span log.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Appends a finished span and returns its id (ids start at 1).
  /// `start`/`end` are pbmg::now_seconds() readings.
  std::int64_t record(const std::string& name, std::int64_t request,
                      std::int64_t parent, double start, double end,
                      pbmg::Json attrs = {});

  /// Reserves an id for a span whose children finish before it does.
  std::int64_t reserve_id();

  /// Appends a finished span under an id from reserve_id().
  void record_with_id(std::int64_t id, const std::string& name,
                      std::int64_t request, std::int64_t parent,
                      double start, double end, pbmg::Json attrs = {});

  std::vector<Span> spans() const;

  /// One JSON object per line; returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  double origin_ = 0.0;
  mutable std::mutex mutex_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  std::int64_t next_id_ = 1;
};

}  // namespace perfbench
