#include "spans.h"

#include <fstream>

#include "support/timer.h"

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(pbmg::now_seconds()) {
  spans_.reserve(4096);
}

std::int64_t SpanRecorder::reserve_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

std::int64_t SpanRecorder::record(const std::string& name,
                                  std::int64_t request, std::int64_t parent,
                                  double start, double end, pbmg::Json attrs) {
  const std::int64_t id = reserve_id();
  record_with_id(id, name, request, parent, start, end, std::move(attrs));
  return id;
}

void SpanRecorder::record_with_id(std::int64_t id, const std::string& name,
                                  std::int64_t request, std::int64_t parent,
                                  double start, double end,
                                  pbmg::Json attrs) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{id, parent, request, name, start - origin_,
                        end - origin_, std::move(attrs)});
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans()) {
    pbmg::Json line = pbmg::Json::object();
    line.set("id", s.id);
    line.set("parent", s.parent);
    line.set("request", s.request);
    line.set("name", s.name);
    line.set("start_s", s.start_s);
    line.set("end_s", s.end_s);
    if (s.attrs.is_object()) line.set("attrs", s.attrs);
    out << line.dump() << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
