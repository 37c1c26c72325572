#include "trace.h"

#include <cstdio>
#include <memory>

namespace tgm::e2e {

void Tracer::Adopt(const Tracer& worker, std::int32_t thread) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span span : worker.spans_) {
    span.parent = span.parent < 0 ? open_ : span.parent + offset;
    span.thread = thread;
    spans_.push_back(span);
  }
}

std::vector<std::int64_t> Tracer::SelfTimesNs() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_ns();
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.duration_ns();
    }
  }
  return self;
}

std::vector<std::int32_t> Tracer::Roots() const {
  // Parents precede their children, so one forward pass suffices.
  std::vector<std::int32_t> roots(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int32_t parent = spans_[i].parent;
    roots[i] = parent < 0 ? static_cast<std::int32_t>(i)
                          : roots[static_cast<std::size_t>(parent)];
  }
  return roots;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::vector<std::int64_t> self = SelfTimesNs();
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", file.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"ref\":%d,\"work\":%lld,\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name, s.thread + 1,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.duration_ns()) * 1e-3, i, s.parent,
                 s.ref, static_cast<long long>(s.work),
                 static_cast<double>(self[i]) * 1e-3);
  }
  std::fputs("]}\n", file.get());
  const bool written = std::ferror(file.get()) == 0;
  return std::fclose(file.release()) == 0 && written;
}

}  // namespace tgm::e2e
