#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int Tracer::open(std::string name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), open_.empty() ? -1 : open_.back(),
                    since(Clock::now()), -1, {}});
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = since(Clock::now());
  // Scopes nest, so the span closing is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::counter(int id, std::string key, double value) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].counters.emplace_back(std::move(key),
                                                             value);
}

int Tracer::add(std::string name, int parent, Clock::time_point start,
                Clock::time_point end) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), parent, since(start), since(end), {}});
  return id;
}

bool Tracer::all_closed() const {
  return std::all_of(spans_.begin(), spans_.end(), [](const Span& s) {
    return s.end_s >= s.start_s;
  });
}

std::vector<double> Tracer::self_times() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> iv;
    for (const int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      // Clip to the parent: only the part of the parent's interval a
      // child covers is subtracted.
      const double a = std::max(k.start_s, s.start_s);
      const double b = std::min(k.end_s, s.end_s);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double run_a = 0;
    double run_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > run_b) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;
    self[i] = (s.end_s - s.start_s) - covered;
  }
  return self;
}

void Tracer::write_json(std::ostream& os) const {
  const std::vector<double> self = self_times();
  os << "{\"spans\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"parent\": %d, \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"self_s\": %.9f, ",
                  i, s.parent, s.start_s, s.end_s, self[i]);
    os << "  " << buf << "\"name\": \"" << s.name << "\", \"counters\": {";
    for (std::size_t c = 0; c < s.counters.size(); ++c) {
      std::snprintf(buf, sizeof buf, "%.17g", s.counters[c].second);
      os << (c == 0 ? "" : ", ") << '"' << s.counters[c].first
         << "\": " << buf;
    }
    os << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

}  // namespace perfbench
