#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int32_t Tracer::open(const char* name, std::int64_t op) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, parent, op});
  open_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::close: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::int32_t Tracer::record(const char* name, std::int64_t op, std::int64_t start_ns,
                            std::int64_t end_ns, std::int32_t parent) {
  if (!enabled_) return -1;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, start_ns, end_ns, parent, op});
  return id;
}

void Tracer::count(const char* name, std::int64_t op, double value) {
  if (!enabled_) return;
  counters_.push_back(Counter{name, op, value, now_ns()});
}

namespace {

void write_escaped(std::ostream& out, const char* text) {
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c == '"' || *c == '\\') out << '\\';
    out << *c;
  }
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& out, const std::string& metadata) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  char number[64];
  const auto us = [&](std::int64_t ns) {
    std::snprintf(number, sizeof number, "%.3f", static_cast<double>(ns - origin) / 1e3);
    return number;
  };
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata << ",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (first ? "" : ",") << "\n{\"name\":\"";
    first = false;
    write_escaped(out, s.name);
    out << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start_ns);
    std::snprintf(number, sizeof number, "%.3f", static_cast<double>(s.duration()) / 1e3);
    out << ",\"dur\":" << number << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}";
  }
  for (const Counter& c : counters_) {
    out << (first ? "" : ",") << "\n{\"name\":\"";
    first = false;
    write_escaped(out, c.name);
    out << "\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":" << us(c.at_ns);
    std::snprintf(number, sizeof number, "%.17g", c.value);
    out << ",\"args\":{\"value\":" << number << ",\"op\":" << c.op << "}}";
  }
  out << "\n]}\n";
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = spans[i].start_ns;  // everything before cursor is accounted for
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, cursor);
      const std::int64_t hi = std::min(end, spans[i].end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

std::vector<OpBreakdown> op_breakdowns(const std::vector<Span>& spans, const std::string& root) {
  const std::vector<std::int64_t> self = self_times(spans);
  // Spans are appended in open order, so a parent always precedes its
  // children: one forward pass resolves every span's root.
  std::vector<std::int32_t> root_of(spans.size(), -1);
  std::vector<std::int64_t> slot_of(spans.size(), -1);
  std::vector<OpBreakdown> ops;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root_of[i] = s.parent < 0 ? static_cast<std::int32_t>(i)
                              : root_of[static_cast<std::size_t>(s.parent)];
    const Span& r = spans[static_cast<std::size_t>(root_of[i])];
    if (r.name != root) continue;
    if (s.parent < 0) {
      slot_of[i] = static_cast<std::int64_t>(ops.size());
      OpBreakdown b;
      b.op = s.op;
      b.wall_ns = s.duration();
      b.residual_ns = s.duration();
      ops.push_back(std::move(b));
    }
    OpBreakdown& b = ops[static_cast<std::size_t>(slot_of[static_cast<std::size_t>(root_of[i])])];
    b.self_ns[s.name] += self[i];
    b.residual_ns -= self[i];
  }
  return ops;
}

double mean_self_ms(const std::vector<OpBreakdown>& ops, const std::string& name) {
  if (ops.empty()) return 0.0;
  double total = 0.0;
  for (const OpBreakdown& b : ops) {
    const auto it = b.self_ns.find(name);
    if (it != b.self_ns.end()) total += static_cast<double>(it->second);
  }
  return total / static_cast<double>(ops.size()) / 1e6;
}

std::vector<double> durations_ms(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.duration()) / 1e6);
  }
  return out;
}

std::vector<double> counter_values(const std::vector<Counter>& counters,
                                   const std::string& name) {
  std::vector<double> out;
  for (const Counter& c : counters) {
    if (c.name == name) out.push_back(c.value);
  }
  return out;
}

}  // namespace perfbench
