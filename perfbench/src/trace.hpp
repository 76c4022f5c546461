// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around every call it makes into a layer's
// public functions (graph, local, verify, svc, dyn, nbhd); spans nest
// through an open-span stack, so each span knows the span that caused it,
// and every span of one op carries that op's id.  Nothing is recorded
// while the tracer is disabled: a Scope on a disabled tracer reads no
// clock.  At exit the spans are written as Chrome trace-event JSON
// (chrome://tracing, Perfetto), and the per-layer metrics are derived from
// them through self_times / op_breakdowns below.
//
// All spans come from one thread (the benchmark's client thread), which is
// what makes the stack discipline sound.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr std::int64_t kNoOp = -1;

struct Span {
  const char* name = "";  // a string literal: the layer-qualified call name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into Tracer::spans(), -1 for a root
  std::int64_t op = kNoOp;   // op id; kNoOp for set-up and run-level spans

  std::int64_t duration() const noexcept { return end_ns - start_ns; }
};

/// A value observed at a span boundary (a RunResult field, a repair
/// count), attached to an op.
struct Counter {
  const char* name = "";
  std::int64_t op = kNoOp;
  double value = 0.0;
  std::int64_t at_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its index.
  std::int32_t open(const char* name, std::int64_t op);
  /// Closes the innermost open span, which must be `id`.
  void close(std::int32_t id);

  /// Records an already-finished span with explicit bounds, for intervals
  /// the benchmark measures itself (a request's sojourn from its due time).
  std::int32_t record(const char* name, std::int64_t op, std::int64_t start_ns,
                      std::int64_t end_ns, std::int32_t parent);

  void count(const char* name, std::int64_t op, double value);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<Counter>& counters() const noexcept { return counters_; }

  /// Chrome trace-event JSON: one complete ("X") event per span and one
  /// counter ("C") event per counter; `metadata` (a JSON object) is stored
  /// under "otherData".
  void write_chrome_json(std::ostream& out, const std::string& metadata) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
  std::vector<std::int32_t> open_;
};

/// RAII span; does nothing on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t op)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name, op) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (the union of the children's intervals,
/// clipped to the parent, so overlapping children are not counted twice).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// One op's wall time and how it splits by span name.
struct OpBreakdown {
  std::int64_t op = kNoOp;
  std::int64_t wall_ns = 0;                     // the root span's duration
  std::map<std::string, std::int64_t> self_ns;  // Σ self time per span name
  /// wall − Σ self over the op's subtree; 0 whenever every child lies
  /// inside its parent, which is what makes the layer split exhaustive.
  std::int64_t residual_ns = 0;
};

/// Breakdown of every root span named `root`, in span order.
std::vector<OpBreakdown> op_breakdowns(const std::vector<Span>& spans, const std::string& root);

/// Mean over `ops` of the per-op Σ self time of span `name`, in ms (ops
/// without such a span count as 0).
double mean_self_ms(const std::vector<OpBreakdown>& ops, const std::string& name);

/// Durations (ms) of every span named `name`.
std::vector<double> durations_ms(const std::vector<Span>& spans, const std::string& name);

/// Values of every counter named `name`.
std::vector<double> counter_values(const std::vector<Counter>& counters,
                                   const std::string& name);

}  // namespace perfbench
