// Shared pieces of the numabench binary: the workload interface, the
// out-of-program tracer, and the metric list every workload fills.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace numabench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Times calls into each layer's public functions from outside the
/// program. Spans are kept in memory as per-op totals: `begin_op` opens an
/// op, every `span` adds its duration in ms to that op's total for its
/// name, `add` does the same for any other per-op value (such as a ratio),
/// and the per-layer metric is the median of those totals over the ops.
class Tracer {
 public:
  void begin_op() { ops_.emplace_back(); }

  template <class F>
  decltype(auto) span(const std::string& name, F&& call) {
    const Clock::time_point start = Clock::now();
    struct Stop {
      Tracer* tracer;
      const std::string* name;
      Clock::time_point start;
      ~Stop() { tracer->add(*name, ms_between(start, Clock::now())); }
    } stop{this, &name, start};
    return call();
  }

  void add(const std::string& name, double value) {
    if (ops_.empty()) ops_.emplace_back();
    ops_.back()[name] += value;
  }

  /// Median over ops of the per-op total of `name`; ops that never
  /// recorded it are skipped (0 when none did).
  double median(const std::string& name) const;

 private:
  std::vector<std::map<std::string, double>> ops_;
};

/// Runs `call` inside `tracer`'s span `name`, or plainly when untraced, so
/// timed runs pay no clock reads for tracing.
template <class F>
decltype(auto) traced(Tracer* tracer, const std::string& name, F&& call) {
  if (tracer == nullptr) return call();
  return tracer->span(name, static_cast<F&&>(call));
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// One op: its user-visible wall time, whether its output passed the
/// workload's correctness check, its unit of work, and the bytes its
/// sinks received.
struct OpResult {
  double ms = 0.0;
  bool ok = false;
  std::uint64_t work = 0;
  std::uint64_t output_bytes = 0;
};

/// Where a workload writes its inputs, plus the run's seed. Everything the
/// benchmark reads or writes lives under `work_dir`.
struct Context {
  std::uint64_t seed = 1;
  std::string work_dir;
  std::string corpus_templates;  // directory holding the lint templates
  unsigned jobs = 2;             // pool size of the analyze/lint pipelines
};

/// A closed-loop workload: one client issuing `ops_per_pass()` ops per
/// pass over its cells, each op after the previous one returned.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's inputs; the benchmark calls it several times
  /// and times each call, so it must be repeatable.
  virtual void setup() = 0;
  virtual std::size_t ops_per_pass() const = 0;
  /// Runs op `index` of pass `pass` (cells are shuffled per pass by the
  /// seed). With a tracer, also times the layers and, on pass 0, records
  /// the exact per-pass counts.
  virtual OpResult run(std::size_t pass, std::size_t index, Tracer* tracer) = 0;
  /// Per-layer metrics gathered from the traced ops.
  virtual void layer_metrics(const Tracer& tracer, Metrics& out) const = 0;
  /// Host seconds one pass takes on a 4-core x86-64 host; sets how many
  /// passes fill the requested run length.
  virtual double nominal_pass_seconds() const = 0;
};

std::unique_ptr<Workload> make_record(const Context& context);
std::unique_ptr<Workload> make_observe(const Context& context);
std::unique_ptr<Workload> make_analyze(const Context& context);
std::unique_ptr<Workload> make_lint(const Context& context);

/// Seeded permutation of [0, n) for pass `pass`.
std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed,
                                  std::size_t pass);

double median(std::vector<double> values);

}  // namespace numabench
