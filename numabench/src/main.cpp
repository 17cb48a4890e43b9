// numabench: runs one closed-loop workload of the numaprof benchmark and
// prints its metrics as one JSON object on the last line of stdout.
//
//   numabench --workload record|observe|analyze|lint --seed N --seconds S
//             --trace 0|1 --work-dir DIR --templates DIR [--ops N]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a separate traced run (see README.md). --ops N runs only the
// first N ops of one pass (the self-test).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <random>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace numabench {

double Tracer::median(const std::string& name) const {
  std::vector<double> values;
  for (const auto& op : ops_) {
    const auto it = op.find(name);
    if (it != op.end()) values.push_back(it->second);
  }
  return values.empty() ? 0.0 : numabench::median(std::move(values));
}

std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed,
                                  std::size_t pass) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + pass);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

constexpr const char* kWorkloads[] = {"record", "observe", "analyze", "lint"};

// Ops beyond the tail percentile; the tail is the highest percentile with
// at least this many ops above it.
constexpr std::size_t kTailOps = 10;
constexpr int kSetupRepeats = 3;
constexpr double kMaxSlowdown = 2.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t ops = 0;  // 0: whole passes filling `seconds`
  std::string work_dir;
  std::string templates;
};

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--ops") {
      args.ops = std::stoull(value);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--templates") {
      args.templates = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || args.work_dir.empty() || args.templates.empty()) {
    throw std::invalid_argument(
        "usage: numabench --workload W --seed N --seconds S --trace 0|1 "
        "--work-dir DIR --templates DIR [--ops N]");
  }
  return args;
}

std::unique_ptr<Workload> make(const std::string& name,
                               const Context& context) {
  if (name == "record") return make_record(context);
  if (name == "observe") return make_observe(context);
  if (name == "analyze") return make_analyze(context);
  if (name == "lint") return make_lint(context);
  throw std::invalid_argument("unknown workload " + name);
}

struct Phase {
  std::vector<OpResult> ops;
  std::size_t attempted() const { return ops.size(); }
  std::size_t failed() const {
    return static_cast<std::size_t>(std::count_if(
        ops.begin(), ops.end(), [](const OpResult& op) { return !op.ok; }));
  }
  std::vector<double> times() const {
    std::vector<double> out;
    for (const OpResult& op : ops) out.push_back(op.ms);
    return out;
  }
};

/// Runs pass `pass` (or only its first `ops` ops) into `phase`.
void run_pass(Workload& workload, std::size_t pass, std::size_t ops,
              Tracer* tracer, Phase& phase) {
  const std::size_t per_pass = workload.ops_per_pass();
  const std::size_t n = ops == 0 ? per_pass : std::min(ops, per_pass);
  for (std::size_t i = 0; i < n; ++i) {
    phase.ops.push_back(workload.run(pass, i, tracer));
  }
}

/// True once the passes since `start` took over kMaxSlowdown times the
/// requested seconds: on so slow a host the run stops after the current
/// pass so that it still ends in time.
bool over_time(Clock::time_point start, double seconds) {
  return ms_between(start, Clock::now()) > kMaxSlowdown * seconds * 1000.0;
}

/// Whole passes so the op mix is the same on every run; enough of them to
/// fill `seconds` on the reference host and to put kTailOps ops beyond
/// the tail percentile.
std::size_t pass_count(const Workload& workload, double seconds) {
  const std::size_t per_pass = workload.ops_per_pass();
  const std::size_t for_tail = (kTailOps + per_pass) / per_pass;
  const auto for_time = static_cast<std::size_t>(
      std::lround(seconds / workload.nominal_pass_seconds()));
  return std::max({for_tail, for_time, std::size_t{1}});
}

/// The highest percentile of `times` with at least kTailOps values above
/// it (the maximum when there are too few ops).
double tail(std::vector<double> times, double* percentile) {
  std::sort(times.begin(), times.end());
  const std::size_t n = times.size();
  const std::size_t index = n > kTailOps ? n - kTailOps - 1 : n - 1;
  *percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return times[index];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run_timed(const Args& args, const Context& context) {
  std::unique_ptr<Workload> workload = make(args.workload, context);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    workload->setup();
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  const std::size_t passes =
      args.ops == 0 ? pass_count(*workload, args.seconds) : 1;
  Phase phase;
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    run_pass(*workload, pass, args.ops, nullptr, phase);
    if (over_time(start, args.seconds)) break;
  }

  const std::vector<double> times = phase.times();
  double total_ms = 0.0;
  std::uint64_t work = 0;
  std::uint64_t pass_bytes = 0;
  const std::size_t per_pass =
      args.ops == 0 ? workload->ops_per_pass() : phase.ops.size();
  for (std::size_t i = 0; i < phase.ops.size(); ++i) {
    total_ms += phase.ops[i].ms;
    work += phase.ops[i].work;
    if (i < per_pass) pass_bytes += phase.ops[i].output_bytes;
  }
  double percentile = 0.0;
  const double tail_ms = tail(times, &percentile);
  std::printf("numabench: workload=%s seed=%llu passes=%zu ops=%zu jobs=%u "
              "op_ms_tail=p%.1f\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), passes,
              phase.ops.size(), context.jobs, percentile);

  const std::size_t failed = phase.failed();
  const Metrics metrics = {
      {"setup_s", median(setup_s), "s"},
      {"op_ms_p50", median(times), "ms"},
      {"op_ms_tail", tail_ms, "ms"},
      {"work_per_s", static_cast<double>(work) / (total_ms / 1000.0), "1/s"},
      {"output_bytes", static_cast<double>(pass_bytes), "bytes"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"success_frac",
       static_cast<double>(phase.attempted() - failed) /
           static_cast<double>(phase.attempted()),
       "ratio"},
  };
  print_result(failed == 0, phase.attempted(), failed, metrics);
  return 0;
}

// The traced run: every pass of the workload once untraced and once
// traced, back to back so host drift cancels in the p50 ratio that is the
// tracing overhead, then one traced pass of every other workload so each
// per-layer metric is measured on the workload that exercises its layer.
int run_traced(const Args& args, const Context& context) {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics metrics;
  double overhead = 0.0;
  for (const char* name : kWorkloads) {
    std::unique_ptr<Workload> workload = make(name, context);
    workload->setup();
    const bool own = args.workload == name;
    const std::size_t passes =
        args.ops == 0 && own
            ? std::max<std::size_t>(1, pass_count(*workload, args.seconds) / 2)
            : 1;
    Phase plain;
    Phase traced_phase;
    Tracer tracer;
    const Clock::time_point start = Clock::now();
    for (std::size_t pass = 0; pass < passes; ++pass) {
      if (own) run_pass(*workload, pass, args.ops, nullptr, plain);
      run_pass(*workload, pass, args.ops, &tracer, traced_phase);
      if (over_time(start, args.seconds)) break;
    }
    attempted += plain.attempted() + traced_phase.attempted();
    failed += plain.failed() + traced_phase.failed();
    workload->layer_metrics(tracer, metrics);
    if (own) {
      overhead = median(traced_phase.times()) / median(plain.times()) - 1.0;
    }
  }
  metrics.push_back({"trace.overhead_frac", overhead, "ratio"});
  std::printf("numabench: traced workload=%s seed=%llu jobs=%u\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), context.jobs);
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace numabench

int main(int argc, char** argv) {
  using namespace numabench;
  try {
    const Args args = parse(argc, argv);
    Context context;
    context.seed = args.seed;
    context.work_dir = args.work_dir;
    context.corpus_templates = args.templates;
    // Below the host's 4 cores: at 4 jobs one sweep in five ran at serial
    // speed when another tenant took a core.
    context.jobs = 2;
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  args.workload) == std::end(kWorkloads)) {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    return args.trace ? run_traced(args, context) : run_timed(args, context);
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::cerr << "numabench: " << error.what() << "\n";
    return 1;
  }
}
