// The paper's eight case-study rows and the recording path they share,
// configured exactly as `record_app <app> <variant> <mechanism>` runs them.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "apps/common.hpp"
#include "common.hpp"
#include "core/numaprof.hpp"
#include "simrt/machine.hpp"

namespace numabench {

enum class App : std::uint8_t { kLulesh, kAmg, kBlackscholes, kUmt };

/// One row of the §8 case studies: an app in its baseline form or with the
/// fix the paper applied to it.
struct Row {
  App app;
  numaprof::apps::Variant variant;
  const char* name;
};

inline constexpr std::array<Row, 8> kRows = {{
    {App::kLulesh, numaprof::apps::Variant::kBaseline, "lulesh-baseline"},
    {App::kLulesh, numaprof::apps::Variant::kBlockwise, "lulesh-blockwise"},
    {App::kAmg, numaprof::apps::Variant::kBaseline, "amg-baseline"},
    {App::kAmg, numaprof::apps::Variant::kBlockwise, "amg-blockwise"},
    {App::kBlackscholes, numaprof::apps::Variant::kBaseline,
     "blackscholes-baseline"},
    {App::kBlackscholes, numaprof::apps::Variant::kAosRegroup,
     "blackscholes-aos"},
    {App::kUmt, numaprof::apps::Variant::kBaseline, "umt-baseline"},
    {App::kUmt, numaprof::apps::Variant::kParallelInit, "umt-parallel-init"},
}};

/// Runs the row's workload on `machine` (record_app's input sizes).
void run_row(numaprof::simrt::Machine& machine, const Row& row);

/// record_app's sampling set-up for `mechanism`, with the jitter seed taken
/// from the benchmark seed.
numaprof::core::ProfilerConfig profiler_config(
    numaprof::pmu::Mechanism mechanism, std::uint64_t seed);

/// Exact counts of one recording, summed over a pass.
struct RecordCounts {
  std::uint64_t accesses = 0;
  std::uint64_t instructions = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t samples = 0;
  std::uint64_t cct_nodes = 0;
  std::uint64_t profile_bytes = 0;
};

/// One recording as `record_app` makes it, with its profile encoded.
struct Recording {
  numaprof::core::SessionData data;
  std::string profile;
  RecordCounts counts;
  double simulate_ms = 0.0;  // host time of the workload run alone
  std::uint64_t snapshots = 0;  // telemetry snapshots streamed
};

/// Records `row` under `mechanism` and encodes the profile as text, with
/// telemetry off. With `jsonl`, the telemetry hub is attached and a
/// TelemetryStreamer writes the JSONL trace there at the default interval
/// (`record_app --telemetry`). With a tracer, the snapshot and encode are
/// the spans `core.snapshot` and `core.encode`.
Recording record_row(const Row& row, numaprof::pmu::Mechanism mechanism,
                     std::uint64_t seed, Tracer* tracer,
                     std::ostream* jsonl = nullptr);

/// Host ms of the row's workload with no profiler attached.
double run_bare_ms(const Row& row);

}  // namespace numabench
