#include "rows.hpp"

#include <algorithm>
#include <ostream>

#include "apps/miniamg.hpp"
#include "apps/miniblackscholes.hpp"
#include "apps/minilulesh.hpp"
#include "apps/miniumt.hpp"
#include "numasim/topology.hpp"

namespace numabench {

using namespace numaprof;

void run_row(simrt::Machine& machine, const Row& row) {
  switch (row.app) {
    case App::kLulesh:
      apps::run_minilulesh(machine, {.threads = 48,
                                     .pages_per_thread = 4,
                                     .timesteps = 12,
                                     .variant = row.variant});
      return;
    case App::kAmg:
      apps::run_miniamg(machine, {.threads = 48,
                                  .rows_per_thread = 1024,
                                  .nnz_per_row = 4,
                                  .relax_sweeps = 5,
                                  .matvec_sweeps = 1,
                                  .variant = row.variant});
      return;
    case App::kBlackscholes: {
      apps::BlackscholesConfig config;
      config.threads = 48;
      config.variant = row.variant;
      apps::run_miniblackscholes(machine, config);
      return;
    }
    case App::kUmt:
      apps::run_miniumt(machine, {.threads = 32,
                                  .groups = 64,
                                  .corners = 32,
                                  .angles = 128,
                                  .sweeps = 8,
                                  .variant = row.variant});
      return;
  }
}

core::ProfilerConfig profiler_config(pmu::Mechanism mechanism,
                                     std::uint64_t seed) {
  core::ProfilerConfig config;
  config.event = pmu::EventConfig::mini(mechanism);
  const bool event_filtered = pmu::capabilities_of(mechanism).event_filtered;
  config.event.period = std::min<std::uint64_t>(config.event.period,
                                                event_filtered ? 50 : 500);
  config.event.min_sample_gap =
      std::min<numasim::Cycles>(config.event.min_sample_gap, 20'000);
  config.event.seed = seed;
  return config;
}

Recording record_row(const Row& row, pmu::Mechanism mechanism,
                     std::uint64_t seed, Tracer* tracer, std::ostream* jsonl) {
  simrt::Machine machine(numasim::amd_magny_cours());
  // The hub is attached only to stream: without `jsonl` the recording runs
  // with telemetry off, so no telemetry cost lands on `record`.
  Telemetry hub;
  core::ProfilerConfig config = profiler_config(mechanism, seed);
  if (jsonl != nullptr) {
    machine.set_telemetry(&hub);
    config.telemetry = &hub;
  }
  core::Profiler profiler(machine, config);

  TelemetryStreamer::Config stream_config;
  stream_config.jsonl = jsonl;
  stream_config.mechanism = profiler.sampler().mechanism();
  TelemetryStreamer streamer(hub, stream_config);
  if (jsonl != nullptr) machine.add_observer(streamer);

  Recording out;
  const Clock::time_point start = Clock::now();
  run_row(machine, row);
  if (jsonl != nullptr) {
    streamer.flush(machine.elapsed());
    machine.remove_observer(streamer);
    out.snapshots = streamer.snapshots_emitted();
  }
  out.simulate_ms = ms_between(start, Clock::now());
  out.data =
      traced(tracer, "core.snapshot", [&] { return profiler.snapshot(); });
  out.profile = traced(tracer, "core.encode", [&] {
    return ProfileWriter(ProfileFormat::kText).bytes(out.data);
  });
  out.counts = {.accesses = machine.total_accesses(),
                .instructions = machine.total_instructions(),
                .sim_cycles = machine.elapsed(),
                .samples = profiler.sampler().samples_emitted(),
                .cct_nodes = out.data.cct.size(),
                .profile_bytes = out.profile.size()};
  return out;
}

double run_bare_ms(const Row& row) {
  simrt::Machine machine(numasim::amd_magny_cours());
  const Clock::time_point start = Clock::now();
  run_row(machine, row);
  return ms_between(start, Clock::now());
}

}  // namespace numabench
