// The `record` and `observe` workloads: whole recordings of the eight
// case-study rows, as `record_app` makes them.
#include <array>
#include <map>
#include <sstream>

#include "monitor/model.hpp"
#include "rows.hpp"
#include "support/hash.hpp"

namespace numabench {
namespace {

using namespace numaprof;

// IBS, PEBS and Soft-IBS pay different per-access costs, so a change to the
// simulated access path shows differently under each.
constexpr std::array<std::pair<pmu::Mechanism, const char*>, 3> kMechanisms = {
    {{pmu::Mechanism::kIbs, "ibs"},
     {pmu::Mechanism::kPebs, "pebs"},
     {pmu::Mechanism::kSoftIbs, "soft-ibs"}}};

/// A recording's profile must reload through ProfileReader and re-encode
/// to the same bytes.
bool profile_round_trips(const std::string& profile) {
  const LoadResult loaded = ProfileReader().read(std::string_view(profile));
  return loaded.complete && loaded.diagnostics.empty() &&
         ProfileWriter(ProfileFormat::kText).bytes(loaded.data) == profile;
}

void add_counts(RecordCounts& sum, const RecordCounts& one) {
  sum.accesses += one.accesses;
  sum.instructions += one.instructions;
  sum.sim_cycles += one.sim_cycles;
  sum.samples += one.samples;
  sum.cct_nodes += one.cct_nodes;
  sum.profile_bytes += one.profile_bytes;
}

/// Each op records one {row x mechanism} cell with telemetry off.
class RecordWorkload final : public Workload {
 public:
  explicit RecordWorkload(const Context& context) : context_(context) {}

  // Nothing to build: set-up is one warm-up recording of the smallest cell,
  // so allocator and page-cache state are warm before the first timed op.
  void setup() override {
    record_row(kRows[0], pmu::Mechanism::kIbs, context_.seed, nullptr);
  }

  std::size_t ops_per_pass() const override {
    return kRows.size() * kMechanisms.size();
  }

  OpResult run(std::size_t pass, std::size_t index, Tracer* tracer) override {
    const std::size_t cell =
        shuffled(ops_per_pass(), context_.seed, pass)[index];
    const Row& row = kRows[cell / kMechanisms.size()];
    const auto& [mechanism, mechanism_name] =
        kMechanisms[cell % kMechanisms.size()];

    double bare_ms = 0.0;
    if (tracer != nullptr) {
      tracer->begin_op();
      bare_ms = run_bare_ms(row);
      tracer->add("simrt.run_bare_ms", bare_ms);
    }
    const Clock::time_point start = Clock::now();
    const Recording recording =
        record_row(row, mechanism, context_.seed, tracer);
    OpResult result;
    result.ms = ms_between(start, Clock::now());
    if (tracer != nullptr) {
      tracer->add(std::string("pmu.overhead_ratio.") + mechanism_name,
                  recording.simulate_ms / bare_ms);
      if (pass == 0) add_counts(counts_, recording.counts);
    }
    // A cell's profile is checked once; later ops must reproduce it.
    const std::uint64_t hash = support::fnv1a64(recording.profile);
    auto it = verified_.find(cell);
    if (it == verified_.end()) {
      it = verified_
               .emplace(cell, Verified{hash, profile_round_trips(
                                                 recording.profile)})
               .first;
    }
    result.ok = it->second.valid && it->second.hash == hash;
    result.work = recording.counts.accesses;
    result.output_bytes = recording.profile.size();
    return result;
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) const override {
    out.push_back({"simrt.run_bare_ms", tracer.median("simrt.run_bare_ms"),
                   "ms"});
    for (const auto& [mechanism, name] : kMechanisms) {
      const std::string metric = std::string("pmu.overhead_ratio.") + name;
      out.push_back({metric, tracer.median(metric), "ratio"});
    }
    out.push_back({"core.snapshot_ms", tracer.median("core.snapshot"), "ms"});
    out.push_back({"core.encode_ms", tracer.median("core.encode"), "ms"});
    out.push_back({"core.profile_bytes",
                   static_cast<double>(counts_.profile_bytes), "bytes"});
    out.push_back({"simrt.accesses", static_cast<double>(counts_.accesses),
                   "count"});
    out.push_back({"simrt.instructions",
                   static_cast<double>(counts_.instructions), "count"});
    out.push_back({"simrt.sim_cycles",
                   static_cast<double>(counts_.sim_cycles), "cycles"});
    out.push_back({"pmu.samples", static_cast<double>(counts_.samples),
                   "count"});
    out.push_back({"pmu.samples_per_kaccess",
                   counts_.accesses == 0
                       ? 0.0
                       : 1000.0 * static_cast<double>(counts_.samples) /
                             static_cast<double>(counts_.accesses),
                   "1/kaccess"});
    out.push_back({"core.cct_nodes", static_cast<double>(counts_.cct_nodes),
                   "count"});
  }

  double nominal_pass_seconds() const override { return 4.0; }

 private:
  Context context_;
  struct Verified {
    std::uint64_t hash;
    bool valid;  // reloads and re-encodes byte-identically
  };
  std::map<std::size_t, Verified> verified_;
  RecordCounts counts_;
};

/// Each op records one row under IBS with a TelemetryStreamer writing JSONL
/// at the default interval, then replays the trace through the monitor
/// model one 80x24 frame per snapshot (`numa_top --replay`).
class ObserveWorkload final : public Workload {
 public:
  explicit ObserveWorkload(const Context& context) : context_(context) {}

  // The reference profiles the non-perturbation check compares against:
  // each row recorded under IBS without the streamer.
  void setup() override {
    for (std::size_t i = 0; i < kRows.size(); ++i) {
      reference_[i] =
          record_row(kRows[i], pmu::Mechanism::kIbs, context_.seed, nullptr)
              .profile;
    }
  }

  std::size_t ops_per_pass() const override { return kRows.size(); }

  OpResult run(std::size_t pass, std::size_t index, Tracer* tracer) override {
    const std::size_t row = shuffled(kRows.size(), context_.seed, pass)[index];
    double plain_ms = 0.0;
    if (tracer != nullptr) {
      tracer->begin_op();
      plain_ms = record_row(kRows[row], pmu::Mechanism::kIbs, context_.seed,
                            nullptr)
                     .simulate_ms;
    }

    const Clock::time_point start = Clock::now();
    std::ostringstream jsonl;
    const Recording recording = record_row(
        kRows[row], pmu::Mechanism::kIbs, context_.seed, tracer, &jsonl);
    std::string text = std::move(jsonl).str();
    const std::uint64_t trace_bytes = text.size();
    std::istringstream in(std::move(text));
    const TelemetryTrace trace = traced(
        tracer, "monitor.load", [&] { return load_telemetry_trace(in); });
    monitor::MonitorModel model;
    if (trace.has_mechanism) model.set_mechanism(trace.mechanism);
    std::uint64_t frame_bytes = 0;
    for (const TelemetrySnapshot& snapshot : trace.snapshots) {
      traced(tracer, "monitor.feed", [&] { model.feed(snapshot); });
      frame_bytes += traced(tracer, "monitor.render", [&] {
                       return model.render(80, 24);
                     }).size();
    }
    OpResult result;
    result.ms = ms_between(start, Clock::now());

    if (tracer != nullptr) {
      tracer->add("telemetry.overhead_ratio",
                  recording.simulate_ms / plain_ms);
      if (pass == 0) {
        snapshots_ += trace.snapshots.size();
        trace_bytes_ += trace_bytes;
        frames_ += trace.snapshots.size();
      }
    }
    result.ok = recording.profile == reference_[row] &&
                trace.snapshots.size() == recording.snapshots;
    result.work = recording.counts.accesses;
    result.output_bytes = trace_bytes + recording.profile.size() + frame_bytes;
    return result;
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) const override {
    out.push_back({"telemetry.overhead_ratio",
                   tracer.median("telemetry.overhead_ratio"), "ratio"});
    out.push_back({"monitor.load_ms", tracer.median("monitor.load"), "ms"});
    out.push_back({"monitor.feed_ms", tracer.median("monitor.feed"), "ms"});
    out.push_back({"monitor.render_ms", tracer.median("monitor.render"),
                   "ms"});
    out.push_back({"monitor.frames", static_cast<double>(frames_), "count"});
    out.push_back({"telemetry.snapshots", static_cast<double>(snapshots_),
                   "count"});
    out.push_back({"telemetry.trace_bytes", static_cast<double>(trace_bytes_),
                   "bytes"});
    out.push_back({"telemetry.bytes_per_snapshot",
                   snapshots_ == 0 ? 0.0
                                   : static_cast<double>(trace_bytes_) /
                                         static_cast<double>(snapshots_),
                   "bytes"});
  }

  double nominal_pass_seconds() const override { return 4.5; }

 private:
  Context context_;
  std::array<std::string, kRows.size()> reference_;
  std::uint64_t snapshots_ = 0;
  std::uint64_t trace_bytes_ = 0;
  std::uint64_t frames_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_record(const Context& context) {
  return std::make_unique<RecordWorkload>(context);
}

std::unique_ptr<Workload> make_observe(const Context& context) {
  return std::make_unique<ObserveWorkload>(context);
}

}  // namespace numabench
