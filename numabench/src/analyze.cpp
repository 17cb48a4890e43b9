// The `analyze` workload: before/after analysis campaigns over per-thread
// shards, as `analyze_profile --merge` and `--diff` run them.
#include <algorithm>
#include <array>
#include <filesystem>
#include <map>
#include <sstream>

#include "core/advisor.hpp"
#include "core/diff.hpp"
#include "rows.hpp"
#include "support/hash.hpp"
#include "support/threadpool.hpp"

namespace numabench {
namespace {

using namespace numaprof;
namespace fs = std::filesystem;

constexpr std::array<std::pair<ProfileFormat, const char*>, 2> kEncodings = {
    {{ProfileFormat::kText, "text"}, {ProfileFormat::kBinary, "binary"}}};
constexpr std::size_t kCases = kRows.size() / 2;

/// Everything `analyze_profile` prints for a profile without --lint:
/// program summary, health, the three tables, timeline and advisor.
std::string render_report(const Analyzer& analyzer) {
  const Viewer viewer(analyzer);
  std::ostringstream os;
  os << viewer.program_summary();
  const std::string health = viewer.collection_health();
  if (!health.empty()) os << "-- collection health --\n" << health;
  os << "\n"
     << viewer.data_centric_table(10).to_text() << "\n"
     << viewer.code_centric_table(10).to_text() << "\n"
     << viewer.domain_balance_table().to_text() << "\n";
  const std::string timeline = viewer.trace_timeline();
  if (!timeline.empty()) os << timeline << "\n";
  const core::Advisor advisor(analyzer);
  for (const core::Recommendation& rec : advisor.recommend_all(5)) {
    os << rec.variable_name << ": " << to_string(rec.action) << "\n  "
       << rec.rationale << "\n";
  }
  return os.str();
}

bool merged_whole(const MergeResult& merged) {
  return merged.summary.files_merged == merged.summary.files_total &&
         merged.summary.skipped.empty() && merged.summary.diagnostics.empty();
}

/// What one campaign produced: every byte its sinks received, the export
/// artifacts among them, and whether every shard merged whole.
struct Campaign {
  std::string output;
  std::vector<ExportArtifact> artifacts;
  bool merged = false;
  std::uint64_t samples = 0;
  std::uint64_t export_bytes = 0;
};

/// Each op is one case study's before/after campaign run twice, from its
/// text shards and from its binary shards: merge the baseline shards and
/// the fix shards, analyze and report each, diff before -> after, and
/// export every artifact kind for both. The seed orders the four case
/// studies of a pass and which encoding goes first in each op.
class AnalyzeWorkload final : public Workload {
 public:
  explicit AnalyzeWorkload(const Context& context)
      : context_(context), pool_(context.jobs) {
    options_.jobs = context.jobs;
    options_.pool = &pool_;
  }

  // Records the eight rows under IBS and writes their per-thread shards in
  // both encodings (`record_app --shards`, `--format text|binary`).
  void setup() override {
    const fs::path root = fs::path(context_.work_dir) / "analyze";
    fs::remove_all(root);
    input_bytes_ = {};
    expected_.clear();
    for (std::size_t row = 0; row < kRows.size(); ++row) {
      const Recording recording = record_row(
          kRows[row], pmu::Mechanism::kIbs, context_.seed, nullptr);
      for (std::size_t e = 0; e < kEncodings.size(); ++e) {
        const fs::path dir = root / kRows[row].name / kEncodings[e].second;
        shards_[row][e] = ProfileWriter(kEncodings[e].first)
                              .write_thread_shards(recording.data, dir);
        for (const std::string& path : shards_[row][e]) {
          input_bytes_[e] += fs::file_size(path);
        }
      }
    }
  }

  std::size_t ops_per_pass() const override { return kCases; }

  OpResult run(std::size_t pass, std::size_t index, Tracer* tracer) override {
    const std::size_t study = shuffled(kCases, context_.seed, pass)[index];
    const std::size_t first =
        shuffled(kEncodings.size(), context_.seed + study, pass)[0];
    if (tracer != nullptr) {
      tracer->begin_op();
      for (std::size_t encoding = 0; encoding < kEncodings.size();
           ++encoding) {
        trace_loads(*tracer, study, encoding);
      }
    }

    const Clock::time_point start = Clock::now();
    std::array<Campaign, kEncodings.size()> campaigns;
    for (std::size_t i = 0; i < kEncodings.size(); ++i) {
      const std::size_t encoding = (first + i) % kEncodings.size();
      campaigns[encoding] = run_campaign(study, encoding, tracer);
    }
    OpResult result;
    result.ms = ms_between(start, Clock::now());

    // Text and binary shards of one case study must give the same bytes;
    // the first op of a case study schema-checks the exports that every
    // later op then reproduces byte for byte.
    const Campaign& text = campaigns[0];
    const Campaign& binary = campaigns[1];
    const std::uint64_t hash = support::fnv1a64(text.output);
    auto it = expected_.find(study);
    if (it == expected_.end()) {
      const bool valid = std::all_of(
          text.artifacts.begin(), text.artifacts.end(),
          [](const ExportArtifact& a) {
            return check_artifact(a.filename, a.bytes).empty();
          });
      it = expected_.emplace(study, Expected{hash, valid}).first;
    }
    result.ok = text.merged && binary.merged && it->second.valid &&
                it->second.hash == hash && binary.output == text.output;
    result.work = text.samples + binary.samples;
    result.output_bytes = text.output.size() + binary.output.size();
    if (tracer != nullptr && pass == 0) {
      shards_read_ += 2 * (shards_[2 * study][0].size() +
                           shards_[2 * study + 1][0].size());
      samples_ += result.work;
      export_bytes_ += text.export_bytes + binary.export_bytes;
    }
    return result;
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) const override {
    out.push_back({"core.load_ms.text", tracer.median("core.load.text"),
                   "ms"});
    out.push_back({"core.load_ms.binary", tracer.median("core.load.binary"),
                   "ms"});
    out.push_back({"core.merge_ms", tracer.median("core.merge"), "ms"});
    out.push_back({"core.analyze_ms", tracer.median("core.analyze"), "ms"});
    out.push_back({"core.report_ms", tracer.median("core.report"), "ms"});
    out.push_back({"core.diff_ms", tracer.median("core.diff"), "ms"});
    out.push_back({"core.export_ms", tracer.median("core.export"), "ms"});
    out.push_back({"core.input_bytes.text",
                   static_cast<double>(input_bytes_[0]), "bytes"});
    out.push_back({"core.input_bytes.binary",
                   static_cast<double>(input_bytes_[1]), "bytes"});
    out.push_back({"core.shards", static_cast<double>(shards_read_), "count"});
    out.push_back({"core.samples", static_cast<double>(samples_), "count"});
    out.push_back({"core.export_bytes", static_cast<double>(export_bytes_),
                   "bytes"});
  }

  double nominal_pass_seconds() const override { return 0.11; }

 private:
  // `ProfileReader` on every shard of the study in `encoding`, timed
  // standalone: the campaign itself reads through merge_profile_files.
  void trace_loads(Tracer& tracer, std::size_t study,
                   std::size_t encoding) const {
    const std::string span =
        std::string("core.load.") + kEncodings[encoding].second;
    const ProfileReader reader;
    for (const std::size_t row : {2 * study, 2 * study + 1}) {
      for (const std::string& path : shards_[row][encoding]) {
        traced(&tracer, span, [&] { return reader.read_file(path); });
      }
    }
  }

  Campaign run_campaign(std::size_t study, std::size_t encoding,
                        Tracer* tracer) {
    const std::vector<std::string>& before_paths =
        shards_[2 * study][encoding];
    const std::vector<std::string>& after_paths =
        shards_[2 * study + 1][encoding];
    const MergeResult before = traced(tracer, "core.merge", [&] {
      return merge_profile_files(before_paths, options_);
    });
    const MergeResult after = traced(tracer, "core.merge", [&] {
      return merge_profile_files(after_paths, options_);
    });
    const Analyzer before_analyzer = traced(tracer, "core.analyze", [&] {
      return Analyzer(before.data, options_);
    });
    const Analyzer after_analyzer = traced(
        tracer, "core.analyze", [&] { return Analyzer(after.data, options_); });
    Campaign out;
    out.output = traced(tracer, "core.report", [&] {
      return render_report(before_analyzer) + render_report(after_analyzer);
    });
    out.output += traced(tracer, "core.diff", [&] {
      return core::render_diff(
          core::diff_profiles(before_analyzer, after_analyzer));
    });
    out.artifacts = traced(tracer, "core.export", [&] {
      std::vector<ExportArtifact> all =
          export_artifacts(before_analyzer, ExportKind::kAll);
      for (ExportArtifact& artifact :
           export_artifacts(after_analyzer, ExportKind::kAll)) {
        all.push_back(std::move(artifact));
      }
      return all;
    });
    for (const ExportArtifact& artifact : out.artifacts) {
      out.export_bytes += artifact.bytes.size();
      out.output += artifact.bytes;
    }
    out.merged = merged_whole(before) && merged_whole(after);
    out.samples =
        before_analyzer.program().samples + after_analyzer.program().samples;
    return out;
  }

  Context context_;
  support::ThreadPool pool_;
  PipelineOptions options_;
  std::array<std::array<std::vector<std::string>, kEncodings.size()>,
             kRows.size()>
      shards_;
  std::array<std::uint64_t, kEncodings.size()> input_bytes_{};
  struct Expected {
    std::uint64_t hash;
    bool valid;  // every export passed check_artifact
  };
  std::map<std::size_t, Expected> expected_;
  std::uint64_t shards_read_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t export_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_analyze(const Context& context) {
  return std::make_unique<AnalyzeWorkload>(context);
}

}  // namespace numabench
