// The `lint` workload: whole-corpus `numa_lint --export sarif` sweeps over
// a corpus generated from the seed and the templates in ../corpus.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "core/export/schema.hpp"
#include "lint/dataflow.hpp"
#include "lint/ir.hpp"
#include "lint/lexer.hpp"
#include "lint/numalint.hpp"
#include "lint/sarif.hpp"
#include "support/hash.hpp"
#include "support/threadpool.hpp"

namespace numabench {
namespace {

using namespace numaprof;
namespace fs = std::filesystem;

// The corpus holds kModules modules, each with `weight` instances of every
// template. The weights in ../corpus give the corpus the shape of
// `numa_lint examples src/apps` (see README.md): files of ~110 lines,
// ~8 findings per kLoC led by L1 and L4, ~15% of resolved calls crossing
// files. kModules sizes one sweep to a whole command of ~0.1 s over a few
// hundred files, not a millisecond call on one file.
constexpr std::size_t kModules = 32;

struct Plant {
  std::string code;
  std::string variable;
};

struct Corpus {
  std::map<std::string, std::string> files;  // name -> source
  std::vector<Plant> plants;
};

void replace_all(std::string& text, std::string_view from,
                 const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
}

/// Instantiates every template `weight` times in each of kModules modules.
/// A template starts with `// plant: <code> <variable>` lines naming the
/// findings it must raise and an optional `// weight: <n>` line (default
/// 1), then holds one or more `//// file: <name>` sections whose instances
/// are appended to the named file. `@MOD@` becomes the module number,
/// `@IDX@` the instance's number within its module, `@ID@` a unique
/// 5-digit id and `@K@` a 4-digit constant, both drawn from the seed:
/// names and constants vary with the seed while the corpus keeps the same
/// shape and size.
Corpus generate_corpus(const std::string& template_dir, std::uint64_t seed) {
  std::vector<fs::path> templates;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(template_dir)) {
    if (entry.path().extension() == ".tmpl") templates.push_back(entry.path());
  }
  std::sort(templates.begin(), templates.end());
  if (templates.empty()) {
    throw std::runtime_error("no lint templates in " + template_dir);
  }

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> id_digits(10000, 99999);
  std::uniform_int_distribution<int> constant(1000, 9999);
  std::set<int> used;
  Corpus corpus;
  for (const fs::path& path : templates) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const std::size_t at = text.str().find("// weight: ");
    const std::size_t weight =
        at == std::string::npos ? 1 : std::stoul(text.str().substr(at + 11));
    for (std::size_t k = 0; k < kModules * weight; ++k) {
      int id = id_digits(rng);
      while (!used.insert(id).second) id = id_digits(rng);
      std::string body = text.str();
      replace_all(body, "@MOD@", std::to_string(k / weight));
      replace_all(body, "@IDX@", std::to_string(k % weight));
      replace_all(body, "@ID@", std::to_string(id));
      replace_all(body, "@K@", std::to_string(constant(rng)));
      std::istringstream lines(body);
      std::string* file = nullptr;
      for (std::string line; std::getline(lines, line);) {
        if (line.rfind("// plant: ", 0) == 0) {
          std::istringstream fields(line.substr(10));
          Plant plant;
          fields >> plant.code >> plant.variable;
          corpus.plants.push_back(plant);
        } else if (line.rfind("//// file: ", 0) == 0) {
          file = &corpus.files[line.substr(11)];
        } else if (file != nullptr) {
          *file += line + "\n";
        }
      }
    }
  }
  return corpus;
}

/// Each op lints the whole corpus with `lint_paths` and renders SARIF.
class LintWorkload final : public Workload {
 public:
  explicit LintWorkload(const Context& context)
      : context_(context), pool_(context.jobs) {
    options_.jobs = context.jobs;
    options_.pool = &pool_;
  }

  // Generates the corpus from the seed, writes it out and lints it once so
  // the page cache and allocator are warm before the first timed sweep.
  // Never the repository's own sources: their size changes from commit to
  // commit, and a smaller tree would read as a lint speed-up.
  void setup() override {
    corpus_ = generate_corpus(context_.corpus_templates, context_.seed);
    root_ = (fs::path(context_.work_dir) / "lint").string();
    fs::remove_all(root_);
    fs::create_directories(root_);
    for (const auto& [name, source] : corpus_.files) {
      std::ofstream out(fs::path(root_) / name, std::ios::binary);
      out << source;
      if (!out) throw std::runtime_error("cannot write corpus file " + name);
    }
    lint::lint_paths({root_}, options_);
    expected_.reset();
  }

  std::size_t ops_per_pass() const override { return 1; }

  OpResult run(std::size_t pass, std::size_t, Tracer* tracer) override {
    if (tracer != nullptr) {
      tracer->begin_op();
      trace_phases(*tracer);
    }
    const Clock::time_point start = Clock::now();
    const lint::LintResult linted = lint::lint_paths({root_}, options_);
    const std::string sarif = traced(tracer, "lint.sarif", [&] {
      return lint::render_sarif(linted.findings);
    });
    OpResult result;
    result.ms = ms_between(start, Clock::now());

    // The first sweep checks the SARIF schema and the planted findings;
    // every later sweep must reproduce its findings and SARIF exactly.
    const std::uint64_t hash = support::fnv1a64(
        sarif, support::fnv1a64(lint::render_findings(linted.findings)));
    if (!expected_) {
      expected_ = Expected{hash, core::check_sarif_json(sarif).empty() &&
                                     all_plants_found(linted.findings)};
    }
    result.ok = expected_->valid && expected_->hash == hash;
    result.work = linted.stats.lines;
    result.output_bytes = sarif.size();
    if (tracer != nullptr && pass == 0) {
      stats_ = linted.stats;
      findings_ = linted.findings.size();
    }
    return result;
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) const override {
    out.push_back({"lint.lex_ms", tracer.median("lint.lex"), "ms"});
    out.push_back({"lint.ir_ms", tracer.median("lint.ir"), "ms"});
    out.push_back({"lint.summarize_ms", tracer.median("lint.summarize"),
                   "ms"});
    out.push_back({"lint.phase1_ms", tracer.median("lint.phase1"), "ms"});
    out.push_back({"lint.propagate_ms", tracer.median("lint.propagate"),
                   "ms"});
    out.push_back({"lint.sarif_ms", tracer.median("lint.sarif"), "ms"});
    out.push_back({"lint.files", static_cast<double>(stats_.files), "count"});
    out.push_back({"lint.lines", static_cast<double>(stats_.lines), "count"});
    out.push_back({"lint.tokens", static_cast<double>(stats_.tokens),
                   "count"});
    out.push_back({"lint.findings", static_cast<double>(findings_), "count"});
  }

  double nominal_pass_seconds() const override { return 0.11; }

 private:
  // lint_paths' stages called one by one on every file, serially, so each
  // stage's cost per sweep is visible apart from the pool.
  void trace_phases(Tracer& tracer) const {
    std::vector<lint::dataflow::FileSummary> summaries;
    for (const auto& [name, source] : corpus_.files) {
      traced(&tracer, "lint.lex", [&] { return lint::lex(source); });
      const lint::ir::FileIr ir = traced(
          &tracer, "lint.ir", [&] { return lint::ir::build_ir(source, name); });
      traced(&tracer, "lint.summarize",
             [&] { return lint::dataflow::summarize(ir); });
      summaries.push_back(traced(&tracer, "lint.phase1", [&] {
                            return lint::lint_file_phase1(source, name);
                          }).summary);
    }
    traced(&tracer, "lint.propagate", [&] {
      return lint::dataflow::propagate_and_check(std::move(summaries));
    });
  }

  bool all_plants_found(
      const std::vector<core::StaticFinding>& findings) const {
    return std::all_of(
        corpus_.plants.begin(), corpus_.plants.end(), [&](const Plant& plant) {
          return std::any_of(
              findings.begin(), findings.end(),
              [&](const core::StaticFinding& f) {
                return f.variable == plant.variable &&
                       lint::kind_code(f.kind) == plant.code;
              });
        });
  }

  Context context_;
  support::ThreadPool pool_;
  PipelineOptions options_;
  Corpus corpus_;
  std::string root_;
  struct Expected {
    std::uint64_t hash;
    bool valid;
  };
  std::optional<Expected> expected_;
  lint::LintStats stats_;
  std::uint64_t findings_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_lint(const Context& context) {
  return std::make_unique<LintWorkload>(context);
}

}  // namespace numabench
