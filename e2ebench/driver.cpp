// End-to-end exhibit benchmark driver: runs one workload in this process and
// writes its raw measurements; run.py turns them into the reported metrics.
//
//   itr_e2e --workload fig08-paper|fig08-fleet|coverage-cold|coverage-warm
//           --seed N --seconds S --trace 0|1 --out DIR
//           [--size paper|tiny]
//
// Load comes from this one process with threads = nproc.  A run sets the
// workload up at least three times and for at least a second (setup_s per
// set-up), then repeats the exhibit at least three times and for at least S
// seconds (exhibit_s per repetition).  Every repetition's output is compared
// unit by unit with the first one; the first one is written to DIR for
// run.py to compare with the committed expected bytes, and the workload's
// cross-workload identity (fleet merge == single process, warm cache == cold
// cache) is checked once after the timed repetitions.
//
// With --trace 1 every untraced repetition is followed by a traced set-up
// and a traced repetition: program stats and spans on, each layer call
// wrapped in a span of category "bench" recorded on the program's own tracer
// (so benchmark and program spans share one clock and one thread numbering).
// The buffers are cleared before each traced pair, so DIR's trace.json
// (every span) and stats.json (every counter, diagnostics included) hold the
// last one.  The unit-cost probes the cost model needs follow.
//
// The driver reaches the program only through public layer functions:
// workload generation and the stream cache, FunctionalSim / CycleSim /
// GoldenStream, SweepEngine, the fault-injection campaign and its golden
// analysis, and the campaign service.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fi/classify.hpp"
#include "fi/prune.hpp"
#include "fi/service.hpp"
#include "isa/predecode.hpp"
#include "itr/sweep_engine.hpp"
#include "obs/registry.hpp"
#include "obs/trace_event.hpp"
#include "sim/functional.hpp"
#include "sim/golden_stream.hpp"
#include "sim/pipeline.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/spec_profiles.hpp"
#include "workload/stream_cache.hpp"

namespace itr::e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Fewest exhibit repetitions a run times, however long each one takes.
constexpr std::size_t kMinReps = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Workload dimensions.  "paper" is what the benchmark measures; "tiny" runs
/// every code path in seconds for the self-test.
struct Size {
  std::vector<std::string> benchmarks;
  std::uint64_t fig08_insns = 0;
  std::uint64_t faults = 0;    ///< per benchmark
  std::uint64_t window = 0;    ///< observation cycles
  std::uint32_t shards_per_benchmark = 0;
  std::uint64_t sweep_insns = 0;
};

Size size_named(const std::string& name) {
  if (name == "paper") {
    return Size{workload::coverage_figure_names(), 2'000'000, 1000, 100'000, 2,
                8'000'000};
  }
  if (name == "tiny") {
    return Size{{"gap", "vortex"}, 200'000, 40, 100'000, 2, 200'000};
  }
  throw std::invalid_argument("unknown --size " + name + " (paper|tiny)");
}

std::string benchmark_args(const std::string& name) {
  return "{\"benchmark\": \"" + name + "\"}";
}

std::string csv_of(const util::Table& table) {
  std::ostringstream os;
  table.print_csv(os);
  return os.str();
}

std::vector<std::string> csv_lines(const std::string& csv) {
  std::vector<std::string> lines;
  std::istringstream is(csv);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// Sum of the sizes of the regular files in `dir` whose name ends in `suffix`.
std::uint64_t bytes_in(const fs::path& dir, const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += entry.file_size();
    }
  }
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One exhibit repetition's checkable output.
struct RepOutput {
  /// Per-benchmark output rows, compared across repetitions and workloads.
  std::vector<std::string> unit_rows;
  /// Exhibit files (name -> bytes) checked against the expected bytes.
  std::map<std::string, std::string> files;
  std::uint64_t units = 0;         ///< units attempted
  std::uint64_t units_failed = 0;  ///< units that threw or never finished
};

/// Flat JSON document of raw measurements (numbers, number lists, strings).
class Result {
 public:
  void num(const std::string& key, double v) { fields_[key] = fmt(v); }
  void nums(const std::string& key, const std::vector<double>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) s += (i ? ", " : "") + fmt(vs[i]);
    fields_[key] = s + "]";
  }
  void str(const std::string& key, const std::string& v) {
    fields_[key] = "\"" + v + "\"";
  }
  void strs(const std::string& key, const std::vector<std::string>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      s += (i ? ", \"" : "\"") + vs[i] + "\"";
    }
    fields_[key] = s + "]";
  }
  std::string json() const {
    std::string s = "{";
    for (const auto& [key, value] : fields_) {
      s += (s.size() > 1 ? ",\n  \"" : "\n  \"") + key + "\": " + value;
    }
    return s + "\n}\n";
  }

 private:
  static std::string fmt(double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  }
  std::map<std::string, std::string> fields_;
};

/// Counts units that differ between two repetitions' outputs; a missing row
/// counts as different.  Each differing row stands for `weight` units.
std::uint64_t differing_units(const RepOutput& a, const RepOutput& b,
                              std::uint64_t weight) {
  const std::size_t n = std::max(a.unit_rows.size(), b.unit_rows.size());
  std::uint64_t differing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= a.unit_rows.size() || i >= b.unit_rows.size() ||
        a.unit_rows[i] != b.unit_rows[i]) {
      differing += weight;
    }
  }
  return differing;
}

/// Functional-simulation unit cost over `programs`, `insns` each, on the
/// exhibit's lanes: the sum of lane seconds and of instructions retired.
void probe_functional(const std::vector<isa::Program>& programs,
                      std::uint64_t insns, unsigned threads, Result& result) {
  std::vector<double> secs(programs.size());
  std::vector<double> retired(programs.size());
  util::parallel_for(threads, programs.size(), [&](std::size_t b) {
    const auto t0 = Clock::now();
    sim::FunctionalSim fsim(programs[b]);
    retired[b] = static_cast<double>(fsim.run(insns));
    secs[b] = seconds_since(t0);
  });
  double s = 0, n = 0;
  for (std::size_t b = 0; b < programs.size(); ++b) s += secs[b], n += retired[b];
  result.num("probe_functional_s", s);
  result.num("probe_functional_insns", n);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs the exhibit consumes (timed as setup_s).
  virtual void setup() = 0;
  /// Untimed reset between repetitions.
  virtual void before_rep() {}
  /// One exhibit (timed as exhibit_s).  With `capture_stats` the stats
  /// registry is reset first and its architectural document kept in files.
  virtual RepOutput rep(bool capture_stats) = 0;
  /// Units one exhibit repetition attempts.
  virtual std::uint64_t units_per_rep() const = 0;
  /// Units one differing output row stands for.
  virtual std::uint64_t row_weight() const { return 1; }
  /// Untimed cross-workload identity check against the first repetition;
  /// returns the number of units that fail it.
  virtual std::uint64_t check_identity(const RepOutput& first) = 0;
  /// Traced pass: refills the stats registry when the traced exhibit cannot
  /// leave its counters there.
  virtual void attribute() {}
  /// Traced pass: unit-cost probes and work counts.
  virtual void probe(Result& result) = 0;
  /// Work done per repetition and other per-workload figures, read right
  /// after the timed repetitions.
  virtual void describe(Result& result) const = 0;
};

// ---- fig08-paper / fig08-fleet ----------------------------------------------

class Fig08 final : public Workload {
 public:
  Fig08(const Size& size, std::uint64_t seed, unsigned threads, bool fleet,
        fs::path work)
      : size_(size), threads_(threads), fleet_(fleet), work_(std::move(work)) {
    spec_.benchmarks = size.benchmarks;
    spec_.insns = size.fig08_insns;
    spec_.faults = size.faults;
    spec_.window = size.window;
    spec_.seed = seed;
    spec_.mode = fi::CheckpointMode::kLadder;
    spec_.prune.mode = fi::PruneMode::kFull;
    spec_.exec = fi::ExecMode::kBatch;
    spec_.batch_width = 16;
  }

  void setup() override {
    programs_.clear();
    for (const auto& name : spec_.benchmarks) {
      obs::Span span("workload.generate_spec", "bench");
      programs_.push_back(workload::generate_spec(name, spec_.insns));
    }
  }

  void before_rep() override {
    if (fleet_) fs::remove_all(shard_dir());
  }

  RepOutput rep(bool capture_stats) override {
    if (capture_stats) obs::registry().reset();
    RepOutput out = fleet_ ? run_fleet() : run_paper();
    if (capture_stats && !fleet_) {
      std::ostringstream stats;
      obs::registry().write_json(stats, /*include_diagnostic=*/false);
      out.files["fig08_stats.json"] = stats.str();
    }
    return out;
  }

  std::uint64_t units_per_rep() const override {
    return spec_.benchmarks.size() * row_weight();
  }
  std::uint64_t row_weight() const override {
    return fleet_ ? size_.shards_per_benchmark : 1;
  }

  std::uint64_t check_identity(const RepOutput& first) override {
    if (!fleet_) return 0;  // the fleet run checks the pair
    const bool stats_were_enabled = obs::stats_enabled();
    obs::set_stats_enabled(true);
    obs::registry().reset();
    RepOutput single = run_paper();
    std::ostringstream stats;
    obs::registry().write_json(stats, /*include_diagnostic=*/false);
    obs::set_stats_enabled(stats_were_enabled);
    std::uint64_t failed = differing_units(first, single, row_weight());
    if (failed == 0 && first.files.at("fig08.csv") != single.files.at("fig08.csv")) {
      failed = 1;  // header or Avg row
    }
    if (first.files.at("fig08_stats.json") != stats.str()) ++failed;
    if (failed != 0) {
      std::cerr << "itr_e2e: fleet merge differs from the single-process run\n";
    }
    return failed;
  }

  void attribute() override {
    if (!fleet_) return;
    // serve() isolates each shard's registry and resets it afterwards, so
    // the fleet's diagnostic counters are re-derived here by running every
    // shard of the traced repetition's manifest the way serve does.
    obs::registry().reset();
    const fi::service::Manifest mf = fi::service::load_manifest(shard_dir().string());
    const fi::CampaignConfig cfg = fi::service::make_campaign_config(mf.spec);
    for (const auto& shard : mf.shards) {
      fi::FaultInjectionCampaign camp(program(shard.benchmark), cfg);
      camp.run_slice(shard.slice, threads_);
    }
  }

  void probe(Result& result) override {
    const fi::CampaignConfig cfg = fi::service::make_campaign_config(spec_);
    sim::CycleSim::Options opt;  // the campaign's monitoring-mode options
    opt.config = cfg.pipeline;
    opt.itr = cfg.itr;
    opt.itr_recovery = false;
    const std::uint64_t walk = cfg.warmup_instructions + cfg.inject_region;
    const std::uint64_t horizon = fi::golden_probe_horizon(
        cfg.pipeline, cfg.warmup_instructions, cfg.inject_region,
        cfg.observation_cycles, cfg.detected_mask_grace_cycles);
    const std::size_t n = programs_.size();
    std::vector<double> cycle_s(n), cycle_insns(n), record_s(n), stream_bytes(n),
        with_profile_s(n), without_profile_s(n);

    probe_functional(programs_, spec_.insns, threads_, result);
    util::parallel_for(threads_, n, [&](std::size_t b) {
      const auto t0 = Clock::now();
      sim::CycleSim cs(programs_[b], opt);
      cs.run(walk);
      cycle_s[b] = seconds_since(t0);
      cycle_insns[b] = static_cast<double>(cs.stats().instructions_committed);
    });
    util::parallel_for(threads_, n, [&](std::size_t b) {
      const auto predecoded = std::make_shared<const isa::PredecodedProgram>(programs_[b]);
      const auto t0 = Clock::now();
      sim::FunctionalSim golden(programs_[b], predecoded);
      const auto stream = sim::GoldenStream::record(golden, horizon);
      record_s[b] = seconds_since(t0);
      stream_bytes[b] = static_cast<double>(stream.memory_bytes());
    });
    util::parallel_for(threads_, n, [&](std::size_t b) {
      const auto predecoded = std::make_shared<const isa::PredecodedProgram>(programs_[b]);
      for (const bool profile : {true, false}) {
        sim::GoldenStream stream;
        const auto t0 = Clock::now();
        fi::analyze_golden(programs_[b], opt, predecoded, cfg.warmup_instructions,
                           cfg.inject_region, cfg.observation_cycles,
                           cfg.detected_mask_grace_cycles, profile, &stream);
        (profile ? with_profile_s : without_profile_s)[b] = seconds_since(t0);
      }
    });
    const auto sum = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return s;
    };
    result.num("probe_cycle_s", sum(cycle_s));
    result.num("probe_cycle_insns", sum(cycle_insns));
    result.num("probe_golden_record_s", sum(record_s));
    result.num("probe_golden_stream_bytes", sum(stream_bytes));
    result.num("probe_analyze_profile_s", sum(with_profile_s));
    result.num("probe_analyze_noprofile_s", sum(without_profile_s));
  }

  void describe(Result& result) const override {
    result.num("injections_per_rep",
               static_cast<double>(spec_.faults * spec_.benchmarks.size()));
    if (!fleet_) return;
    result.num("journal_bytes", static_cast<double>(journal_bytes_));
    std::vector<std::string> shard_benchmarks;
    for (const auto& name : spec_.benchmarks) {
      for (std::uint32_t s = 0; s < size_.shards_per_benchmark; ++s) {
        shard_benchmarks.push_back(name);
      }
    }
    result.strs("shard_benchmarks", shard_benchmarks);
  }

 private:
  fs::path shard_dir() const { return work_ / "shards"; }

  const isa::Program& program(const std::string& name) const {
    const auto& names = spec_.benchmarks;
    return programs_.at(static_cast<std::size_t>(
        std::find(names.begin(), names.end(), name) - names.begin()));
  }

  /// Renders the table and splits it into one row per benchmark.
  void finish(const util::Table& table, RepOutput& out) const {
    out.files["fig08.csv"] = csv_of(table);
    const auto lines = csv_lines(out.files["fig08.csv"]);
    for (std::size_t b = 0; b < spec_.benchmarks.size() && b + 1 < lines.size(); ++b) {
      out.unit_rows.push_back(lines[b + 1]);
    }
  }

  /// Figure 8 in one process: one campaign per benchmark, benchmarks spread
  /// over the lanes (the fig08 builder's schedule).
  RepOutput run_paper() {
    const auto& names = spec_.benchmarks;
    const fi::CampaignConfig cfg = fi::service::make_campaign_config(spec_);
    const unsigned inner = std::max(1u, static_cast<unsigned>(threads_ / names.size()));
    std::vector<fi::service::OutcomeTally> tallies(names.size());
    RepOutput out;
    out.units = units_per_rep();
    std::vector<char> threw(names.size(), 0);
    util::parallel_for(threads_, names.size(), [&](std::size_t b) {
      obs::Span lane("lane", "bench");
      lane.set_args(benchmark_args(names[b]));
      try {
        fi::FaultInjectionCampaign camp(programs_[b], cfg);
        obs::Span span("fi.FaultInjectionCampaign::run", "bench");
        span.set_args(benchmark_args(names[b]));
        tallies[b] = fi::service::OutcomeTally::from_summary(camp.run(spec_.faults, inner));
      } catch (const std::exception& e) {
        std::cerr << "itr_e2e: " << names[b] << ": " << e.what() << "\n";
        threw[b] = 1;
      }
    });
    for (char t : threw) out.units_failed += t != 0 ? 1 : 0;
    obs::Span span("fi.service.fault_injection_table_from_tallies", "bench");
    finish(fi::service::fault_injection_table_from_tallies(names, tallies), out);
    return out;
  }

  /// The same campaign through the service: plan-index shards, one
  /// in-process worker, merge.
  RepOutput run_fleet() {
    const std::string dir = shard_dir().string();
    RepOutput out;
    out.units = units_per_rep();
    {
      obs::Span span("fi.service.shard_campaign", "bench");
      fi::service::shard_campaign(dir, spec_, size_.shards_per_benchmark, 1);
    }
    fi::service::ServeOptions options;
    options.threads = threads_;
    options.source = [this](const std::string& name, std::uint64_t) {
      return program(name);
    };
    fi::service::ServeReport report;
    {
      obs::Span span("fi.service.serve", "bench");
      report = fi::service::serve(dir, options);
    }
    out.units_failed = out.units - std::min(out.units, report.done);
    const fi::service::MergeResult merged = [&] {
      obs::Span span("fi.service.merge_campaign", "bench");
      return fi::service::merge_campaign(dir);
    }();
    finish(merged.table, out);
    out.files["fig08_stats.json"] = merged.stats_json;
    journal_bytes_ = bytes_in(dir, ".done");
    return out;
  }

  Size size_;
  fi::service::CampaignSpec spec_;
  unsigned threads_;
  bool fleet_;
  fs::path work_;
  std::vector<isa::Program> programs_;
  std::uint64_t journal_bytes_ = 0;
};

// ---- coverage-cold / coverage-warm ------------------------------------------

struct SweepPoint {
  const char* label;
  std::size_t assoc;  // 0 = fully associative
};
constexpr SweepPoint kAssocSweep[] = {{"dm", 1},    {"2-way", 2},  {"4-way", 4},
                                      {"8-way", 8}, {"16-way", 16}, {"fa", 0}};
constexpr std::size_t kSizeSweep[] = {256, 512, 1024};

class Coverage final : public Workload {
 public:
  Coverage(const Size& size, std::uint64_t seed, unsigned threads, bool warm,
           fs::path work)
      : size_(size), seed_(seed), threads_(threads), warm_(warm), work_(std::move(work)) {
    for (const auto& point : kAssocSweep) {
      for (auto signatures : kSizeSweep) {
        core::ItrCacheConfig cfg;
        cfg.num_signatures = signatures;
        cfg.associativity = point.assoc;
        configs_.push_back(cfg);
      }
    }
  }

  void setup() override {
    programs_.clear();
    for (const auto& name : size_.benchmarks) {
      obs::Span span("workload.generate_spec", "bench");
      programs_.push_back(workload::generate_spec(name, size_.sweep_insns * 2, seed_));
    }
    reset_cache();
    if (warm_) {
      filled_ = false;
      fill_ = rep(false);  // the cache fill is one cold exhibit
      filled_ = true;
    }
  }

  void before_rep() override {
    if (!warm_) reset_cache();
  }

  std::uint64_t units_per_rep() const override { return size_.benchmarks.size(); }

  RepOutput rep(bool /*capture_stats*/) override {
    const auto& names = size_.benchmarks;
    const std::vector<std::string> headers = {"benchmark", "assoc", "256sig%",
                                              "512sig%", "1024sig%"};
    std::vector<util::Table> detection(names.size(), util::Table(headers));
    std::vector<util::Table> recovery(names.size(), util::Table(headers));
    std::vector<std::uint64_t> hits(names.size()), traces(names.size()),
        swept(names.size());
    RepOutput out;
    out.units = units_per_rep();
    util::parallel_for(threads_, names.size(), [&](std::size_t b) {
      obs::Span lane("lane", "bench");
      lane.set_args(benchmark_args(names[b]));
      const workload::StreamKey key{names[b], size_.sweep_insns};
      const std::string path = (cache_dir() / workload::stream_cache_filename(key)).string();
      std::optional<std::vector<core::CompactTrace>> stream;
      {
        obs::Span span("workload.load_stream", "bench");
        stream = workload::load_stream(path, key);
      }
      if (stream.has_value()) {
        hits[b] = 1;
      } else {
        {
          obs::Span span("workload.collect_trace_stream", "bench");
          stream = workload::collect_trace_stream(programs_[b], size_.sweep_insns);
        }
        obs::Span span("workload.save_stream", "bench");
        if (!workload::save_stream(path, key, *stream)) {
          std::cerr << "itr_e2e: save_stream failed for " << path << "\n";
        }
      }
      std::vector<core::SweepResult> results;
      {
        obs::Span span("core.SweepEngine::run", "bench");
        results = core::SweepEngine::run(*stream, configs_);
      }
      traces[b] = results.front().counters.total_traces;
      swept[b] = results.front().counters.total_instructions;
      std::size_t next = 0;
      for (const auto& point : kAssocSweep) {
        detection[b].begin_row().add(names[b]).add(point.label);
        recovery[b].begin_row().add(names[b]).add(point.label);
        for (std::size_t s = 0; s < std::size(kSizeSweep); ++s) {
          const auto& counters = results[next++].counters;
          detection[b].add(counters.detection_loss_percent(), 2);
          recovery[b].add(counters.recovery_loss_percent(), 2);
        }
      }
    });
    util::Table fig06(headers), fig07(headers);
    for (std::size_t b = 0; b < names.size(); ++b) {
      fig06.append_rows(detection[b]);
      fig07.append_rows(recovery[b]);
      out.unit_rows.push_back(csv_of(detection[b]) + csv_of(recovery[b]));
      // A saved stream that does not load back is a failed unit of the warm
      // workload: its timed path would silently turn into the cold one.
      if (warm_ && filled_ && hits[b] == 0) ++out.units_failed;
    }
    out.files["fig06.csv"] = csv_of(fig06);
    out.files["fig07.csv"] = csv_of(fig07);
    last_hits_ = last_traces_ = last_swept_ = 0;
    for (std::size_t b = 0; b < names.size(); ++b) {
      last_hits_ += hits[b];
      last_traces_ += traces[b];
      last_swept_ += swept[b];
    }
    return out;
  }

  std::uint64_t check_identity(const RepOutput& first) override {
    // Warm: the set-up's cold exhibit is the reference.  Cold: the last
    // repetition left the cache full, so one more repetition is the warm one.
    const RepOutput other = warm_ ? fill_ : rep(false);
    std::uint64_t failed = differing_units(first, other, 1);
    if (!warm_) failed += size_.benchmarks.size() - last_hits_;
    if (failed != 0) {
      std::cerr << "itr_e2e: warm-cache sweep differs from the cold-cache sweep\n";
    }
    return std::min<std::uint64_t>(failed, size_.benchmarks.size());
  }

  void probe(Result& result) override {
    probe_functional(programs_, size_.sweep_insns, threads_, result);
  }

  void describe(Result& result) const override {
    result.num("swept_minsns_per_rep", static_cast<double>(last_swept_) / 1e6);
    result.num("traces_per_rep", static_cast<double>(last_traces_));
    result.num("cache_hits", static_cast<double>(last_hits_));
    result.num("cache_attempts", static_cast<double>(size_.benchmarks.size()));
    result.num("cache_bytes", static_cast<double>(bytes_in(cache_dir(), "")));
  }

 private:
  fs::path cache_dir() const { return work_ / "stream-cache"; }

  void reset_cache() {
    fs::remove_all(cache_dir());
    fs::create_directories(cache_dir());
  }

  Size size_;
  std::uint64_t seed_;
  unsigned threads_;
  bool warm_;
  fs::path work_;
  std::vector<core::ItrCacheConfig> configs_;
  std::vector<isa::Program> programs_;
  RepOutput fill_;
  bool filled_ = false;
  std::uint64_t last_hits_ = 0, last_traces_ = 0, last_swept_ = 0;
};

// ---- driver -----------------------------------------------------------------

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os << bytes;
  if (!os) throw std::runtime_error("cannot write " + path.string());
}

int run(int argc, char** argv) {
  const util::CliFlags flags(argc, argv);
  const std::string name = flags.get_string("workload", "");
  const std::uint64_t seed = flags.get_u64("seed", 42);
  const double seconds = flags.get_double("seconds", 10);
  const bool trace = flags.get_u64("trace", 0) != 0;
  const std::string size_name = flags.get_string("size", "paper");
  const unsigned threads = util::resolve_threads(0);
  const fs::path out_dir = flags.get_string("out", "");
  flags.reject_unknown();
  if (out_dir.empty()) throw std::invalid_argument("--out is required");
  const Size size = size_named(size_name);
  fs::create_directories(out_dir);

  std::unique_ptr<Workload> wl;
  if (name == "fig08-paper" || name == "fig08-fleet") {
    wl = std::make_unique<Fig08>(size, seed, threads, name == "fig08-fleet", out_dir);
  } else if (name == "coverage-cold" || name == "coverage-warm") {
    wl = std::make_unique<Coverage>(size, seed, threads, name == "coverage-warm", out_dir);
  } else {
    throw std::invalid_argument("unknown --workload '" + name + "'");
  }

  Result result;
  result.str("workload", name);
  result.str("size", size_name);
  result.num("seed", static_cast<double>(seed));
  result.num("threads", threads);
  result.num("host_cores", std::thread::hardware_concurrency());
  result.str("build_type", ITR_E2E_BUILD_TYPE);

  // Set-up is repeated so that its median is steady even where one set-up
  // takes milliseconds.
  std::vector<double> setup_s;
  const auto setup_start = Clock::now();
  while (setup_s.size() < 3 ||
         (setup_s.size() < 200 && seconds_since(setup_start) < 1.0)) {
    const auto t0 = Clock::now();
    wl->setup();
    setup_s.push_back(seconds_since(t0));
  }
  result.nums("setup_s", setup_s);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto checked_rep = [&](bool capture_stats, const RepOutput* first,
                               double* elapsed) {
    wl->before_rep();
    RepOutput out;
    const auto t0 = Clock::now();
    try {
      obs::Span span("exhibit", "bench");
      out = wl->rep(capture_stats);
    } catch (const std::exception& e) {
      std::cerr << "itr_e2e: " << name << ": " << e.what() << "\n";
      out = RepOutput{};
      out.units = out.units_failed = wl->units_per_rep();
    }
    if (elapsed != nullptr) *elapsed = seconds_since(t0);
    attempted += out.units;
    std::uint64_t bad = out.units_failed;
    if (first != nullptr) bad += differing_units(*first, out, wl->row_weight());
    failed += std::min(bad, out.units);
    return out;
  };

  // The first repetition is the checked one; fig08-paper runs it untimed
  // with stats on to capture the architectural stats document.
  const bool untimed_first = name == "fig08-paper";
  std::vector<double> exhibit_s;
  std::vector<double> traced_s;  // paired with exhibit_s by index
  RepOutput first;
  if (untimed_first) {
    obs::set_stats_enabled(true);
    first = checked_rep(true, nullptr, nullptr);
    obs::set_stats_enabled(false);
  }
  const auto t_start = Clock::now();
  do {
    const bool is_first = exhibit_s.empty() && !untimed_first;
    double elapsed = 0;
    RepOutput out = checked_rep(false, is_first ? nullptr : &first, &elapsed);
    if (is_first) first = std::move(out);
    exhibit_s.push_back(elapsed);
    if (trace) {
      obs::registry().reset();
      obs::tracer().reset();
      obs::set_stats_enabled(true);
      obs::set_tracing_enabled(true);
      {
        obs::Span span("setup", "bench");
        wl->setup();
      }
      checked_rep(true, &first, &elapsed);
      traced_s.push_back(elapsed);
      obs::set_tracing_enabled(false);
      obs::set_stats_enabled(false);
    }
  } while (exhibit_s.size() < kMinReps || seconds_since(t_start) < seconds);
  result.nums("exhibit_s", exhibit_s);
  result.num("peak_rss_mb", peak_rss_mb());
  for (const auto& [file, bytes] : first.files) write_file(out_dir / file, bytes);
  wl->describe(result);

  if (trace) {
    result.nums("traced_exhibit_s", traced_s);
    obs::set_stats_enabled(true);
    wl->attribute();
    std::ostringstream stats;
    obs::registry().write_json(stats, /*include_diagnostic=*/true);
    write_file(out_dir / "stats.json", stats.str());
    std::ostringstream spans;
    obs::tracer().write_json(spans);
    write_file(out_dir / "trace.json", spans.str());
    obs::set_stats_enabled(false);
  }

  const std::uint64_t identity_failed = wl->check_identity(first);
  failed = std::min(attempted, failed + identity_failed);
  result.num("identity_failed", static_cast<double>(identity_failed));

  if (trace) wl->probe(result);

  result.num("units_per_row", static_cast<double>(wl->row_weight()));
  result.num("units_attempted", static_cast<double>(attempted));
  result.num("units_failed", static_cast<double>(failed));
  write_file(out_dir / "result.json", result.json());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace itr::e2e

int main(int argc, char** argv) {
  try {
    return itr::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "itr_e2e: " << e.what() << "\n";
    return 2;
  }
}
