#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>

#include "query/engine.h"
#include "relational/tuple.h"
#include "schema/loader.h"

namespace perfbench {

using namespace paradise;  // NOLINT(build/namespaces)

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

SpeedProbe::SpeedProbe() : table_(1 << 15) {
  for (size_t i = 0; i < table_.size(); ++i) table_[i] = i * 2654435761u;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void SpeedProbe::Probe() {
  const size_t mask = table_.size() - 1;
  uint64_t acc = 0;
  const double t0 = ThreadCpuSeconds();
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < table_.size(); ++i) {
      acc += table_[(i * 7919) & mask] ^ (acc >> 3);
    }
  }
  const double seconds = ThreadCpuSeconds() - t0;
  std::lock_guard<std::mutex> lock(mu_);
  // Stamped under the lock, so probes_ stays sorted across threads. The sum
  // decides nothing; comparing it keeps the loop from being elided.
  if (acc != 1) probes_.emplace_back(Now(), seconds);
}

double SpeedProbe::Slowdown(double t0, double t1) const {
  std::vector<double> window;
  std::lock_guard<std::mutex> lock(mu_);
  for (const double margin : {0.1, 1.0}) {
    auto it = std::lower_bound(probes_.begin(), probes_.end(),
                               std::make_pair(t0 - margin, 0.0));
    for (; it != probes_.end() && it->first <= t1 + margin; ++it) {
      window.push_back(it->second);
    }
    if (!window.empty()) return Median(std::move(window)) / kNominalSeconds;
  }
  return 1.0;
}

BackgroundProbe::BackgroundProbe(SpeedProbe* speed)
    : speed_(speed), thread_([this] {
        while (!stop_.load()) {
          speed_->Probe();
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }) {}

BackgroundProbe::~BackgroundProbe() {
  stop_.store(true);
  thread_.join();
}

std::vector<double> NormalizedMs(const SpeedProbe& speed,
                                 const std::vector<Span>& spans) {
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    out.push_back((s.t1 - s.t0) * 1e3 / speed.Slowdown(s.t0, s.t1));
  }
  return out;
}

std::vector<double> RawMs(const std::vector<Span>& spans) {
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) out.push_back((s.t1 - s.t0) * 1e3);
  return out;
}

double ClosedLoopQps(const SpeedProbe* speed,
                     const std::vector<std::vector<Span>>& callers) {
  double qps = 0;
  for (const std::vector<Span>& spans : callers) {
    double busy_s = 0;
    for (const double ms : speed != nullptr ? NormalizedMs(*speed, spans)
                                            : RawMs(spans)) {
      busy_s += ms * 1e-3;
    }
    if (busy_s > 0) qps += static_cast<double>(spans.size()) / busy_s;
  }
  return qps;
}

double BusyShare(const std::vector<std::vector<Span>>& callers, double elapsed) {
  double busy_s = 0;
  for (const std::vector<Span>& spans : callers) {
    for (const Span& s : spans) busy_s += s.t1 - s.t0;
  }
  return busy_s / (elapsed * static_cast<double>(callers.size()));
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// --- Report ----------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_[name] = Entry{value, unit};
}

void Report::Absent(const std::string& name, const std::string& unit,
                    const std::string& why) {
  metrics_[name] = Entry{0.0, unit};
  Note(name + " absent (reported as 0): " + why);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::CheckAgainst(const std::map<std::string, std::string>& wanted,
                          const std::string& absent_reason) {
  for (const auto& [name, e] : metrics_) {
    const auto it = wanted.find(name);
    if (it == wanted.end()) {
      Fail("metric " + name + " is not listed in BENCHMARK.json");
    } else if (it->second != e.unit) {
      Fail("metric " + name + " has unit " + e.unit + ", BENCHMARK.json says " +
           it->second);
    }
  }
  for (const auto& [name, unit] : wanted) {
    if (metrics_.count(name) != 0) continue;
    if (absent_reason.empty()) Fail("metric " + name + " missing");
    Absent(name, unit, absent_reason);
  }
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

int Report::Print() const {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const std::string& f : failures_) {
    std::printf("# FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", e.value);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            e.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

// --- set-up ----------------------------------------------------------------

DatabaseOptions BenchOptions(bool metrics_enabled) {
  DatabaseOptions options;
  options.storage.page_size = 8192;
  options.storage.buffer_pool_pages = 2048;  // the paper's 16 MB pool
  options.storage.allow_overwrite = true;
  options.storage.metrics_enabled = metrics_enabled;
  options.array.chunk_format = ChunkFormat::kAuto;
  return options;
}

namespace {

// The loader's steps (schema/loader.cc), replayed so the traced run can time
// Database::Create plus the appends apart from FinishLoad.
std::unique_ptr<Database> LoadSplit(const Cube& cube,
                                    const DatabaseOptions& base_options,
                                    SetupTimes* t) {
  double t0 = Now();
  gen::SyntheticDataset data =
      Must(gen::Generate(cube.config), "generating " + cube.name);
  double t1 = Now();
  DatabaseOptions options = base_options;
  options.chunk_extents = data.config.chunk_extents;
  StarSchema schema = data.ToStarSchema();
  std::unique_ptr<Database> db =
      Must(Database::Create(cube.path, schema, options), "creating " + cube.name);
  for (size_t d = 0; d < data.config.dims.size(); ++d) {
    const gen::GenDimension& gd = data.config.dims[d];
    const Schema dim_schema = schema.dims[d].ToSchema();
    for (uint32_t key = 0; key < gd.size; ++key) {
      Tuple row(&dim_schema);
      row.SetInt32(0, static_cast<int32_t>(key));
      for (size_t level = 1; level <= gd.level_cardinalities.size(); ++level) {
        Check(row.SetString(level,
                            gen::AttrValue(d, level, gd.LevelCode(level, key))),
              "dimension row");
      }
      Check(db->AppendDimensionRow(d, row), "appending a dimension row");
    }
  }
  Check(db->BeginFacts(), "BeginFacts");
  for (size_t i = 0; i < data.cell_global_indices.size(); ++i) {
    Check(db->AppendFact(data.CellKeys(data.cell_global_indices[i]),
                         data.measures[i]),
          "appending a fact");
  }
  double t2 = Now();
  Check(db->FinishLoad(), "FinishLoad of " + cube.name);
  double t3 = Now();
  t->load_s += t2 - t1;
  t->finish_load_s += t3 - t2;
  t->setup_s += t3 - t0;
  return db;
}

}  // namespace

SetupTimes BuildCubes(const Args& args, SpeedProbe* speed,
                      std::vector<Cube>* cubes, const DatabaseOptions& options,
                      int repeats, bool split_timing) {
  const BackgroundProbe probing(speed);
  std::vector<double> total, load, finish;
  SetupTimes out;
  for (int r = 0; r < repeats; ++r) {
    SetupTimes t;
    const double start = Now();
    for (Cube& cube : *cubes) {
      cube.db.reset();
      cube.path = args.data_dir + "/" + cube.name + ".pdb";
      std::filesystem::remove(cube.path);
      if (split_timing) {
        cube.db = LoadSplit(cube, options, &t);
      } else {
        const double t0 = Now();
        cube.db = Must(BuildDatabaseFromConfig(cube.path, cube.config, options),
                       "building " + cube.name);
        t.setup_s += Now() - t0;
      }
    }
    out.raw_each.push_back(t.setup_s);
    total.push_back(t.setup_s / speed->Slowdown(start, Now()));
    load.push_back(t.load_s);
    finish.push_back(t.finish_load_s);
  }
  out.setup_s = Median(total);
  out.load_s = Median(load);
  out.finish_load_s = Median(finish);
  return out;
}

std::string SetupTimes::RawSummary() const {
  std::string each;
  for (const double s : raw_each) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", each.empty() ? "" : " ", s);
    each += buf;
  }
  char line[96];
  std::snprintf(line, sizeof(line), "raw setup_s %.4f (", Median(raw_each));
  return line + each + ")";
}

Footprint MeasureFootprint(const std::vector<Cube*>& cubes,
                           const std::vector<uint64_t>& valid_cells) {
  double file_bytes = 0, array_bytes = 0, cells = 0;
  for (size_t i = 0; i < cubes.size(); ++i) {
    const Database::StorageReport report =
        Must(cubes[i]->db->ReportStorage(), "ReportStorage");
    file_bytes += static_cast<double>(report.file_bytes);
    array_bytes += static_cast<double>(report.array_data_bytes);
    cells += static_cast<double>(valid_cells[i]);
  }
  return Footprint{file_bytes / cells, array_bytes / cells};
}

// --- oracle ----------------------------------------------------------------

Oracle Oracle::FromStarJoin(Database* db) {
  Oracle o;
  o.num_dims_ = db->schema().num_dims();
  uint64_t groups = 1;
  for (size_t d = 0; d < o.num_dims_; ++d) {
    const DimensionTable& dim = db->dim(d);
    o.dims_.push_back(&dim);
    const int32_t card1 = Must(dim.Dictionary(1), "hX1 dictionary")->cardinality();
    o.card1_.push_back(card1);
    std::vector<int32_t> key_c1(dim.num_rows());
    std::vector<int32_t> c1_c2(static_cast<size_t>(card1), -1);
    for (uint32_t key = 0; key < dim.num_rows(); ++key) {
      const uint32_t row = Must(dim.RowOfKey(static_cast<int32_t>(key)), "key");
      const int32_t c1 = Must(dim.RowAttrCode(row, 1), "hX1 code");
      const int32_t c2 = Must(dim.RowAttrCode(row, 2), "hX2 code");
      key_c1[key] = c1;
      if (c1_c2[c1] != -1 && c1_c2[c1] != c2) {
        Die("hX2 does not roll hX1 up in dimension " + std::to_string(d));
      }
      c1_c2[c1] = c2;
    }
    o.key_c1_.push_back(std::move(key_c1));
    o.c1_c2_.push_back(std::move(c1_c2));
    groups *= static_cast<uint64_t>(card1);
  }
  o.stride_.assign(o.num_dims_, 1);
  for (size_t d = o.num_dims_ - 1; d > 0; --d) {
    o.stride_[d - 1] = o.stride_[d] * static_cast<uint64_t>(o.card1_[d]);
  }
  o.finest_.assign(groups, query::AggState{});

  RunQueryOptions run;
  run.cold = false;
  Execution finest = Must(
      RunQuery(db, EngineKind::kStarJoin,
               query::ConsolidationQuery::GroupByAll(o.num_dims_, 1), run),
      "star join grouped by hX1");
  for (const query::ResultRow& row : finest.result.rows()) {
    uint64_t flat = 0;
    for (size_t d = 0; d < o.num_dims_; ++d) {
      flat += static_cast<uint64_t>(row.group[d]) * o.stride_[d];
    }
    o.finest_[flat] = row.agg;
  }
  // The roll-up to hX2 must reproduce the star join's own hX2 answer.
  const query::ConsolidationQuery by_hx2 =
      query::ConsolidationQuery::GroupByAll(o.num_dims_, 2);
  Execution coarse =
      Must(RunQuery(db, EngineKind::kStarJoin, by_hx2, run), "star join by hX2");
  if (!o.Matches(by_hx2, std::move(coarse.result))) {
    Die("oracle roll-up disagrees with the star join grouped by hX2");
  }
  return o;
}

query::GroupedResult Oracle::Expect(const query::ConsolidationQuery& q,
                                    const Finest* finest) const {
  const Finest& cells = finest != nullptr ? *finest : finest_;
  // allowed[d][c1]: does hX1 member c1 of dimension d pass d's selections?
  std::vector<std::vector<bool>> allowed(num_dims_);
  for (size_t d = 0; d < num_dims_; ++d) {
    allowed[d].assign(static_cast<size_t>(card1_[d]), true);
    for (const query::Selection& s : q.dims[d].selections) {
      std::vector<bool> hit(static_cast<size_t>(card1_[d]), false);
      for (const query::Literal& lit : s.values) {
        Result<int32_t> code =
            dims_[d]->ValueCode(s.attr_col, query::NormalizeLiteral(lit));
        if (!code.ok()) continue;  // value never occurs: selects nothing
        for (int32_t c1 = 0; c1 < card1_[d]; ++c1) {
          const int32_t c = s.attr_col == 1 ? c1 : c1_c2_[d][c1];
          if (c == *code) hit[c1] = true;
        }
      }
      for (int32_t c1 = 0; c1 < card1_[d]; ++c1) {
        allowed[d][c1] = allowed[d][c1] && hit[c1];
      }
    }
  }
  std::map<std::vector<int32_t>, query::AggState> groups;
  std::vector<int32_t> c1(num_dims_, 0);
  std::vector<int32_t> key;
  for (uint64_t flat = 0; flat < cells.size(); ++flat) {
    uint64_t rest = flat;
    bool pass = true;
    for (size_t d = 0; d < num_dims_; ++d) {
      c1[d] = static_cast<int32_t>(rest / stride_[d]);
      rest %= stride_[d];
      pass = pass && allowed[d][c1[d]];
    }
    if (!pass || cells[flat].count == 0) continue;
    key.clear();
    for (size_t d = 0; d < num_dims_; ++d) {
      const std::optional<size_t>& col = q.dims[d].group_by_col;
      if (!col.has_value()) continue;
      key.push_back(*col == 1 ? c1[d] : c1_c2_[d][c1[d]]);
    }
    groups[key].Merge(cells[flat]);
  }
  query::GroupedResult out;
  for (auto& [group, agg] : groups) out.Add(query::ResultRow{group, agg});
  out.SortCanonical();
  return out;
}

void Oracle::AddCell(const std::vector<int32_t>& keys, int64_t value,
                     Finest* finest) const {
  uint64_t flat = 0;
  for (size_t d = 0; d < num_dims_; ++d) {
    flat += static_cast<uint64_t>(key_c1_[d][static_cast<size_t>(keys[d])]) *
            stride_[d];
  }
  (*finest)[flat].Add(value);
}

bool Oracle::Matches(const query::ConsolidationQuery& q,
                     query::GroupedResult got, const Finest* finest) const {
  got.SortCanonical();
  return got.SameAs(Expect(q, finest));
}

// --- queries ---------------------------------------------------------------

query::ConsolidationQuery RandomRollup(Random* rng) {
  query::ConsolidationQuery q;
  q.dims.resize(4);
  for (auto& dq : q.dims) {
    const uint64_t pick = rng->Uniform(3);
    if (pick < 2) dq.group_by_col = static_cast<size_t>(pick + 1);
  }
  return q;
}

std::string Shape(const query::ConsolidationQuery& q) {
  std::string g, s;
  for (const auto& dq : q.dims) {
    if (!g.empty()) g += ".";
    g += dq.group_by_col.has_value() ? "g" + std::to_string(*dq.group_by_col)
                                     : std::string("c");
    s += dq.selections.empty() ? "." : "s";
  }
  return g + "|" + s;
}

}  // namespace perfbench
