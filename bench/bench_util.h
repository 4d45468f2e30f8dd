// Shared plumbing for the figure benches: database construction from a
// generator config, cold-run query execution, and uniform CSV-ish output so
// every bench prints the same columns the paper's figures plot.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "query/engine.h"
#include "schema/loader.h"

namespace paradise::bench {

/// Temp database file removed on destruction.
class BenchFile {
 public:
  explicit BenchFile(const std::string& tag) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("paradise_bench_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter++)))
                .string();
    std::remove(path_.c_str());
  }
  ~BenchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Paper-faithful defaults: 8 KiB pages, 16 MB buffer pool (§5.3).
inline DatabaseOptions PaperOptions() {
  DatabaseOptions options;
  options.storage.page_size = 8192;
  options.storage.buffer_pool_pages = 2048;
  options.storage.pages_per_extent = 32;
  return options;
}

/// Builds a database or dies; benches treat build failure as fatal.
inline std::unique_ptr<Database> MustBuild(const std::string& path,
                                           const gen::GenConfig& config,
                                           DatabaseOptions options) {
  Result<std::unique_ptr<Database>> db =
      BuildDatabaseFromConfig(path, config, std::move(options));
  if (!db.ok()) {
    std::fprintf(stderr, "bench: database build failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(db).value();
}

/// Runs a cold query or dies.
inline Execution MustRun(Database* db, EngineKind kind,
                         const query::ConsolidationQuery& q,
                         bool cold = true) {
  RunQueryOptions options;
  options.cold = cold;
  Result<Execution> exec = RunQuery(db, kind, q, options);
  if (!exec.ok()) {
    std::fprintf(stderr, "bench: %s query failed: %s\n",
                 std::string(EngineKindToString(kind)).c_str(),
                 exec.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(exec).value();
}

/// Standard result row shared by every figure bench. `modeled_seconds` is
/// the disk-bound estimate under the paper's 1997 hardware (IoModel1997) —
/// the column whose shape tracks the paper's figures, since our database
/// file is RAM-cached and `seconds` reflects CPU only.
inline void PrintHeader(const char* figure, const char* description,
                        const char* sweep_column) {
  std::printf("# %s — %s\n", figure, description);
  std::printf(
      "%s,engine,seconds,modeled_seconds,logical_reads,disk_reads,"
      "seq_reads,rand_reads,groups,aux\n",
      sweep_column);
}

inline void PrintRow(const std::string& sweep_value, EngineKind kind,
                     const Execution& exec) {
  std::printf("%s,%s,%.4f,%.3f,%llu,%llu,%llu,%llu,%zu,%llu\n",
              sweep_value.c_str(),
              std::string(EngineKindToString(kind)).c_str(),
              exec.stats.seconds, exec.stats.ModeledSeconds(),
              static_cast<unsigned long long>(exec.stats.io.logical_reads),
              static_cast<unsigned long long>(exec.stats.io.disk_reads),
              static_cast<unsigned long long>(exec.stats.io.seq_disk_reads),
              static_cast<unsigned long long>(exec.stats.io.rand_disk_reads),
              exec.result.num_groups(),
              static_cast<unsigned long long>(exec.stats.aux));
}

}  // namespace paradise::bench
