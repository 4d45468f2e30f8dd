// The three perfbench workloads. Each fills a Report: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics (main.cc reports
// any per-layer metric a workload does not exercise as absent).
#pragma once

#include <cstddef>

#include "harness.h"

namespace perfbench {

void RunColdScan(const Args& args, Report* report);
void RunServeMixed(const Args& args, Report* report);
void RunIngestMixed(const Args& args, Report* report);

/// schema.load_s and schema.finish_load_s from a split-timed set-up.
void ReportSetupLayers(const SetupTimes& setup, Report* report);

}  // namespace perfbench
