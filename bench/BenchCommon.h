//===- bench/BenchCommon.h - Shared bench plumbing --------------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the per-table/per-figure bench binaries: the two
/// platform drivers, the paper's workload sets at a configurable scale
/// (ACCELOS_REPRO_SCALE), and aggregation helpers. Every binary prints
/// the rows/series of one table or figure from the paper's Sec. 8.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_BENCH_BENCHCOMMON_H
#define ACCEL_BENCH_BENCHCOMMON_H

#include "harness/Streaming.h"
#include "harness/Table.h"
#include "metrics/Metrics.h"
#include "support/RawOstream.h"
#include "support/Statistics.h"
#include "support/StringUtil.h"

#include <string>
#include <vector>

namespace accel {
namespace bench {

using harness::ExperimentDriver;
using harness::SchedulerKind;

/// One evaluation platform.
struct PlatformRun {
  std::string Label;
  ExperimentDriver Driver;
};

/// Builds the two paper platforms (Sec. 7.1).
inline std::vector<PlatformRun> makePlatforms() {
  std::vector<PlatformRun> Out;
  Out.push_back({"NVIDIA K20m", ExperimentDriver(
                                    sim::DeviceSpec::nvidiaK20m())});
  Out.push_back({"AMD R9 295X2",
                 ExperimentDriver(sim::DeviceSpec::amdR9295X2())});
  return Out;
}

/// The paper's workload sets, scaled. The paper uses all 625 pairs,
/// 16384 4-kernel and 32768 8-kernel samples; the defaults here keep
/// each bench binary in the seconds range (see DESIGN.md).
struct WorkloadSets {
  std::vector<workloads::Workload> Pairs;
  std::vector<workloads::Workload> Quads;
  std::vector<workloads::Workload> Octets;
};

inline WorkloadSets makeWorkloadSets() {
  double Scale = harness::reproScale();
  WorkloadSets Sets;
  Sets.Pairs = workloads::allPairs();
  size_t NPairs = static_cast<size_t>(
      static_cast<double>(Sets.Pairs.size()) * (Scale < 1 ? Scale : 1));
  if (NPairs < Sets.Pairs.size() && NPairs > 0)
    Sets.Pairs.resize(NPairs);
  Sets.Quads = workloads::randomCombinations(
      4, static_cast<size_t>(96 * Scale) + 1, /*Seed=*/2016);
  Sets.Octets = workloads::randomCombinations(
      8, static_cast<size_t>(64 * Scale) + 1, /*Seed=*/2854040);
  return Sets;
}

/// Aggregated per-scheme numbers over one workload set.
struct SchemeAggregate {
  SampleStats Unfairness;
  SampleStats FairnessImprovement;
  SampleStats Overlap;
  SampleStats ThroughputSpeedup;
  SampleStats Slowdowns;
  SampleStats Stp;
  SampleStats Antt;
  SampleStats WorstAntt;
};

/// Runs \p Set under the baseline plus \p Kind and accumulates every
/// metric the paper reports.
inline SchemeAggregate
aggregate(ExperimentDriver &Driver, SchedulerKind Kind,
          const std::vector<workloads::Workload> &Set) {
  SchemeAggregate Agg;
  for (const workloads::Workload &W : Set) {
    harness::WorkloadOutcome Base =
        harness::runWorkload(Driver, SchedulerKind::Baseline, W);
    harness::WorkloadOutcome X = harness::runWorkload(Driver, Kind, W);
    Agg.Unfairness.add(X.Unfairness);
    Agg.FairnessImprovement.add(
        metrics::fairnessImprovement(Base.Unfairness, X.Unfairness));
    Agg.Overlap.add(X.Overlap);
    Agg.ThroughputSpeedup.add(
        metrics::throughputSpeedup(Base.Makespan, X.Makespan));
    for (double S : X.Slowdowns)
      Agg.Slowdowns.add(S);
    Agg.Stp.add(metrics::systemThroughput(X.Slowdowns));
    Agg.Antt.add(metrics::averageNormalizedTurnaround(X.Slowdowns));
    Agg.WorstAntt.add(metrics::worstNormalizedTurnaround(X.Slowdowns));
  }
  return Agg;
}

/// Baseline-only aggregate (unfairness/overlap of the standard stack).
inline SchemeAggregate
aggregateBaseline(ExperimentDriver &Driver,
                  const std::vector<workloads::Workload> &Set) {
  SchemeAggregate Agg;
  for (const workloads::Workload &W : Set) {
    harness::WorkloadOutcome Base =
        harness::runWorkload(Driver, SchedulerKind::Baseline, W);
    Agg.Unfairness.add(Base.Unfairness);
    Agg.Overlap.add(Base.Overlap);
    Agg.Stp.add(metrics::systemThroughput(Base.Slowdowns));
    Agg.Antt.add(metrics::averageNormalizedTurnaround(Base.Slowdowns));
    Agg.WorstAntt.add(metrics::worstNormalizedTurnaround(Base.Slowdowns));
  }
  return Agg;
}

/// Two-decimal formatting shorthand.
inline std::string fmt(double V) { return formatDouble(V, 2); }

/// Percentage formatting shorthand.
inline std::string pct(double V) { return formatDouble(100.0 * V, 0) + "%"; }

} // namespace bench
} // namespace accel

#endif // ACCEL_BENCH_BENCHCOMMON_H
