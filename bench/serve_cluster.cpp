//===- bench/serve_cluster.cpp - Fleet placement-policy comparison -----------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cluster serving evaluation: one open-loop Poisson stream of
/// multi-tenant kernel requests is sharded across a heterogeneous
/// two-device fleet (the NVIDIA K20m-like and AMD R9 295X2-like
/// models) under the pluggable placement policies, with every device
/// running its own arrival-aware continuous scheduler on the merged
/// event clock (harness::runCluster). The comparison is the Gavel
/// observation in miniature: round-robin hands the slow device an
/// equal share of the traffic and it backs up, so cluster-wide tail
/// queueing and windowed unfairness blow up; heterogeneity-aware
/// placement (join-shortest-expected-completion over
/// throughput-normalized residual work) restores them.
///
/// Built-in acceptance checks (non-zero exit on failure):
///  - HeterogeneityAware placement must strictly beat RoundRobin on
///    cluster-wide p95 queueing time (StreamRequestResult::
///    queueingExcess — under work slicing a request queues *between*
///    grants too, so first-dispatch delay understates what tenants
///    wait) AND on peak windowed unfairness;
///  - every policy must complete the full trace with every request
///    placed inside the fleet.
///
/// A closed-loop section replays a reactive multi-tenant script (with
/// the cluster-wide adaptive SLO controller) through the unified
/// runClusterReplay entry point, so both workload shapes land in one
/// report. The numbers are emitted machine-readably to
/// BENCH_cluster.json ("schemes" open loop, "closed_loop" reactive) so
/// CI can track the fleet trajectory alongside the single-device
/// benches.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "cluster/ClusterHarness.h"
#include "cluster/Fleet.h"
#include "workloads/Arrivals.h"

#include <cstdio>
#include <memory>

using namespace accel;
using namespace accel::bench;
using namespace accel::cluster;

namespace {

/// One policy's fleet replay plus the derived reporting numbers.
struct PolicyResult {
  std::string Name;
  harness::ClusterOutcome Outcome;
  double PeakWindowed = 1;
  double QueueMean = 0;   ///< Mean aggregate queueing time (excess).
  double QueueP95 = 0;    ///< p95 aggregate queueing time (the gate).
  double DispatchDelayMean = 0; ///< First-dispatch delay, for reference.
  double DispatchDelayP95 = 0;
  std::vector<double> Latencies;
};

/// Fills the derived reporting metrics from R.Outcome.
void fillDerived(PolicyResult &R, double WindowLength) {
  std::vector<metrics::TimedSample> Samples;
  for (size_t I = 0; I != R.Outcome.Stream.Requests.size(); ++I)
    Samples.push_back({R.Outcome.Stream.Requests[I].EndTime,
                       R.Outcome.Stream.Slowdowns[I]});
  R.PeakWindowed =
      metrics::peakWindowedUnfairness(Samples, WindowLength);
  std::vector<double> Excess;
  for (const harness::StreamRequestResult &Req :
       R.Outcome.Stream.Requests)
    Excess.push_back(Req.queueingExcess());
  R.QueueMean = metrics::mean(Excess);
  R.QueueP95 = metrics::latencyPercentile(Excess, 95);
  std::vector<double> QueueDelays = R.Outcome.Stream.queueDelays();
  R.DispatchDelayMean = metrics::mean(QueueDelays);
  R.DispatchDelayP95 = metrics::latencyPercentile(QueueDelays, 95);
  for (const harness::StreamRequestResult &Req :
       R.Outcome.Stream.Requests)
    R.Latencies.push_back(Req.latency());
}

PolicyResult runPolicy(Fleet &F, PlacementKind Kind,
                       const std::vector<workloads::TimedRequest> &Trace,
                       const harness::ClusterOptions &Opts,
                       double WindowLength, bool Sticky = false) {
  PolicyResult R;
  std::unique_ptr<PlacementPolicy> P = makePlacementPolicy(Kind);
  R.Name = P->name();
  harness::ClusterOptions Run = Opts;
  if (Sticky) {
    Run.StickyTenantAffinity = true;
    R.Name += "+sticky";
  }
  R.Outcome = harness::runClusterReplay(
      F, *P, harness::ClusterWorkload::openLoop(Trace), Run);
  fillDerived(R, WindowLength);
  return R;
}

/// Closed-loop twin of runPolicy through the unified replay entry
/// point: the script's tenants re-issue on completion plus think time,
/// so the offered load tracks what the placement actually achieves.
PolicyResult runClosedPolicy(Fleet &F, PlacementKind Kind,
                             const workloads::ClosedLoopScript &Script,
                             const harness::ClusterOptions &Opts,
                             double WindowLength) {
  PolicyResult R;
  std::unique_ptr<PlacementPolicy> P = makePlacementPolicy(Kind);
  R.Name = P->name();
  R.Outcome = harness::runClusterReplay(
      F, *P, harness::ClusterWorkload::closedLoop(Script), Opts);
  fillDerived(R, WindowLength);
  return R;
}

/// Minimal JSON emission (no dependency): numbers at fixed precision.
void jsonPolicy(raw_ostream &OS, const PolicyResult &R, bool Last) {
  auto Num = [](double V) { return formatDouble(V, 4); };
  OS << "    {\"name\": \"" << R.Name << "\", \"unfairness\": "
     << Num(R.Outcome.Stream.Unfairness)
     << ", \"peak_windowed_unfairness\": " << Num(R.PeakWindowed)
     << ", \"makespan\": " << Num(R.Outcome.Stream.Makespan)
     << ", \"rounds\": " << std::to_string(R.Outcome.Stream.Rounds)
     << ", \"deferrals\": "
     << std::to_string(R.Outcome.Stream.Deferrals)
     << ",\n     \"latency\": {\"p50\": "
     << Num(metrics::latencyPercentile(R.Latencies, 50))
     << ", \"p95\": " << Num(metrics::latencyPercentile(R.Latencies, 95))
     << ", \"p99\": " << Num(metrics::latencyPercentile(R.Latencies, 99))
     << "},\n     \"queueing_excess\": {\"mean\": " << Num(R.QueueMean)
     << ", \"p95\": " << Num(R.QueueP95)
     << "},\n     \"queue_delay\": {\"mean\": "
     << Num(R.DispatchDelayMean) << ", \"p95\": "
     << Num(R.DispatchDelayP95) << "},\n     \"devices\": [";
  for (size_t D = 0; D != R.Outcome.Devices.size(); ++D) {
    const harness::ClusterDeviceOutcome &DO = R.Outcome.Devices[D];
    OS << (D ? ", " : "") << "{\"name\": \"" << DO.Name
       << "\", \"requests\": " << std::to_string(DO.Requests)
       << ", \"utilization\": " << Num(DO.Utilization) << "}";
  }
  OS << "]}" << (Last ? "\n" : ",\n");
}

} // namespace

int main() {
  raw_ostream &OS = outs();
  OS << "=== Cluster serving: heterogeneity-aware placement over a "
        "mixed fleet ===\n\n";

  double Scale = harness::reproScale();
  size_t NumRequests =
      static_cast<size_t>(48 * (Scale < 1 ? Scale : 1)) + 16;
  constexpr int NumTenants = 4;

  Fleet F;
  F.addDevice(sim::DeviceSpec::nvidiaK20m());
  F.addDevice(sim::DeviceSpec::amdR9295X2());

  OS << "fleet:\n";
  for (size_t D = 0; D != F.size(); ++D) {
    OS << "  [" << D << "] " << F.device(D).Name
       << " — mean solo duration ";
    OS.printFixed(F.meanSoloDuration(D), 0);
    OS << " cycles\n";
  }

  // Offered load: the cluster serves roughly one request per
  // 1/sum(1/solo_d) time units at full tilt; arriving at ~90% of that
  // keeps both devices contended without unbounded queues — the regime
  // where placement decides who waits.
  double FleetRate = 0;
  for (size_t D = 0; D != F.size(); ++D)
    FleetRate += 1.0 / F.meanSoloDuration(D);
  double MeanDur = F.meanSoloDurationAcrossFleet();
  workloads::TraceOptions TOpts;
  TOpts.NumRequests = NumRequests;
  TOpts.NumTenants = NumTenants;
  TOpts.MeanInterarrival = 1.0 / (0.9 * FleetRate);
  TOpts.Seed = 20260730;
  std::vector<workloads::TimedRequest> Trace =
      workloads::poissonTrace(F.driver(0).numKernels(), TOpts);
  OS << "trace: " << NumRequests << " requests, " << NumTenants
     << " tenants, Poisson mean inter-arrival ";
  OS.printFixed(TOpts.MeanInterarrival, 0);
  OS << " cycles\n\n";

  harness::ClusterOptions Opts;
  Opts.Stream.RoundQuantum = 0.25 * MeanDur;

  std::vector<PolicyResult> Results;
  Results.push_back(runPolicy(F, PlacementKind::RoundRobin, Trace, Opts,
                              MeanDur));
  Results.push_back(runPolicy(F, PlacementKind::LeastLoaded, Trace,
                              Opts, MeanDur));
  Results.push_back(runPolicy(F, PlacementKind::HeterogeneityAware,
                              Trace, Opts, MeanDur));
  Results.push_back(runPolicy(F, PlacementKind::HeterogeneityAware,
                              Trace, Opts, MeanDur, /*Sticky=*/true));
  const PolicyResult &RR = Results[0];
  const PolicyResult &HA = Results[2];

  harness::TextTable T({"Policy", "Makespan", "Unfairness", "Peak(win)",
                        "Qtime mean/p95", "Latency p50/p95",
                        "Util[0]/Util[1]"});
  for (const PolicyResult &R : Results)
    T.addRow({R.Name, fmt(R.Outcome.Stream.Makespan / MeanDur),
              fmt(R.Outcome.Stream.Unfairness), fmt(R.PeakWindowed),
              fmt(R.QueueMean) + " / " + fmt(R.QueueP95),
              fmt(metrics::latencyPercentile(R.Latencies, 50)) + " / " +
                  fmt(metrics::latencyPercentile(R.Latencies, 95)),
              fmt(R.Outcome.Devices[0].Utilization) + " / " +
                  fmt(R.Outcome.Devices[1].Utilization)});
  T.print(OS);

  OS << "\nPer-device request counts:\n";
  harness::TextTable TD({"Policy", F.device(0).Name, F.device(1).Name});
  for (const PolicyResult &R : Results)
    TD.addRow({R.Name, std::to_string(R.Outcome.Devices[0].Requests),
               std::to_string(R.Outcome.Devices[1].Requests)});
  TD.print(OS);

  OS << "\nheterogeneity-aware vs round-robin: p95 queueing time ";
  OS.printFixed(HA.QueueP95, 0);
  OS << " vs ";
  OS.printFixed(RR.QueueP95, 0);
  OS << ", peak windowed unfairness ";
  OS.printFixed(HA.PeakWindowed, 2);
  OS << " vs ";
  OS.printFixed(RR.PeakWindowed, 2);
  OS << "\n";

  // Closed-loop section: the same fleet under a reactive multi-tenant
  // script (issue-on-completion plus think time) with the cluster-wide
  // adaptive SLO controller riding along, replayed through the unified
  // runClusterReplay entry point.
  size_t PerTenant = NumRequests / NumTenants;
  std::vector<workloads::ClosedLoopTenant> Tenants(NumTenants);
  Tenants[0] = {0, PerTenant, 1, 0.25 * MeanDur, 71, {0, 1, 2, 3}};
  Tenants[1] = {1, PerTenant, 3, 0.05 * MeanDur, 72, {}};
  Tenants[2] = {2, PerTenant, 2, 0.50 * MeanDur, 73, {}};
  Tenants[3] = {3, PerTenant, 1, 0.10 * MeanDur, 74, {}};
  workloads::ClosedLoopScript Script =
      workloads::closedLoopTrace(F.driver(0).numKernels(), Tenants);
  harness::ClusterOptions CLOpts = Opts;
  CLOpts.Stream.StrictShares = true;
  CLOpts.Stream.SloTargets = {{0, 0.5 * MeanDur}};
  CLOpts.Stream.AdaptiveSloWeights = true;
  CLOpts.Stream.SloControlInterval = MeanDur;
  CLOpts.Stream.SloTuning.MinSamples = 1;
  std::vector<PolicyResult> Closed;
  Closed.push_back(runClosedPolicy(F, PlacementKind::LeastLoaded, Script,
                                   CLOpts, MeanDur));
  Closed.push_back(runClosedPolicy(F, PlacementKind::HeterogeneityAware,
                                   Script, CLOpts, MeanDur));

  OS << "\nClosed loop (" << Script.totalRequests() << " requests, "
     << NumTenants << " tenants, adaptive SLO weights):\n";
  harness::TextTable TC({"Policy", "Makespan", "Unfairness",
                         "Qtime mean/p95", "Latency p50/p95",
                         "Util[0]/Util[1]"});
  for (const PolicyResult &R : Closed)
    TC.addRow({R.Name, fmt(R.Outcome.Stream.Makespan / MeanDur),
               fmt(R.Outcome.Stream.Unfairness),
               fmt(R.QueueMean) + " / " + fmt(R.QueueP95),
               fmt(metrics::latencyPercentile(R.Latencies, 50)) + " / " +
                   fmt(metrics::latencyPercentile(R.Latencies, 95)),
               fmt(R.Outcome.Devices[0].Utilization) + " / " +
                   fmt(R.Outcome.Devices[1].Utilization)});
  TC.print(OS);
  OS << "\n";

  std::FILE *JsonFile = std::fopen("BENCH_cluster.json", "w");
  if (!JsonFile) {
    OS << "ERROR: cannot open BENCH_cluster.json for writing\n";
    return 1;
  }
  raw_fd_ostream Json(JsonFile);
  Json << "{\n  \"bench\": \"serve_cluster\",\n  \"requests\": "
       << std::to_string(NumRequests) << ",\n  \"tenants\": "
       << std::to_string(NumTenants) << ",\n  \"fleet\": [";
  for (size_t D = 0; D != F.size(); ++D)
    Json << (D ? ", " : "") << "{\"name\": \"" << F.device(D).Name
         << "\", \"mean_solo_duration\": "
         << formatDouble(F.meanSoloDuration(D), 4) << "}";
  Json << "],\n  \"schemes\": [\n";
  for (size_t I = 0; I != Results.size(); ++I)
    jsonPolicy(Json, Results[I], I + 1 == Results.size());
  Json << "  ],\n  \"closed_loop\": [\n";
  for (size_t I = 0; I != Closed.size(); ++I)
    jsonPolicy(Json, Closed[I], I + 1 == Closed.size());
  Json << "  ]\n}\n";
  std::fclose(JsonFile);
  OS << "wrote BENCH_cluster.json\n";

  int Exit = 0;
  for (const PolicyResult &R : Results) {
    if (R.Outcome.Stream.Requests.size() != Trace.size() ||
        R.Outcome.Placement.size() != Trace.size()) {
      OS << "ERROR: " << R.Name << " lost requests\n";
      Exit = 1;
    }
  }
  for (const PolicyResult &R : Closed) {
    if (R.Outcome.Stream.Requests.size() != Script.totalRequests() ||
        !R.Outcome.LostRequests.empty()) {
      OS << "ERROR: closed-loop " << R.Name
         << " did not drain the script\n";
      Exit = 1;
    }
  }
  if (HA.QueueP95 >= RR.QueueP95) {
    OS << "ERROR: heterogeneity-aware placement did not beat "
          "round-robin on cluster-wide p95 queueing time\n";
    Exit = 1;
  }
  if (HA.PeakWindowed >= RR.PeakWindowed) {
    OS << "ERROR: heterogeneity-aware placement did not beat "
          "round-robin on peak windowed unfairness\n";
    Exit = 1;
  }
  return Exit;
}
