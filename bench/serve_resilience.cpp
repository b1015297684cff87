//===- bench/serve_resilience.cpp - Fleet failure-injection bench ------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet resilience evaluation: the mixed two-device fleet serves
/// an open-loop Poisson burst while the FAST device is killed
/// mid-burst and rejoins later (ClusterOptions::FleetPlan). Three
/// schemes replay the identical trace:
///
///  - fault-free        — no plan, the reference level;
///  - fault-no-migration — kill + rejoin, displaced requests fail over
///    but nothing rebalances afterwards: the survivor keeps the whole
///    outage backlog even once the fast device is back and idle;
///  - fault-migration   — same plan with quantum-boundary migration
///    enabled, so the rejoined device steals the survivor's diverged
///    backlog.
///
/// Built-in acceptance checks (non-zero exit on failure):
///  - no scheme loses a single request (bounded retries + rejoin mean
///    capacity always returns before the budget runs out);
///  - work conservation: virtual work groups executed == requested;
///  - migration strictly beats no-migration on p95 queueing excess
///    over the requests that arrived inside the outage window — the
///    tenants who actually lived through the failure.
///
/// BENCH_resilience.json (platforms/schemes shape) carries lost
/// requests, recovery time, the outage-window queueing tail,
/// unfairness, makespan, and the migration/displacement counters, so
/// tools/check_bench.py gates regressions (lost_requests must stay 0,
/// recovery_time and outage_queue_p95 are lower-is-better).
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

/// One scheme's replay plus the derived resilience numbers.
struct SchemeResult {
  std::string Name;
  harness::ClusterOutcome Outcome;
  double RecoveryTime = 0;   ///< Max over faults; 0 when fault-free.
  double OutageQueueP95 = 0; ///< p95 queueing excess, outage arrivals.
  double OutageQueueMean = 0;
  size_t Failovers = 0;
  size_t Voluntary = 0; ///< Work-stealing migrations.
  size_t Displaced = 0;
  uint64_t Retries = 0;
};

SchemeResult runScheme(Fleet &F, const char *Name,
                       const std::vector<workloads::TimedRequest> &Trace,
                       const harness::ClusterOptions &Opts,
                       double WindowBegin, double WindowEnd) {
  SchemeResult R;
  R.Name = Name;
  std::unique_ptr<PlacementPolicy> P =
      makePlacementPolicy(PlacementKind::HeterogeneityAware);
  R.Outcome = harness::runClusterReplay(
      F, *P, harness::ClusterWorkload::openLoop(Trace), Opts);
  for (const harness::ClusterFaultRecord &FR : R.Outcome.Faults) {
    if (FR.RecoveryTime > R.RecoveryTime)
      R.RecoveryTime = FR.RecoveryTime;
    R.Displaced += FR.Displaced;
  }
  for (const harness::ClusterMigrationRecord &M : R.Outcome.Migrations)
    ++(M.Failover ? R.Failovers : R.Voluntary);
  for (uint32_t C : R.Outcome.Retries)
    R.Retries += C;
  std::vector<double> Excess;
  for (const harness::StreamRequestResult &Req :
       R.Outcome.Stream.Requests)
    if (Req.ArrivalTime >= WindowBegin && Req.ArrivalTime <= WindowEnd)
      Excess.push_back(Req.queueingExcess());
  R.OutageQueueP95 = metrics::latencyPercentile(Excess, 95);
  R.OutageQueueMean = metrics::mean(Excess);
  return R;
}

void jsonScheme(raw_ostream &OS, const SchemeResult &R, bool Last) {
  auto Num = [](double V) { return formatDouble(V, 4); };
  OS << "      {\"name\": \"" << R.Name << "\", \"lost_requests\": "
     << std::to_string(R.Outcome.LostRequests.size())
     << ", \"recovery_time\": " << Num(R.RecoveryTime)
     << ",\n       \"outage_queue_p95\": " << Num(R.OutageQueueP95)
     << ", \"outage_queue_mean\": " << Num(R.OutageQueueMean)
     << ", \"unfairness\": " << Num(R.Outcome.Stream.Unfairness)
     << ", \"makespan\": " << Num(R.Outcome.Stream.Makespan)
     << ",\n       \"displaced\": " << std::to_string(R.Displaced)
     << ", \"failovers\": " << std::to_string(R.Failovers)
     << ", \"migrations\": " << std::to_string(R.Voluntary)
     << ", \"retries\": " << std::to_string(R.Retries)
     << ", \"requested_wgs\": " << std::to_string(R.Outcome.RequestedWGs)
     << ", \"executed_wgs\": " << std::to_string(R.Outcome.ExecutedWGs)
     << "}" << (Last ? "\n" : ",\n");
}

} // namespace

int main() {
  raw_ostream &OS = outs();
  OS << "=== Fleet resilience: failure injection, failover, and "
        "quantum-boundary migration ===\n\n";

  double Scale = harness::reproScale();
  size_t NumRequests =
      static_cast<size_t>(48 * (Scale < 1 ? Scale : 1)) + 16;
  constexpr int NumTenants = 4;

  Fleet F;
  F.addDevice(sim::DeviceSpec::nvidiaK20m());
  F.addDevice(sim::DeviceSpec::amdR9295X2());

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

  // Kill the FAST device a quarter into the burst and bring it back
  // after ~30% of the span: the fleet loses most of its capacity right
  // as the backlog builds, which is the hardest regime for placement.
  double Span = NumRequests * TOpts.MeanInterarrival;
  double Down = 0.25 * Span;
  double Up = 0.55 * Span;
  OS << "trace: " << NumRequests << " requests over ";
  OS.printFixed(Span, 0);
  OS << " cycles; device 1 (" << F.device(1).Name << ") down at ";
  OS.printFixed(Down, 0);
  OS << ", rejoins at ";
  OS.printFixed(Up, 0);
  OS << "\n\n";

  harness::ClusterOptions Base;
  Base.Stream.RoundQuantum = 0.25 * MeanDur;
  Base.MaxRetries = 64;

  harness::ClusterOptions Faulty = Base;
  Faulty.FleetPlan = {
      {.Time = Down, .Device = 1,
       .What = harness::FleetEvent::Kind::Down},
      {.Time = Up, .Device = 1, .What = harness::FleetEvent::Kind::Up}};

  harness::ClusterOptions Migrating = Faulty;
  Migrating.Migration.Enabled = true;
  Migrating.Migration.DivergenceFactor = 2.0;
  Migrating.Migration.MaxPerRequest = 8;

  // The outage window: requests arriving between the kill and shortly
  // after the rejoin are the ones whose service the failure disrupts.
  double WindowEnd = Up + 0.25 * Span;
  std::vector<SchemeResult> Results;
  Results.push_back(runScheme(F, "fault-migration", Trace, Migrating,
                              Down, WindowEnd));
  Results.push_back(runScheme(F, "fault-no-migration", Trace, Faulty,
                              Down, WindowEnd));
  Results.push_back(
      runScheme(F, "fault-free", Trace, Base, Down, WindowEnd));
  const SchemeResult &Mig = Results[0];
  const SchemeResult &NoMig = Results[1];

  harness::TextTable T({"Scheme", "Lost", "Recovery", "OutageQ p95",
                        "Unfairness", "Makespan", "Failover/Steal"});
  for (const SchemeResult &R : Results)
    T.addRow({R.Name, std::to_string(R.Outcome.LostRequests.size()),
              fmt(R.RecoveryTime / MeanDur),
              fmt(R.OutageQueueP95 / MeanDur),
              fmt(R.Outcome.Stream.Unfairness),
              fmt(R.Outcome.Stream.Makespan / MeanDur),
              std::to_string(R.Failovers) + " / " +
                  std::to_string(R.Voluntary)});
  T.print(OS);

  OS << "\nmigration vs no-migration: outage-window p95 queueing ";
  OS.printFixed(Mig.OutageQueueP95, 0);
  OS << " vs ";
  OS.printFixed(NoMig.OutageQueueP95, 0);
  OS << " cycles; recovery ";
  OS.printFixed(Mig.RecoveryTime, 0);
  OS << " vs ";
  OS.printFixed(NoMig.RecoveryTime, 0);
  OS << " cycles\n\n";

  std::FILE *JsonFile = std::fopen("BENCH_resilience.json", "w");
  if (!JsonFile) {
    OS << "ERROR: cannot open BENCH_resilience.json for writing\n";
    return 1;
  }
  raw_fd_ostream Json(JsonFile);
  Json << "{\n  \"bench\": \"serve_resilience\",\n  \"requests\": "
       << std::to_string(NumRequests) << ",\n  \"tenants\": "
       << std::to_string(NumTenants)
       << ",\n  \"down_at\": " << formatDouble(Down, 4)
       << ",\n  \"up_at\": " << formatDouble(Up, 4)
       << ",\n  \"platforms\": [\n    {\"name\": \"k20m+amd\", "
          "\"schemes\": [\n";
  for (size_t I = 0; I != Results.size(); ++I)
    jsonScheme(Json, Results[I], I + 1 == Results.size());
  Json << "    ]}\n  ]\n}\n";
  std::fclose(JsonFile);
  OS << "wrote BENCH_resilience.json\n";

  int Exit = 0;
  for (const SchemeResult &R : Results) {
    if (!R.Outcome.LostRequests.empty()) {
      OS << "ERROR: " << R.Name << " lost "
         << std::to_string(R.Outcome.LostRequests.size())
         << " request(s)\n";
      Exit = 1;
    }
    if (R.Outcome.ExecutedWGs != R.Outcome.RequestedWGs) {
      OS << "ERROR: " << R.Name << " broke work conservation\n";
      Exit = 1;
    }
  }
  if (Mig.OutageQueueP95 >= NoMig.OutageQueueP95) {
    OS << "ERROR: migration did not beat failover-only recovery on "
          "outage-window p95 queueing excess\n";
    Exit = 1;
  }
  return Exit;
}
