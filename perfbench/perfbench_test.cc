// The benchmark's own tests, run on the real workloads:
//   * simulated end-to-end and per-layer metrics are identical across two passes, and at
//     1 lane and at the pinned lane count (4) up to the summation order of simulated
//     seconds (counts and decoded tokens exactly);
//   * every workload serves a second seed without errors, leaks no KV block and matches its
//     isolated reference.
// Takes a few minutes: each workload is served several times in full.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "perfbench/workloads.h"
#include "src/exec/thread_pool.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    ++failures;
  }
}

// Compares every simulated metric of two passes. Counts (integral values) and the output
// fingerprint must match exactly. With `rel_tol` > 0, simulated seconds and the rates derived
// from them may differ by that relative amount: the device ledger folds per-lane shard
// seconds in slot order, so a 4-lane run sums them in a different order than a 1-lane run
// (docs/threading_model.md, "Merge rules").
void ExpectSameSim(const PassResult& a, const PassResult& b, const std::string& what,
                   double rel_tol) {
  Expect(a.error.empty() && b.error.empty(), what + ": serving error");
  Expect(a.fingerprint == b.fingerprint, what + ": output fingerprint differs");
  double worst = 0.0;
  const auto compare = [&](const MetricMap& x, const MetricMap& y) {
    for (const auto& [name, v] : x) {
      if (rel_tol > 0.0 && name == "step.reconcile_residual_s") {
        continue;  // pure rounding residual: its ulps are all it has
      }
      const auto it = y.find(name);
      if (it == y.end()) {
        Expect(false, what + ": " + name + " missing");
        continue;
      }
      const double w = it->second;
      if (v == w) {
        continue;
      }
      const double rel = std::fabs(v - w) / std::max(std::fabs(v), std::fabs(w));
      worst = std::max(worst, rel);
      Expect(std::floor(v) != v && rel <= rel_tol, what + ": " + name + " differs");
    }
  };
  compare(a.sim, b.sim);
  compare(a.sim_layer, b.sim_layer);
  if (worst > 0.0) {
    std::printf("  %s: largest relative difference in simulated seconds %.3g\n", what.c_str(),
                worst);
  }
}

PassResult TracedPassAt(Workload& w, int lanes) {
  const hexec::ParallelismOverride pin(lanes);
  return w.RunPass(/*traced=*/true, "");
}

void TestLanesAndRepeats(WorkloadId id) {
  const std::string name = WorkloadName(id);
  const auto w = Workload::Create(id, /*seed=*/1);
  Expect(w->setup_error().empty(), name + ": set-up failed");
  const PassResult one = TracedPassAt(*w, 1);
  const PassResult four = TracedPassAt(*w, 4);
  ExpectSameSim(one, four, name + " at 1 vs 4 lanes", 1e-9);
  const PassResult again = TracedPassAt(*w, 4);
  ExpectSameSim(four, again, name + " across two passes", 0.0);
}

void TestSecondSeed(WorkloadId id) {
  const std::string name = WorkloadName(id) + std::string(" seed 2");
  const auto w = Workload::Create(id, /*seed=*/2);
  Expect(w->setup_error().empty(), name + ": set-up failed");
  const PassResult r = w->RunPass(/*traced=*/false, "");
  Expect(r.error.empty(), name + ": serving error " + r.error);
  Expect(r.attempted >= 100, name + ": fewer than 100 requests");
  Expect(r.completed == r.attempted, name + ": not every request completed");
  Expect(r.sim_layer.at("kv.end_physical_blocks") == 0.0, name + ": KV blocks leaked");
  Expect(w->CountReferenceMismatches(r) == 0, name + ": differs from its reference");
}

}  // namespace
}  // namespace perfbench

int main() {
  for (const perfbench::WorkloadId id : perfbench::kAllWorkloads) {
    std::printf("%s\n", perfbench::WorkloadName(id));
    perfbench::TestLanesAndRepeats(id);
    perfbench::TestSecondSeed(id);
  }
  std::printf(perfbench::failures == 0 ? "all passed\n" : "%d failures\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
