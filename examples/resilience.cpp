// Resilience walkthrough: a fault-injected LWFA run that detects, rolls
// back, and completes bit-identically to a run that never faulted.
//
// Two simulations of the same laser-wakefield workload (mobile-ion
// background, moving window) run side by side:
//
//   clean     — no faults, resilience off: the reference timeline.
//   resilient — health sentinels armed, in-memory checkpoints every 5 steps,
//               and a deterministic single-event upset injected mid-run: the
//               largest-magnitude Ex node gets an exponent bit flipped. The
//               field sentinel trips at the end of the poisoned step, the
//               runner restores the last checkpoint, replays, and finishes.
//
// The final whole-simulation digests (fields + every particle lane + slot
// layout) are printed for both; they must match — the recovered timeline is
// indistinguishable from one where the upset never happened.
//
//   ./resilience [steps] [fault_step]

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/workloads.h"
#include "src/runtime/digest.h"
#include "src/runtime/fault_injection.h"
#include "src/runtime/health.h"
#include "src/runtime/recovery.h"

int main(int argc, char** argv) {
  // fault_step 0 (the fallback) means halfway through the run.
  const std::vector<int> args = mpic::ParseBenchArgs(
      argc, argv,
      {{"steps", 16, 1, mpic::kMaxBenchSteps},
       {"fault_step", 0, 1, mpic::kMaxBenchSteps}});
  const int steps = args[0];
  const int fault_step = args[1] > 0 ? args[1] : steps / 2 + 1;

  mpic::LwfaWorkloadParams params;
  params.nx = params.ny = 8;
  params.nz = 32;
  params.ppc_x = params.ppc_y = params.ppc_z = 2;
  params.tile = 4;
  params.tile_z = 8;
  params.with_ions = true;
  // This demo compares a rolled-back run against a clean run that never
  // checkpoints, so the adaptive throughput trigger — whose modeled-history
  // input differs between those two runs by construction — stays off. A
  // same-machine restart with the trigger ON is bit-exact since checkpoint
  // v2 (see src/runtime/checkpoint.h).
  mpic::ResortPolicyConfig policy;
  policy.trigger_perf_enable = false;
  params.policy = policy;

  mpic::HwContext clean_hw;
  auto clean = mpic::MakeLwfaSimulation(clean_hw, params);
  clean->Run(steps);
  const uint64_t clean_digest = mpic::SimulationDigest(*clean);

  mpic::HwContext hw;
  auto sim = mpic::MakeLwfaSimulation(hw, params);
  // The laser antenna injects energy every step, so the closed-system
  // energy-drift sentinel does not apply to this workload.
  mpic::HealthConfig health;
  health.check_energy = false;
  sim->EnableHealth(health);

  mpic::FaultPlan plan;
  mpic::FaultSpec spec;
  spec.kind = mpic::FaultKind::kFieldBitFlip;
  spec.step = fault_step;
  spec.field = 0;    // Ex
  spec.bit = -1;     // adaptive exponent flip: guaranteed detectable
  plan.faults.push_back(spec);
  mpic::FaultInjector injector(plan);

  mpic::RecoveryConfig recovery;
  recovery.checkpoint_interval = 5;
  mpic::ResilientRunner runner(sim.get(), recovery);
  runner.set_injector(&injector);

  std::printf("resilience: LWFA e+ion, %d steps, Ex exponent flip at step %d, "
              "checkpoints every %d steps\n\n",
              steps, fault_step, recovery.checkpoint_interval);
  const bool completed = runner.Run(steps);
  const mpic::RecoveryStats& stats = runner.stats();

  for (const mpic::RecoveryEvent& ev : stats.events) {
    std::printf("step %lld tripped: %s\n", static_cast<long long>(ev.trip_step),
                ev.sentinel.c_str());
    if (ev.degraded) {
      std::printf("  -> no checkpoint: scrubbed in place, continuing degraded\n");
    } else {
      std::printf("  -> rolled back to step %lld, replaying %lld steps\n",
                  static_cast<long long>(ev.restored_step),
                  static_cast<long long>(ev.steps_lost));
    }
  }
  std::printf("\n%lld checkpoints, %lld rollbacks, %lld steps replayed\n",
              static_cast<long long>(stats.checkpoints_taken),
              static_cast<long long>(stats.rollbacks),
              static_cast<long long>(stats.steps_replayed));
  std::printf("final  %s\n", sim->last_sim_stats().health.Summary().c_str());

  const uint64_t recovered_digest = mpic::SimulationDigest(*sim);
  std::printf("\nclean digest     %016llx\nrecovered digest %016llx\n",
              static_cast<unsigned long long>(clean_digest),
              static_cast<unsigned long long>(recovered_digest));
  const bool identical = completed && recovered_digest == clean_digest;
  std::printf("%s\n", identical
                          ? "recovered run is bit-identical to the clean run"
                          : "MISMATCH: recovery failed to reproduce the clean "
                            "timeline (BUG!)");
  return identical ? 0 : 1;
}
