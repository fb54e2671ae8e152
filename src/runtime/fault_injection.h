// Deterministic fault injection for resilience testing.
//
// Faults model transient memory corruption (SEU-style bit flips) and lost
// migration buffers. Site selection is counter-based (Rng::ForStream over the
// plan seed and the spec index), so a plan replays the identical fault on any
// schedule, core count, or thread count — which is what lets the recovery
// tests assert bit-identical completion digests: the fault is transient, the
// rollback re-executes from a pre-fault checkpoint, and the replayed timeline
// is clean.
//
// Each spec fires once (kDropStagedMovers arms at spec.step and fires at the
// first step with movers actually staged). ApplyPreStep handles the memory
// faults immediately before Simulation::Step(); the mover drop is invoked by
// the step pipeline between the scan and DeliverMovers through
// StepPipelineInputs::injector.

#ifndef MPIC_SRC_RUNTIME_FAULT_INJECTION_H_
#define MPIC_SRC_RUNTIME_FAULT_INJECTION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpic {

class Simulation;
struct SpeciesBlock;

enum class FaultKind : int32_t {
  // Flip one bit of one field-array node (see FaultSpec::field/bit).
  kFieldBitFlip = 0,
  // Flip one bit of one live particle's SoA lane.
  kParticleBitFlip,
  // Overwrite several live slots' lanes in one tile with NaN-payload garbage
  // (a corrupted cache line landing across the SoA).
  kTileSoACorrupt,
  // Discard one tile's staged cross-tile movers before delivery (a lost
  // migration buffer). The particles were already removed from the source
  // tile, so the census sentinel observes the loss.
  kDropStagedMovers,
};
const char* FaultKindName(FaultKind k);

struct FaultSpec {
  FaultKind kind = FaultKind::kFieldBitFlip;
  // Step count at which the fault fires (kDropStagedMovers: arms here, fires
  // at the first step >= this with staged movers).
  int64_t step = 0;
  // Target species (particle/mover faults).
  int species = 0;
  // Field index 0..8: ex ey ez bx by bz jx jy jz (field faults).
  int field = 0;
  // Particle lane 0..9: x y z ux uy uz w xo yo zo (particle faults).
  int lane = 0;
  // Bit to flip. 62 (the exponent MSB) sends any normal value hundreds of
  // decades out — guaranteed detectable by the bounds/magnitude/energy
  // sentinels; low mantissa bits model silent precision faults instead.
  int bit = 62;
  // Fields: flip the max-|v| interior node (detectable by construction —
  // flipping a bit of 0.0 yields a plain power of two no sentinel can
  // distinguish from physics). False picks a hashed interior node.
  bool target_max = true;
  // Tile index, or -1 for a hashed choice (walks forward to a non-empty tile).
  int tile = -1;
  // Live slots corrupted by kTileSoACorrupt.
  int count = 4;
};

struct FaultPlan {
  uint64_t seed = 0xFA17;
  std::vector<FaultSpec> faults;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // Applies the memory faults (field/particle/SoA) scheduled for
  // sim->step_count(). Call immediately before sim->Step() — the recovery
  // runner does. Returns the number of faults applied.
  int ApplyPreStep(Simulation* sim);

  // Step-pipeline hook, between the scan and DeliverMovers: fires any armed
  // kDropStagedMovers spec for this species. Returns the number of particles
  // dropped.
  int64_t OnMoversStaged(SpeciesBlock& block, int sid, int64_t step);

  int64_t faults_applied() const { return applied_; }
  // Re-arms every spec (for reuse across runs of one plan).
  void Reset();

 private:
  FaultPlan plan_;
  std::vector<uint8_t> fired_;
  int64_t applied_ = 0;
};

// ---- Checkpoint corruption helpers (tests/bench) ----------------------------

// Truncates a serialized checkpoint to `keep_bytes`.
void TruncateCheckpoint(std::vector<uint8_t>* buf, size_t keep_bytes);

// Flips one deterministically chosen bit in the section data (past the file
// header), modeling storage corruption the section checksums must catch.
void FlipCheckpointBit(std::vector<uint8_t>* buf, uint64_t seed);

}  // namespace mpic

#endif  // MPIC_SRC_RUNTIME_FAULT_INJECTION_H_
