// Bit-identity digests over simulation state: FNV-1a chained over the raw
// FP64 bytes, so two states digest equal iff they are bitwise equal. The
// checkpoint tests and bench_abl_resilience gate on these — a restored run
// must digest identically to the uninterrupted run, across schedules and
// core counts. LedgerDigest does the same for the modeled clock.

#ifndef MPIC_SRC_RUNTIME_DIGEST_H_
#define MPIC_SRC_RUNTIME_DIGEST_H_

#include <cstdint>

#include "src/common/fnv.h"
#include "src/grid/field_set.h"
#include "src/hw/cost_ledger.h"
#include "src/particles/tile_set.h"

namespace mpic {

class Simulation;

// Digest of the E, B, and J arrays (raw bytes, guard nodes included).
uint64_t FieldsDigest(const FieldSet& fields);

// Digest of one species' full particle storage: per tile, the slot count, all
// ten SoA lanes, the live bitmap, and the free-slot stack. This pins not just
// the live physics values but the slot assignment and recycling order, so two
// states digest equal only if every subsequent step executes identically.
uint64_t ParticlesDigest(const TileSet& tiles);

// Fields + every species' particles + the step counter: the whole-simulation
// bit-identity gate.
uint64_t SimulationDigest(const Simulation& sim);

// FNV-1a over the kNumPhases phase cycle buckets, then every LedgerCounters
// field in declaration order, each as an FP64 (the counts stay far below
// 2^53, so the conversion is exact). Equal digests mean the modeled machine
// did bit-identical work; perfbench prints the same value as ledger_digest.
uint64_t LedgerDigest(const CostLedger& ledger);

}  // namespace mpic

#endif  // MPIC_SRC_RUNTIME_DIGEST_H_
