// Figure 1: runtime breakdown of the uniform plasma PIC simulation under the
// unmodified baseline. The paper reports deposition alone >40% of total time
// and gather+deposition together >80% on the many-core CPU.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

void Run() {
  UniformWorkloadParams p;
  p.nx = 16;
  p.ny = p.nz = 8;
  p.ppc_x = 8;
  p.ppc_y = p.ppc_z = 4;  // PPC 128, the paper's high-density point
  p.variant = DepositVariant::kBaseline;
  HwContext hw;
  const WindowRecord r =
      MeasureWindow(*MakeUniformSimulation(hw, p), /*warmup=*/1, /*steps=*/3);

  const double total = r.report.wall_seconds;
  const double deposit = r.report.deposition_seconds;
  const double gather = PhaseSec(r.report, Phase::kGather);
  const double push = PhaseSec(r.report, Phase::kPush);
  const double solver = PhaseSec(r.report, Phase::kSolver);
  const double other = total - deposit - gather - push - solver;

  ConsoleTable t({"Stage", "Time (s)", "Fraction (%)"});
  auto row = [&](const char* name, double v) {
    t.AddRow({name, FormatDouble(v, 4), FormatDouble(100.0 * v / total, 1)});
  };
  row("Current deposition", deposit);
  row("Field gather", gather);
  row("Particle push", push);
  row("Maxwell solver", solver);
  row("Other (BC, redistribution)", other);
  row("Total", total);
  t.Print("Figure 1: Uniform plasma runtime breakdown (baseline WarpX kernel)");

  std::printf(
      "\nPaper claim: deposition > 40%% of total; gather+deposition > 80%%.\n"
      "Measured:    deposition = %.1f%%; gather+deposition = %.1f%%.\n",
      100.0 * deposit / total, 100.0 * (deposit + gather) / total);
}

}  // namespace
}  // namespace mpic

int main() {
  mpic::Run();
  return 0;
}
