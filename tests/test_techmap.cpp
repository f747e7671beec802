#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <sstream>
#include <stdexcept>

#include "clo/circuits/generators.hpp"
#include "clo/opt/transform.hpp"
#include "clo/techmap/tech_map.hpp"

namespace {

using namespace clo;
using aig::Aig;
using aig::Lit;

const techmap::CellLibrary& lib() {
  static const techmap::CellLibrary kLib = techmap::CellLibrary::asap7();
  return kLib;
}

TEST(CellLibrary, HasCoreCells) {
  for (const char* name :
       {"INVx1", "NAND2x1", "NOR2x1", "XOR2x1", "AOI21x1", "MUX21x1"}) {
    EXPECT_GE(lib().find(name), 0) << name;
  }
  EXPECT_EQ(lib().find("FAKECELL"), -1);
  EXPECT_EQ(lib().cell(lib().inverter_index()).name, "INVx1");
}

TEST(CellLibrary, CellFunctionsCorrect) {
  const auto& nand2 = lib().cell(lib().find("NAND2x1"));
  EXPECT_EQ(nand2.function, 0x7);  // !(ab)
  const auto& xor2 = lib().cell(lib().find("XOR2x1"));
  EXPECT_EQ(xor2.function, 0x6);
  const auto& aoi21 = lib().cell(lib().find("AOI21x1"));
  // !(ab + c): minterms where output is 1: c=0 and !(ab).
  EXPECT_EQ(aoi21.function, 0x07);
}

TEST(CellLibrary, MatchFindsPermutedAndPhasedFunctions) {
  // f = a & !b has no direct cell but matches AND2/NOR2 with a phase.
  const auto m = lib().match(0x2, 2);  // a & !b over 2 vars: minterm a=1,b=0
  ASSERT_GE(m.cell_index, 0);
  // Any match must reproduce the function through its cell.
  const auto& cell = lib().cell(m.cell_index);
  for (int minterm = 0; minterm < 4; ++minterm) {
    int cell_minterm = 0;
    for (int i = 0; i < 2; ++i) {
      const bool x = ((minterm >> i) & 1) != 0;
      if (x != m.input_phase[i]) cell_minterm |= 1 << m.pin_of_input[i];
    }
    const bool expected = (0x2 >> minterm) & 1;
    EXPECT_EQ(static_cast<bool>((cell.function >> cell_minterm) & 1), expected);
  }
}

TEST(CellLibrary, MatchAllTwoVarFunctions) {
  for (int bits = 1; bits < 15; ++bits) {  // skip constants
    if (bits == 0b1010 || bits == 0b0101 || bits == 0b1100 || bits == 0b0011) {
      continue;  // single-variable functions are handled as wires
    }
    EXPECT_GE(lib().match(static_cast<std::uint16_t>(bits), 2).cell_index, 0)
        << "f=" << bits;
  }
}

TEST(TechMap, C17MatchesPaperCalibration) {
  // c17 is 6 NAND2 in 3 levels in the classic netlist; the library's NAND2
  // is calibrated so that cover costs 3.73 um^2 / 18.52 ps like the
  // paper's Table II row. Our delay-oriented mapper may legally trade a
  // little area for equal-or-better delay using complex cells, so assert
  // a band around the calibration point rather than the exact cover.
  const Aig g = circuits::make_benchmark("c17");
  const auto r = techmap::tech_map(g, lib());
  EXPECT_GE(r.area_um2, 3.7);
  EXPECT_LE(r.area_um2, 4.8);
  EXPECT_LE(r.delay_ps, 3 * 6.1733 + 1e-6);  // never slower than 6x NAND2
  EXPECT_GE(r.delay_ps, 15.0);
  EXPECT_GE(r.cell_histogram.at("NAND2x1"), 3);
  // An area-oriented mapping recovers (close to) the classic NAND cover.
  techmap::MapParams area_p;
  area_p.objective = techmap::MapParams::Objective::kArea;
  const auto ra = techmap::tech_map(g, lib(), area_p);
  EXPECT_NEAR(ra.area_um2, 6 * 0.6216, 0.7);
}

TEST(TechMap, SingleGateCircuits) {
  {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    g.add_po(g.and_of(a, b));
    const auto r = techmap::tech_map(g, lib());
    EXPECT_EQ(r.num_cells, 1);
  }
  {
    Aig g;
    const Lit a = g.add_pi();
    g.add_po(aig::lit_not(a));
    const auto r = techmap::tech_map(g, lib());
    EXPECT_EQ(r.num_cells, 1);
    EXPECT_EQ(r.cell_histogram.at("INVx1"), 1);
  }
}

TEST(TechMap, XorUsesXorCell) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  g.add_po(g.xor_of(a, b));
  const auto r = techmap::tech_map(g, lib());
  // 3 AND nodes should collapse into one XOR2 cell.
  EXPECT_EQ(r.num_cells, 1);
  EXPECT_EQ(r.cell_histogram.at("XOR2x1"), 1);
}

TEST(TechMap, MuxAndMajUseDedicatedCells) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit s = g.add_pi();
  g.add_po(g.mux_of(s, a, b));
  g.add_po(g.maj_of(a, b, s));
  const auto r = techmap::tech_map(g, lib());
  EXPECT_EQ(r.cell_histogram.count("MUX21x1") +
                r.cell_histogram.count("MAJ3x1"),
            2u);
}

TEST(TechMap, ConstantAndWireOutputs) {
  Aig g;
  const Lit a = g.add_pi();
  g.add_po(aig::kLitTrue);
  g.add_po(a);
  const auto r = techmap::tech_map(g, lib());
  EXPECT_EQ(r.num_cells, 0);
  EXPECT_DOUBLE_EQ(r.delay_ps, 0.0);
}

TEST(TechMap, SharedLogicCountedOnce) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit shared = g.and_of(a, b);
  g.add_po(g.and_of(shared, c));
  g.add_po(g.and_of(shared, aig::lit_not(c)));
  const auto r = techmap::tech_map(g, lib());
  // The shared AND must not be duplicated arbitrarily: at most 4 cells.
  EXPECT_LE(r.num_cells, 4);
}

TEST(TechMap, DelayObjectiveNoWorseThanAreaObjective) {
  const Aig g = circuits::make_benchmark("c880");
  techmap::MapParams delay_p;
  delay_p.objective = techmap::MapParams::Objective::kDelay;
  techmap::MapParams area_p;
  area_p.objective = techmap::MapParams::Objective::kArea;
  const auto rd = techmap::tech_map(g, lib(), delay_p);
  const auto ra = techmap::tech_map(g, lib(), area_p);
  EXPECT_LE(rd.delay_ps, ra.delay_ps + 1e-9);
  EXPECT_LE(ra.area_um2, rd.area_um2 + 1e-9);
}

TEST(TechMap, AreaScalesWithCircuitSize) {
  const auto small = techmap::tech_map(circuits::make_benchmark("ctrl"), lib());
  const auto large = techmap::tech_map(circuits::make_benchmark("div"), lib());
  EXPECT_GT(large.area_um2, small.area_um2 * 2);
}

TEST(TechMap, EveryBenchmarkMapsCompletely) {
  for (const auto& info : circuits::benchmark_catalog()) {
    const Aig g = circuits::make_benchmark(info.name);
    const auto r = techmap::tech_map(g, lib());
    EXPECT_GT(r.area_um2, 0.0) << info.name;
    EXPECT_GT(r.delay_ps, 0.0) << info.name;
    EXPECT_GT(r.num_cells, 0) << info.name;
  }
}

TEST(TechMap, OptimizedCircuitMapsSmaller) {
  Aig g = circuits::make_benchmark("sqrt");
  const auto before = techmap::tech_map(g, lib());
  clo::opt::run_sequence(
      g, clo::opt::parse_sequence("b;rw;rf;b;rw;rwz;b;rfz;rwz;b"));
  const auto after = techmap::tech_map(g, lib());
  EXPECT_LT(after.area_um2, before.area_um2);
}


TEST(TechMap, RejectsCutWidthsOutsideMatcherRange) {
  // Reduced cut functions are matched as 16-bit tables (<= 4 inputs); a
  // wider cut used to shift past 32 bits and map to a wrong cover.
  const Aig g = circuits::make_benchmark("c432");
  for (int k : {-1, 0, 1, 5, 6}) {
    techmap::MapParams params;
    params.cut_leaves = k;
    EXPECT_THROW(techmap::tech_map(g, lib(), params), std::invalid_argument)
        << "cut_leaves " << k;
  }
  for (int k : {2, 3, 4}) {
    techmap::MapParams params;
    params.cut_leaves = k;
    const auto mapped = techmap::tech_map(g, lib(), params);
    EXPECT_GT(mapped.area_um2, 0.0) << "cut_leaves " << k;
    EXPECT_GT(mapped.delay_ps, 0.0) << "cut_leaves " << k;
  }
}

TEST(Netlist, InstancesRecordedWhenRequested) {
  const Aig g = circuits::make_benchmark("c17");
  techmap::MapParams params;
  params.keep_netlist = true;
  const auto r = techmap::tech_map(g, lib(), params);
  EXPECT_EQ(static_cast<int>(r.instances.size()), r.num_cells);
  EXPECT_EQ(r.po_nets.size(), g.num_pos());
  for (const auto& inst : r.instances) {
    ASSERT_GE(inst.cell_index, 0);
    const auto& cell = lib().cell(inst.cell_index);
    EXPECT_EQ(static_cast<int>(inst.input_nets.size()), cell.num_inputs);
    EXPECT_FALSE(inst.output_net.empty());
    for (const auto& net : inst.input_nets) EXPECT_FALSE(net.empty());
  }
}

TEST(Netlist, VerilogSimulatesCorrectly) {
  // Structural check: every PO net is driven (by an instance output, a PI,
  // or a constant) and the Verilog text contains the right modules.
  const Aig g = circuits::make_benchmark("int2float");
  techmap::MapParams params;
  params.keep_netlist = true;
  const auto r = techmap::tech_map(g, lib(), params);
  std::set<std::string> driven{"const0", "const1"};
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    std::string s = g.pi_name(i);
    for (char& ch : s) {
      if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_') ch = '_';
    }
    driven.insert(s);
  }
  for (const auto& inst : r.instances) driven.insert(inst.output_net);
  for (const auto& po : r.po_nets) {
    EXPECT_TRUE(driven.count(po)) << po;
  }
  for (const auto& inst : r.instances) {
    for (const auto& in : inst.input_nets) {
      EXPECT_TRUE(driven.count(in)) << in;
    }
  }
  std::ostringstream os;
  techmap::write_verilog(r, lib(), g, os);
  const std::string v = os.str();
  EXPECT_NE(v.find("module int2float("), std::string::npos);
  EXPECT_NE(v.find("assign"), std::string::npos);
}

}  // namespace
