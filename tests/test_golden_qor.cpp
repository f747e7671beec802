// Golden QoR corpus: exact synthesis and mapping results for a fixed set of
// generator circuits under seeded random sequences. Every row pins the AND
// count and depth after each transform and the exact bits of the mapped
// area and delay (area- and delay-oriented covers), so any change to the
// rewrite engine or the mapper that alters a single decision fails here.
//
// The corpus lives in tests/data/golden_qor.csv. To regenerate it (only
// when a QoR change is intended), run the test binary with
// CLO_GOLDEN_QOR_OUT=<file>; each circuit's rows are then appended to that
// file instead of being compared.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "clo/circuits/generators.hpp"
#include "clo/opt/transform.hpp"
#include "clo/techmap/tech_map.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;

constexpr int kSequencesPerCircuit = 20;
constexpr int kSequenceLength = 20;
constexpr std::uint64_t kSeedBase = 1000;

std::string hex_bits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

/// One corpus row: circuit,seed,sequence,steps,area-map area,area-map
/// delay,delay-map area,delay-map delay. `steps` is "ands:depth" per
/// transform, space separated.
std::string compute_row(const std::string& circuit, std::uint64_t seed) {
  Rng rng(seed);
  const opt::Sequence seq = opt::random_sequence(kSequenceLength, rng);
  aig::Aig g = circuits::make_benchmark(circuit);
  std::string steps;
  for (opt::Transform t : seq) {
    opt::apply_transform(g, t);
    if (!steps.empty()) steps += ' ';
    steps += std::to_string(g.num_ands()) + ":" + std::to_string(g.depth());
  }
  const auto lib = techmap::CellLibrary::asap7();
  techmap::MapParams area_params;
  area_params.objective = techmap::MapParams::Objective::kArea;
  techmap::MapParams delay_params;
  delay_params.objective = techmap::MapParams::Objective::kDelay;
  const auto by_area = techmap::tech_map(g, lib, area_params);
  const auto by_delay = techmap::tech_map(g, lib, delay_params);
  std::ostringstream row;
  row << circuit << ',' << seed << ',' << opt::sequence_to_string(seq) << ','
      << steps << ',' << hex_bits(by_area.area_um2) << ','
      << hex_bits(by_area.delay_ps) << ',' << hex_bits(by_delay.area_um2)
      << ',' << hex_bits(by_delay.delay_ps);
  return row.str();
}

std::vector<std::string> corpus_rows(const std::string& circuit) {
  std::ifstream in(std::string(CLO_TEST_DATA_DIR) + "/golden_qor.csv");
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, circuit.size() + 1, circuit + ",") == 0) {
      rows.push_back(line);
    }
  }
  return rows;
}

class GoldenQor : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenQor, ReproducesCorpusBitForBit) {
  const std::string circuit = GetParam();
  std::vector<std::string> actual;
  for (int i = 0; i < kSequencesPerCircuit; ++i) {
    actual.push_back(compute_row(circuit, kSeedBase + i));
  }
  if (const char* out = std::getenv("CLO_GOLDEN_QOR_OUT")) {
    std::ofstream file(out, std::ios::app);
    for (const auto& row : actual) file << row << '\n';
    ASSERT_TRUE(file.good()) << "cannot write " << out;
    return;
  }
  const auto expected = corpus_rows(circuit);
  ASSERT_EQ(expected.size(), actual.size())
      << "corpus rows for " << circuit << " missing from golden_qor.csv";
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "row " << i << " of " << circuit;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenQor,
                         ::testing::Values("c17", "ctrl", "router", "c432",
                                           "adder", "bar", "max"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
