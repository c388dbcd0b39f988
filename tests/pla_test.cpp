// Tests for the Berkeley PLA reader/writer and its integration with the
// minimization pipeline.

#include <gtest/gtest.h>

#include "core/minimize.hpp"
#include "core/multi_output.hpp"
#include "tt/function_zoo.hpp"
#include "tt/parse_error.hpp"
#include "tt/pla.hpp"
#include "util/check.hpp"

namespace ovo::tt {
namespace {

const char* kXorPla = R"(# 2-input xor
.i 2
.o 1
.p 2
01 1
10 1
.e
)";

TEST(PlaParse, XorExample) {
  const Pla p = parse_pla(kXorPla);
  EXPECT_EQ(p.num_inputs, 2);
  EXPECT_EQ(p.num_outputs, 1);
  ASSERT_EQ(p.cubes.size(), 2u);
  EXPECT_EQ(p.output_table(0), parity(2));
}

TEST(PlaParse, DontCaresInCubes) {
  const Pla p = parse_pla(".i 3\n.o 1\n1-0 1\n.e\n");
  // Covers assignments with x0=1, x2=0, any x1.
  const TruthTable t = p.output_table(0);
  EXPECT_EQ(t.count_ones(), 2u);
  EXPECT_TRUE(t.get(0b001));
  EXPECT_TRUE(t.get(0b011));
  EXPECT_FALSE(t.get(0b101));
}

TEST(PlaParse, MultiOutput) {
  const Pla p = parse_pla(
      ".i 2\n.o 2\n.ilb a b\n.ob f g\n11 10\n01 01\n10 01\n.e\n");
  EXPECT_EQ(p.input_names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(p.output_names, (std::vector<std::string>{"f", "g"}));
  EXPECT_EQ(p.output_table(0), conjunction(2));  // f = a & b
  EXPECT_EQ(p.output_table(1), parity(2));       // g = a ^ b
  EXPECT_EQ(p.output_tables().size(), 2u);
}

TEST(PlaParse, Errors) {
  EXPECT_THROW(parse_pla(""), util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n01 1\n.e\n"), util::CheckError);  // no .o
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n011 1\n.e\n"), util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n0x 1\n.e\n"), util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n01 2\n.e\n"), util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.p 3\n01 1\n.e\n"),
               util::CheckError);  // .p mismatch
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.e\n01 1\n"), util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.ilb a\n01 1\n.e\n"),
               util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.type fd\n01 1\n.e\n"),
               util::CheckError);
}

// Every malformed input must surface as the typed ParseError (which is-a
// util::CheckError, so the legacy expectations above also hold).
TEST(PlaParse, MalformedFilesThrowTypedError) {
  // Truncated: header only, no .e.
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n01 1\n"), ParseError);
  // Truncated mid-product: cube cut short by the missing tail.
  EXPECT_THROW(parse_pla(".i 4\n.o 1\n01"), ParseError);
  // Non-numeric and junk-suffixed header fields (std::stoi would have
  // thrown std::invalid_argument instead of a parse error).
  EXPECT_THROW(parse_pla(".i x\n.o 1\n.e\n"), ParseError);
  EXPECT_THROW(parse_pla(".i 2z\n.o 1\n01 1\n.e\n"), ParseError);
  EXPECT_THROW(parse_pla(".i -2\n.o 1\n01 1\n.e\n"), ParseError);
  // Out-of-range counts (std::stoi would have thrown std::out_of_range).
  EXPECT_THROW(parse_pla(".i 99999999999999999999\n.o 1\n.e\n"), ParseError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.p 99999999999999999999\n01 1\n.e\n"),
               ParseError);
  // Input count beyond the tabulation limit.
  EXPECT_THROW(parse_pla(".i 1000\n.o 1\n.e\n"), ParseError);
}

TEST(PlaParse, ParseErrorIsACheckError) {
  try {
    parse_pla(".i nope\n.o 1\n.e\n");
    FAIL() << "expected ParseError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("PLA line 1"), std::string::npos);
  }
}

TEST(PlaRoundtrip, WriteParseWrite) {
  const Pla p = parse_pla(kXorPla);
  const std::string text = to_pla(p);
  const Pla q = parse_pla(text);
  EXPECT_EQ(to_pla(q), text);
  EXPECT_EQ(q.output_table(0), p.output_table(0));
}

TEST(PlaIntegration, MinimizeSingleOutput) {
  // The Fig. 1 function as a PLA.
  const Pla p = parse_pla(
      ".i 6\n.o 1\n11---- 1\n--11-- 1\n----11 1\n.e\n");
  EXPECT_EQ(p.output_table(0), pair_sum(3));
  EXPECT_EQ(core::fs_minimize(p.output_table(0)).min_internal_nodes, 6u);
}

TEST(PlaIntegration, SharedMinimizationOfMultiOutputPla) {
  const Pla p = parse_pla(
      ".i 4\n.o 2\n11-- 10\n--11 10\n1-1- 01\n-1-1 01\n.e\n");
  const auto shared = core::fs_minimize_shared(p.output_tables());
  EXPECT_GT(shared.min_internal_nodes, 0u);
  EXPECT_EQ(core::shared_size_for_order(p.output_tables(),
                                        shared.order_root_first),
            shared.min_internal_nodes);
}

}  // namespace
}  // namespace ovo::tt
